"""Command-line experiment runner emitting reproducible CSV/JSON artifacts.

Figures are data here: grids, curves, and traces land in CSV, scalar
results in JSON, and identical argv (seed included) produces
byte-identical files.  :func:`main` writes every artifact; every CSV
artifact (grids, traces, the gain curve, ``dc`` vectors) is formatted by
one writer, :func:`_csv`, one ``repr`` per value (identical contour rows
are formatted once, with the same bytes).  Timing lives only in the stdout
run summary so it cannot break artifact reproducibility.
Existing outputs are never overwritten without --force.

Exit codes: 0 success, 1 verification or runtime failure (with a JSON
error object on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from itertools import chain

import numpy as np

from . import __version__
from .autotune import psnr_gain_curve, simulate_autotune
from .cfid import cfid, fid
from .detect import logistic_classifier, streamed_plug_in_gap, threshold_classifier
from .linops import (
    complex_from_interleaved,
    data_consistency,
    load_operator,
)
from .proplab import contour_grid
from .regularizers import (
    RegKind,
    RegularizerKind,
    beta_sd_nominal,
    closed_form_j,
    closed_form_l2p,
    closed_form_l2varp,
    mc_losses,
)
from .streams import SeededStream
from .toy import GeneratorParams, ToyPosterior
from .verify import (
    check_average_error_ratio,
    check_mode_collapse,
    check_posterior_recovery,
)

__all__ = ["main"]


class ArtifactExistsError(RuntimeError):
    pass


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"expected comma-separated floats, got {text!r}") from exc


def _parse_int_list(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


def _resolve_beta(beta: str | None, P: int) -> float:
    if beta in (None, "nominal"):
        return beta_sd_nominal(P)
    return float(beta)


def _read_vector_csv(path: str) -> np.ndarray:
    """One value per line (real) or 're,im' per line (complex), one column
    count per file; blank, whitespace-only and '#' lines are skipped."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = [line for line in text.splitlines() if line.strip()[:1] not in ("", "#")]
    if not lines:
        raise ValueError(f"{path}: empty vector file")
    try:
        arr = np.loadtxt(lines, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if arr.shape[1] == 2:
        return complex_from_interleaved(arr.ravel())
    if arr.shape[1] != 1:
        raise ValueError(f"{path}: expected 1 or 2 columns per line")
    return arr[:, 0]


def _csv(chunks, columns: int, header: str = "") -> str:
    """``header``, then each chunk's values row-major, ``columns`` per line.

    Every value is written as its ``repr``, one ``%`` format per chunk;
    chunks hold Python scalars (``tolist``) and whole lines, and only one
    chunk is held as Python objects at a time.  The header goes into the
    one join, so the text is not copied again.
    """
    line = ",".join(["%r"] * columns) + "\n"
    body = ((line * (len(c) // columns)) % tuple(c) for c in chunks)
    return "".join(chain((header,), body))


def _vector_csv(values: np.ndarray) -> str:
    """One value per line, or 're,im' per line for complex values."""
    if np.iscomplexobj(values):
        return _csv([np.column_stack((values.real, values.imag)).ravel().tolist()], 2)
    return _csv([np.asarray(values, dtype=np.float64).tolist()], 1)


def _contour_csv(grid) -> str:
    """The documented two header lines, then one row per sigma value.

    A row whose bits equal the previous row's reuses its text (an objective
    flat in sigma, such as l2var, formats one row); bits, not ``==``, since
    ``repr(-0.0) != repr(0.0)``.
    """
    kind = grid.kind
    beta = kind.beta_sd if kind.beta_sd is not None else 0.0
    header = "# kind=%s mu0=%r sigma0=%r P=%s beta_sd=%r\n" % (
        kind.kind.value, grid.truth[0], grid.truth[1], kind.P, beta,
    )
    columns = grid.mu_axis.size
    header += "sigma\\mu," + _csv([grid.mu_axis.tolist()], columns)
    lines = [header]
    last_bits = None
    for s, row in zip(grid.sigma_axis.tolist(), grid.values):
        bits = row.tobytes()
        if bits != last_bits:
            last_bits, text = bits, _csv([row.tolist()], columns)
        lines += ("%r," % s, text)
    return "".join(lines)


def _trace_csv(trace) -> str:
    values = [v for r in trace.rows for v in (r.epoch, r.beta_sd, r.ratio_db, r.target_db)]
    return _csv([values], 4, "epoch,beta_sd,ratio_db,target_db\n")


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (exit_code, results, csv_text); main
# writes csv_text, or the JSON artifact of results when it is None.
# ---------------------------------------------------------------------------


def _cmd_contours(args) -> tuple[int, dict, str]:
    post = ToyPosterior.single(args.mu0, args.sigma0)
    reg = RegKind(args.kind)
    # --beta defaults to the nominal weight of l1sd; RegularizerKind rejects
    # any weight for the squared-error objectives.
    beta = args.beta
    if reg is RegKind.L1_SD or beta is not None:
        beta = _resolve_beta(beta, args.p)
    kind = RegularizerKind(reg, args.p, beta)
    grid = contour_grid(
        kind,
        post,
        0,
        (args.mu_min, args.mu_max),
        (args.sigma_min, args.sigma_max),
        args.resolution,
    )
    mu_star, sigma_star = grid.argmin_point()
    results = {
        "argmin_mu": mu_star,
        "argmin_sigma": sigma_star,
        "argmin_contains_truth": grid.argmin_contains(args.mu0, args.sigma0),
    }
    return 0, results, _contour_csv(grid)


def _cmd_verify(args) -> tuple[int, dict, None]:
    report = args.check(args.seed, _parse_int_list(args.p_list), args.size)
    results = {
        "name": report.name,
        "passed": report.passed,
        "details": report.details,
    }
    return (0 if report.passed else 1), results, None


def _cmd_autotune_sim(args) -> tuple[int, dict, str]:
    post = ToyPosterior.single(args.mu0, args.sigma0)
    nominal = beta_sd_nominal(args.p_train)
    slope = args.plant_slope if args.plant_slope is not None else args.sigma0 / nominal

    def plant(beta: float) -> float:
        return slope * beta + args.plant_offset

    stream = SeededStream(args.seed if args.seed is not None else 0, ("autotune",))
    trace = simulate_autotune(
        plant,
        post,
        0,
        args.p_val,
        args.epochs,
        args.v,
        args.mu_sd,
        stream,
        p_train=args.p_train,
        beta0=args.beta0,
        tol_db=args.tol_db,
        use_mc=args.mc,
    )
    results = {
        "converged": trace.converged,
        "epochs": len(trace.rows),
        "final_beta_sd": trace.final_beta,
        "target_db": trace.target_db,
        "final_ratio_db": trace.rows[-1].ratio_db,
        "normals": trace.normals,
    }
    return 0, results, _trace_csv(trace)


def _cmd_psnr_curve(args) -> tuple[int, dict, str]:
    curve = psnr_gain_curve(args.pmax)
    values = [v for point in curve for v in point]
    return 0, {"pmax": args.pmax, "final_gain_db": curve[-1][1]}, _csv([values], 2, "P,gain_db\n")


def _cmd_cfid(args) -> tuple[int, dict, None]:
    result = cfid((args.x, args.y, args.xhat), args.p)
    results = {
        "cfid": result.value,
        "cfid_mean": result.parts[0],
        "cfid_cov": result.parts[1],
        "rows": result.diagnostics["rows"],
        "P": args.p,
        "diagnostics": result.diagnostics,
    }
    return 0, results, None


def _cmd_fid(args) -> tuple[int, dict, None]:
    result = fid(args.x, args.xhat)
    results = {
        "fid": result.value,
        "rows_x": result.diagnostics["rows_x"],
        "rows_xhat": result.diagnostics["rows_xhat"],
        "diagnostics": result.diagnostics,
    }
    return 0, results, None


def _cmd_dc(args) -> tuple[int, dict, str]:
    operator = load_operator(args.mask, coils=args.coils)
    x_raw = _read_vector_csv(args.x_raw)
    y = _read_vector_csv(args.y)
    if args.interleaved:
        x_raw = complex_from_interleaved(x_raw)
        y = complex_from_interleaved(y)
    result = data_consistency(operator, x_raw, y)
    residual = float(np.max(np.abs(operator.apply(result) - y)))
    return 0, {"max_residual": residual, "dim": int(result.shape[0])}, _vector_csv(result)


def _cmd_detect(args) -> tuple[int, dict, None]:
    post = ToyPosterior.single(_parse_vector(args.mu0), _parse_vector(args.sigma0))
    if args.coordinate >= post.dim:
        raise ValueError(
            f"coordinate {args.coordinate} is out of range for dimension {post.dim}"
        )
    if args.classifier == "threshold":
        classifier = threshold_classifier(args.coordinate, args.tau)
    else:
        classifier = logistic_classifier(args.coordinate, args.tau, args.scale)
    stream = SeededStream(args.seed, ("detect",))
    # The first value is the detection probability itself.
    probability, c_of_avg = streamed_plug_in_gap(classifier, post, 0, args.p, stream)
    results = {
        "classifier": classifier.descriptor,
        "samples": args.p,
        "probability": probability,
        "plug_in_estimate": c_of_avg,
        "plug_in_gap": probability - c_of_avg,
    }
    return 0, results, None


def _cmd_losses(args) -> tuple[int, dict, None]:
    params = GeneratorParams(_parse_vector(args.mu), _parse_vector(args.sigma))
    post = ToyPosterior.single(_parse_vector(args.mu0), _parse_vector(args.sigma0))
    beta = _resolve_beta(args.beta, args.p)
    stream = SeededStream(args.seed, ("losses",))
    estimates = mc_losses(params, post, 0, args.p, args.n_outer, stream, args.threads)
    results = {name: asdict(est) for name, est in estimates.items()}
    results["closed_form"] = {
        "j": closed_form_j(params, post, 0, args.p, beta),
        "l2p": closed_form_l2p(params, post, 0, args.p),
        "l2varp": closed_form_l2varp(params, post, 0),
        "beta_sd": beta,
    }
    return 0, results, None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub, seed_required: bool | None) -> None:
    """seed_required: True = required, False = optional, None = no seed flag."""
    if seed_required is not None:
        sub.add_argument(
            "--seed", type=int, required=seed_required, default=None,
            help="experiment seed (explicit; no environment fallback)",
        )
    sub.add_argument("--out", required=True, help="artifact output path")
    sub.add_argument(
        "--force", action="store_true", help="overwrite an existing artifact"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postsamp",
        description="Reproducible experiments on diversity-regularized posterior sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contours", help="closed-form objective grid over (mu, sigma)")
    p.add_argument("--kind", choices=[k.value for k in RegKind], required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--beta", default=None,
                   help="'nominal' (the default) or a number; l1sd only")
    p.add_argument("--mu0", type=float, required=True)
    p.add_argument("--sigma0", type=float, required=True)
    p.add_argument("--mu-min", type=float, default=-3.0)
    p.add_argument("--mu-max", type=float, default=3.0)
    p.add_argument("--sigma-min", type=float, default=0.0)
    p.add_argument("--sigma-max", type=float, default=3.0)
    p.add_argument("--resolution", type=int, default=201)
    _add_common(p, seed_required=None)
    p.set_defaults(handler=_cmd_contours)

    # Each check's third argument is its trial count or its validation size.
    for name, text, check, p_list, size_flag, size in (
        ("verify-prop1", "posterior recovery check", check_posterior_recovery,
         "2,3,8", "--trials", 10),
        ("verify-prop2", "mode collapse check", check_mode_collapse,
         "2,3,8", "--trials", 10),
        ("verify-prop3", "averaging error-ratio check", check_average_error_ratio,
         "2,4,8,32", "--v", 100_000),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--p-list", default=p_list)
        p.add_argument(size_flag, dest="size", type=int, default=size)
        _add_common(p, seed_required=True)
        p.set_defaults(handler=_cmd_verify, check=check)

    p = sub.add_parser("autotune-sim", help="closed-loop spread-weight tuning")
    p.add_argument("--p-val", type=int, default=8)
    p.add_argument("--p-train", type=int, default=2)
    p.add_argument("--mu-sd", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--mu0", type=float, default=0.0)
    p.add_argument("--sigma0", type=float, default=1.0)
    p.add_argument("--plant-slope", type=float, default=None,
                   help="spread per unit weight; default sigma0 / nominal")
    p.add_argument("--plant-offset", type=float, default=0.0)
    p.add_argument("--beta0", type=float, default=None)
    p.add_argument("--tol-db", type=float, default=0.1)
    p.add_argument("--mc", action="store_true", help="estimate the ratio by Monte Carlo")
    p.add_argument("--v", type=int, default=10_000, help="validation size for --mc")
    _add_common(p, seed_required=False)
    p.set_defaults(handler=_cmd_autotune_sim)

    p = sub.add_parser("psnr-curve", help="theoretical averaging-gain curve")
    p.add_argument("--pmax", type=int, required=True)
    _add_common(p, seed_required=None)
    p.set_defaults(handler=_cmd_psnr_curve)

    p = sub.add_parser("cfid", help="conditional Frechet distance from embedding files")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--xhat", required=True)
    p.add_argument("--p", type=int, default=1, help="repetition count per measurement")
    _add_common(p, seed_required=None)
    p.set_defaults(handler=_cmd_cfid)

    p = sub.add_parser("fid", help="unconditional Frechet distance from embedding files")
    p.add_argument("--x", required=True)
    p.add_argument("--xhat", required=True)
    _add_common(p, seed_required=None)
    p.set_defaults(handler=_cmd_fid)

    p = sub.add_parser("dc", help="data-consistency projection")
    p.add_argument("--mask", required=True, help="mask file (N=... or DIMS=... header)")
    p.add_argument("--coils", type=int, default=1)
    p.add_argument("--x-raw", required=True, help="raw vector CSV (value or re,im per line)")
    p.add_argument("--y", required=True, help="measurement vector CSV")
    p.add_argument("--interleaved", action="store_true",
                   help="inputs are interleaved re/im single-column vectors")
    _add_common(p, seed_required=None)
    p.set_defaults(handler=_cmd_dc)

    p = sub.add_parser("detect", help="calibrated detection probability from samples")
    p.add_argument("--mu0", required=True, help="comma-separated posterior mean")
    p.add_argument("--sigma0", required=True, help="comma-separated posterior spread")
    p.add_argument("--classifier", choices=("threshold", "logistic"), default="threshold")
    p.add_argument("--coordinate", type=int, default=0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--p", type=int, default=1_000_000, help="number of posterior samples")
    _add_common(p, seed_required=True)
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("losses", help="Monte Carlo and closed-form loss values")
    p.add_argument("--mu", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--mu0", required=True)
    p.add_argument("--sigma0", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--beta", default="nominal")
    p.add_argument("--n-outer", type=int, default=100_000)
    p.add_argument(
        "--threads", type=int, default=None,
        help="cap on the worker threads for Monte Carlo draw units (default: the "
        "usable CPU count; always capped at it and at the unit count; results "
        "are identical for any N)",
    )
    _add_common(p, seed_required=True)
    p.set_defaults(handler=_cmd_losses)

    return parser


def main(argv: list | None = None) -> int:
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(raw_argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0

    start = time.perf_counter()
    summary = {"version": __version__, "argv": raw_argv, "seed": getattr(args, "seed", None)}
    try:
        exit_code, results, text = args.handler(args)
        if text is None:  # a JSON artifact: the summary's identity fields and results
            text = json.dumps({**summary, "results": results}, sort_keys=True, indent=2) + "\n"
        if os.path.exists(args.out) and not args.force:
            raise ArtifactExistsError(
                f"refusing to overwrite existing artifact {args.out!r}; pass --force"
            )
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        exit_code = 1
        summary.update(status="error", error={"type": type(exc).__name__, "message": str(exc)})
    else:
        status = "ok" if exit_code == 0 else "failed"
        summary.update(status=status, artifacts=[args.out], results=results)
    summary["wall_time_ms"] = (time.perf_counter() - start) * 1000.0
    print(json.dumps(summary, sort_keys=True))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
