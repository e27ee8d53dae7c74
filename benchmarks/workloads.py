"""The three benchmark workloads: job lists, generated inputs, references, checks.

A workload is a fixed list of ops run back to back in one process.  An op
is one CLI job (``postsamp.cli.main(argv)``) or one sweep minimization
(``postsamp.proplab.minimize_regularizer``).  Everything a workload needs
is derived from its seed: CLI seeds, generated parameter vectors and the
embedding, mask and vector files of ``linalg``.

The references here are computed by the benchmark itself from the inputs
it generated, with plain numpy/scipy formulas.  They test the program and
do not replace the program's own checks.  The parent process computes
them, so the process being measured never holds them in memory.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf, ndtr

WORKLOADS = ("montecarlo", "closedform", "linalg")

# Sweep points (mu0, sigma0, P) for minimize_regularizer from init (5, 5).
# They span the posterior scales where the gradient-descent solver is known
# to fail; keep them fixed so failures stay visible.
SWEEP_POINTS = (
    (0.0, 1.0, 2),
    (1e4, 1.0, 2),
    (0.0, 1e3, 2),
    (0.0, 1e3, 8),
    (0.0, 100.0, 8),
    (-50.0, 1e-3, 2),
    (0.0, 1e-6, 64),
    (3.0, 0.1, 64),
    (1e3, 10.0, 8),
)

# Acceptance thresholds: verify-prop1/2 tolerances and the check list in
# README.md.
N_SE = 4.0
REL_TOL = 1e-3
SIGMA_FACTOR = 1e-4
FRECHET_RTOL = 1e-8
DC_ATOL = 1e-10

# linalg sizes.
CFID_SMALL = dict(distinct=4096, P=4, dim=256, y_rank=128)
CFID_LARGE = dict(distinct=4096, P=1, dim=1024, y_rank=1024)
DC_SHAPES = (((256, 256), 4), ((320, 320), 1))
DC_KEEP_FRACTION = 0.25

_EMB_MAGIC = b"EMB1"


@dataclass
class Op:
    """One unit of work: a CLI argv or a sweep minimization."""

    id: str
    group: str
    argv: list | None = None
    artifact: str | None = None
    sweep: tuple | None = None  # (kind, mu0, sigma0, P)
    ref: dict = field(default_factory=dict)


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in np.atleast_1d(values))


def _rng(workload: str, seed: int, *labels) -> np.random.Generator:
    digest = hashlib.sha256(repr((workload, int(seed)) + labels).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "little"))


def _cli(op_id: str, group: str, argv: list, out_dir: str, ext: str, **ref) -> Op:
    artifact = os.path.join(out_dir, f"{op_id}.{ext}")
    return Op(op_id, group, argv + ["--out", artifact, "--force"], artifact, ref=ref)


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """The op list of one workload; pure function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out = os.path.join(workdir, "artifacts")
    return {"montecarlo": _montecarlo, "closedform": _closedform, "linalg": _linalg}[
        workload
    ](int(seed), workdir, out)


def _montecarlo(seed: int, workdir: str, out: str) -> list[Op]:
    s = str(seed)
    ops = []
    for P, n_outer in ((2, 1_000_000), (8, 300_000), (32, 100_000)):
        ops.append(
            _cli(
                f"losses-d1-p{P}", "losses",
                ["losses", "--mu", "0", "--sigma", "1", "--mu0", "0", "--sigma0", "1",
                 "--p", str(P), "--n-outer", str(n_outer), "--seed", s],
                out, "json", mu=[0.0], sigma=[1.0], mu0=[0.0], sigma0=[1.0], P=P,
            )
        )
    rng = _rng("montecarlo", seed, "wide")
    mu0 = rng.normal(0.0, 1.0, 64)
    sigma0 = rng.uniform(0.5, 2.0, 64)
    mu = mu0 + rng.normal(0.0, 0.5, 64)
    sigma = rng.uniform(0.5, 2.0, 64)
    for threads in (1, 2):
        ops.append(
            _cli(
                f"losses-d64-p8-t{threads}", "losses",
                # "--flag=value": a value may start with "-".
                ["losses", f"--mu={_fmt(mu)}", f"--sigma={_fmt(sigma)}", f"--mu0={_fmt(mu0)}",
                 f"--sigma0={_fmt(sigma0)}", "--p", "8", "--n-outer", "65536",
                 "--threads", str(threads), "--seed", s],
                out, "json", mu=mu.tolist(), sigma=sigma.tolist(), mu0=mu0.tolist(),
                sigma0=sigma0.tolist(), P=8,
            )
        )
    ops.append(_cli("verify-prop3", "verify_prop3",
                    ["verify-prop3", "--v", "1000000", "--seed", s], out, "json"))
    ops.append(
        _cli(
            "detect", "detect",
            ["detect", "--mu0", "1,0", "--sigma0", "1,2", "--p", "10000000",
             "--classifier", "threshold", "--seed", s],
            out, "json", mu0=1.0, sigma0=1.0, tau=0.0, n=10_000_000,
        )
    )
    ops.append(_cli("autotune-mc", "autotune_mc",
                    ["autotune-sim", "--mc", "--v", "1000000", "--beta0", "0.2", "--seed", s],
                    out, "csv"))
    return ops


def _closedform(seed: int, workdir: str, out: str) -> list[Op]:
    s = str(seed)
    rng = _rng("closedform", seed, "contours")
    mu0 = round(float(rng.uniform(-2.0, 2.0)), 6)
    sigma0 = round(float(rng.uniform(0.5, 2.5)), 6)
    ops = [
        _cli("verify-prop1", "verify_prop1", ["verify-prop1", "--seed", s], out, "json"),
        _cli("verify-prop2", "verify_prop2",
             ["verify-prop2", "--trials", "200", "--seed", s], out, "json"),
    ]
    for kind, P in (("l1sd", 2), ("l2", 8), ("l2var", 8)):
        ops.append(
            _cli(
                f"contours-{kind}", "contours",
                ["contours", "--kind", kind, "--p", str(P), f"--mu0={mu0!r}",
                 f"--sigma0={sigma0!r}", "--resolution", "601"],
                out, "csv", kind=kind, mu0=mu0, sigma0=sigma0, resolution=601,
            )
        )
    ops.append(_cli("autotune-sim", "autotune", ["autotune-sim", "--seed", s], out, "csv"))
    ops.append(_cli("psnr-curve", "psnr", ["psnr-curve", "--pmax", "4096"], out, "csv",
                    pmax=4096))
    for kind in ("l1sd", "l2"):
        for mu0_s, sigma0_s, P in SWEEP_POINTS:
            ops.append(
                Op(f"sweep-{kind}-{mu0_s:g}-{sigma0_s:g}-{P}", "scale_sweep",
                   sweep=(kind, mu0_s, sigma0_s, P))
            )
    return ops


def _linalg(seed: int, workdir: str, out: str) -> list[Op]:
    inp = os.path.join(workdir, "inputs")
    ops = []
    for tag, P in (("d256", CFID_SMALL["P"]), ("d1024", CFID_LARGE["P"])):
        files = [os.path.join(inp, f"{name}_{tag}.emb") for name in ("x", "y", "xhat")]
        ops.append(
            _cli(f"cfid-{tag}", "cfid",
                 ["cfid", "--x", files[0], "--y", files[1], "--xhat", files[2],
                  "--p", str(P)], out, "json", tag=tag)
        )
        if tag == "d1024":
            ops.append(
                _cli("fid-d1024", "fid",
                     ["fid", "--x", files[0], "--xhat", files[2]], out, "json", tag=tag)
            )
    for (h, w), coils in DC_SHAPES:
        tag = f"{h}x{w}c{coils}"
        ops.append(
            _cli(f"dc-{tag}", "dc",
                 ["dc", "--mask", os.path.join(inp, f"mask_{tag}.txt"),
                  "--coils", str(coils),
                  "--x-raw", os.path.join(inp, f"xraw_{tag}.csv"),
                  "--y", os.path.join(inp, f"y_{tag}.csv")],
                 out, "csv", tag=tag)
        )
    return ops


# ---------------------------------------------------------------------------
# Input generation and references (linalg); closed forms (montecarlo)
# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int, workdir: str, ops: list[Op]) -> None:
    """Write the workload's input files and fill in each op's reference."""
    os.makedirs(os.path.join(workdir, "artifacts"), exist_ok=True)
    if workload != "linalg":
        return
    inp = os.path.join(workdir, "inputs")
    os.makedirs(inp, exist_ok=True)
    by_id = {op.id: op for op in ops}
    for tag, cfg in (("d256", CFID_SMALL), ("d1024", CFID_LARGE)):
        x, y, xhat = _embeddings(_rng("linalg", seed, tag), **cfg)
        for name, matrix in (("x", x), ("y", y), ("xhat", xhat)):
            _write_emb(os.path.join(inp, f"{name}_{tag}.emb"), matrix)
        by_id[f"cfid-{tag}"].ref["cfid"] = reference_cfid(x, y, xhat)
        if tag == "d1024":
            by_id["fid-d1024"].ref["fid"] = reference_fid(x, xhat)
        del x, y, xhat
    for (h, w), coils in DC_SHAPES:
        tag = f"{h}x{w}c{coils}"
        rng = _rng("linalg", seed, tag)
        kept = np.sort(rng.choice(h * w, int(h * w * DC_KEEP_FRACTION), replace=False))
        with open(os.path.join(inp, f"mask_{tag}.txt"), "w", encoding="utf-8") as handle:
            handle.write(f"DIMS={h}x{w}\n")
            handle.write("".join(f"{int(i)}\n" for i in kept))
        keep = np.zeros(h * w)
        keep[kept] = 1.0
        keep = keep.reshape(h, w)
        n = coils * h * w
        x_true = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x_raw = x_true + 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        y = fft_projection(x_true, keep, coils)
        _write_complex_csv(os.path.join(inp, f"xraw_{tag}.csv"), x_raw)
        _write_complex_csv(os.path.join(inp, f"y_{tag}.csv"), y)
        expected = x_raw - fft_projection(x_raw, keep, coils) + fft_projection(y, keep, coils)
        ref_path = os.path.join(inp, f"expected_{tag}.npy")
        np.save(ref_path, expected)
        by_id[f"dc-{tag}"].ref["expected"] = ref_path


def _embeddings(rng, distinct: int, P: int, dim: int, y_rank: int):
    """Row-aligned (x, y, xhat) under the repetition convention.

    ``y`` has ``dim`` columns spanning ``y_rank`` directions, so S_yy has
    rank ``y_rank`` by construction.  ``xhat`` draws P distinct samples per
    measurement from a slightly wrong conditional, so the distance is
    well above rounding.
    """
    scales = rng.uniform(0.5, 2.0, dim)
    x0 = rng.standard_normal((distinct, dim)) * scales
    z = x0 @ (rng.standard_normal((dim, y_rank)) / math.sqrt(dim))
    z += 0.3 * rng.standard_normal(z.shape)
    if y_rank < dim:
        y0 = np.hstack([z, z @ (rng.standard_normal((y_rank, dim - y_rank)) / math.sqrt(y_rank))])
    else:
        y0 = z
    x = np.repeat(x0, P, axis=0)
    y = np.repeat(y0, P, axis=0)
    xhat = 0.8 * x + 0.1 + 0.7 * rng.standard_normal(x.shape)
    return x, y, xhat


def _write_emb(path: str, matrix: np.ndarray) -> None:
    rows, cols = matrix.shape
    with open(path, "wb") as handle:
        handle.write(_EMB_MAGIC + struct.pack("<IIB3x", rows, cols, 1))
        handle.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())


def _write_complex_csv(path: str, values: np.ndarray) -> None:
    pairs = zip(values.real.tolist(), values.imag.tolist())
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("".join(f"{real!r},{imag!r}\n" for real, imag in pairs))


def read_complex_csv(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        parts = np.array(re.split(r"[,\s]+", handle.read().strip()), dtype=np.float64)
    return parts[0::2] + 1j * parts[1::2]


def fft_projection(values: np.ndarray, keep: np.ndarray, coils: int) -> np.ndarray:
    """A x for A = F^H diag(keep) F per coil, with numpy.fft."""
    blocks = values.reshape((coils,) + keep.shape)
    spectrum = np.fft.fft2(blocks, norm="ortho") * keep
    return np.fft.ifft2(spectrum, norm="ortho").reshape(-1)


def _centered(a: np.ndarray) -> np.ndarray:
    return a - a.mean(axis=0)


def _trace_sqrt_product(a: np.ndarray, b: np.ndarray) -> float:
    """tr (A^1/2 B A^1/2)^1/2 as the sum of sqrt eigvalsh(L^T B L), A = L L^T."""
    lower = np.linalg.cholesky(a)
    eigenvalues = np.linalg.eigvalsh(lower.T @ b @ lower)
    return float(np.sqrt(np.clip(eigenvalues, 0.0, None)).sum())


def _covariance_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.trace(a) + np.trace(b) - 2.0 * _trace_sqrt_product(a, b))


def reference_cfid(x: np.ndarray, y: np.ndarray, xhat: np.ndarray) -> float:
    n = x.shape[0]
    xc, yc, hc = _centered(x), _centered(y), _centered(xhat)
    w, v = np.linalg.eigh(yc.T @ yc / n)
    keep = w > 1e-10 * w[-1]
    # S_yy^+ = U U^T with U = V diag(w^-1/2) on the kept directions.
    u = v[:, keep] / np.sqrt(w[keep])
    x_y = xc.T @ yc @ u / n
    h_y = hc.T @ yc @ u / n
    a = xc.T @ xc / n - x_y @ x_y.T
    b = hc.T @ hc / n - h_y @ h_y.T
    gap = x.mean(axis=0) - xhat.mean(axis=0)
    mean_part = float(gap @ gap) + float(np.sum((x_y - h_y) ** 2))
    return mean_part + _covariance_gap(0.5 * (a + a.T), 0.5 * (b + b.T))


def reference_fid(x: np.ndarray, xhat: np.ndarray) -> float:
    n, m = x.shape[0], xhat.shape[0]
    xc, hc = _centered(x), _centered(xhat)
    gap = x.mean(axis=0) - xhat.mean(axis=0)
    return float(gap @ gap) + _covariance_gap(xc.T @ xc / n, hc.T @ hc / m)


def folded_normal_mean(delta: np.ndarray, s: np.ndarray) -> np.ndarray:
    r = delta / s
    return s * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * r * r) + delta * erf(r / math.sqrt(2.0))


def losses_reference(ref: dict) -> dict:
    """Expected values of the four Monte Carlo losses for the Gaussian toy model."""
    mu, sigma = np.asarray(ref["mu"]), np.asarray(ref["sigma"])
    mu0, sigma0 = np.asarray(ref["mu0"]), np.asarray(ref["sigma0"])
    P = ref["P"]
    delta = mu - mu0
    s = np.sqrt(sigma0**2 + sigma**2 / P)
    return {
        "l1p": float(folded_normal_mean(delta, s).sum()),
        "lsdp": float(sigma.sum()),
        "l2p": float((delta**2).sum() + (sigma**2).sum() / P + (sigma0**2).sum()),
        "lvarp": float((sigma**2).sum()),
    }


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check(op: Op, record: dict) -> list[str]:
    """Problems with one op's outcome in one pass; empty means it passed.

    ``record`` is the worker's record of the op: ``rc`` and ``results`` for
    CLI jobs, the optimizer's report for sweep ops.
    """
    if op.sweep is not None:
        return _check_sweep(op, record)
    if record.get("rc") != 0:
        return [f"exit code {record.get('rc')}: {record.get('error', '')}"[:300]]
    return _CHECKS[op.group](op, record.get("results") or {})


def check_artifact(op: Op) -> list[str]:
    """Problems with the content of an op's artifact file.

    Artifacts are byte-identical across passes (the worker compares their
    hashes), so one look at the file covers every pass.
    """
    if op.group == "contours":
        with open(op.artifact, "r", encoding="utf-8") as handle:
            lines = handle.read().count("\n")
        if lines != op.ref["resolution"] + 2:
            return [f"contour CSV has {lines} lines, expected resolution + 2"]
    if op.group == "dc":
        expected = np.load(op.ref["expected"])
        got = read_complex_csv(op.artifact)
        if got.shape != expected.shape:
            return [f"output has {got.size} entries, expected {expected.size}"]
        err = float(np.max(np.abs(got - expected)))
        if err > DC_ATOL:
            return [f"output differs from the numpy.fft projection by {err:.3e}"]
    return []


def _check_losses(op, results):
    problems = []
    for name, expected in losses_reference(op.ref).items():
        est = results.get(name) or {}
        value, se = est.get("value"), est.get("std_error")
        if value is None or se is None or abs(value - expected) > N_SE * se:
            problems.append(f"{name}={value} se={se} vs closed form {expected}")
    return problems


def _check_passed(op, results):
    return [] if results.get("passed") is True else ["verification reported passed=false"]


def _check_detect(op, results):
    expected = float(ndtr((op.ref["mu0"] - op.ref["tau"]) / op.ref["sigma0"]))
    se = math.sqrt(expected * (1.0 - expected) / op.ref["n"])
    value = results.get("probability")
    if value is None or abs(value - expected) > N_SE * se:
        return [f"probability {value} vs Gaussian CDF {expected} (se {se:.2e})"]
    return []


def _check_converged(op, results):
    return [] if results.get("converged") is True else ["autotune did not converge"]


def _check_contours(op, results):
    ref = op.ref
    if ref["kind"] == "l1sd" and results.get("argmin_contains_truth") is not True:
        return [f"l1sd argmin ({results.get('argmin_mu')}, {results.get('argmin_sigma')}) "
                "misses the truth"]
    if ref["kind"] == "l2" and results.get("argmin_sigma") != 0.0:
        return [f"l2 argmin sigma {results.get('argmin_sigma')} is not 0"]
    if ref["kind"] == "l2var":
        # Default mu axis [-3, 3]; the objective is flat in sigma, so only mu
        # is identified.
        spacing = 6.0 / (ref["resolution"] - 1)
        argmin_mu = results.get("argmin_mu")
        if argmin_mu is None or abs(argmin_mu - ref["mu0"]) > spacing:
            return [f"l2var argmin mu {argmin_mu} misses mu0"]
    return []


def _check_psnr(op, results):
    P = op.ref["pmax"]
    expected = 10.0 * math.log10(2.0 * P / (P + 1))
    value = results.get("final_gain_db")
    if value is None or abs(value - expected) > 1e-12:
        return [f"final gain {value} dB vs {expected} dB"]
    return []


def _relative_ok(value, expected) -> bool:
    return value is not None and abs(value - expected) <= FRECHET_RTOL * abs(expected)


def _check_cfid(op, results):
    value, expected = results.get("cfid"), op.ref["cfid"]
    return [] if _relative_ok(value, expected) else [f"cfid {value} vs eigvalsh {expected}"]


def _check_fid(op, results):
    value, expected = results.get("fid"), op.ref["fid"]
    return [] if _relative_ok(value, expected) else [f"fid {value} vs eigvalsh {expected}"]


def _check_dc(op, results):
    residual = results.get("max_residual")
    if residual is None or residual > DC_ATOL:
        return [f"max residual {residual} > {DC_ATOL}"]
    return []


def _check_sweep(op, record):
    if "error" in record:
        return [f"raised {record['error']}"[:300]]
    kind, mu0, sigma0, _P = op.sweep
    mu_err = abs(record["mu"] - mu0) / max(1.0, abs(mu0))
    if not record["converged"]:
        return [f"not converged after {record['iterations']} iterations"]
    if kind == "l1sd":
        sigma_err = abs(record["sigma"] - sigma0) / sigma0
        if mu_err > REL_TOL or sigma_err > REL_TOL:
            return [f"relative error mu {mu_err:.2e} sigma {sigma_err:.2e} > {REL_TOL}"]
        return []
    if record["sigma"] > SIGMA_FACTOR * sigma0 or mu_err > REL_TOL:
        return [f"sigma* {record['sigma']:.3e} > {SIGMA_FACTOR} sigma0 or mu error {mu_err:.2e}"]
    return []


_CHECKS = {
    "losses": _check_losses,
    "verify_prop1": _check_passed,
    "verify_prop2": _check_passed,
    "verify_prop3": _check_passed,
    "detect": _check_detect,
    "autotune_mc": _check_converged,
    "autotune": _check_converged,
    "contours": _check_contours,
    "psnr": _check_psnr,
    "cfid": _check_cfid,
    "fid": _check_fid,
    "dc": _check_dc,
}
