"""Runs a workload's passes in one process and writes what it measured.

Started by ``run.py`` in a fresh interpreter, after the inputs exist, so
that its peak resident memory covers the passes and not input generation.
Usage: ``python3 worker.py <workload> <seed> <seconds> <trace 0|1> <workdir> <record.json>``
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import postsamp  # noqa: E402
from postsamp import cli, proplab, regularizers, toy  # noqa: E402

import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Every untraced run measures at least this many passes, so each op is
# timed more than once and artifacts are compared across repeats of the
# same argv.
MIN_PASSES = 2
MAX_PASSES = 50
MB = 1e6


def _run_cli(op) -> dict:
    buffer = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            rc = cli.main(list(op.argv))
    except Exception as exc:  # noqa: BLE001 - one failing op must not stop the pass
        return {"rc": None, "error": repr(exc), "seconds": perf_counter() - start}
    seconds = perf_counter() - start
    record = {"rc": rc, "seconds": seconds}
    lines = buffer.getvalue().strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        summary = {}
    record["results"] = summary.get("results")
    if "error" in summary:
        record["error"] = json.dumps(summary["error"])
    try:
        with open(op.artifact, "rb") as handle:
            payload = handle.read()
        record["sha256"] = hashlib.sha256(payload).hexdigest()
        record["bytes"] = len(payload)
    except OSError:
        record["sha256"] = None
        record["bytes"] = 0
    return record


def _run_sweep(op) -> dict:
    kind_name, mu0, sigma0, P = op.sweep
    start = perf_counter()
    try:
        kind = (regularizers.RegularizerKind.l1_sd(P) if kind_name == "l1sd"
                else regularizers.RegularizerKind.l2(P))
        report = proplab.minimize_regularizer(
            kind, toy.ToyPosterior.single(mu0, sigma0), 0, toy.GeneratorParams(5.0, 5.0)
        )
    except Exception as exc:  # noqa: BLE001 - one failing op must not stop the pass
        return {"error": repr(exc), "seconds": perf_counter() - start}
    seconds = perf_counter() - start
    return {
        "seconds": seconds,
        "mu": float(report.theta_star.mu[0]),
        "sigma": float(report.theta_star.sigma[0]),
        "converged": bool(report.converged),
        "iterations": int(report.iterations),
        "converged_by": getattr(report, "converged_by", None),
    }


def run_pass(ops, tracer=None, only=None) -> list[dict]:
    records = []
    for index, op in enumerate(ops):
        if only is not None and index not in only:
            continue
        if tracer is not None:
            tracer.current_job = index
        # Every op starts from the same collector state; otherwise whether a
        # full collection falls inside an op depends on the ops before it.
        gc.collect()
        record = _run_sweep(op) if op.sweep is not None else _run_cli(op)
        record["op"] = index
        records.append(record)
    return records


def measure(ops, seconds: float, min_passes: int) -> list[list[dict]]:
    """Run whole passes of the op list for about ``seconds``.

    At least ``min_passes`` run; after that another pass starts only if the
    last one's wall time still fits.
    """
    passes: list[list[dict]] = []
    start = perf_counter()
    while len(passes) < MAX_PASSES:
        passes.append(run_pass(ops))
        if len(passes) >= min_passes and perf_counter() - start + _wall(passes[-1]) > seconds:
            break
    return passes


def _wall(records) -> float:
    return sum(r["seconds"] for r in records)


def _per_layer(totals, ceilings, memory, overhead, artifact_bytes) -> dict:
    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m = {}
    philox = ceilings["philox_normals_per_s"]
    m["ceiling.philox_normals_per_s"] = philox
    m["ceiling.fft_s"] = sum(ceilings["fft"][shape] for shape in ceilings["dc_shapes"])
    m["ceiling.eigh_d256_s"] = ceilings["eigh"][256]
    m["ceiling.eigh_d1024_s"] = ceilings["eigh"][1024]
    m["ceiling.eigvalsh_d1024_s"] = ceilings["eigvalsh_d1024"]

    g = totals["streams.generator"]
    m["streams.generator_calls"] = g["calls"]
    m["streams.generator_s"] = g["self_s"]

    g = totals["toy.sample"]
    m["toy.sample_calls"] = g["calls"]
    m["toy.sample_s"] = g["self_s"]
    m["toy.normals_per_s"] = rate(g["counts"].get("normals", 0), g["self_s"])

    g = totals["regularizers.mc"]
    m["regularizers.mc_calls"] = g["calls"]
    m["regularizers.mc_s"] = g["self_s"]
    m["regularizers.mc_normals_per_s"] = rate(g["counts"].get("normals", 0), g["self_s"])
    m["regularizers.mc_rng_ratio"] = m["regularizers.mc_normals_per_s"] / philox
    m["regularizers.mc_peak_mb"] = memory.get("regularizers.mc", 0) / MB

    g = totals["regularizers.closed_form"]
    m["regularizers.closed_form_calls"] = g["calls"]
    m["regularizers.closed_form_s"] = g["self_s"]

    g = totals["proplab.minimize"]
    iterations = g["counts"].get("iterations", 0)
    m["proplab.minimize_calls"] = g["calls"]
    m["proplab.minimize_s"] = g["self_s"]
    m["proplab.iterations"] = iterations
    m["proplab.us_per_iteration"] = 1e6 * rate(g["inclusive_s"], iterations)
    m["proplab.gradient_converged_ratio"] = rate(g["counts"].get("gradient", 0), g["calls"])
    g = totals["proplab.contour"]
    m["proplab.contour_s"] = g["self_s"]
    m["proplab.contour_points_per_s"] = rate(g["counts"].get("points", 0), g["self_s"])

    g = totals["autotune.e_hat"]
    m["autotune.e_hat_calls"] = g["calls"]
    m["autotune.e_hat_s"] = g["self_s"]
    m["autotune.e_hat_items_per_s"] = rate(g["counts"].get("items", 0), g["self_s"])
    m["autotune.epochs"] = totals["autotune.simulate"]["counts"].get("epochs", 0)

    g = totals["verify.check"]
    m["verify.check_calls"] = g["calls"]
    m["verify.self_s"] = totals["_layer_self"].get("verify", 0.0)
    m["verify.passed_ratio"] = rate(g["counts"].get("passed", 0), g["calls"])

    g = totals["detect.estimate"]
    m["detect.calls"] = g["calls"]
    m["detect.s"] = g["self_s"]
    m["detect.samples_per_s"] = rate(g["counts"].get("samples", 0), g["self_s"])

    g = totals["cfid.read"]
    m["cfid.read_s"] = g["self_s"]
    m["cfid.read_mb_per_s"] = rate(g["counts"].get("bytes", 0) / MB, g["self_s"])
    m["cfid.read_peak_mb"] = memory.get("cfid.read", 0) / MB
    g = totals["cfid.stats"]
    m["cfid.stats_s"] = g["self_s"]
    m["cfid.stats_gflops_per_s"] = rate(g["counts"].get("flops", 0) / 1e9, g["self_s"])
    m["cfid.stats_peak_mb"] = memory.get("cfid.stats", 0) / MB
    m["cfid.conditional_s"] = totals["cfid.conditional"]["self_s"]
    g = totals["cfid.sqrtm"]
    m["cfid.sqrtm_calls"] = g["calls"]
    m["cfid.sqrtm_s"] = g["self_s"]
    eigh_floor = sum(ceilings["eigh"][c["dim"]] for c in g["per_call"])
    m["cfid.sqrtm_eigh_ratio"] = rate(g["self_s"], eigh_floor)

    m["linops.load_operator_s"] = totals["linops.load_operator"]["self_s"]
    g = totals["linops.apply"]
    m["linops.apply_calls"] = g["calls"]
    m["linops.apply_s"] = g["self_s"]
    fft_floor = sum(ceilings["fft"][c["shape"]] for c in g["per_call"])
    m["linops.apply_fft_ratio"] = rate(g["self_s"], fft_floor)

    m["cli.self_s"] = totals["_layer_self"].get("cli", 0.0)
    m["cli.artifact_mb"] = artifact_bytes / MB
    m["trace.overhead_ratio"] = overhead
    return m


def _ceilings(totals) -> dict:
    philox, block = probes.philox_normals_per_s()
    dc_shapes = [(coils,) + shape for shape, coils in workloads.DC_SHAPES]
    shapes = set(dc_shapes)
    shapes.update(c["shape"] for c in totals["linops.apply"]["per_call"])
    dims = {256, 1024}
    dims.update(c["dim"] for c in totals["cfid.sqrtm"]["per_call"])
    return {
        "philox_normals_per_s": philox,
        "philox_block_bytes": block,
        "llc_bytes": probes.last_level_cache_bytes(),
        "dc_shapes": dc_shapes,
        "fft": {shape: probes.fft_round_trip_s(shape) for shape in sorted(shapes)},
        "eigh": {dim: probes.eigh_s(dim) for dim in sorted(dims)},
        "eigvalsh_d1024": probes.eigvalsh_s(1024),
    }


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, workdir, out_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    ops = workloads.build(workload, seed, workdir)

    # A traced run needs one untraced pass, as the base of the tracing
    # overhead and as a repeat for the artifact comparison.
    passes = measure(ops, 0.0, 1) if trace else measure(ops, seconds, MIN_PASSES)
    record = {
        "version": postsamp.__version__,
        "untraced_passes": len(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
    }

    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(ops, tracer=tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        totals = tracer.group_totals()

        memory_ops = tracer.jobs_calling(tracing.MEMORY_GROUPS)
        probe = tracing.MemoryProbe()
        probe.install()
        try:
            passes.append(run_pass(ops, only=memory_ops))
        finally:
            probe.uninstall()

        ceilings = _ceilings(totals)
        overhead = _wall(traced) / _wall(passes[0]) - 1.0
        artifact_bytes = sum(r.get("bytes", 0) for r in traced)
        record["per_layer"] = _per_layer(totals, ceilings, probe.peak_bytes, overhead,
                                         artifact_bytes)
        record["ceilings"] = {
            "philox_block_mib": ceilings["philox_block_bytes"] / (1 << 20),
            "llc_mib": ceilings["llc_bytes"] / (1 << 20),
            "fft_s": {"x".join(map(str, k)): v for k, v in ceilings["fft"].items()},
            "eigh_s": ceilings["eigh"],
        }
        record["missing"] = sorted(set(tracer.missing) | set(probe.missing))
        record["counter_errors"] = tracer.counter_errors
        record["spans"] = len(tracer.kind)
        trace_path = os.path.join(ROOT, ".bench_out", f"trace-{workload}.npz")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        tracer.save(trace_path, [op.id for op in ops])
        record["trace_file"] = os.path.relpath(trace_path, ROOT)

    record["machine"] = probes.machine_record()
    record["passes"] = passes
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
