"""postsamp lab benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 benchmarks/run.py --workload montecarlo --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from the seed, its op list is run in
passes in a separate worker process for about ``--seconds`` seconds, every
op's output is checked against a reference computed here, and the metrics
are printed, one per line with units, followed by a JSON object on the
last line.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` adds a traced pass, a memory pass and the ceiling probes and
reports the per-layer metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Fresh-interpreter set-up probes, taken before and after the passes so
# that one slow spell on the machine does not set the median.
SETUP_PROBES_BEFORE = 4
SETUP_PROBES_AFTER = 3
# The worker is stopped if it runs past the measured time plus this margin
# (for passes that overrun, a traced run's extra passes and the probes);
# a run then fails with a message instead of hanging.
WORKER_MARGIN_S = 120
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import postsamp.cli\n"
    "postsamp.cli.build_parser()\n"
    "print(repr(time.perf_counter() - start))\n"
)

# Job groups whose summed wall time is printed as <group>_s; the
# closedform coverage jobs (autotune-sim, psnr-curve) are left out.
PRINTED_GROUPS = (
    "losses", "verify_prop3", "detect", "autotune_mc",
    "verify_prop1", "verify_prop2", "contours", "scale_sweep",
    "cfid", "fid", "dc",
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _setup_seconds(count: int) -> list[float]:
    """Fresh interpreters, each timing ``import postsamp`` plus the CLI parser."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=_env(),
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _evaluate(ops, record) -> tuple[int, int, list[str], bool]:
    """(attempted, failed, problems, reproducible) over every pass."""
    attempted = failed = 0
    problems = []
    artifact_problems = {}
    hashes = defaultdict(set)
    for records in record["passes"]:
        for rec in records:
            op = ops[rec["op"]]
            attempted += 1
            issues = workloads.check(op, rec)
            if op.artifact is not None and not issues:
                if op.id not in artifact_problems:
                    artifact_problems[op.id] = workloads.check_artifact(op)
                issues = artifact_problems[op.id]
                hashes[op.id].add(rec.get("sha256"))
            if issues:
                failed += 1
                problems.append(f"{op.id}: {'; '.join(issues)}")
    reproducible = True
    for op_id, seen in sorted(hashes.items()):
        if len(seen) != 1 or None in seen:
            reproducible = False
            problems.append(f"{op_id}: artifact differs across repeats of the same argv")
    # --threads must not change losses results.
    by_id = {op.id: i for i, op in enumerate(ops)}
    pair = [by_id.get(f"losses-d64-p8-t{t}") for t in (1, 2)]
    if None not in pair:
        for records in record["passes"]:
            got = {rec["op"]: rec.get("results") for rec in records}
            if pair[0] in got and pair[1] in got and got[pair[0]] != got[pair[1]]:
                reproducible = False
                problems.append("losses-d64-p8: --threads 2 results differ from --threads 1")
    return attempted, failed, sorted(set(problems)), reproducible


def _op_minimums(record) -> dict:
    """Each op's least wall time over the untraced passes."""
    times = defaultdict(list)
    for records in record["passes"][: record["untraced_passes"]]:
        for rec in records:
            times[rec["op"]].append(rec["seconds"])
    return {op: min(t) for op, t in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "postsamp", "__init__.py")):
        print(f"error: no postsamp sources under {SRC}", file=sys.stderr)
        return 2
    declared = _declared()

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        workloads.prepare(args.workload, args.seed, workdir, ops)
        setup = _setup_seconds(SETUP_PROBES_BEFORE)
        record_path = os.path.join(workdir, "record.json")
        timeout = args.seconds + WORKER_MARGIN_S
        try:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
                 str(args.seed), str(args.seconds), str(args.trace), workdir, record_path],
                cwd=ROOT, env=_env(), timeout=timeout,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
        except subprocess.TimeoutExpired:
            print(f"error: worker still running after {timeout:g} s; stopped", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"error: worker exited with {done.returncode}\n{done.stderr[-4000:]}",
                  file=sys.stderr)
            return 1
        setup += _setup_seconds(SETUP_PROBES_AFTER)
        with open(record_path, encoding="utf-8") as handle:
            record = json.load(handle)
        attempted, failed, problems, reproducible = _evaluate(ops, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [sum(rec["seconds"] for rec in records)
             for records in record["passes"][: record["untraced_passes"]]]
    fastest = _op_minimums(record)
    groups = defaultdict(float)
    for op, seconds in fastest.items():
        groups[ops[op].group] += seconds
    e2e = {
        "setup_s": statistics.median(setup),
        # One pass of the job list, each op at its least time over the
        # passes: the machine is shared, and a slow spell only adds time.
        "wall_s": sum(fastest.values()),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    machine = record["machine"]
    print(f"# postsamp {record['version']} workload={args.workload} seed={args.seed} "
          f"passes={len(walls)} ops/pass={len(ops)}")
    print(f"# machine: {json.dumps(machine, sort_keys=True)}")
    print(f"# setup_s samples: {' '.join(f'{t:.4f}' for t in setup)}")
    print(f"# pass wall samples: {' '.join(f'{t:.4f}' for t in walls)}")
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {declared['end_to_end'][name]}")
    print(f"failed_ratio {failed / attempted:.6g} ratio ({failed}/{attempted} ops)")
    for group in PRINTED_GROUPS:
        if group in groups:
            print(f"{group}_s {groups[group]:.6g} s")
    for problem in problems:
        print(f"# FAILED {problem}")

    if args.trace:
        per_layer = record["per_layer"]
        for name, unit in declared["per_layer"].items():
            print(f"{name} {per_layer[name]:.6g} {unit}")
        print(f"# ceilings: {json.dumps(record['ceilings'], sort_keys=True)}")
        print(f"# spans: {record['spans']} written to {record['trace_file']}")
        if record["missing"]:
            print(f"# missing traced names: {', '.join(record['missing'])}")
        if record["counter_errors"]:
            print(f"# counter errors: {json.dumps(record['counter_errors'], sort_keys=True)}")
        values, units = per_layer, declared["per_layer"]
    else:
        values, units = e2e, declared["end_to_end"]

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "machine.json"), "w", encoding="utf-8") as handle:
        json.dump(machine, handle, indent=2, sort_keys=True)
    result = {
        "correct": reproducible,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
