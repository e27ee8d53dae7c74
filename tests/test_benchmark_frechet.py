"""CLI cfid/fid agree with the benchmark's own reference evaluations.

``benchmarks/workloads.py`` checks every ``linalg`` run against
``reference_cfid``/``reference_fid`` (Cholesky of A, ``eigvalsh`` of
L^T B L).  Running that check on small inputs from the same generator,
including a measurement block whose covariance is rank-deficient, keeps
the benchmark's correctness gate exercised on every test run.  The same
generator also feeds pins of the CLI artifacts' ``results`` text, so a
refactor of the Frechet code that moves any bit of a value or a
diagnostic fails here.  The module is imported read-only.
"""

import importlib
import json
import os
import sys

import numpy as np
import pytest

from postsamp.cfid import write_embeddings
from postsamp.cli import main

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    yield importlib.import_module("workloads")
    sys.modules.pop("workloads", None)


def _results(capsys, argv):
    code = main(argv)
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0, summary
    return summary["results"]


@pytest.mark.parametrize(
    "distinct, P, dim, y_rank",
    [(96, 1, 12, 12), (64, 4, 16, 8)],
    ids=["full-rank", "rank-deficient-s_yy"],
)
def test_cli_frechet_matches_benchmark_reference(
    workloads, tmp_path, capsys, distinct, P, dim, y_rank
):
    rng = np.random.default_rng(distinct * 1000 + dim)
    x, y, xhat = workloads._embeddings(rng, distinct=distinct, P=P, dim=dim, y_rank=y_rank)
    paths = {}
    for name, matrix in (("x", x), ("y", y), ("xhat", xhat)):
        paths[name] = str(tmp_path / f"{name}.emb")
        write_embeddings(paths[name], matrix)

    results = _results(capsys, [
        "cfid", "--x", paths["x"], "--y", paths["y"], "--xhat", paths["xhat"],
        "--p", str(P), "--out", str(tmp_path / "cfid.json"),
    ])
    assert results["cfid"] == pytest.approx(workloads.reference_cfid(x, y, xhat), rel=1e-10)
    assert results["diagnostics"]["s_yy"]["kept"] == y_rank
    assert results["diagnostics"]["s_yy"]["dropped"] == dim - y_rank

    results = _results(capsys, [
        "fid", "--x", paths["x"], "--xhat", paths["xhat"], "--out", str(tmp_path / "fid.json"),
    ])
    assert results["fid"] == pytest.approx(workloads.reference_fid(x, xhat), rel=1e-10)


def _write_csv_embeddings(path, matrix):
    header = ",".join(f"col{i}" for i in range(matrix.shape[1]))
    lines = [",".join(repr(value) for value in row) for row in matrix.tolist()]
    path.write_text("\n".join([header, *lines]) + "\n")


# (command, seed, distinct, P, dim, y_rank, inputs written as CSV)
PIN_CASES = {
    "cfid-rank-deficient-s_yy-p4": ("cfid", 3, 24, 4, 6, 3, ()),
    "cfid-csv-x": ("cfid", 4, 40, 1, 5, 5, ("x",)),
    "cfid-fewer-rows-than-dims": ("cfid", 5, 8, 1, 4, 1, ("y",)),
    "fid-self-clamped": ("fid", 0, 24, 2, 6, 6, ()),
    "fid-csv-xhat": ("fid", 4, 40, 1, 5, 5, ("xhat",)),
}

# The ``results`` object of each case's artifact, as json.dumps(sort_keys=True)
# text.  The whole artifact also holds the argv paths, so only ``results``
# is pinned.
PINNED_RESULTS = {
    'cfid-csv-x': (
        '{"P": 1, "cfid": 1.5220386137839435, "cfid_cov": 0.6108039040924167,'
        ' "cfid_mean": 0.9112347096915268, "diagnostics": {"a": {"clamped_mas'
        's": 0.0, "min_eigenvalue": 0.02148729172782313}, "cross": {"clamped_'
        'mass": 0.0, "min_eigenvalue": 0.0075687557431922126}, "rank_deficien'
        't": false, "rows": 40, "s_yy": {"clamped_mass": 0.0, "dropped": 0, "'
        'kept": 5, "min_eigenvalue": 0.07710737422857253}}, "rows": 40}'
    ),
    'cfid-fewer-rows-than-dims': (
        '{"P": 1, "cfid": 1.2161470668239134, "cfid_cov": 0.7068730976287263,'
        ' "cfid_mean": 0.5092739691951871, "diagnostics": {"a": {"clamped_mas'
        's": 0.0, "min_eigenvalue": 0.03903742674053352}, "cross": {"clamped_'
        'mass": 0.0, "min_eigenvalue": 0.008218127550932132}, "rank_deficient'
        '": true, "rows": 8, "s_yy": {"clamped_mass": 1.804783490142739e-16, '
        '"dropped": 3, "kept": 1, "min_eigenvalue": -6.903491729621254e-17}},'
        ' "rows": 8}'
    ),
    'cfid-rank-deficient-s_yy-p4': (
        '{"P": 4, "cfid": 1.14982661532229, "cfid_cov": 0.7417609715484605, "'
        'cfid_mean": 0.4080656437738296, "diagnostics": {"a": {"clamped_mass"'
        ': 0.0, "min_eigenvalue": 0.029759730437362488}, "cross": {"clamped_m'
        'ass": 0.0, "min_eigenvalue": 0.0142761635001111}, "rank_deficient": '
        'false, "rows": 96, "s_yy": {"clamped_mass": 1.1014093745214709e-15, '
        '"dropped": 3, "kept": 3, "min_eigenvalue": -7.790557269303642e-16}},'
        ' "rows": 96}'
    ),
    'fid-csv-xhat': (
        '{"diagnostics": {"a": {"clamped_mass": 0.0, "min_eigenvalue": 0.4370'
        '0348699941516}, "cross": {"clamped_mass": 0.0, "min_eigenvalue": 0.2'
        '463322020358562}, "rank_deficient": false, "rows_x": 40, "rows_xhat"'
        ': 40}, "fid": 0.471376090936199, "rows_x": 40, "rows_xhat": 40}'
    ),
    'fid-self-clamped': (
        '{"diagnostics": {"a": {"clamped_mass": 0.0, "min_eigenvalue": 0.1487'
        '831986931203}, "clamped": {"squared Wasserstein distance": -3.552713'
        '678800501e-15}, "cross": {"clamped_mass": 0.0, "min_eigenvalue": 0.0'
        '22136440213356604}, "rank_deficient": false, "rows_x": 48, "rows_xha'
        't": 48}, "fid": 0.0, "rows_x": 48, "rows_xhat": 48}'
    ),
}


@pytest.mark.parametrize("name", sorted(PIN_CASES))
def test_cli_frechet_results_are_pinned(workloads, tmp_path, capsys, name):
    command, seed, distinct, P, dim, y_rank, as_csv = PIN_CASES[name]
    rng = np.random.default_rng(seed)
    x, y, xhat = workloads._embeddings(rng, distinct=distinct, P=P, dim=dim, y_rank=y_rank)
    if name == "fid-self-clamped":
        xhat = x.copy()
    paths = {}
    for key, matrix in (("x", x), ("y", y), ("xhat", xhat)):
        paths[key] = tmp_path / f"{key}.emb"
        if key in as_csv:
            _write_csv_embeddings(paths[key], matrix)
        else:
            write_embeddings(paths[key], matrix)
    out = tmp_path / f"{command}.json"
    if command == "cfid":
        argv = ["cfid", "--x", str(paths["x"]), "--y", str(paths["y"]),
                "--xhat", str(paths["xhat"]), "--p", str(P), "--out", str(out)]
    else:
        argv = ["fid", "--x", str(paths["x"]), "--xhat", str(paths["xhat"]), "--out", str(out)]
    _results(capsys, argv)
    results = json.loads(out.read_text())["results"]
    if name == "fid-self-clamped":
        assert "clamped" in results["diagnostics"]
    if name.startswith("cfid-rank-deficient"):
        assert results["diagnostics"]["s_yy"]["dropped"] == dim - y_rank
    assert json.dumps(results, sort_keys=True) == PINNED_RESULTS[name]
