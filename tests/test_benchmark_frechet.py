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

from postsamp.cli import main

from oracles import write_embeddings

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


# (command, seed, distinct, P, dim, y_rank)
PIN_CASES = {
    "cfid-rank-deficient-s_yy-p4": ("cfid", 3, 24, 4, 6, 3),
    "cfid-full-rank-s_yy-p1": ("cfid", 4, 40, 1, 5, 5),
    "cfid-fewer-rows-than-dims": ("cfid", 5, 8, 1, 4, 1),
    "fid-self-clamped": ("fid", 0, 24, 2, 6, 6),
    "fid-distinct-clouds": ("fid", 4, 40, 1, 5, 5),
}

# The ``results`` object of each case's artifact, as json.dumps(sort_keys=True)
# text.  The whole artifact also holds the argv paths, so only ``results``
# is pinned.
PINNED_RESULTS = {
    'cfid-fewer-rows-than-dims': (
        '{"P": 1, "cfid": 1.216147066823908, "cfid_cov": 0.706873097628721, "cf'
        'id_mean": 0.5092739691951871, "diagnostics": {"a": {"factor": "cholesk'
        'y", "min_pivot": 0.04573790560945751}, "cross": {"clamped_mass": 0.0, '
        '"dropped": 0, "min_eigenvalue": 0.008218127550932434}, "rank_deficient'
        '": true, "rows": 8, "s_yy": {"clamped_mass": 1.804783490142739e-16, "d'
        'ropped": 3, "kept": 1, "min_eigenvalue": -6.903491729621254e-17}}, "ro'
        'ws": 8}'
    ),
    'cfid-full-rank-s_yy-p1': (
        '{"P": 1, "cfid": 1.5220386137839355, "cfid_cov": 0.6108039040924087, "'
        'cfid_mean": 0.9112347096915268, "diagnostics": {"a": {"factor": "chole'
        'sky", "min_pivot": 0.04527910636256439}, "cross": {"clamped_mass": 0.0'
        ', "dropped": 0, "min_eigenvalue": 0.007568755743192276}, "rank_deficie'
        'nt": false, "rows": 40, "s_yy": {"clamped_mass": 0.0, "dropped": 0, "k'
        'ept": 5, "min_eigenvalue": 0.07710737422857253}}, "rows": 40}'
    ),
    'cfid-rank-deficient-s_yy-p4': (
        '{"P": 4, "cfid": 1.1498266153222918, "cfid_cov": 0.7417609715484623, "'
        'cfid_mean": 0.4080656437738296, "diagnostics": {"a": {"factor": "chole'
        'sky", "min_pivot": 0.04120150963865376}, "cross": {"clamped_mass": 0.0'
        ', "dropped": 0, "min_eigenvalue": 0.01427616350011118}, "rank_deficien'
        't": false, "rows": 96, "s_yy": {"clamped_mass": 1.1014093745214709e-15'
        ', "dropped": 3, "kept": 3, "min_eigenvalue": -7.790557269303642e-16}},'
        ' "rows": 96}'
    ),
    'fid-distinct-clouds': (
        '{"diagnostics": {"a": {"factor": "cholesky", "min_pivot": 0.4379344793'
        '263832}, "cross": {"clamped_mass": 0.0, "dropped": 0, "min_eigenvalue"'
        ': 0.24633220203585562}, "rank_deficient": false, "rows_x": 40, "rows_x'
        'hat": 40}, "fid": 0.4713760909362132, "rows_x": 40, "rows_xhat": 40}'
    ),
    'fid-self-clamped': (
        '{"diagnostics": {"a": {"factor": "cholesky", "min_pivot": 0.2264500853'
        '8840647}, "clamped": {"squared Wasserstein distance": -3.5527136788005'
        '01e-15}, "cross": {"clamped_mass": 0.0, "dropped": 0, "min_eigenvalue"'
        ': 0.022136440213356666}, "rank_deficient": false, "rows_x": 48, "rows_'
        'xhat": 48}, "fid": 0.0, "rows_x": 48, "rows_xhat": 48}'
    ),
}


@pytest.mark.parametrize("name", sorted(PIN_CASES))
def test_cli_frechet_results_are_pinned(workloads, tmp_path, capsys, name):
    command, seed, distinct, P, dim, y_rank = PIN_CASES[name]
    rng = np.random.default_rng(seed)
    x, y, xhat = workloads._embeddings(rng, distinct=distinct, P=P, dim=dim, y_rank=y_rank)
    if name == "fid-self-clamped":
        xhat = x.copy()
    paths = {}
    for key, matrix in (("x", x), ("y", y), ("xhat", xhat)):
        paths[key] = tmp_path / f"{key}.emb"
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
