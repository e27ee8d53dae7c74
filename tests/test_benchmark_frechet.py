"""CLI cfid/fid agree with the benchmark's own reference evaluations.

``benchmarks/workloads.py`` checks every ``linalg`` run against
``reference_cfid``/``reference_fid`` (Cholesky of A, ``eigvalsh`` of
L^T B L).  Running that check on small inputs from the same generator,
including a measurement block whose covariance is rank-deficient, keeps
the benchmark's correctness gate exercised on every test run.  The module
is imported read-only.
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
