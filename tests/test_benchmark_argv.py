"""The benchmark's job lists still parse with the current command line.

``benchmarks/workloads.py`` builds every workload's CLI argv without
running anything; parsing each one catches a flag or subcommand change
that would break the benchmark before a benchmark run does.
"""

import importlib
import os
import sys

import pytest

from postsamp.cli import build_parser

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    yield importlib.import_module("workloads")
    sys.modules.pop("workloads", None)


def test_every_workload_argv_parses(workloads, tmp_path):
    parser = build_parser()
    checked = 0
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 1, str(tmp_path)):
            if op.argv is None:
                continue
            try:
                parser.parse_args(op.argv)
            except SystemExit:
                pytest.fail(f"{name} op {op.id}: argv does not parse: {op.argv}")
            checked += 1
    assert checked > 0
    assert list(tmp_path.iterdir()) == []
