"""Every function the benchmark's tracer wraps still exists and is public.

``benchmarks/tracing.py`` wraps the functions named in its ``GROUPS`` and
``METHODS`` from outside the package.  A name that no longer resolves is
only recorded as missing, and its per-layer metric then reads zero, so a
rename or a trimmed ``__all__`` is caught here before a benchmark run.
"""

import importlib
import os
import sys

import pytest

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    yield importlib.import_module("tracing")
    sys.modules.pop("tracing", None)


def test_every_traced_function_resolves_and_is_exported(tracing):
    wanted = [(layer, name) for layer, names, _ in tracing.GROUPS.values() for name in names]
    wanted += [(layer, name) for layer, names in tracing.METHODS.items() for name in names]
    problems = []
    for layer, qualname in wanted:
        module = importlib.import_module(f"postsamp.{layer}")
        if tracing._resolve(module, qualname) is None:
            problems.append(f"{layer}.{qualname} does not resolve")
        elif "." not in qualname and qualname not in module.__all__:
            problems.append(f"{layer}.{qualname} is not in __all__")
    assert len(wanted) > 0
    assert problems == []
