"""The README's library quick tour runs as written against the current API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quick tour'"
    return match.group(1)


def test_quick_tour_runs():
    namespace: dict = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(_quick_tour(), str(README), "exec"), namespace)
    assert len(printed.getvalue().splitlines()) == 2
    report = namespace["report"]
    assert report.converged
    assert abs(float(report.theta_star.mu[0])) < 1e-3
    assert abs(float(report.theta_star.sigma[0]) - 1.0) < 1e-3
