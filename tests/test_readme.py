"""The README's library quick tour runs as written against the current API,
and its command-line examples parse with the current command line."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import postsamp
from postsamp.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quick tour'"
    return match.group(1)


def _command_lines() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    match = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert match, "no sh block under 'Command line'"
    return [line for line in match.group(1).splitlines() if line.startswith("postsamp ")]


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


def test_package_root_exports_the_quick_tour():
    """The root re-exports the tour's names and __version__, and nothing else:
    every other public name is imported from its submodule."""
    imported = [
        alias.name
        for node in ast.walk(ast.parse(_quick_tour()))
        if isinstance(node, ast.ImportFrom) and node.module == "postsamp"
        for alias in node.names
    ]
    assert sorted(postsamp.__all__) == sorted(imported + ["__version__"])


@pytest.mark.parametrize("line", _command_lines(), ids=lambda line: line.split()[1])
def test_command_line_example_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README example does not parse: {line}")
