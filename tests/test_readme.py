"""The README's library quickstart and command-line examples run as written, in process."""

import ast
import shlex
from pathlib import Path

import pytest

from soliton2d.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, fence: str) -> str:
    """The first fenced block (opened by fence) under the README's level-2 heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"{fence}\n", 1)[1].split("```", 1)[0]


def test_library_quickstart():
    # every statement runs; the value of each expression statement is kept under its source text
    code, ns, values = _block("Library quickstart", "```python"), {}, {}
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            values[ast.get_source_segment(code, node)] = eval(compile(ast.Expression(node.value), "README", "eval"), ns)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), ns)
    assert values["classify(prof).tag"] == "G1_CIGAR"
    assert values["prof.t1"] == 0.25
    assert values["abs(metric.b[-1] - math.tanh(metric.r[-1]))"] <= 2.0**-52


CLI_LINES = [line for line in _block("Command line", "```").splitlines() if line.startswith("soliton ")]


@pytest.mark.parametrize("line", CLI_LINES, ids=[" ".join(line.split()[1:3]) for line in CLI_LINES])
def test_command_line_example(line, capsys):
    assert run(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out
