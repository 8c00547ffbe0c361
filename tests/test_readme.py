"""The README's library quickstart and command-line examples run as written, in process."""

import ast
import math
import re
import shlex
from pathlib import Path

import pytest

from soliton2d import RangeError, catalog, closed_form_profile, geometry, make_params
from soliton2d.cli import run
from soliton2d.ode import _metric_t_interval
from soliton2d.taxonomy import _disk_profile

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


def test_table_sizes():
    # the arc-table sizes the README states, against tables built now: a node change cannot leave them stale
    text = " ".join(README.split("For scale:", 1)[1].split("(`tests/test_readme.py`", 1)[0].split())
    stated = re.fullmatch(r"the cigar's whole-branch table has (\d+) segments, a G4 boundary disk at "
                          r"`gamma = 0\.5` (\d+) and the G6 cone's whole branch (\d+)", text)
    sizes = [int(n) for n in stated.groups()]
    cigar = closed_form_profile(make_params(0.0, -1.0), 1.0)
    disk, cone = _disk_profile(0.5), catalog("G6", math.pi).profile
    built = [geometry._ArcTable(cigar, *_metric_t_interval(cigar)), geometry._window_table(disk, 0.0, disk.C),
             geometry._ArcTable(cone, *_metric_t_interval(cone))]
    assert sizes == [table.x.size - 1 for table in built]
    assert [table.rounds for table in built] == [0, 0, 0]  # "none of them needs a split round"


def test_g4_range():
    # the attainable distances the README states: catalog succeeds 1e-7 relative inside each end, raises outside
    text = " ".join(README.split("The catalog attains", 1)[1].split("G4_MINUS:", 1)[0].split())
    ends = re.fullmatch(r"`\(([\d.]+), ([\d.]+)\)` on G4_PLUS and `\(([\d.]+), ([\d.]+)\)` on", text).groups()
    for tag, (lo, hi) in (("G4_PLUS", ends[:2]), ("G4_MINUS", ends[2:])):
        for end, inward in ((float(lo), 1.0), (float(hi), -1.0)):
            catalog(tag, end * (1.0 + inward * 1e-7))
            with pytest.raises(RangeError, match="attainable only in"):
                catalog(tag, end * (1.0 - inward * 1e-7))
