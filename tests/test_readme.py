"""The README's code and numbers: the quick start runs as printed, the
quoted closed-loop error is what the CLI prints, and the edge-count table
is what the orderings produce."""

import contextlib
import io
import pathlib
import re
import shlex

import numpy as np
import pytest

from dyngraph.cli import main
from dyngraph.fgraph import eliminate
from dyngraph.transcribe import JointState, ProblemSpec, build_graph, resolve_ordering

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()

# README "Measured elimination-DAG edge counts on the bundled fixtures"
EDGE_TABLE = {
    ("three_r", "inverse"): {"rnea": 10, "md": 11, "nd": 11},
    ("three_r", "forward"): {"crba": 20, "aba": 18, "md": 14, "nd": 15},
    ("six_r", "inverse"): {"rnea": 22, "md": 23, "nd": 35},
    ("six_r", "forward"): {"crba": 77, "aba": 42, "md": 32, "nd": 40},
}


def test_quick_start_prints_documented_torques(monkeypatch):
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    documented = re.findall(r"'(\w+)': ([-\d.]+)\.\.\.", block)
    assert documented
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    printed = out.getvalue().splitlines()[0]
    for name, prefix in documented:
        assert re.search(rf"'{name}': {re.escape(prefix)}", printed), printed


def test_loop_without_planar_factor_prints_quoted_error(monkeypatch, capsys):
    section = README[README.index("### Closed loops"):]
    command = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    quoted = re.search(r"Without `--planar-loop` the same command exits 1 with\s+`([^`]+)`",
                       section).group(1)
    argv = shlex.split(command.replace("\\\n", " "))
    assert argv[:3] == ["python3", "-m", "dyngraph"]
    argv = argv[3:]
    cut = argv.index("--planar-loop")
    del argv[cut:cut + 2]
    monkeypatch.chdir(ROOT)
    assert main(argv) == 1
    assert capsys.readouterr().err.strip() == f"error: {quoted}"


@pytest.mark.parametrize("fixture,kind,ordering,edges", [
    (fixture, kind, ordering, edges)
    for (fixture, kind), row in EDGE_TABLE.items()
    for ordering, edges in row.items()
])
def test_edge_count_table(request, fixture, kind, ordering, edges):
    model = request.getfixturevalue(fixture)
    n = len(model.movable_joints)
    st = JointState(np.full(n, 0.2), np.full(n, 0.1))
    g = build_graph(model, st, getattr(ProblemSpec, kind)(model, np.zeros(n)))
    assert eliminate(g, resolve_ordering(g, ordering, model)).edge_count == edges
