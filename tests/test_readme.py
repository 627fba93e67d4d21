"""The README's code and numbers: the quick start runs as printed, and the
edge-count table is what the orderings produce."""

import contextlib
import io
import pathlib
import re

import numpy as np
import pytest

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
