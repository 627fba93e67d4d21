"""Fingerprint of every solve over a fixed grid of requests, so that two
versions of `dyngraph` can be shown to give bit-identical answers.

    PYTHONPATH=src python3 tools/solve_fingerprint.py > change.jsonl
    PYTHONPATH=../other/src python3 tools/solve_fingerprint.py > parent.jsonl
    python3 tools/solve_fingerprint.py --compare parent.jsonl change.jsonl

The grid is the first 40 seed-7 requests of each perfbench workload, each
solved under the request's own ordering ("own") and under auto, md, nd,
crba, aba and rnea: 40 x 7 x 4 = 1,120 cells. No workload sets a tool
wrench or a base acceleration, so a seeded grid of fixture cells follows:
three_r, six_r and fixed_bracket, each with a nonzero tool wrench, a zero
one and a nonzero base acceleration, each as an inverse, a forward and a
hybrid problem (every other movable joint, from the first, given its
acceleration), two seeded states each, solved under auto, md, nd and the
classic schemes that apply (rnea; crba and aba): 3 x 3 x 2 x (4 + 5 + 3) =
216 cells.
`dyngraph` is imported from PYTHONPATH, so one copy of this script
fingerprints any checkout; the requests come from this repository's
perfbench/workloads.py and the models from tests/fixtures, read only.

Each cell is one JSON line. A solve that raises gives the error type and
message. Otherwise the cell holds a sha256 over the values, torques and
accels, `residual_max`, `dag.rows` and `dag.leftover`, the ordering, and
the edge and fill counts, plus `dag.rcond` as a float: its last bits can
differ between two runs of one commit, so it is compared by size, not
hashed.

`--compare` counts the cells whose digests (or errors) are identical and
those that differ, and says for each differing cell which ordering's cell
of the same request in PARENT it equals, if any. It reports the largest
relative `rcond` gap between a solved cell and the parent cell with the
same answer. It exits 1 when any cell differs or is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("arm6_control", "tree21_orderings", "tree21_hybrid", "fivebar_loop")
ORDERINGS = ("own", "auto", "md", "nd", "crba", "aba", "rnea")
SEED, REQUESTS = 7, 40
FIXTURES = ("three_r", "six_r", "fixed_bracket")
BOUNDARIES = ("tool", "zero_tool", "base_accel")
PROBLEMS = {"inverse": ("rnea",), "forward": ("crba", "aba"), "hybrid": ()}
DRAWS = 2


def _digest(res) -> str:
    h = hashlib.sha256()
    for key in sorted(res.values, key=str):
        h.update(str(key).encode() + res.values[key].tobytes())
    for label, named in (("tau", res.torques), ("qdd", res.accels)):
        for name in sorted(named):
            h.update(f"{label} {name} {float(named[name]).hex()}".encode())
    h.update(float(res.residual_max).hex().encode())
    h.update(res.dag.rows.tobytes() + b"|" + res.dag.leftover.tobytes())
    h.update(" ".join(map(str, res.ordering)).encode())
    h.update(f"edges {res.dag.edge_count} fill {res.dag.fill_in}".encode())
    return h.hexdigest()


def _cell(out, dyngraph, where, model, make, ordering) -> None:
    """Solve `make()`'s (state, spec) under `ordering` and write its cell,
    keyed by `where`: (workload, request, ordering label)."""
    cell = dict(zip(("workload", "request", "ordering"), where))
    try:
        res = dyngraph.solve_dynamics(model, *make(), ordering)
    except Exception as err:  # noqa: BLE001 -- every failure is part of the print
        cell.update(error=type(err).__name__, message=str(err))
    else:
        cell.update(sha256=_digest(res), rcond=float(res.dag.rcond))
    out.write(json.dumps(cell) + "\n")


def _fixture_cells(out, dyngraph) -> None:
    import numpy as np

    rng = np.random.default_rng(SEED)
    for name in FIXTURES:
        model = dyngraph.parse_urdf((ROOT / "tests" / "fixtures" / f"{name}.urdf").read_text())
        names = [j.name for j in model.movable_joints]
        n = len(names)
        for boundary in BOUNDARIES:
            for problem, classic in PROBLEMS.items():
                for draw in range(DRAWS):
                    state = dyngraph.JointState(rng.uniform(-np.pi, np.pi, n),
                                                rng.uniform(-1, 1, n))
                    given, wrench = rng.uniform(-1, 1, n), rng.uniform(-1, 1, 6)
                    kw = {"tool": {"tool_wrench": wrench},
                          "zero_tool": {"tool_wrench": np.zeros(6)},
                          "base_accel": {"base_accel": wrench}}[boundary]
                    if problem == "hybrid":
                        mapping = {j: {"torque" if k % 2 else "accel": float(x)}
                                   for k, (j, x) in enumerate(zip(names, given))}
                        spec = dyngraph.ProblemSpec.hybrid(model, mapping, **kw)
                    else:
                        spec = getattr(dyngraph.ProblemSpec, problem)(model, given, **kw)
                    for ordering in ("auto", "md", "nd", *classic):
                        _cell(out, dyngraph, (f"{name}/{boundary}/{problem}", draw, ordering),
                              model, lambda: (state, spec), ordering)


def fingerprint(out) -> None:
    import dyngraph
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import driven_names, load, make_problem

    print(f"fingerprinting {dyngraph.__file__}", file=sys.stderr)
    for name in WORKLOADS:
        wl = load(name, SEED)
        driven = driven_names(wl.model)
        for i, raw in enumerate(wl.requests[:REQUESTS]):
            for ordering in ORDERINGS:
                _cell(out, dyngraph, (name, i, ordering), wl.model,
                      lambda: make_problem(wl.model, driven, raw),
                      raw.ordering if ordering == "own" else ordering)
    _fixture_cells(out, dyngraph)


def _read(path) -> dict:
    cells = {}
    for line in pathlib.Path(path).read_text().splitlines():
        cell = json.loads(line)
        cells[cell["workload"], cell["request"], cell["ordering"]] = cell
    return cells


def _answer(cell):
    return cell.get("sha256") or (cell["error"], cell["message"])


def _gap(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b)) if max(a, b) > 0 else 0.0


def compare(parent_path, change_path) -> int:
    parent, change = _read(parent_path), _read(change_path)
    missing = sorted(parent.keys() ^ change.keys())
    common = [k for k in parent if k in change]
    differ = {k for k in common if _answer(parent[k]) != _answer(change[k])}
    print(f"{len(common)} cells in both: {len(common) - len(differ)} identical, "
          f"{len(differ)} differ; {len(missing)} in only one file")
    # a differing cell that equals another ordering's cell of the same request
    # in the parent names it, e.g. a request that was re-routed to "md"; its
    # rcond is compared with that cell's
    twin = {k: k for k in common if k not in differ}
    matches = Counter()
    for w, i, o in differ:
        same = [p for p in ORDERINGS if p != o and (w, i, p) in parent
                and _answer(parent[w, i, p]) == _answer(change[w, i, o])]
        if same:
            twin[w, i, o] = (w, i, same[0])
        matches[w, o, "/".join(same) or "no parent cell"] += 1
    for (w, o, same), n in sorted(matches.items()):
        print(f"  {w} {o}: {n} differing cells, equal to the parent's {same}")
    gaps = [_gap(parent[p]["rcond"], change[k]["rcond"])
            for k, p in twin.items() if "rcond" in change[k]]
    print("largest relative rcond gap to the parent cell with the same answer: "
          "%.3g over %d solved cells" % (max(gaps, default=0.0), len(gaps)))
    for k in missing[:10]:
        print("  only in %s: %s" % (parent_path if k in parent else change_path, k))
    return 1 if differ or missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two fingerprint files instead of making one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    fingerprint(sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
