"""Command line front end: solve, benchmark, export, describe.

solve prints one JSON object with the solution and elimination statistics.
benchmark times repeated `solve_dynamics` calls on random states under
several orderings (cross-checking that they all agree first). export writes
Graphviz DOT for the factor graph or the DAG a solve eliminates. describe
dumps the parsed model.

Exit codes: 0 success, 1 any dynamics/usage error, 2 output I/O error
(an unwritable --out, or a standard output closed early).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from statistics import mean, median
from time import perf_counter

import numpy as np

from .errors import DynamicsError
from .fgraph import export_dot
from .model import parse_urdf
from .transcribe import JointState, ProblemSpec, build_graph, solve_dynamics


def _csv(text: str, what: str, sep: str | None = ",") -> np.ndarray:
    """The numbers in `text` split at `sep` (None: whitespace); the
    ValueError for one that does not parse names the flag `what`."""
    try:
        return np.array([float(t) for t in text.split(sep) if t.strip() != ""])
    except ValueError:
        raise ValueError(f"{what}: cannot parse {text!r} as "
                         f"{'comma' if sep else 'space'}-separated numbers") from None


def _vec(text: str, n: int, what: str) -> np.ndarray:
    v = _csv(text, what, sep=None)
    if v.shape != (n,):
        raise ValueError(f"{what}: expected {n} space-separated numbers, got {text!r}")
    return v


def _state_flags(p: argparse.ArgumentParser):
    p.add_argument("--q", default=None, help="joint angles, CSV over non-fixed joints")
    p.add_argument("--qd", default=None, help="joint rates, CSV over non-fixed joints")


def _problem_flags(p: argparse.ArgumentParser):
    p.add_argument("--type", required=True, choices=["inverse", "forward", "hybrid"])
    p.add_argument("--qdd", default=None,
                   help="inverse: joint accelerations, CSV over actuated joints")
    p.add_argument("--tau", default=None,
                   help="forward: joint torques, CSV over actuated joints")
    p.add_argument("--mixed", default=None,
                   help='hybrid: JSON like {"j1": {"accel": 0.1}, "j2": {"torque": 2}}')
    p.add_argument("--gravity", default="0 0 -9.81",
                   help='gravity vector in the base frame, e.g. "0 0 -9.81"')
    p.add_argument("--tool-wrench", default=None,
                   help="external tool wrench, CSV of 6 (moment; force)")
    p.add_argument("--planar-loop", action="append", default=[],
                   metavar="JOINT:NX NY NZ",
                   help='planar loop joint and its plane normal, e.g. "j5:0 0 1"; '
                        'each joint at most once')
    p.add_argument("--min-torque-prior", action="store_true",
                   help="add weak zero-torque priors on unknown torques")


def _load(args):
    try:
        text = Path(args.urdf).read_text()
    except OSError as e:
        raise DynamicsError(f"cannot read {args.urdf}: {e}") from None
    return parse_urdf(text)


def _make_state(model, args) -> JointState:
    n = len(model.movable_joints)
    q = _csv(args.q, "--q") if args.q else np.zeros(n)
    qd = _csv(args.qd, "--qd") if args.qd else np.zeros(n)
    if q.shape != (n,) or qd.shape != (n,):
        raise ValueError(f"--q/--qd must have {n} entries "
                         f"(one per non-fixed joint, declaration order)")
    return JointState(q, qd)


def _make_spec(model, args) -> ProblemSpec:
    kw = {
        "gravity": _vec(args.gravity, 3, "--gravity"),
        "min_torque_prior": args.min_torque_prior,
    }
    if args.tool_wrench:
        kw["tool_wrench"] = _csv(args.tool_wrench, "--tool-wrench")
    planar = []   # a loop named twice is the spec's error
    for entry in args.planar_loop:
        name, _, rest = entry.partition(":")
        if not rest:
            raise ValueError(f"--planar-loop: expected JOINT:NX NY NZ, got {entry!r}")
        planar.append((name, _vec(rest, 3, "--planar-loop normal")))
    kw["planar_loops"] = planar
    if args.type == "inverse":
        if args.qdd is None:
            raise ValueError("--type inverse requires --qdd")
        return ProblemSpec.inverse(model, _csv(args.qdd, "--qdd"), **kw)
    if args.type == "forward":
        if args.tau is None:
            raise ValueError("--type forward requires --tau")
        return ProblemSpec.forward(model, _csv(args.tau, "--tau"), **kw)
    return ProblemSpec.hybrid(model, _mixed(args), **kw)


def _mixed(args):
    if args.mixed is None:
        raise ValueError("--type hybrid requires --mixed")
    try:
        return json.loads(args.mixed)
    except json.JSONDecodeError as e:
        raise ValueError(f"--mixed is not valid JSON: {e}") from None


def _ordering_arg(text: str):
    if text.startswith("custom:"):
        return [t.strip() for t in text[len("custom:"):].split(",") if t.strip()]
    return text


def _jsonable(d: dict) -> dict:
    return {k: (list(map(float, v)) if np.ndim(v) else float(v)) for k, v in d.items()}


def cmd_solve(args) -> str:
    model = _load(args)
    state = _make_state(model, args)
    spec = _make_spec(model, args)
    res = solve_dynamics(model, state, spec, _ordering_arg(args.ordering))
    doc = {
        "solution": {
            "torques": _jsonable(res.torques),
            "accels": _jsonable(res.accels),
            "twists": _jsonable(res.twists),
            "wrenches": _jsonable(res.wrenches),
            "linkAccels": _jsonable(res.link_accels),
        },
        "ordering": [str(k) for k in res.ordering],
        "edgeCount": res.dag.edge_count,
        "fillIn": res.dag.fill_in,
        "residualMax": res.residual_max,
        "leftoverMax": float(np.abs(res.dag.leftover).max(initial=0.0)),
        "rcond": res.dag.rcond,
        "elapsedMicros": res.solve_micros,
        "buildMicros": res.build_micros,
    }
    return json.dumps(doc, indent=2) + "\n"


def _random_problem(model, args, rng):
    n = len(model.movable_joints)
    n_act = sum(1 for j in model.movable_joints if j.actuated)
    state = JointState(rng.uniform(-np.pi, np.pi, n), rng.uniform(-1, 1, n))
    gravity = _vec(args.gravity, 3, "--gravity")
    if args.type == "inverse":
        spec = ProblemSpec.inverse(model, rng.uniform(-1, 1, n_act), gravity=gravity)
    elif args.type == "forward":
        spec = ProblemSpec.forward(model, rng.uniform(-1, 1, n_act), gravity=gravity)
    else:
        # --mixed fixes the accel/torque split; actuated joints get random values
        split = ProblemSpec.hybrid(model, _mixed(args)).by_joint(model)
        spec = ProblemSpec.hybrid(model, {
            j.name: type(split[j.name])(float(rng.uniform(-1, 1))) if j.actuated
            else split[j.name] for j in model.movable_joints}, gravity=gravity)
    return state, spec


def cmd_benchmark(args) -> str:
    model = _load(args)
    if model.loop_joints:
        raise ValueError("benchmark generates random states and needs a tree "
                         "(loop closures would be violated)")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    names = [t.strip() for t in args.orderings.split(",")]
    # a custom ordering takes every key after it, so it comes last
    custom = next((i for i, t in enumerate(names) if t.startswith("custom:")), len(names))
    names = [t for t in names[:custom] + [",".join(names[custom:])] if t]
    if not names:
        raise ValueError("--orderings is empty")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"--orderings names {name!r} twice")

    # one probe state: cross-check that every ordering solves to the same
    # values; each ordering's DAG gives its edge and fill counts
    orderings = {name: _ordering_arg(name) for name in names}
    state, spec = _random_problem(model, args, rng)
    probe = {name: solve_dynamics(model, state, spec, orderings[name]) for name in names}
    ref = probe[names[0]].values
    for name in names[1:]:
        worst = max(float(np.max(np.abs(probe[name].values[v] - x))) for v, x in ref.items())
        if worst > 1e-10:
            raise DynamicsError(
                f"orderings {names[0]!r} and {name!r} disagree by {worst:.3e}")

    times = {name: [] for name in names}
    for _ in range(args.trials):
        state, spec = _random_problem(model, args, rng)
        for name in names:
            t0 = perf_counter()
            solve_dynamics(model, state, spec, orderings[name])
            times[name].append((perf_counter() - t0) * 1e6)

    rows = [{
        "ordering": name,
        "edgeCount": probe[name].dag.edge_count,
        "fillIn": probe[name].dag.fill_in,
        "meanMicros": mean(times[name]),
        "medianMicros": median(times[name]),
    } for name in names]
    if args.json:
        return json.dumps({"trials": args.trials, "seed": args.seed, "rows": rows},
                          indent=2) + "\n"
    lines = [f"{'ordering':<12} {'edges':>6} {'fill':>6} {'mean us':>10} {'median us':>10}"]
    lines += [f"{r['ordering']:<12} {r['edgeCount']:>6} {r['fillIn']:>6} "
              f"{r['meanMicros']:>10.1f} {r['medianMicros']:>10.1f}" for r in rows]
    return "\n".join(lines) + "\n"


def cmd_export(args) -> str:
    model = _load(args)
    state = _make_state(model, args)
    spec = _make_spec(model, args)
    if args.what == "graph":
        return export_dot(build_graph(model, state, spec))
    return export_dot(solve_dynamics(model, state, spec, _ordering_arg(args.ordering)).dag)


def cmd_describe(args) -> str:
    return _load(args).to_json() + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dyngraph",
        description="manipulator dynamics via sparse linear factor graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one dynamics problem, print JSON")
    p.add_argument("--urdf", required=True)
    _problem_flags(p)
    _state_flags(p)
    p.add_argument("--ordering", default="auto",
                   help="auto|rnea|crba|aba|md|nd|custom:<comma-keys>")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("benchmark", help="time repeated solves under orderings")
    p.add_argument("--urdf", required=True)
    p.add_argument("--type", required=True, choices=["inverse", "forward", "hybrid"])
    p.add_argument("--mixed", default=None)
    p.add_argument("--gravity", default="0 0 -9.81")
    p.add_argument("--orderings", required=True,
                   help="comma list, e.g. rnea,md,nd; a custom:<comma-keys> item "
                        "takes every key after it, so it must come last")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_benchmark)

    p = sub.add_parser("export", help="write the factor graph or DAG as DOT")
    p.add_argument("--urdf", required=True)
    _problem_flags(p)
    _state_flags(p)
    p.add_argument("--what", required=True, choices=["graph", "dag"])
    p.add_argument("--ordering", default="auto")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("describe", help="print the parsed model as JSON")
    p.add_argument("--urdf", required=True)
    p.set_defaults(fn=cmd_describe)

    args = parser.parse_args(argv)
    try:
        text = args.fn(args)
    except (DynamicsError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out = getattr(args, "out", None)
    try:
        if out:
            Path(out).write_text(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as e:
        if not out:  # so that the interpreter's flush at exit writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write {out or 'standard output'}: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
