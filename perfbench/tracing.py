"""Traced run: the public calls `solve_dynamics` is made of, one span each.

Each request replaces `solve_dynamics` with the same public calls in the
same order and records a span around each call: name, start, end, parent
span and request id. Spans stay in memory and are written out as JSON
lines when the run ends. A span's self time is its duration minus the
durations of its child spans.

Off the clock, every traced request is also solved by `solve_dynamics`,
which must give the same values to SELF_CHECK_TOL, so the per-layer
numbers describe the program the end-to-end numbers measure.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from dyngraph import (
    JointState,
    back_substitute,
    build_graph,
    eliminate,
    link_poses,
    oracle,
    parse_urdf,
    solve_dynamics,
)
from dyngraph.transcribe import resolve_ordering
from measure import report_failure
from refkernel import reference_seconds
from workloads import GRAVITY, driven_names, joint_vectors, make_problem, oracle_check

COUNT_WINDOW = 96                # requests whose exact counts are reported
SELF_CHECK_TOL = 1e-12

# span name -> per-layer metric prefix
LAYERS = {
    "spec": "transcribe.spec",
    "kinematics": "transcribe.kinematics",
    "build_graph": "transcribe.build_graph",
    "resolve_ordering": "fgraph.order",
    "eliminate": "fgraph.eliminate",
    "back_substitute": "fgraph.back_substitute",
    "residual_max": "fgraph.residual",
}


class Tracer:
    """In-memory span log: [name, start, end, parent span, request id]."""

    def __init__(self):
        self.spans = []

    @contextmanager
    def span(self, name, parent, request):
        rec = [name, perf_counter(), None, parent, request]
        self.spans.append(rec)
        try:
            yield len(self.spans) - 1
        finally:
            rec[2] = perf_counter()

    def self_times(self) -> dict:
        """{span name: [self time of each span with that name]}."""
        child = defaultdict(float)
        for _name, start, end, parent, _rid in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(list)
        for sid, (name, start, end, _parent, _rid) in enumerate(self.spans):
            out[name].append(end - start - child[sid])
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid}) + "\n")


@dataclass(frozen=True, eq=False)
class Traced:
    state: object
    spec: object
    graph: object
    keys: list
    dag: object
    values: dict
    residual: float
    tau: np.ndarray
    qdd: np.ndarray
    request_s: float


def traced_request(tracer, rid, model, driven, raw) -> Traced:
    with tracer.span("request", None, rid) as root:
        with tracer.span("spec", root, rid):
            state, spec = make_problem(model, driven, raw)
        with tracer.span("kinematics", root, rid):
            link_poses(model, state)
        with tracer.span("build_graph", root, rid):
            graph = build_graph(model, state, spec)
        with tracer.span("resolve_ordering", root, rid):
            keys = resolve_ordering(graph, raw.ordering, model)
        with tracer.span("eliminate", root, rid):
            dag = eliminate(graph, keys)
        with tracer.span("back_substitute", root, rid):
            values = back_substitute(dag)
        with tracer.span("residual_max", root, rid):
            residual = graph.residual_max(values)
        tau, qdd = joint_vectors(model, raw, values)
    _name, start, end, _parent, _rid = tracer.spans[root]
    return Traced(state, spec, graph, keys, dag, values, residual, tau, qdd, end - start)


def self_check_error(out: Traced, res) -> float:
    """Largest difference between the traced pipeline and solve_dynamics."""
    if set(out.values) != set(res.values) or tuple(out.keys) != res.ordering:
        return float("inf")
    err = max(float(np.max(np.abs(out.values[k] - res.values[k]))) for k in out.values)
    return max(err, abs(out.residual - res.residual_max))


def rnea_target(wl):
    """(tree model, movable-joint indices) that the RNEA reference times.
    A tree workload uses its own model; a closed loop uses the same links
    with the loop joints cut, the recursive sweep's nearest counterpart."""
    if not wl.model.loop_joints:
        return wl.model, slice(None)
    tree = parse_urdf(re.sub(r'<joint[^>]*loop="true".*?</joint>', "", wl.urdf, flags=re.S))
    keep = [i for i, j in enumerate(wl.model.movable_joints) if not j.loop]
    return tree, keep


@dataclass
class TracedRun:
    tracer: Tracer
    request_s: list              # traced request times
    ref_s: list                  # adjacent reference kernel times
    graph_over_rnea: list
    rnea_s: list
    check_s: list
    counts: dict                 # exact per-request counts over COUNT_WINDOW
    numerics: dict
    attempted: int = 0
    failed: int = 0


def run_traced(wl, seconds: float) -> TracedRun:
    model = wl.model
    driven = driven_names(model)
    tree, keep = rnea_target(wl)
    tracer = Tracer()
    run = TracedRun(tracer, [], [], [], [], [], defaultdict(list),
                    {"fgraph.hard_residual_max": 0.0, "fgraph.leftover_max": 0.0,
                     "oracle.err_max": 0.0})
    seen = set()
    deadline = perf_counter() + seconds
    rid = 0
    while perf_counter() < deadline or rid < COUNT_WINDOW:
        raw = wl.requests[rid % len(wl.requests)]
        run.attempted += 1
        try:
            out = traced_request(tracer, rid, model, driven, raw)
        except Exception:
            report_failure(f"{wl.name} traced request {rid}")
            run.failed += 1
            rid += 1
            continue
        run.request_s.append(out.request_s)
        run.ref_s.append(reference_seconds())

        t0 = perf_counter()
        res = solve_dynamics(model, out.state, out.spec, raw.ordering)
        t1 = perf_counter()
        oracle.rnea_torques(tree, JointState(raw.q[keep], raw.qd[keep]), out.qdd[keep],
                            gravity=GRAVITY)
        t2 = perf_counter()
        ok, err = oracle_check(model, raw, out.state, out.spec, out.tau, out.qdd,
                               out.residual)
        t3 = perf_counter()
        run.graph_over_rnea.append((t1 - t0) / (t2 - t1))
        run.rnea_s.append(t2 - t1)
        run.check_s.append(t3 - t2)
        if not ok or self_check_error(out, res) > SELF_CHECK_TOL:
            run.failed += 1

        if rid < COUNT_WINDOW:
            c = run.counts
            c["fgraph.variables"].append(len(out.graph.variables))
            c["fgraph.factors"].append(len(out.graph))
            c["fgraph.rows"].append(out.graph.total_rows())
            c["fgraph.edges"].append(out.dag.edge_count)
            c["fgraph.fill_in"].append(out.dag.fill_in)
            c["fgraph.dead_rows"].append(len(out.dag.leftover))
            structure = (tuple(f.keys() for f in out.graph.factors), tuple(out.keys))
            c["transcribe.structure_repeat_frac"].append(structure in seen)
            seen.add(structure)
            n = run.numerics
            n["fgraph.hard_residual_max"] = max(n["fgraph.hard_residual_max"], out.residual)
            if out.dag.leftover.size:
                n["fgraph.leftover_max"] = max(n["fgraph.leftover_max"],
                                               float(np.max(np.abs(out.dag.leftover))))
            n["oracle.err_max"] = max(n["oracle.err_max"], err)
        rid += 1
    return run
