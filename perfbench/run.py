"""End-to-end benchmark of dyngraph's dynamics solves.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; dyngraph is imported from `src/`. One
process and one thread act as a single caller in a closed loop: the next
request is sent only after the previous one returns. A request builds the
`JointState` and `ProblemSpec` from pre-generated arrays, calls
`solve_dynamics` and reads the named torques and accelerations. Every
answer is checked against an independent oracle (see workloads.py).

Workloads
  arm6_control      inverse dynamics of the six_r fixture along a smooth
                    multi-sine trajectory (2 ms step), "auto" ordering: a
                    computed-torque control loop; small graph, fixed structure.
  tree21_orderings  forward dynamics of a seeded 21-joint branched tree
                    (torso joint plus 4 limbs of 5), ordering cycling
                    crba, aba, md, nd: the ordering table at a size where
                    fill matters.
  tree21_hybrid     the same tree with a fresh random accel/torque split per
                    joint on every request, "auto": structure never repeats.
  fivebar_loop      the five_bar fixture at closure-consistent states,
                    rotating forward, hybrid with both base joints driven, and
                    that hybrid with the minimum-torque prior; planar loop
                    declared.

Request times are divided by the time of a frozen reference kernel
(refkernel.py) run right after each request, because absolute times on a
shared machine do not repeat.

--trace 0 reports the end-to-end metrics:
  solve_rel_p50    median over requests of request time / reference time,
                   taken per request kind and averaged over the kinds a
                   workload rotates through (ordering, problem, prior)
  solve_rel_mean   sum of request times / sum of reference times
  setup_s          the program's own cold start (import dyngraph, parse the
                   model, first solve) over fresh processes, as a calibrated
                   ratio to a reference import of numpy and scipy.linalg,
                   scaled to read in seconds (measure.setup_seconds)
It also prints failed_frac, the p90/p99 ratios and the raw set-up medians
as diagnostics.

--trace 1 runs half the time untraced and half traced (tracing.py), and
reports per-layer metrics: the median self time of each public call and
its share of the traced request, exact per-request counts over the first
COUNT_WINDOW traced requests, numerics, oracle references, the per-ordering
breakdown (tree21_orderings rotates orderings; on the other workloads it
comes from forward solves at the states of their first REORDERED requests)
and the tracing overhead. Spans go to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
from dataclasses import replace
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PARSE_REPEATS = 20
REORDERED = 16                   # requests re-solved per ordering (per_layer)


def pin_threads():
    """One BLAS/OpenMP thread, here and in every child process. Must run
    before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def quantile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1]


def end_to_end(wl, seconds, seed):
    from measure import run_untraced, setup_seconds, typical_ratio

    setup, setup_raw = setup_seconds(wl.name, seed)
    samples = run_untraced(wl, wl.requests, seconds)
    rel = [s.rel for s in samples]
    failed = sum(not s.ok for s in samples)
    metrics = {
        "solve_rel_p50": (typical_ratio(samples), "ref"),
        "solve_rel_mean": (sum(s.request_s for s in samples)
                           / sum(s.ref_s for s in samples), "ref"),
        "setup_s": (setup, "s"),
    }
    diagnostics = {
        "failed_frac": (failed / len(samples), "1"),
        **{name: (value, "s") for name, value in setup_raw.items()},
        "solve_rel_p90": (quantile(rel, 90), "ref"),
        "solve_rel_p99": (quantile(rel, 99), "ref"),
        "requests": (len(samples), "count"),
    }
    return metrics, diagnostics, len(samples), failed


def per_layer(wl, seconds, seed):
    from dyngraph import parse_urdf
    from measure import run_untraced
    from tracing import COUNT_WINDOW, LAYERS, run_traced
    from workloads import ORDERINGS

    untraced = run_untraced(wl, wl.requests, seconds / 2)
    # Every --trace 1 result carries every per-layer metric, and the crba
    # and aba schemes cover forward problems only. So a workload that does
    # not rotate orderings takes its per-ordering table from forward solves
    # at the states of its first REORDERED requests, given values read as
    # torques.
    reordered = []
    if {s.ordering for s in untraced} != set(ORDERINGS):
        forward = [replace(r, kind="forward", accel_given=(False,) * len(r.given),
                           prior=False, ordering=o)
                   for r in wl.requests[:REORDERED] for o in ORDERINGS]
        reordered = run_untraced(wl, forward, 0.0, len(forward))
    traced = run_traced(wl, seconds / 2)
    traced.tracer.write(HERE / "out" / f"trace-{wl.name}-seed{seed}.jsonl")
    parse = []
    for _ in range(PARSE_REPEATS):
        t0 = perf_counter()
        parse_urdf(wl.urdf)
        parse.append(perf_counter() - t0)

    rel = [s.rel for s in untraced]
    selfs = traced.tracer.self_times()
    request_total = sum(traced.request_s)
    m = {}
    for span, prefix in LAYERS.items():
        m[f"{prefix}_us"] = (statistics.median(selfs[span]) * 1e6, "us")
        m[f"{prefix}_share"] = (sum(selfs[span]) / request_total, "1")
    m["model.parse_us"] = (statistics.median(parse) * 1e6, "us")
    m["oracle.check_us"] = (statistics.median(traced.check_s) * 1e6, "us")
    m["oracle.rnea_us"] = (statistics.median(traced.rnea_s) * 1e6, "us")
    m["oracle.graph_over_rnea"] = (statistics.median(traced.graph_over_rnea), "1")
    m["ref.kernel_us"] = (statistics.median(s.ref_s for s in untraced) * 1e6, "us")
    m["transcribe.solve_dynamics_us_p50"] = (
        statistics.median(s.request_s for s in untraced) * 1e6, "us")
    m["transcribe.solve_dynamics_rel_p90"] = (quantile(rel, 90), "ref")
    m["transcribe.solve_dynamics_rel_p99"] = (quantile(rel, 99), "ref")
    for name, per_request in traced.counts.items():
        unit = "1" if name.endswith("_frac") else "count"
        m[name] = (statistics.fmean(per_request), unit)
    for name, value in traced.numerics.items():
        m[name] = (value, "1")
    untraced_mean = sum(s.request_s for s in untraced) / sum(s.ref_s for s in untraced)
    m["trace.overhead_frac"] = (
        sum(traced.request_s) / sum(traced.ref_s) / untraced_mean - 1.0, "1")
    for o in ORDERINGS:
        mine = [s for s in reordered or untraced if s.ordering == o]
        m[f"fgraph.edges.{o}"] = (float(mine[0].edges), "count")
        m[f"transcribe.solve_dynamics_rel_p50.{o}"] = (
            statistics.median(s.rel for s in mine), "ref")

    attempted = len(untraced) + len(reordered) + traced.attempted
    failed = sum(not s.ok for s in untraced + reordered) + traced.failed
    diagnostics = {
        "failed_frac": (failed / attempted, "1"),
        "traced_requests": (len(traced.request_s), "count"),
        "count_window": (COUNT_WINDOW, "count"),
    }
    return m, diagnostics, attempted, failed


def main(argv=None) -> int:
    if not (ROOT / "src" / "dyngraph").is_dir():
        sys.exit(f"no dyngraph source under {ROOT / 'src'}: run from a repository checkout")
    pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy
    import scipy

    from workloads import BUILDERS, load

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = load(args.workload, args.seed)
    run = per_layer if args.trace else end_to_end
    metrics, diagnostics, attempted, failed = run(wl, args.seconds, args.seed)

    for name, (value, unit) in {**metrics, **diagnostics}.items():
        print(f"{name:40s} {value:.6g} {unit}")
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}
    print("# env " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
