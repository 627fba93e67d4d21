"""Untraced closed-loop measurement and the fresh-process set-up probe.

One caller sends one request at a time and sends the next only after the
previous one returns. Each request is timed, then the reference kernel is
timed right after it, and only then is the answer checked against the
oracle, outside both timings.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from dyngraph import solve_dynamics
from refkernel import reference_seconds
from workloads import driven_names, make_problem, oracle_check

HERE = pathlib.Path(__file__).resolve().parent
SETUP_RUNS = 21                  # fresh processes per run; the median is reported
SETUP_SCALE_S = 0.3              # fixed scale of the set-up ratio (setup_seconds)


@dataclass(frozen=True)
class Sample:
    label: str                   # request kind, e.g. "forward/crba"
    ordering: str
    request_s: float
    ref_s: float
    ok: bool
    edges: int

    @property
    def rel(self) -> float:
        return self.request_s / self.ref_s


def report_failure(what: str):
    """Call from an except block: the traceback goes to standard error."""
    print(f"# request failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def run_untraced(wl, requests, seconds: float, min_requests: int = 0) -> list:
    """Send `requests` in turn, cycling, until `seconds` have passed and at
    least `min_requests` were sent. Returns one Sample per request."""
    model = wl.model
    driven = driven_names(model)
    names = [j.name for j in model.movable_joints]
    samples = []
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline or i < min_requests:
        raw = requests[i % len(requests)]
        label = f"{raw.kind}/{raw.ordering}" + ("/prior" if raw.prior else "")
        i += 1
        t0 = perf_counter()
        try:
            state, spec = make_problem(model, driven, raw)
            res = solve_dynamics(model, state, spec, raw.ordering)
            tau = np.array([res.torques[n] for n in names])
            qdd = np.array([res.accels[n] for n in names])
        except Exception:
            report_failure(f"{wl.name} request {i - 1}")
            res = None
        t1 = perf_counter()
        ref = reference_seconds()
        if res is None:
            samples.append(Sample(label, raw.ordering, t1 - t0, ref, False, 0))
            continue
        ok, _err = oracle_check(model, raw, state, spec, tau, qdd, res.residual_max)
        samples.append(Sample(label, raw.ordering, t1 - t0, ref, ok,
                              res.dag.edge_count))
    return samples


def typical_ratio(samples) -> float:
    """Mean over request kinds of each kind's median ratio; the plain
    median when a workload has one kind. A workload that rotates through
    kinds of different cost has a median that falls in the gap between
    them and jumps from run to run; each kind's own median does not."""
    by_label = defaultdict(list)
    for s in samples:
        by_label[s.label].append(s.rel)
    return statistics.fmean(statistics.median(r) for r in by_label.values())


def setup_seconds(workload: str, seed: int) -> tuple[float, dict]:
    """(setup_s, raw medians) over SETUP_RUNS fresh processes.

    Each process times the reference import of numpy and scipy.linalg,
    then the program's own set-up: importing dyngraph, parsing the model
    and the first solve (setup_probe.py). The own part is small, 50 to
    120 ms against a 0.3 s reference import on a 2-vCPU cloud VM, and its
    raw median moved by half between batches of runs as the machine
    changed speed. So setup_s is a calibrated ratio, not a clock reading:
    the median over processes of own time / reference import time, times
    the fixed SETUP_SCALE_S. It reads as the program's own set-up seconds
    on a machine where the reference import takes SETUP_SCALE_S. The raw
    medians are returned for the record. One discarded process first
    warms the file and bytecode caches.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    runs = []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    runs = runs[1:]
    own = [r["own_s"] for r in runs]
    ref = [r["reference_import_s"] for r in runs]
    raw = {
        "setup_own_raw_s": statistics.median(own),
        "setup_reference_import_s": statistics.median(ref),
        "setup_cold_start_s": statistics.median(o + r for o, r in zip(own, ref)),
    }
    return SETUP_SCALE_S * statistics.median(o / r for o, r in zip(own, ref)), raw
