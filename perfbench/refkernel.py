"""Frozen reference kernel: the yardstick that request times are divided by.

The machine this benchmark runs on changes speed from one moment to the
next, so absolute request times do not repeat. The kernel below is timed
right after every request, and a request's cost is reported in multiples
of it. It mixes small-array numpy work (6x6 adjoints, a small QR, a
triangular solve) with dict and loop bookkeeping, the kinds of work a
dynamics solve does, so a change of processor speed moves both alike.

A request leaves the caches full of its own data, and a kernel run in
that state is slow by an amount that varies from request to request. So
`reference_seconds` runs the kernel once to warm the caches and times the
second run, which tracks the processor's speed far more steadily.

It imports nothing from the program under test and its inputs are fixed,
so no change to the program can move it. Do not edit it: every ratio the
benchmark reports is measured in its units.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.linalg import solve_triangular

_LINKS = 8


def _fixed_inputs():
    rng = np.random.default_rng(20191122)
    rots = []
    for _ in range(_LINKS):
        q, _r = np.linalg.qr(rng.standard_normal((3, 3)))
        rots.append(q)
    pos = [rng.standard_normal(3) for _ in range(_LINKS)]
    vec = [rng.standard_normal(6) for _ in range(_LINKS)]
    stack = rng.standard_normal((18, 13))
    return tuple(rots), tuple(pos), tuple(vec), stack


_ROTS, _POS, _VEC, _STACK = _fixed_inputs()


def _skew(p):
    return np.array([[0.0, -p[2], p[1]], [p[2], 0.0, -p[0]], [-p[1], p[0], 0.0]])


def reference_kernel() -> float:
    """One unit of reference work (0.6 to 0.9 ms warm on a 2-vCPU cloud
    VM). Returns a checksum so nothing can be skipped."""
    total = 0.0
    for _round in range(3):
        accel = {}
        prev = np.zeros(6)
        for i in range(_LINKS):
            r = _ROTS[i]
            ad = np.zeros((6, 6))
            ad[:3, :3] = r
            ad[3:, 3:] = r
            ad[3:, :3] = _skew(_POS[i]) @ r
            prev = ad @ prev + _VEC[i]
            accel[("a", i)] = prev
            total += float(ad.T @ prev @ _VEC[i])
        rmat = np.linalg.qr(_STACK, mode="r")
        x = solve_triangular(rmat[:6, :6], rmat[:6, -1])
        total += float(np.max(np.abs(x))) + len(accel)
    return total


def reference_seconds() -> float:
    """Seconds taken by one warm run of the reference kernel."""
    reference_kernel()
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0
