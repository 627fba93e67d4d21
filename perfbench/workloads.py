"""The four workloads: a model, a seeded stream of raw requests, and the
oracle check each answer must pass.

A raw request holds plain arrays only. Turning it into a `JointState` and a
`ProblemSpec` is part of the timed request, as it is for a real caller.
Everything random comes from the benchmark seed, drawn before any timing.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

import numpy as np

from dyngraph import (
    DynamicsError,
    JointState,
    Kind,
    ProblemSpec,
    VarKey,
    build_graph,
    oracle,
    parse_urdf,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

GRAVITY = (0.0, 0.0, -9.81)
POOL = 2048                       # raw requests drawn per run, then cycled
ORDERINGS = ("crba", "aba", "md", "nd")
PLANAR = (("j5", (0.0, 0.0, 1.0)),)

# tolerances of the acceptance suite
TORQUE_TOL = 1e-9
ACCEL_TOL = 1e-8                  # also the loop-closure residual


@dataclass(frozen=True, eq=False)
class Raw:
    """One request as plain data.

    `accel_given[i]` says whether actuated joint i has its acceleration
    (else its torque) given, and `given[i]` is that value. Unactuated
    joints are not listed; the spec gives them zero torque.
    """

    kind: str                     # "inverse", "forward" or "hybrid"
    q: np.ndarray
    qd: np.ndarray
    given: np.ndarray
    accel_given: tuple
    ordering: str = "auto"
    planar: bool = False
    prior: bool = False


@dataclass(frozen=True, eq=False)
class Workload:
    name: str
    model: object
    urdf: str                     # the text the model was parsed from
    requests: tuple               # raw requests, cycled by the caller


def driven_names(model):
    """The actuated joints, in the order `Raw.given` lists them."""
    return tuple(j.name for j in model.movable_joints if j.actuated)


def make_problem(model, driven, raw: Raw):
    """JointState and ProblemSpec for one raw request; `driven` is
    driven_names(model), passed in so a request does not recompute it."""
    state = JointState(raw.q, raw.qd)
    kw = {"gravity": GRAVITY}
    if raw.planar:
        kw["planar_loops"] = PLANAR
    if raw.kind == "inverse":
        spec = ProblemSpec.inverse(model, raw.given, **kw)
    elif raw.kind == "forward":
        spec = ProblemSpec.forward(model, raw.given, **kw)
    else:
        mapping = {name: {"accel" if a else "torque": float(v)}
                   for name, a, v in zip(driven, raw.accel_given, raw.given)}
        spec = ProblemSpec.hybrid(model, mapping, min_torque_prior=raw.prior, **kw)
    return state, spec


def joint_vectors(model, raw: Raw, values):
    """Torque and acceleration of every movable joint, read from a solved
    values dict: each is either the given value or a solved variable."""
    given = dict(zip(driven_names(model), zip(raw.accel_given, raw.given)))
    tau, qdd = [], []
    for j in model.movable_joints:
        accel_given, v = given.get(j.name, (False, 0.0))
        if accel_given:
            tau.append(values[VarKey(Kind.TORQUE, j.index)][0])
            qdd.append(v)
        else:
            tau.append(v)
            qdd.append(values[VarKey(Kind.JOINT_ACCEL, j.index)][0])
    return np.array(tau), np.array(qdd)


def oracle_check(model, raw: Raw, state, spec, tau, qdd, residual) -> tuple[bool, float]:
    """(passed, error) of one solved request against an independent oracle.

    Trees: the recursive Newton-Euler sweep at the full solved acceleration
    vector must reproduce the full torque vector, given or solved. Closed
    loops: the dense weighted least-squares solve of the same graph must
    give the same joint torques and accelerations, and, where no soft prior
    trades the hard rows off, the hard residual must close the loop.
    `tau` and `qdd` hold every movable joint's torque and acceleration.
    An oracle that raises fails the request.
    """
    try:
        if not model.loop_joints:
            ref = oracle.rnea_torques(model, state, qdd, gravity=GRAVITY)
            err = float(np.max(np.abs(ref - tau)))
            return err <= TORQUE_TOL, err
        dense = oracle.dense_solve(build_graph(model, state, spec))
    except DynamicsError:
        return False, float("inf")
    ref_tau, ref_qdd = joint_vectors(model, raw, dense)
    err = float(max(np.max(np.abs(ref_tau - tau)), np.max(np.abs(ref_qdd - qdd))))
    ok = err <= ACCEL_TOL and (raw.prior or residual <= ACCEL_TOL)
    return ok, err


# ---------------------------------------------------------------- models

def _box_inertia(rng, mass):
    a, b, c = rng.uniform(0.04, 0.3, 3)
    return mass * np.array([b * b + c * c, a * a + c * c, a * a + b * b]) / 12.0


def _fmt(v):
    return " ".join(repr(float(x)) for x in v)


def tree21_urdf(rng) -> str:
    """A torso joint plus four limbs of five revolute joints each. The
    shape is fixed; masses, inertias, offsets and axes come from `rng`."""
    links, joints = ['<link name="base"/>'], []

    def link(name):
        mass = float(rng.uniform(0.4, 3.0))
        ixx, iyy, izz = (float(i) for i in _box_inertia(rng, mass))
        com = rng.uniform(-0.04, 0.04, 3) + np.array([0.0, 0.0, 0.08])
        links.append(
            f'<link name="{name}"><inertial><origin xyz="{_fmt(com)}"/>'
            f'<mass value="{mass!r}"/><inertia ixx="{ixx!r}" ixy="0" ixz="0" '
            f'iyy="{iyy!r}" iyz="0" izz="{izz!r}"/></inertial></link>')

    def joint(name, parent, child, xyz):
        axis = rng.standard_normal(3)
        rpy = rng.uniform(-0.3, 0.3, 3)
        joints.append(
            f'<joint name="{name}" type="revolute"><parent link="{parent}"/>'
            f'<child link="{child}"/><origin xyz="{_fmt(xyz)}" rpy="{_fmt(rpy)}"/>'
            f'<axis xyz="{_fmt(axis)}"/></joint>')

    link("torso")
    joint("torso_yaw", "base", "torso", (0.0, 0.0, 0.5))
    mounts = ((0.2, 0.15, 0.3), (-0.2, 0.15, 0.3), (0.1, -0.15, -0.1), (-0.1, -0.15, -0.1))
    for limb, mount in enumerate(mounts):
        parent = "torso"
        for k in range(5):
            child = f"limb{limb}_{k}"
            link(child)
            xyz = mount if k == 0 else (0.0, 0.0, rng.uniform(0.15, 0.3))
            joint(f"limb{limb}_j{k}", parent, child, np.asarray(xyz, dtype=float)
                  + rng.uniform(-0.02, 0.02, 3))
            parent = child
    return '<robot name="tree21">' + "".join(links + joints) + "</robot>"


# --------------------------------------------------------------- requests

def _random_state(rng, n):
    return rng.uniform(-np.pi, np.pi, n), rng.uniform(-1.0, 1.0, n)


def _forward_raw(rng, n, ordering):
    q, qd = _random_state(rng, n)
    return Raw("forward", q, qd, rng.uniform(-2.0, 2.0, n), (False,) * n, ordering)


def _arm6(rng, count):
    """Computed-torque control along a smooth multi-sine trajectory."""
    urdf = (FIXTURES / "six_r.urdf").read_text()
    n, step = 6, 0.002
    center = rng.uniform(-1.0, 1.0, (n, 1))
    amp = rng.uniform(0.1, 0.5, (n, 3))
    omega = rng.uniform(0.5, 3.0, (n, 3))
    phase = rng.uniform(0.0, 2 * np.pi, (n, 3))
    t = np.arange(count) * step
    arg = omega[:, :, None] * t + phase[:, :, None]           # joint, harmonic, time
    q = center + np.sum(amp[:, :, None] * np.sin(arg), axis=1)
    qd = np.sum((amp * omega)[:, :, None] * np.cos(arg), axis=1)
    qdd = -np.sum((amp * omega ** 2)[:, :, None] * np.sin(arg), axis=1)
    requests = tuple(Raw("inverse", q[:, i], qd[:, i], qdd[:, i], (True,) * n)
                     for i in range(count))
    return urdf, requests


def _tree21_orderings(rng, count):
    urdf = tree21_urdf(rng)
    requests = tuple(_forward_raw(rng, 21, ORDERINGS[i % len(ORDERINGS)])
                     for i in range(count))
    return urdf, requests


def _tree21_hybrid(rng, count):
    urdf = tree21_urdf(rng)
    requests = []
    for _ in range(count):
        q, qd = _random_state(rng, 21)
        accel = rng.random(21) < 0.5
        given = np.where(accel, rng.uniform(-1.0, 1.0, 21), rng.uniform(-2.0, 2.0, 21))
        requests.append(Raw("hybrid", q, qd, given, tuple(bool(a) for a in accel)))
    return urdf, tuple(requests)


# five-bar geometry of the fixture: ground pivots A and B, four bars of length L
_A, _B, _L = np.array([-0.1, 0.0]), np.array([0.1, 0.0]), 0.25


def _unit(a):
    return np.array([np.cos(a), np.sin(a)])


def _perp(a):
    return np.array([-np.sin(a), np.cos(a)])


def fivebar_state(q1, q3, qd1, qd3):
    """Closure-consistent (q, qd) over joints j1..j5, elbow-up branch.

    Both chains must end at one tip P; phi2 = q1 + q2 and phi4 = q3 + q4
    are the absolute angles of the distal bars, and the loop joint turns
    by phi4 - phi2.
    """
    el, er = _A + _L * _unit(q1), _B + _L * _unit(q3)
    gap = er - el
    d = np.linalg.norm(gap)
    h = np.sqrt(_L ** 2 - (d / 2) ** 2)
    tip = (el + er) / 2 + h * np.array([-gap[1], gap[0]]) / d
    phi2 = np.arctan2(*(tip - el)[::-1])
    phi4 = np.arctan2(*(tip - er)[::-1])
    # tip velocity of both chains agrees: solve for the distal bar rates
    lhs = np.column_stack([_L * _perp(phi2), -_L * _perp(phi4)])
    rhs = _L * _perp(q3) * qd3 - _L * _perp(q1) * qd1
    phid2, phid4 = np.linalg.solve(lhs, rhs)
    q5 = (phi4 - phi2 + np.pi) % (2 * np.pi) - np.pi
    q = np.array([q1, phi2 - q1, q3, phi4 - q3, q5])
    qd = np.array([qd1, phid2 - qd1, qd3, phid4 - qd3, phid4 - phid2])
    return q, qd


def _fivebar_draw(rng):
    """A closure-consistent state and two given values for j1 and j3."""
    q, qd = fivebar_state(rng.uniform(1.7, 2.1), rng.uniform(1.0, 1.4),
                          *rng.uniform(-0.5, 0.5, 2))
    return q, qd, rng.uniform(-1.0, 1.0, 2)


def _fivebar(rng, count):
    """Rotate forward, hybrid with both base joints driven, and that hybrid
    with the minimum-torque prior; the planar loop is always declared."""
    urdf = (FIXTURES / "five_bar.urdf").read_text()
    requests = []
    for i in range(count):
        q, qd, given = _fivebar_draw(rng)
        if i % 3 == 0:
            requests.append(Raw("forward", q, qd, given, (False, False), planar=True))
        else:
            requests.append(Raw("hybrid", q, qd, given, (True, True), planar=True,
                                prior=i % 3 == 2))
    return urdf, tuple(requests)


BUILDERS = {
    "arm6_control": _arm6,
    "tree21_orderings": _tree21_orderings,
    "tree21_hybrid": _tree21_hybrid,
    "fivebar_loop": _fivebar,
}


def generate(name: str, seed: int, count: int = POOL):
    """(model text, requests) drawn from the seed. The first requests do
    not depend on `count`."""
    rng = np.random.default_rng([seed, list(BUILDERS).index(name)])
    return BUILDERS[name](rng, count)


def load(name: str, seed: int) -> Workload:
    urdf, requests = generate(name, seed)
    return Workload(name, parse_urdf(urdf), urdf, requests)
