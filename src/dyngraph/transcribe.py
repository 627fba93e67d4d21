"""Transcription of a robot's dynamics at one joint state into a factor graph.

Twists are nonlinear in the joint rates, so they are propagated outward
first; everything that remains (accelerations, wrenches, joint
accelerations, torques) is linear and becomes the variables of the graph.
Quantities designated known in the problem spec never become variables:
they are folded into factor right-hand sides.

Per joint, tree or loop alike: an acceleration factor, a torque factor if
it moves, and one wrench F_j, which enters its child link's balance as -F_j
and its parent link's as Ad_j^T F_j (a tree joint shares its index with its
child link). Per link: a wrench balance factor carrying the inertia terms,
the gravity wrench and, for the tool link, the external tool wrench. A
planar loop additionally gets a unary factor zeroing the wrench components
a planar mechanism cannot transmit.

Transcription lists each factor's keys, row count and weight (the graph's
structure, which fixes the elimination plan) next to its blocks and
right-hand side. A solve hands that list to the plan, which scatters the
numbers straight into its elimination buffer, so no `LinearFactor` is made;
`build_graph` makes them from the same list.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from time import perf_counter

import numpy as np

from .errors import InconsistentLoopState
from .fgraph import Assembly, FactorGraph, Kind, LinearFactor, VarKey, plan_for
from .model import RobotModel
from .spatial import Pose, ad_product, ad_transpose_product, big_adjoint, skew

_LOOP_TOL = 1e-6


def _finite(value, what: str, n: int | None = None) -> np.ndarray:
    """`value` as a read-only float array of at least one dimension,
    reshaped to (n,) when `n` is given. The ValueError for a wrong size, a
    non-number or a non-finite entry names `what`."""
    try:
        a = np.atleast_1d(np.array(value, dtype=float))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be finite numbers, got {value!r}") from None
    if n is not None:
        if a.size != n:
            raise ValueError(f"{what} must have {n} entries, got shape {a.shape}")
        a = a.reshape(n)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite, got {a}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class JointState:
    """Angles and rates, one entry per non-fixed joint in declaration order."""

    q: np.ndarray
    qd: np.ndarray

    def __post_init__(self):
        q = _finite(self.q, "q")
        qd = _finite(self.qd, "qd")
        if q.shape != qd.shape or q.ndim != 1:
            raise ValueError("q and qd must be 1-d arrays of equal length")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "qd", qd)


@dataclass(frozen=True)
class GivenAccel:
    """This joint's acceleration is prescribed; its torque is unknown."""

    value: float = 0.0


@dataclass(frozen=True)
class GivenTorque:
    """This joint's torque is prescribed; its acceleration is unknown."""

    value: float = 0.0


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """What is known at each joint, plus boundary terms.

    `designations` aligns with the model's movable joints in declaration
    order. Unactuated joints (including loop joints) move freely, so the
    factories designate them GivenTorque(0). `base_accel` (in the base
    frame) and `tool_wrench` (in the tool link's URDF frame; nonzero only
    on a model with a single tool link) are 6-vectors (angular; linear).
    `planar_loops` maps loop joint names to plane normals expressed in the
    base body frame. Every value must be finite.
    """

    designations: tuple
    base_accel: np.ndarray = (0.0,) * 6
    tool_wrench: np.ndarray = (0.0,) * 6
    gravity: np.ndarray = (0.0, 0.0, -9.81)
    min_torque_prior: bool = False
    planar_loops: tuple = ()

    def __post_init__(self):
        for what, n in (("gravity", 3), ("base_accel", 6), ("tool_wrench", 6)):
            object.__setattr__(self, what, _finite(getattr(self, what), what, n))
        if not isinstance(self.min_torque_prior, (bool, np.bool_)):
            raise ValueError(f"min_torque_prior must be a bool, got {self.min_torque_prior!r}")
        object.__setattr__(self, "min_torque_prior", bool(self.min_torque_prior))
        try:
            object.__setattr__(self, "designations", tuple(self.designations))
        except TypeError:
            raise ValueError(f"designations must be a sequence of GivenAccel or "
                             f"GivenTorque, got {self.designations!r}") from None
        for i, d in enumerate(self.designations):
            if not isinstance(d, (GivenAccel, GivenTorque)):
                raise ValueError(f"designations[{i}] must be GivenAccel or "
                                 f"GivenTorque, got {d!r}")
            # an exact comparison, so NaN and ints too large for a float fail
            if not (isinstance(d.value, Real) and abs(d.value) <= sys.float_info.max):
                raise ValueError(f"designations[{i}].value must be a finite real "
                                 f"number, got {d.value!r}")
        try:
            planar = dict(self.planar_loops)
        except (TypeError, ValueError):
            raise ValueError(f"planar_loops must map loop joint names to normals, "
                             f"got {self.planar_loops!r}") from None
        loops = []
        for name, normal in planar.items():
            n = _finite(normal, f"planar loop {name} normal", 3)
            norm = np.linalg.norm(n)
            if norm < 1e-12:
                raise ValueError(f"planar loop {name}: zero normal")
            n = n / norm
            n.setflags(write=False)
            loops.append((name, n))
        object.__setattr__(self, "planar_loops", tuple(loops))

    @staticmethod
    def _free_designations(model: RobotModel) -> dict:
        return {j.name: GivenTorque(0.0) for j in model.movable_joints if not j.actuated}

    @classmethod
    def _assemble(cls, model, by_name, **kw):
        order = []
        for j in model.movable_joints:
            if j.name not in by_name:
                raise ValueError(f"no designation for joint {j.name}")
            order.append(by_name.pop(j.name))
        if by_name:
            raise ValueError(f"designations for unknown joints: {sorted(by_name)}")
        return cls(designations=tuple(order), **kw)

    @classmethod
    def _all_actuated(cls, model, given, what, values, **kw):
        """Every actuated joint gets `given(value)`, one value per actuated
        joint in declaration order; free joints get zero torque."""
        des = cls._free_designations(model)
        actuated = [j for j in model.movable_joints if j.actuated]
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if values.shape != (len(actuated),):
            raise ValueError(f"expected {len(actuated)} {what}, got {values.shape}")
        for j, x in zip(actuated, values):
            des[j.name] = given(float(x))
        return cls._assemble(model, des, **kw)

    @classmethod
    def inverse(cls, model: RobotModel, qdd, **kw) -> "ProblemSpec":
        """All actuated joints have given accelerations (one per actuated
        joint, declaration order); free joints get zero torque."""
        return cls._all_actuated(model, GivenAccel, "accelerations", qdd, **kw)

    @classmethod
    def forward(cls, model: RobotModel, tau, **kw) -> "ProblemSpec":
        """All actuated joints have given torques; free joints get zero."""
        return cls._all_actuated(model, GivenTorque, "torques", tau, **kw)

    @classmethod
    def hybrid(cls, model: RobotModel, mapping, **kw) -> "ProblemSpec":
        """Mixed problem: `mapping` gives each actuated joint either an
        acceleration or a torque, as GivenAccel/GivenTorque values or
        {"accel": x} / {"torque": x} dicts with a number x. Free joints
        default to zero torque but may be overridden."""
        if not isinstance(mapping, Mapping):
            raise ValueError(f"designations must map joint names, got {mapping!r}")
        des = cls._free_designations(model)
        for name, d in mapping.items():
            if isinstance(d, dict):
                if set(d) not in ({"accel"}, {"torque"}):
                    raise ValueError(f"joint {name}: designation must be "
                                     f"{{'accel': x}} or {{'torque': x}}, got {d}")
                (what, x), = d.items()
                try:
                    d = (GivenAccel if what == "accel" else GivenTorque)(float(x))
                except (TypeError, ValueError, OverflowError):
                    raise ValueError(f"joint {name}: {what} must be a number, got {x!r}") from None
            if not isinstance(d, (GivenAccel, GivenTorque)):
                raise ValueError(f"joint {name}: bad designation {d!r}")
            des[name] = d
        return cls._assemble(model, des, **kw)

    def by_joint(self, model: RobotModel) -> dict:
        movable = model.movable_joints
        if len(self.designations) != len(movable):
            raise ValueError(f"spec has {len(self.designations)} designations "
                             f"for {len(movable)} movable joints")
        if model.tool_link is None and np.any(self.tool_wrench):
            raise ValueError(f"tool_wrench must be zero: the model has no single tool "
                             f"link to apply {self.tool_wrench} to")
        return {j.name: d for j, d in zip(movable, self.designations)}


def _kinematics(model: RobotModel, state: JointState):
    """Propagate poses and twists outward; verify loop closure.

    Returns (frames, twists, adjoints, motions): by link name, the 3x4
    [R | p] link-from-base transform of each body frame and its twist; by
    joint name, tree and loop alike, the 6x6 child-from-parent adjoint and
    the screw times the rate; each a view of one array. The per-joint
    constants live on the model (`RobotModel.joint_constants`, derived once
    per model), so all joints are evaluated together in a few array
    operations; only the chain from link to link is a loop.
    """
    c = model.joint_constants
    n = len(model.movable_joints)
    if state.q.shape != (n,):
        raise ValueError(f"state has {state.q.shape[0]} entries for {n} movable joints")
    if not np.isfinite(state.q).all():
        raise ValueError(f"q must be finite, got {state.q}")
    # exp_screw(axis, -q) @ rest_offset.inverse(), term by term in the same
    # order as there, so the numbers are the same
    th = -np.concatenate((state.q, _ZERO1))[c.slots, None, None]
    s, vers = np.sin(th), 1.0 - np.cos(th)
    ex = _EYE3 + s * c.w_hat + vers * c.w_hat2
    g = _EYE3 * th + vers * c.w_hat + (th - s) * c.w_hat2
    rot = ex @ c.rest[:, :, :3]
    p = ex @ c.rest[:, :, 3:] + g @ c.screws[:, 3:, None]
    rp = np.concatenate((rot, p), axis=2)
    ad = np.zeros((len(rp), 6, 6))
    ad[:, :3, :3] = ad[:, 3:, 3:] = rot
    ad[:, 3:, :3] = (p[:, :, 0] @ _SKEW).reshape(-1, 3, 3) @ rot
    motion = c.screws * np.concatenate((state.qd, _ZERO1))[c.slots, None]

    # the link at position k of topo_order is the child of sweep joint k - 1
    links = len(model.topo_order)
    frames = np.zeros((links, 4, 4))
    frames[0], frames[:, 3, 3] = _EYE4, 1.0
    twists = np.zeros((links, 6))
    for k, parent in enumerate(c.parents[:links - 1], start=1):
        np.matmul(rp[k - 1], frames[parent], out=frames[k, :3])
        np.matmul(ad[k - 1], twists[parent], out=twists[k])
        twists[k] += motion[k - 1]
    frames = frames[:, :3]

    for k in range(links - 1, len(rp)):
        name, fc, fp = c.joints[k].name, frames[c.children[k]], frames[c.parents[k]]
        r = fc[:, :3] @ fp[:, :3].T
        pos_res = float(max(np.max(np.abs(r - rot[k])),
                            np.max(np.abs(fc[:, 3] - r @ fp[:, 3] - rp[k, :, 3]))))
        # written as not (res <= tol) so that a NaN residual fails
        if not pos_res <= _LOOP_TOL:
            raise InconsistentLoopState(
                f"loop joint {name}: closure violated at position level "
                f"(residual {pos_res:.3e})")
        vel = twists[c.children[k]] - ad[k] @ twists[c.parents[k]] - motion[k]
        vel_res = float(np.max(np.abs(vel)))
        if not vel_res <= _LOOP_TOL:
            raise InconsistentLoopState(
                f"loop joint {name}: rates violate the loop constraint "
                f"(residual {vel_res:.3e})")
    names = [j.name for j in c.joints]
    return (dict(zip(model.topo_order, frames)), dict(zip(model.topo_order, twists)),
            dict(zip(names, ad)), dict(zip(names, motion)))


def compute_twists(model: RobotModel, state: JointState) -> dict:
    """Body twist (angular; linear) of every link at the given state; the
    base's is zero. These are the arrays `DynamicsResult.twists` holds."""
    return _kinematics(model, state)[1]


def link_poses(model: RobotModel, state: JointState) -> dict:
    """Base-from-link pose of every body frame at the given state."""
    frames = _kinematics(model, state)[0]
    f = np.array(list(frames.values()))
    rot = f[:, :, :3].transpose(0, 2, 1)
    p = -(rot @ f[:, :, 3:])[:, :, 0]
    return {name: Pose._unchecked(r, t) for name, r, t in zip(frames, rot, p)}


def _planar_rows(normal) -> np.ndarray:
    n = np.asarray(normal, dtype=float).reshape(3)
    n = n / np.linalg.norm(n)
    # skew(n) @ x is n x x, and its column k is n x e_k
    cross = skew(n)
    t1 = cross[:, int(np.argmin(np.abs(n)))]
    t1 = t1 / np.linalg.norm(t1)
    t2 = cross @ t1
    rows = np.zeros((3, 6))
    rows[0, :3] = t1
    rows[1, :3] = t2
    rows[2, 3:] = n
    return rows


def planar_factor(key: VarKey, normal, name: str = "planar") -> LinearFactor:
    """Unary factor zeroing the wrench components a planar loop joint
    cannot transmit: both in-plane moments and the normal force. The
    normal is expressed in the same frame as the wrench variable."""
    return LinearFactor({key: _planar_rows(normal)}, rhs=_ZERO3, name=name)


# blocks shared by every transcription; they are only ever read
_EYE6 = np.eye(6)
_NEG_EYE6 = -np.eye(6)
_EYE1 = np.eye(1)
_NEG_EYE1 = -np.eye(1)
_ZERO1 = np.zeros(1)
_ZERO3 = np.zeros(3)
_ZERO6 = np.zeros(6)
_EYE3 = np.eye(3)
_EYE4 = np.eye(4)
_SKEW = np.stack([skew(e) for e in np.eye(3)]).reshape(3, 9)   # p @ _SKEW is skew(p)
for _a in (_EYE6, _NEG_EYE6, _EYE1, _NEG_EYE1, _ZERO1, _ZERO3, _ZERO6, _EYE3, _EYE4, _SKEW):
    _a.setflags(write=False)


def _transcribe(model: RobotModel, kin, spec: ProblemSpec, des: dict) -> tuple:
    """The factors at one state as (structure, labels, parts): per factor
    its (keys, rows, weight) as `FactorGraph.structure` lists them and its
    (name, knowns), and flat in the same order each factor's key blocks,
    then its rhs, the parts `fgraph.Assembly` scatters. Nothing is copied
    or validated."""
    frames, twists, adjoints, motions = kin
    structure, labels, parts = [], [], []

    def add(blocks, rhs, name, knowns=(), weight=1.0):
        structure.append((tuple(blocks), rhs.shape[0], weight))
        labels.append((name, tuple(knowns)))
        parts.extend(blocks.values())
        parts.append(rhs)

    # each link's wrench balance blocks, filled by the joints touching it
    balance = {link.name: {} for link in model.links}

    # acceleration factor per joint: Vd_child - Ad Vd_parent - A qdd = bias;
    # the joint's wrench F_j enters its child's balance as -I and its
    # parent's as Ad^T, whether the joint is a tree or a loop joint
    for j in model.joints:
        ad = adjoints[j.name]
        fkey = VarKey(Kind.WRENCH, j.index)
        balance[j.child][fkey] = _NEG_EYE6
        balance[j.parent][fkey] = ad.T
        blocks = {}
        knowns = []
        rhs = _ZERO6
        if j.axis is not None:
            rhs = ad_product(twists[j.child], motions[j.name])
        child_idx = model.link_map[j.child].index
        parent_idx = model.link_map[j.parent].index
        if child_idx == 0:
            rhs = rhs - spec.base_accel
            knowns.append("Vd0")
        else:
            blocks[VarKey(Kind.ACCEL, child_idx)] = _EYE6
        if parent_idx == 0:
            rhs = rhs + ad @ spec.base_accel
            knowns.append("Vd0")
        else:
            blocks[VarKey(Kind.ACCEL, parent_idx)] = -ad
        if j.axis is not None:
            d = des[j.name]
            if isinstance(d, GivenAccel):
                rhs = rhs + j.axis.vector * d.value
                knowns.append(f"qdd{j.index}")
            else:
                blocks[VarKey(Kind.JOINT_ACCEL, j.index)] = -j.axis.vector.reshape(6, 1)
        add(blocks, rhs, f"accel[{j.name}]", knowns)

    # wrench balance per link: G Vd - F + sum AdT F_child = bias + gravity
    for link in model.links:
        if link.name == model.base:
            continue
        blocks = balance[link.name]
        knowns = ()
        rhs = _ZERO6
        if link.inertia is not None:
            g_mat = link.inertia.matrix()
            blocks[VarKey(Kind.ACCEL, link.index)] = g_mat
            v = twists[link.name]
            rhs = ad_transpose_product(v, g_mat @ v)
            rhs[3:] += link.inertia.mass * (frames[link.name][:, :3] @ spec.gravity)
        if link.name == model.tool_link and np.any(spec.tool_wrench):
            rhs = rhs - big_adjoint(link.com_offset).T @ spec.tool_wrench
            knowns = ("Ft",)
        add(blocks, rhs, f"balance[{link.name}]", knowns)

    # torque factor per movable joint: A' F - tau = 0
    for j in model.movable_joints:
        fkey = VarKey(Kind.WRENCH, j.index)
        row = j.axis.vector.reshape(1, 6)
        d = des[j.name]
        if isinstance(d, GivenTorque):
            add({fkey: row}, np.array([d.value], dtype=float), f"torque[{j.name}]",
                (f"tau{j.index}",))
        else:
            add({fkey: row, VarKey(Kind.TORQUE, j.index): _NEG_EYE1}, _ZERO1,
                f"torque[{j.name}]")

    if spec.min_torque_prior:
        for j in model.movable_joints:
            if isinstance(des[j.name], GivenAccel):
                add({VarKey(Kind.TORQUE, j.index): _EYE1}, _ZERO1, f"prior[{j.name}]",
                    weight=1e-3)

    planar_names = {name for name, _ in spec.planar_loops}
    loop_names = {l.name for l in model.loop_joints}
    if not planar_names <= loop_names:
        raise ValueError(f"planar factors name non-loop joints: "
                         f"{sorted(planar_names - loop_names)}")
    for name, normal in spec.planar_loops:
        l = model.joint_map[name]
        add({VarKey(Kind.WRENCH, l.index): _planar_rows(frames[l.child][:, :3] @ normal)},
            _ZERO3, f"planar[{name}]")
    return structure, labels, parts


def _factors(structure, labels, parts) -> tuple:
    """The LinearFactors that `_transcribe` listed."""
    it = iter(parts)
    return tuple(LinearFactor({k: next(it) for k in keys}, next(it), weight, name, knowns)
                 for (keys, _, weight), (name, knowns) in zip(structure, labels))


def build_graph(model: RobotModel, state: JointState, spec: ProblemSpec) -> FactorGraph:
    """Factor graph of the dynamics constraints at one state."""
    kin = _kinematics(model, state)
    return FactorGraph(_factors(*_transcribe(model, kin, spec, spec.by_joint(model))))


class _SolvedGraph(FactorGraph):
    """The factor graph of one solve: its structure is known at once, its
    factors are made from the solve's numbers on first use."""

    def __init__(self, structure, labels, parts):
        self.structure = tuple(structure)
        self._listed = (structure, labels, parts)

    @cached_property
    def factors(self) -> tuple:
        return _factors(*self._listed)


@dataclass(frozen=True, eq=False)
class DynamicsResult:
    """Solved dynamics at one state: per-joint and per-link quantities,
    plus the graph and DAG they came from. `graph` is the same graph as
    `build_graph(model, state, spec)`; its structure is known at once, and
    its factors are made from the solve's numbers only when first read.
    Build time covers kinematics and listing the factors' structure and
    numbers; solve time covers resolving the ordering (a memo lookup when
    the problem structure repeats), scattering the numbers into the plan's
    buffer, elimination, back-substitution and the hard-row residual
    check."""

    values: dict
    torques: dict
    accels: dict
    twists: dict
    link_accels: dict
    wrenches: dict
    graph: FactorGraph
    dag: object
    ordering: tuple
    residual_max: float
    build_micros: float = 0.0
    solve_micros: float = 0.0


def _plan(graph: FactorGraph, ordering, model: RobotModel):
    deferred = ()
    if isinstance(ordering, str) and ordering.lower() == "auto":
        ordering = "md"
        deferred = tuple(VarKey(Kind.WRENCH, l.index) for l in model.loop_joints)
    return plan_for(graph, ordering, deferred)


def resolve_ordering(graph: FactorGraph, ordering, model: RobotModel) -> list:
    """The VarKey list `fgraph.plan_for` resolves an ordering request to,
    with the one rule that needs the model: "auto" is "md" with the model's
    loop wrenches deferred to the end."""
    return list(_plan(graph, ordering, model).ordering)


def solve_dynamics(model: RobotModel, state: JointState, spec: ProblemSpec,
                   ordering="auto") -> DynamicsResult:
    """Transcribe the dynamics at one state, eliminate, back-substitute, and
    sort the solution into named per-joint / per-link quantities.

    The plan for the problem's structure places the factors' numbers
    straight into its elimination buffer; no LinearFactor is made unless
    the result's `graph` factors are read. The default ordering is
    minimum-degree with loop wrenches deferred to the end, so an
    underdetermined loop (no planar factor) surfaces as RankDeficient at
    the loop wrench itself rather than at an arbitrary variable upstream.
    """
    t0 = perf_counter()
    kin = _kinematics(model, state)
    des = spec.by_joint(model)
    listed = _transcribe(model, kin, spec, des)
    t1 = perf_counter()
    graph = _SolvedGraph(*listed)
    plan = _plan(graph, ordering, model)
    dag, values, residual = Assembly(plan, listed[2]).solve()
    t2 = perf_counter()

    torques = {}
    accels = {}
    for j in model.movable_joints:
        d = des[j.name]
        if isinstance(d, GivenTorque):
            torques[j.name] = d.value
            accels[j.name] = float(values[VarKey(Kind.JOINT_ACCEL, j.index)][0])
        else:
            torques[j.name] = float(values[VarKey(Kind.TORQUE, j.index)][0])
            accels[j.name] = d.value
    link_accels = {model.base: spec.base_accel}
    for link in model.links:
        if link.index > 0:
            link_accels[link.name] = values[VarKey(Kind.ACCEL, link.index)]
    wrenches = {j.name: values[VarKey(Kind.WRENCH, j.index)] for j in model.joints}

    return DynamicsResult(
        values=values,
        torques=torques,
        accels=accels,
        twists=kin[1],
        link_accels=link_accels,
        wrenches=wrenches,
        graph=graph,
        dag=dag,
        ordering=plan.ordering,
        residual_max=residual,
        build_micros=(t1 - t0) * 1e6,
        solve_micros=(t2 - t1) * 1e6,
    )
