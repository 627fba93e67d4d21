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
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass
from numbers import Real
from time import perf_counter

import numpy as np

from .errors import InconsistentLoopState
from .fgraph import (
    FactorGraph,
    Kind,
    LinearFactor,
    VarKey,
    back_substitute,
    eliminate,
    plan_for,
)
from .model import JointKind, RobotModel
from .spatial import Pose, big_adjoint, little_adjoint

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
    frame) and `tool_wrench` (in the tool link's URDF frame) are 6-vectors
    (angular; linear). `planar_loops` maps loop joint names to plane normals
    expressed in the base body frame. Every value must be finite.
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
        return {j.name: d for j, d in zip(movable, self.designations)}


def _state_maps(model: RobotModel, state: JointState):
    movable = model.movable_joints
    if state.q.shape != (len(movable),):
        raise ValueError(f"state has {state.q.shape[0]} entries "
                         f"for {len(movable)} movable joints")
    q = {j.name: float(a) for j, a in zip(movable, state.q)}
    qd = {j.name: float(r) for j, r in zip(movable, state.qd)}
    return q, qd


def _kinematics(model: RobotModel, state: JointState):
    """Propagate poses and twists outward; verify loop closure.

    Returns (qd_map, poses, twists, adjoints) with poses as base-from-link
    transforms of the body frames, twists as 6-vectors, and adjoints as the
    6x6 child-from-parent adjoint of every joint, tree and loop alike, keyed
    by joint name. This is the only place a joint transform is evaluated.
    """
    q, qd = _state_maps(model, state)
    poses = {model.base: Pose.identity()}
    twists = {model.base: np.zeros(6)}
    adjoints = {}
    for name in model.topo_order[1:]:
        j = model.parent_joint[name]
        th = q.get(j.name, 0.0)
        t_cp = j.transform(th)
        ad = adjoints[j.name] = big_adjoint(t_cp)
        poses[name] = poses[j.parent] @ t_cp.inverse()
        v = ad @ twists[j.parent]
        if j.axis is not None:
            v = v + j.axis.vector * qd.get(j.name, 0.0)
        twists[name] = v

    for l in model.loop_joints:
        t_cp = l.transform(q[l.name])
        adjoints[l.name] = big_adjoint(t_cp)
        tree_cp = poses[l.child].inverse() @ poses[l.parent]
        pos_res = float(np.max(np.abs(tree_cp.matrix() - t_cp.matrix())))
        # written as not (res <= tol) so that a NaN residual fails
        if not pos_res <= _LOOP_TOL:
            raise InconsistentLoopState(
                f"loop joint {l.name}: closure violated at position level "
                f"(residual {pos_res:.3e})")
        vel = twists[l.child] - adjoints[l.name] @ twists[l.parent] \
            - l.axis.vector * qd[l.name]
        vel_res = float(np.max(np.abs(vel)))
        if not vel_res <= _LOOP_TOL:
            raise InconsistentLoopState(
                f"loop joint {l.name}: rates violate the loop constraint "
                f"(residual {vel_res:.3e})")
    return qd, poses, twists, adjoints


def compute_twists(model: RobotModel, state: JointState) -> dict:
    """Body twist (angular; linear) of every link at the given state; the
    base's is zero. These are the arrays `DynamicsResult.twists` holds."""
    _, _, twists, _ = _kinematics(model, state)
    return twists


def link_poses(model: RobotModel, state: JointState) -> dict:
    """Base-from-link pose of every body frame at the given state."""
    _, poses, _, _ = _kinematics(model, state)
    return poses


def planar_factor(key: VarKey, normal, name: str = "planar") -> LinearFactor:
    """Unary factor zeroing the wrench components a planar loop joint
    cannot transmit: both in-plane moments and the normal force. The
    normal is expressed in the same frame as the wrench variable."""
    n = np.asarray(normal, dtype=float).reshape(3)
    n = n / np.linalg.norm(n)
    t1 = np.cross(n, np.eye(3)[int(np.argmin(np.abs(n)))])
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    rows = np.zeros((3, 6))
    rows[0, :3] = t1
    rows[1, :3] = t2
    rows[2, 3:] = n
    return LinearFactor({key: rows}, rhs=np.zeros(3), name=name)


def build_graph(model: RobotModel, state: JointState, spec: ProblemSpec) -> FactorGraph:
    """Factor graph of the dynamics constraints at one state."""
    return _build_graph(model, _kinematics(model, state), spec, spec.by_joint(model))


# blocks shared by every graph; a factor copies what it is given
_EYE6 = np.eye(6)
_NEG_EYE6 = -np.eye(6)
_EYE1 = np.eye(1)
_NEG_EYE1 = -np.eye(1)


def _build_graph(model: RobotModel, kin, spec: ProblemSpec, des: dict) -> FactorGraph:
    qd, poses, twists, adjoints = kin
    factors = []
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
        rhs = np.zeros(6)
        if j.axis is not None:
            rhs = little_adjoint(twists[j.child]) @ (j.axis.vector * qd[j.name])
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
        factors.append(LinearFactor(blocks, rhs, name=f"accel[{j.name}]",
                                    knowns=tuple(knowns)))

    # wrench balance per link: G Vd - F + sum AdT F_child = bias + gravity
    for link in model.links:
        if link.name == model.base:
            continue
        blocks = balance[link.name]
        knowns = []
        rhs = np.zeros(6)
        if link.inertia is not None:
            g_mat = link.inertia.matrix()
            blocks[VarKey(Kind.ACCEL, link.index)] = g_mat
            v = twists[link.name]
            rhs = little_adjoint(v).T @ (g_mat @ v)
            g_body = poses[link.name].rotation.T @ spec.gravity
            rhs = rhs + link.inertia.mass * np.concatenate([np.zeros(3), g_body])
        if link.name == model.tool_link:
            if np.any(spec.tool_wrench):
                rhs = rhs - big_adjoint(link.com_offset).T @ spec.tool_wrench
                knowns.append("Ft")
        factors.append(LinearFactor(blocks, rhs, name=f"balance[{link.name}]",
                                    knowns=tuple(knowns)))

    # torque factor per movable joint: A' F - tau = 0
    for j in model.movable_joints:
        fkey = VarKey(Kind.WRENCH, j.index)
        row = j.axis.vector.reshape(1, 6)
        d = des[j.name]
        if isinstance(d, GivenTorque):
            factors.append(LinearFactor({fkey: row}, rhs=np.array([d.value]),
                                        name=f"torque[{j.name}]",
                                        knowns=(f"tau{j.index}",)))
        else:
            factors.append(LinearFactor(
                {fkey: row, VarKey(Kind.TORQUE, j.index): _NEG_EYE1},
                rhs=np.zeros(1), name=f"torque[{j.name}]"))

    if spec.min_torque_prior:
        for j in model.movable_joints:
            if isinstance(des[j.name], GivenAccel):
                factors.append(LinearFactor(
                    {VarKey(Kind.TORQUE, j.index): _EYE1}, rhs=np.zeros(1),
                    weight=1e-3, name=f"prior[{j.name}]"))

    planar_names = {name for name, _ in spec.planar_loops}
    loop_names = {l.name for l in model.loop_joints}
    if not planar_names <= loop_names:
        raise ValueError(f"planar factors name non-loop joints: "
                         f"{sorted(planar_names - loop_names)}")
    for name, normal in spec.planar_loops:
        l = model.joint_map[name]
        n_body = poses[l.child].rotation.T @ normal
        factors.append(planar_factor(VarKey(Kind.WRENCH, l.index), n_body,
                                     name=f"planar[{name}]"))

    return FactorGraph(factors)


@dataclass(frozen=True, eq=False)
class DynamicsResult:
    """Solved dynamics at one state: per-joint and per-link quantities,
    plus the graph and DAG they came from. Build time covers kinematics
    and factor construction; solve time covers resolving the ordering
    (a memo lookup when the problem structure repeats), elimination and
    back-substitution."""

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


def resolve_ordering(graph: FactorGraph, ordering, model: RobotModel) -> list:
    """The VarKey list `fgraph.plan_for` resolves an ordering request to,
    with the one rule that needs the model: "auto" is "md" with the model's
    loop wrenches deferred to the end."""
    deferred = ()
    if isinstance(ordering, str) and ordering.lower() == "auto":
        ordering = "md"
        deferred = tuple(VarKey(Kind.WRENCH, l.index) for l in model.loop_joints)
    return list(plan_for(graph, ordering, deferred).ordering)


def solve_dynamics(model: RobotModel, state: JointState, spec: ProblemSpec,
                   ordering="auto") -> DynamicsResult:
    """Build the graph at one state, eliminate, back-substitute, and sort
    the solution into named per-joint / per-link quantities.

    The default ordering is minimum-degree with loop wrenches deferred to
    the end, so an underdetermined loop (no planar factor) surfaces as
    RankDeficient at the loop wrench itself rather than at an arbitrary
    variable upstream.
    """
    t0 = perf_counter()
    kin = _kinematics(model, state)
    _, _, twists, _ = kin
    des = spec.by_joint(model)
    graph = _build_graph(model, kin, spec, des)
    t1 = perf_counter()
    keys = resolve_ordering(graph, ordering, model)
    dag = eliminate(graph, keys)
    values = back_substitute(dag)
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
        twists=dict(twists),
        link_accels=link_accels,
        wrenches=wrenches,
        graph=graph,
        dag=dag,
        ordering=tuple(keys),
        residual_max=graph.residual_max(values),
        build_micros=(t1 - t0) * 1e6,
        solve_micros=(t2 - t1) * 1e6,
    )
