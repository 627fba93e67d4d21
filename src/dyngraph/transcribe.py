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

Which factors a problem has depends only on its shape (what is known, the
prior, the planar loops, whether a tool wrench acts). Every factor a
model's problems can have is listed once per model, each part a constant
or a state term computed per solve for all joints or links at once, and a
shape picks its factors from that list. `solve_dynamics` compiles each
shape and ordering once into a template: the plan, a buffer holding the
constant parts, and where the state terms go.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass
from numbers import Real
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from .errors import InconsistentLoopState
from .fgraph import (FactorGraph, Kind, LinearFactor, VarKey, _eliminate_buffer,
                     _hard_residual, _runs, ordering_request, plan_for, scatter)
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
        try:
            values = np.atleast_1d(np.asarray(values, dtype=float))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{what} must be finite numbers, got {values!r}") from None
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


def _kinematics(model: RobotModel, state: JointState) -> tuple:
    """Propagate poses and twists outward; verify loop closure.

    Returns (frames, twists, adjoints, motions) as arrays: per link in
    `topo_order`, the 3x4 [R | p] link-from-base transform of its body
    frame and its twist; per joint in the sweep order of
    `RobotModel.joint_constants`, tree and loop alike, the 6x6
    child-from-parent adjoint and the screw times the rate. The per-joint
    constants live on the model, so all joints are evaluated together in a
    few array operations; only the chain from link to link is a loop. A
    non-finite rate fails after the loop-closure tests, which catch it on a
    loop first.
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
    for k, parent in enumerate(c.parents[:links - 1].tolist(), start=1):
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
    if not np.isfinite(state.qd).all():
        raise ValueError(f"qd must be finite, got {state.qd}")
    return frames, twists, ad, motion


def compute_twists(model: RobotModel, state: JointState) -> dict:
    """Body twist (angular; linear) of every link at the given state; the
    base's is zero. These are the arrays `DynamicsResult.twists` holds."""
    return dict(zip(model.topo_order, _kinematics(model, state)[1]))


def link_poses(model: RobotModel, state: JointState) -> dict:
    """Base-from-link pose of every body frame at the given state."""
    f = _kinematics(model, state)[0]
    rot = f[:, :, :3].transpose(0, 2, 1)
    p = -(rot @ f[:, :, 3:])[:, :, 0]
    return {name: Pose._unchecked(r, t) for name, r, t in zip(model.topo_order, rot, p)}


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
_EYE6 = np.eye(6).ravel()   # factor parts are listed flattened
_NEG_EYE6 = -_EYE6
_EYE1 = np.ones(1)
_NEG_EYE1 = -_EYE1
_ZERO1 = np.zeros(1)
_ZERO3 = np.zeros(3)
_EYE3 = np.eye(3)
_EYE4 = np.eye(4)
_SKEW = np.stack([skew(e) for e in np.eye(3)]).reshape(3, 9)   # p @ _SKEW is skew(p)
# the sources of state terms (see `_state_terms`), and one row of each as zeros
_NEG_AD, _AD_T, _ACCEL_RHS, _BALANCE_RHS, _GIVEN, _PLANAR = range(6)
_ROW_ZEROS = tuple(map(np.zeros, (36, 36, 6, 6, 1, 18)))
for _a in (_EYE6, _NEG_EYE6, _EYE1, _NEG_EYE1, _ZERO1, _ZERO3, _EYE3, _EYE4, _SKEW, *_ROW_ZEROS):
    _a.setflags(write=False)


class _Listing(SimpleNamespace):
    """One problem shape's factors as a `FactorGraph` lists them
    (`structure`, `labels`, and `flat` with zeros where a state term goes),
    and per state term entry its state vector index (`src`) and place in
    `flat` (`at`); `graph(values)` is its graph with those entries. For
    `_state_terms`: the sweep rows whose acceleration is given
    (`accel_given`), the tool wrench's `topo_order` row (`tool_row`, -1:
    none) and each planar loop's position among the loop joints."""

    def graph(self, values: np.ndarray) -> FactorGraph:
        flat = self.flat.copy()
        flat[self.at] = values
        return FactorGraph.listed(self.structure, self.labels, flat)


class _Pieces(SimpleNamespace):
    """Every factor any problem shape of a model can have. Per piece: its
    `structure` and `labels` entries, its parts flattened in `flat` from
    `start`, `size` long, and `cond`, the flag of `_transcribe` that takes
    it; per state term, `term` (piece, start in the state vector, offset in
    the piece, width); `planar` maps loop joint names to their pieces. What
    `solve_dynamics` sorts a result by: the movable joints' `names`, and
    (name, variable) per link acceleration (`links`) and joint `wrenches`."""


def _list_pieces(model: RobotModel) -> _Pieces:
    """Where a part comes from fixes whether it is constant: the adjoint
    blocks, the acceleration, balance and given-torque right-hand sides and
    the planar rows are state terms, (source, row) pairs of `_state_terms`;
    every other part is an array."""
    c = model.joint_constants
    sweep = {j.name: k for k, j in enumerate(c.joints)}
    topo = {name: row for row, name in enumerate(model.topo_order)}
    slot = {j.name: m for m, j in enumerate(model.movable_joints)}
    # flags: per movable joint its acceleration given, its torque given and
    # the prior on it; then these
    n = len(slot)
    tool, no_tool, always, never = range(3 * n, 3 * n + 4)
    # where each source of state terms starts in the state vector
    counts = (len(sweep),) * 3 + (len(topo), n, len(model.loop_joints))
    first = np.cumsum([0] + [k * len(z) for k, z in zip(counts, _ROW_ZEROS)]).tolist()
    structure, labels, conds, parts, sizes, terms = [], [], [], [], [], []

    def add(cond, blocks, rhs, name, knowns=(), weight=1.0):
        rows = len(_ROW_ZEROS[rhs[0]] if type(rhs) is tuple else rhs)
        structure.append((tuple(blocks), rows, weight))
        labels.append((name, tuple(knowns)))
        conds.append(cond)
        offset = 0
        for p in (*blocks.values(), rhs):
            if type(p) is tuple:
                source, row = p
                width = len(_ROW_ZEROS[source])
                terms.append((len(conds) - 1, first[source] + row * width, offset, width))
                p = _ROW_ZEROS[source]
            parts.append(p)
            offset += len(p)
        sizes.append(offset)

    # each link's wrench balance blocks, filled by the joints touching it
    balance = {link.name: {} for link in model.links}

    # acceleration factor per joint: Vd_child - Ad Vd_parent - A qdd = bias;
    # the joint's wrench F_j enters its child's balance as -I and its
    # parent's as Ad^T, whether the joint is a tree or a loop joint
    for j in model.joints:
        k = sweep[j.name]
        fkey = VarKey(Kind.WRENCH, j.index)
        balance[j.child][fkey] = _NEG_EYE6
        balance[j.parent][fkey] = (_AD_T, k)
        blocks = {}
        knowns = []
        child_idx = model.link_map[j.child].index
        parent_idx = model.link_map[j.parent].index
        if child_idx == 0:
            knowns.append("Vd0")
        else:
            blocks[VarKey(Kind.ACCEL, child_idx)] = _EYE6
        if parent_idx == 0:
            knowns.append("Vd0")
        else:
            blocks[VarKey(Kind.ACCEL, parent_idx)] = (_NEG_AD, k)
        rhs, name = (_ACCEL_RHS, k), f"accel[{j.name}]"
        if j.axis is None:
            add(always, blocks, rhs, name, knowns)
        else:
            m = slot[j.name]
            add(m, blocks, rhs, name, knowns + [f"qdd{j.index}"])
            add(n + m, {**blocks, VarKey(Kind.JOINT_ACCEL, j.index): -j.axis.vector}, rhs,
                name, knowns)

    # wrench balance per link: G Vd - F + sum AdT F_child = bias + gravity
    for link in model.links:
        if link.name == model.base:
            continue
        blocks = balance[link.name]
        if link.inertia is not None:
            blocks[VarKey(Kind.ACCEL, link.index)] = link.inertia.matrix().ravel()
        rhs, name = (_BALANCE_RHS, topo[link.name]), f"balance[{link.name}]"
        if link.name == model.tool_link:
            add(tool, blocks, rhs, name, ("Ft",))
        add(no_tool if link.name == model.tool_link else always, blocks, rhs, name)

    # torque factor per movable joint: A' F - tau = 0; the soft prior
    # pulls an unknown torque towards zero
    for m, j in enumerate(model.movable_joints):
        fkey, tkey = VarKey(Kind.WRENCH, j.index), VarKey(Kind.TORQUE, j.index)
        add(m, {fkey: j.axis.vector, tkey: _NEG_EYE1}, _ZERO1, f"torque[{j.name}]")
        add(n + m, {fkey: j.axis.vector}, (_GIVEN, m), f"torque[{j.name}]", (f"tau{j.index}",))
    for m, j in enumerate(model.movable_joints):
        add(2 * n + m, {VarKey(Kind.TORQUE, j.index): _EYE1}, _ZERO1, f"prior[{j.name}]",
            weight=1e-3)
    for i, l in enumerate(model.loop_joints):
        add(never, {VarKey(Kind.WRENCH, l.index): (_PLANAR, i)}, _ZERO3, f"planar[{l.name}]")

    size = np.array(sizes, dtype=np.intp)
    pieces = _Pieces(
        names=tuple(slot), links=tuple((l.name, VarKey(Kind.ACCEL, l.index))
                                       for l in model.links if l.index > 0),
        wrenches=tuple((j.name, VarKey(Kind.WRENCH, j.index)) for j in model.joints),
        structure=structure, labels=labels, cond=np.array(conds, dtype=np.intp),
        flat=np.concatenate(parts) if parts else np.zeros(0), start=np.cumsum(size) - size,
        size=size, term=np.array(terms, dtype=np.intp).reshape(-1, 4),
        planar={l.name: len(conds) - len(model.loop_joints) + i
                for i, l in enumerate(model.loop_joints)})
    for a in (pieces.cond, pieces.flat, pieces.start, pieces.size, pieces.term):
        a.setflags(write=False)
    return pieces


def _transcribe(model: RobotModel, spec: ProblemSpec) -> _Listing:
    """The listing of the shape of `spec`, picked from the model's pieces
    (listed on its first transcription). ValueError for a spec that does
    not fit the model or names a planar loop that is no loop joint."""
    spec.by_joint(model)
    pc = model.factor_pieces
    if pc is None:
        pc = model.factor_pieces = _list_pieces(model)
    planar = [name for name, _ in spec.planar_loops]
    if not set(planar) <= set(pc.planar):
        raise ValueError(f"planar factors name non-loop joints: "
                         f"{sorted(set(planar) - set(pc.planar))}")
    given = np.array([isinstance(d, GivenAccel) for d in spec.designations], dtype=np.intp)
    tool = int(np.any(spec.tool_wrench))
    # the flags of `_list_pieces`, in its order; planar pieces follow the spec
    flags = np.concatenate((given, 1 - given, given * spec.min_torque_prior,
                            (tool, 1 - tool, 1, 0)))
    picked = np.concatenate((np.flatnonzero(flags[pc.cond]),
                             np.array([pc.planar[name] for name in planar], dtype=np.intp)))
    sizes = pc.size[picked]
    start = np.full(len(pc.size), -1)
    start[picked] = np.cumsum(sizes) - sizes
    piece, src, offset, width = pc.term[start[pc.term[:, 0]] >= 0].T
    loops = list(pc.planar)
    listing = _Listing(
        structure=tuple(map(pc.structure.__getitem__, picked.tolist())),
        labels=tuple(map(pc.labels.__getitem__, picked.tolist())),
        flat=pc.flat[_runs(pc.start[picked], sizes)],
        src=_runs(src, width), at=_runs(start[piece] + offset, width),
        accel_given=np.append(given, 0)[model.joint_constants.slots] > 0,
        tool_row=model.topo_order.index(model.tool_link) if tool else -1,
        planar=tuple(map(loops.index, planar)))
    for a in (listing.flat, listing.src, listing.at, listing.accel_given):
        a.setflags(write=False)
    return listing


def _state_terms(model: RobotModel, kin, spec: ProblemSpec, listing: _Listing) -> np.ndarray:
    """The state vector: each source of state terms flattened, computed for all
    joints or links at once by the scalar expressions, in the order, of a
    factor-by-factor transcription. Per joint -Ad, Ad^T, and the
    acceleration bias [V_child, A qd] with the base acceleration and given
    A qdd folded in; per link the balance bias ad_V^T G V plus gravity,
    less the tool wrench; the given values; per loop its planar rows."""
    frames, twists, ad, motion = kin
    c = model.joint_constants
    given = np.array([d.value for d in spec.designations], dtype=float)
    accel = ad_product(twists[c.children], motion)
    if spec.base_accel.any():   # a zero one would leave every value as it is
        accel[c.children == 0] -= spec.base_accel
        at_base = c.parents == 0
        accel[at_base] += ad[at_base] @ spec.base_accel
    rows = listing.accel_given
    accel[rows] += c.screws[rows] * given[c.slots[rows], None]
    bal = ad_transpose_product(twists, (c.inertias @ twists[:, :, None])[:, :, 0])
    bal[:, 3:] += c.masses[:, None] * (frames[:, :, :3] @ spec.gravity)
    if listing.tool_row >= 0:
        com = model.link_map[model.tool_link].com_offset
        bal[listing.tool_row] = bal[listing.tool_row] - big_adjoint(com).T @ spec.tool_wrench
    # loop joints close the sweep order, so loop i is sweep joint i - loops
    loops = len(model.loop_joints)
    planar = np.zeros((loops, 3, 6))
    for i, (_, normal) in zip(listing.planar, spec.planar_loops):
        planar[i] = _planar_rows(frames[c.children[i - loops]][:, :3] @ normal)
    return np.concatenate((-ad, ad.transpose(0, 2, 1), accel, bal, given, planar), axis=None)


def build_graph(model: RobotModel, state: JointState, spec: ProblemSpec) -> FactorGraph:
    """Factor graph of the dynamics constraints at one state."""
    kin = _kinematics(model, state)
    listing = _transcribe(model, spec)
    return listing.graph(_state_terms(model, kin, spec, listing)[listing.src])


@dataclass(frozen=True, eq=False)
class DynamicsResult:
    """Solved dynamics at one state: per-joint and per-link quantities,
    plus the graph and DAG they came from. `graph` is the same graph as
    `build_graph(model, state, spec)`, a listing whose factors are made
    only when first read.
    Build time covers kinematics, finding the shape's template (compiling
    it, ordering included, on a shape's first solve), the state terms and
    filling the listing and the buffer; solve time covers elimination,
    back-substitution and the hard-row residual check."""

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
    planned afresh. `model` is not read; it stays only for existing callers
    that pass it."""
    return list(plan_for(graph, ordering).ordering)


class _Template(SimpleNamespace):
    """A compiled shape: `listing`, `plan`, `base` (the read-only buffer of
    the weighted constant parts), `dest` (the buffer place of each state
    term entry), and the (names, solution entries) of the solved `torques`
    and `accels`."""


def _compile(model: RobotModel, spec: ProblemSpec, request) -> _Template:
    """The template of the shape of `spec` under an ordering request. State
    terms sit in weight-1 factors only (the prior rows are constant), so
    weighting the base weights every soft entry."""
    listing = _transcribe(model, spec)
    plan = plan_for(FactorGraph.listed(listing.structure, listing.labels, listing.flat), request)

    def solved(kind, joints):
        return (tuple(j.name for j in joints),
                np.array([plan.slices[VarKey(kind, j.index)].start for j in joints],
                         dtype=np.intp))
    des = tuple(zip(model.movable_joints, spec.designations))
    tpl = _Template(
        listing=listing, plan=plan, base=scatter(plan, listing.flat), dest=plan.dest[listing.at],
        torques=solved(Kind.TORQUE, [j for j, d in des if isinstance(d, GivenAccel)]),
        accels=solved(Kind.JOINT_ACCEL, [j for j, d in des if isinstance(d, GivenTorque)]))
    for a in (tpl.base, tpl.dest, tpl.torques[1], tpl.accels[1]):
        a.setflags(write=False)
    return tpl


def solve_dynamics(model: RobotModel, state: JointState, spec: ProblemSpec,
                   ordering="auto") -> DynamicsResult:
    """Transcribe the dynamics at one state, eliminate, back-substitute, and
    sort the solution into named per-joint / per-link quantities.

    The first solve of a problem shape compiles its template; each solve
    copies the template's buffer and puts its state terms in it and in a
    copy of the shape's listing, the result's `graph`. No LinearFactor is
    made unless that graph's factors are read. `ordering` is any request
    `fgraph.plan_for` takes; the default "auto" is minimum degree ("md").
    An underdetermined graph, such as a loop with no planar factor, raises
    RankDeficient naming the same variable under every ordering.
    """
    t0 = perf_counter()
    kin = _kinematics(model, state)
    # the shape: no number in it can change a plan
    request = ordering_request(ordering)
    key = (tuple(isinstance(d, GivenAccel) for d in spec.designations),
           spec.min_torque_prior, tuple(name for name, _ in spec.planar_loops),
           bool(spec.tool_wrench.any()), request)
    tpl = model.solve_templates.get(key)
    if tpl is None:
        tpl = _compile(model, spec, request)
        model.solve_templates.put(key, tpl)
    terms = _state_terms(model, kin, spec, tpl.listing)[tpl.listing.src]
    graph, data = tpl.listing.graph(terms), tpl.base.copy()
    data[tpl.dest] = terms
    t1 = perf_counter()
    dag, x = _eliminate_buffer(tpl.plan, data, solve=True)
    residual = _hard_residual(tpl.plan, graph.flat, x)
    t2 = perf_counter()

    pc, given = model.factor_pieces, [d.value for d in spec.designations]
    torques, accels = dict(zip(pc.names, given)), dict(zip(pc.names, given))
    for out, (solved, at) in ((torques, tpl.torques), (accels, tpl.accels)):
        out.update(zip(solved, x[at].tolist()))
    values = dict(zip(tpl.plan.slices, map(x.__getitem__, tpl.plan.slices.values())))
    link_accels = {model.base: spec.base_accel}
    link_accels.update((name, values[k]) for name, k in pc.links)
    return DynamicsResult(
        values=values,
        torques=torques,
        accels=accels,
        twists=dict(zip(model.topo_order, kin[1])),
        link_accels=link_accels,
        wrenches={name: values[k] for name, k in pc.wrenches},
        graph=graph,
        dag=dag,
        ordering=tpl.plan.ordering,
        residual_max=residual,
        build_micros=(t1 - t0) * 1e6,
        solve_micros=(t2 - t1) * 1e6,
    )
