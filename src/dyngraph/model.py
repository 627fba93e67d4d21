"""Robot description: a URDF subset plus a loop-closure extension.

Links carry spatial inertias expressed in body frames placed at each center
of mass; the URDF inertial origins are folded into the joint rest offsets
and screw axes when the model is built, so downstream code only ever sees
COM body frames.

Supported URDF content: <link> with an optional <inertial> block, <joint>
of type revolute or fixed with origin, axis, parent, child. A kinematic
loop is declared with an extra revolute joint carrying loop="true" and an
optional <child_origin> anchor pose on the child side. Everything else is
ignored with a warning.
"""

from __future__ import annotations

import json
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import GraphError, InvalidInertia, MalformedDescription
from .fgraph import BoundedMemo
from .spatial import (
    Pose,
    ScrewAxis,
    SpatialInertia,
    big_adjoint,
    joint_transform,
    rotation_to_rpy,
    skew,
)


_SOLVE_TEMPLATES = 16   # problem shapes a model keeps compiled (`solve_templates`)


class JointKind(Enum):
    REVOLUTE = "revolute"
    FIXED = "fixed"


@dataclass(frozen=True, eq=False)
class Link:
    """One rigid body. ``com_offset`` is the body (COM) frame posed in the
    link's URDF frame; ``index`` is assigned when the model is built."""

    name: str
    inertia: SpatialInertia | None = None
    com_offset: Pose = field(default_factory=Pose.identity)
    index: int = -1


@dataclass(frozen=True, eq=False)
class Joint:
    """One joint. ``origin`` poses the joint frame in the parent's URDF
    frame; ``child_anchor`` poses it in the child's URDF frame (identity
    for ordinary tree joints, where the joint frame IS the child frame).

    ``rest_offset`` (child body posed in parent body at zero angle) and
    ``axis`` (screw in the child body frame) are derived during model
    construction by folding in the COM offsets of both endpoint links.
    """

    name: str
    kind: JointKind
    parent: str
    child: str
    origin: Pose = field(default_factory=Pose.identity)
    child_anchor: Pose = field(default_factory=Pose.identity)
    axis_local: np.ndarray | None = None
    actuated: bool | None = None
    loop: bool = False
    index: int = -1
    rest_offset: Pose = field(default_factory=Pose.identity)
    axis: ScrewAxis | None = None

    def transform(self, angle: float) -> Pose:
        """Child-body-from-parent-body transform at the given angle."""
        return joint_transform(self.rest_offset, self.axis, angle)


class JointConstants(NamedTuple):
    """What a kinematic sweep and a transcription need of every joint and
    link, derived once per model.

    `joints` are in sweep order: tree joints in `topo_order` of their
    children, then loop joints. Per joint: [R | p] of
    `rest_offset.inverse()`, the screw, the cross-product matrix of its
    angular part and that matrix squared (all zero for a fixed joint), the
    index of its angle and rate in a JointState (one past the end for a
    fixed joint), and the `topo_order` positions of its parent and child.
    Per link in `topo_order`: its 6x6 spatial inertia and its mass, both
    zero for a link without inertia.
    """

    joints: tuple
    rest: np.ndarray
    screws: np.ndarray
    w_hat: np.ndarray
    w_hat2: np.ndarray
    slots: np.ndarray
    parents: np.ndarray
    children: np.ndarray
    inertias: np.ndarray
    masses: np.ndarray


def _joint_constants(model: "RobotModel") -> JointConstants:
    joints = tuple(model.parent_joint[n] for n in model.topo_order[1:]) + model.loop_joints
    row = {name: k for k, name in enumerate(model.topo_order)}
    slot = {j.name: k for k, j in enumerate(model.movable_joints)}
    rest = [j.rest_offset.inverse() for j in joints]
    rest = np.array([np.c_[t.rotation, t.translation] for t in rest]).reshape(-1, 3, 4)
    screws = np.array([np.zeros(6) if j.axis is None else j.axis.vector
                       for j in joints]).reshape(-1, 6)
    w_hat = np.array([skew(w) for w in screws[:, :3]]).reshape(-1, 3, 3)
    links = [model.link_map[name].inertia for name in model.topo_order]
    arrays = (rest, screws, w_hat, w_hat @ w_hat,
              np.array([slot.get(j.name, len(slot)) for j in joints], dtype=np.intp),
              np.array([row[j.parent] for j in joints], dtype=np.intp),
              np.array([row[j.child] for j in joints], dtype=np.intp),
              np.array([np.zeros((6, 6)) if i is None else i.matrix() for i in links]),
              np.array([0.0 if i is None else float(i.mass) for i in links]))
    for a in arrays:
        a.setflags(write=False)
    return JointConstants(joints, *arrays)


def _unit(v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(3)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise MalformedDescription(f"{what} has zero length")
    return v / n


class RobotModel:
    """Validated link/joint structure.

    Tree joints must form a spanning tree rooted at the base (the unique
    link that is no tree joint's child); loop joints connect two links
    already in the tree and leave the tree structure unchanged. Immutable
    after construction; `joint_constants` holds what every kinematic sweep
    needs of each joint, derived here once. Transcription keeps two things
    beside the model, neither holding state of any solve: `factor_pieces`,
    every factor its problems can have (listed on the first
    transcription), and `solve_templates`, the last `_SOLVE_TEMPLATES`
    problem shapes `transcribe.solve_dynamics` compiled, kept for reuse.
    """

    def __init__(self, links, joints):
        links = list(links)
        joints = list(joints)

        names = [l.name for l in links]
        if len(set(names)) != len(names):
            raise MalformedDescription("duplicate link names")
        jnames = [j.name for j in joints]
        if len(set(jnames)) != len(jnames):
            raise MalformedDescription("duplicate joint names")
        if not links:
            raise MalformedDescription("model has no links")

        link_by_name = {l.name: l for l in links}
        for j in joints:
            for end in (j.parent, j.child):
                if end not in link_by_name:
                    raise GraphError(f"joint {j.name} references unknown link {end}")
            if j.parent == j.child:
                raise GraphError(f"joint {j.name} connects link {j.parent} to itself")
            if j.loop and j.kind is not JointKind.REVOLUTE:
                raise MalformedDescription(f"loop joint {j.name} must be revolute")

        tree = [j for j in joints if not j.loop]
        parent_of = {}
        for j in tree:
            if j.child in parent_of:
                raise GraphError(f"link {j.child} has two parent joints")
            parent_of[j.child] = j
        roots = [n for n in names if n not in parent_of]
        if len(roots) != 1:
            raise GraphError(f"tree joints must leave exactly one root link, found {roots}")
        self.base = roots[0]

        children: dict[str, list] = {n: [] for n in names}
        for j in tree:
            children[j.parent].append(j)

        # outward sweep from the base; anything unvisited is unreachable,
        # anything visited twice would have been a double parent above
        order = [self.base]
        depth = {self.base: 0}
        stack = [self.base]
        while stack:
            at = stack.pop()
            for j in children[at]:
                depth[j.child] = depth[at] + 1
                order.append(j.child)
                stack.append(j.child)
        if len(order) != len(names):
            missing = sorted(set(names) - set(order))
            raise GraphError(f"links not reachable from base {self.base}: {missing}")

        # joint indices are 1-based declaration order; a link inherits the
        # index of its parent tree joint, the base gets 0
        final_joints = []
        link_index = {self.base: 0}
        for k, j in enumerate(joints, start=1):
            parent_link = link_by_name[j.parent]
            child_link = link_by_name[j.child]
            if j.kind is JointKind.REVOLUTE and not j.loop and child_link.inertia is None:
                raise InvalidInertia(f"moving link {j.child} has no inertia")
            cp = parent_link.com_offset
            cc = child_link.com_offset
            rest = cp.inverse() @ j.origin @ j.child_anchor.inverse() @ cc
            if j.kind is JointKind.REVOLUTE:
                w = _unit(j.axis_local if j.axis_local is not None else (1.0, 0.0, 0.0),
                          f"axis of joint {j.name}")
                sa = ScrewAxis(big_adjoint(cc.inverse() @ j.child_anchor)
                               @ np.concatenate([w, np.zeros(3)]))
            else:
                w, sa = None, None
            actuated = j.actuated
            if actuated is None:
                actuated = j.kind is JointKind.REVOLUTE and not j.loop
            final_joints.append(replace(j, actuated=actuated, index=k, axis_local=w,
                                        rest_offset=rest, axis=sa))
            if not j.loop:
                link_index[j.child] = k

        self.links = tuple(replace(l, index=link_index[l.name]) for l in links)
        self.joints = tuple(final_joints)
        self.link_map = {l.name: l for l in self.links}
        self.tree_joints = tuple(j for j in self.joints if not j.loop)
        self.loop_joints = tuple(j for j in self.joints if j.loop)
        self.movable_joints = tuple(j for j in self.joints
                                    if j.kind is JointKind.REVOLUTE)
        self.parent_joint = {j.child: j for j in self.tree_joints}
        self.child_joints = {n: tuple(j for j in self.tree_joints if j.parent == n)
                             for n in names}
        self.topo_order = tuple(order)
        self.depth = depth
        leaves = [n for n in order if not self.child_joints[n]]
        self.tool_link = leaves[0] if len(leaves) == 1 else None
        self.joint_constants = _joint_constants(self)
        self.factor_pieces = None
        self.solve_templates = BoundedMemo(_SOLVE_TEMPLATES)

    @property
    def n_links(self) -> int:
        return len(self.links)

    def to_json(self) -> str:
        def pose(T: Pose):
            return {"xyz": list(T.translation), "rpy": list(rotation_to_rpy(T.rotation))}

        doc = {
            "base": self.base,
            "tool": self.tool_link,
            "links": [
                {
                    "name": l.name,
                    "index": l.index,
                    "mass": None if l.inertia is None else l.inertia.mass,
                    "rotationalInertia": None if l.inertia is None
                    else [list(row) for row in l.inertia.rotational_inertia],
                    "comOffset": pose(l.com_offset),
                }
                for l in self.links
            ],
            "joints": [
                {
                    "name": j.name,
                    "index": j.index,
                    "kind": j.kind.value,
                    "loop": j.loop,
                    "actuated": j.actuated,
                    "parent": j.parent,
                    "child": j.child,
                    "origin": pose(j.origin),
                    "childAnchor": pose(j.child_anchor),
                    "axis": None if j.axis_local is None else list(j.axis_local),
                    "screwAxis": None if j.axis is None else list(j.axis.vector),
                }
                for j in self.joints
            ],
        }
        return json.dumps(doc, indent=2)

    def to_urdf(self) -> str:
        """Serialize back to the URDF subset (inverse of parse_urdf)."""
        robot = ET.Element("robot", name="model")
        for l in self.links:
            el = ET.SubElement(robot, "link", name=l.name)
            if l.inertia is not None:
                inert = ET.SubElement(el, "inertial")
                ET.SubElement(inert, "origin",
                              xyz=_fmt(l.com_offset.translation),
                              rpy=_fmt(rotation_to_rpy(l.com_offset.rotation)))
                ET.SubElement(inert, "mass", value=repr(float(l.inertia.mass)))
                m = l.inertia.rotational_inertia
                ET.SubElement(inert, "inertia",
                              ixx=repr(float(m[0, 0])), ixy=repr(float(m[0, 1])),
                              ixz=repr(float(m[0, 2])), iyy=repr(float(m[1, 1])),
                              iyz=repr(float(m[1, 2])), izz=repr(float(m[2, 2])))
        for j in self.joints:
            attrs = {"name": j.name, "type": j.kind.value}
            if j.loop:
                attrs["loop"] = "true"
            default_act = j.kind is JointKind.REVOLUTE and not j.loop
            if j.actuated != default_act:
                attrs["actuated"] = "true" if j.actuated else "false"
            el = ET.SubElement(robot, "joint", **attrs)
            ET.SubElement(el, "parent", link=j.parent)
            ET.SubElement(el, "child", link=j.child)
            ET.SubElement(el, "origin",
                          xyz=_fmt(j.origin.translation),
                          rpy=_fmt(rotation_to_rpy(j.origin.rotation)))
            if j.kind is JointKind.REVOLUTE:
                ET.SubElement(el, "axis", xyz=_fmt(j.axis_local))
            anchor = j.child_anchor
            if (np.any(anchor.translation != 0.0)
                    or np.max(np.abs(anchor.rotation - np.eye(3))) > 0.0):
                ET.SubElement(el, "child_origin",
                              xyz=_fmt(anchor.translation),
                              rpy=_fmt(rotation_to_rpy(anchor.rotation)))
        ET.indent(robot)
        return ET.tostring(robot, encoding="unicode")


def _fmt(v) -> str:
    return " ".join(repr(float(x)) for x in np.asarray(v, dtype=float).ravel())


def _floats(text: str, n: int, what: str, finite: bool = True) -> np.ndarray:
    """`n` numbers from text; MalformedDescription naming `what` if they are
    not, or (with `finite`) if one is not finite."""
    try:
        vals = np.array([float(t) for t in text.split()], dtype=float)
    except ValueError:
        raise MalformedDescription(f"{what}: cannot parse numbers from {text!r}") from None
    if vals.shape != (n,):
        raise MalformedDescription(f"{what}: expected {n} numbers, got {text!r}")
    if finite and not np.isfinite(vals).all():
        raise MalformedDescription(f"{what}: numbers must be finite, got {text!r}")
    return vals


def _origin_pose(el: ET.Element | None, what: str) -> Pose:
    if el is None:
        return Pose.identity()
    xyz = _floats(el.get("xyz", "0 0 0"), 3, what)
    rpy = _floats(el.get("rpy", "0 0 0"), 3, what)
    return Pose.from_xyz_rpy(xyz, rpy)


def _require(el: ET.Element, attr: str, what: str) -> str:
    v = el.get(attr)
    if v is None:
        raise MalformedDescription(f"{what} is missing required attribute {attr!r}")
    return v


def _bool_attr(el: ET.Element, attr: str) -> bool | None:
    v = el.get(attr)
    if v is None:
        return None
    if v.lower() in ("true", "1"):
        return True
    if v.lower() in ("false", "0"):
        return False
    raise MalformedDescription(f"attribute {attr}={v!r} is not a boolean")


def _parse_inertial(el: ET.Element, link_name: str) -> tuple[SpatialInertia, Pose]:
    mass_el = el.find("mass")
    inertia_el = el.find("inertia")
    if mass_el is None or inertia_el is None:
        raise MalformedDescription(f"link {link_name}: inertial block needs mass and inertia")
    mass = float(_floats(_require(mass_el, "value", f"link {link_name} mass"), 1,
                         f"link {link_name} mass", finite=False)[0])
    comp = {k: _floats(_require(inertia_el, k, f"link {link_name} inertia"), 1,
                       f"link {link_name} inertia {k}", finite=False)[0]
            for k in ("ixx", "ixy", "ixz", "iyy", "iyz", "izz")}
    rot = np.array([
        [comp["ixx"], comp["ixy"], comp["ixz"]],
        [comp["ixy"], comp["iyy"], comp["iyz"]],
        [comp["ixz"], comp["iyz"], comp["izz"]],
    ])
    try:
        inertia = SpatialInertia(mass, rot)
    except InvalidInertia as e:
        raise InvalidInertia(f"link {link_name}: {e}") from None
    return inertia, _origin_pose(el.find("origin"), f"link {link_name} inertial origin")


def parse_urdf(text: str) -> RobotModel:
    """Parse URDF text (the subset in the module docstring) into a model."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        raise MalformedDescription(f"not well-formed XML: {e}") from None
    if root.tag != "robot":
        raise MalformedDescription(f"root element is <{root.tag}>, expected <robot>")

    warned: set[str] = set()

    def warn_tag(tag: str, where: str):
        if tag not in warned:
            warned.add(tag)
            warnings.warn(f"ignoring unsupported tag <{tag}> in {where}")

    links = []
    joints = []
    for el in root:
        if el.tag == "link":
            name = _require(el, "name", "link")
            inertia, com = None, Pose.identity()
            for sub in el:
                if sub.tag == "inertial":
                    inertia, com = _parse_inertial(sub, name)
                else:
                    warn_tag(sub.tag, f"link {name}")
            links.append(Link(name=name, inertia=inertia, com_offset=com))
        elif el.tag == "joint":
            name = _require(el, "name", "joint")
            kind_text = _require(el, "type", f"joint {name}")
            try:
                kind = JointKind(kind_text)
            except ValueError:
                raise MalformedDescription(
                    f"joint {name}: unsupported type {kind_text!r}") from None
            loop = bool(_bool_attr(el, "loop"))
            actuated = _bool_attr(el, "actuated")
            parent = child = None
            origin = Pose.identity()
            anchor = Pose.identity()
            axis = None
            for sub in el:
                if sub.tag == "parent":
                    parent = _require(sub, "link", f"joint {name} parent")
                elif sub.tag == "child":
                    child = _require(sub, "link", f"joint {name} child")
                elif sub.tag == "origin":
                    origin = _origin_pose(sub, f"joint {name} origin")
                elif sub.tag == "child_origin":
                    anchor = _origin_pose(sub, f"joint {name} child_origin")
                elif sub.tag == "axis":
                    axis = _unit(_floats(_require(sub, "xyz", f"joint {name} axis"),
                                         3, f"joint {name} axis"), f"axis of joint {name}")
                else:
                    warn_tag(sub.tag, f"joint {name}")
            if parent is None or child is None:
                raise MalformedDescription(f"joint {name} needs parent and child links")
            joints.append(Joint(name=name, kind=kind, parent=parent, child=child,
                                origin=origin, child_anchor=anchor, axis_local=axis,
                                actuated=actuated, loop=loop))
        else:
            warn_tag(el.tag, "robot")
    return RobotModel(links, joints)


def add_loop_joint(model: RobotModel, joint: Joint) -> RobotModel:
    """Return a new model with one extra loop-revolute joint; the tree is
    unchanged. Raises GraphError if an endpoint link does not exist."""
    return RobotModel(model.links, list(model.joints) + [replace(joint, loop=True)])
