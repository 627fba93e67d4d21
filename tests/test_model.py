"""URDF parsing, validation, loop joints, and serialization round trips."""

import json

import numpy as np
import pytest

from dyngraph.errors import GraphError, InvalidInertia, MalformedDescription
from dyngraph.model import Joint, JointKind, RobotModel, add_loop_joint, parse_urdf
from dyngraph.spatial import Pose

from conftest import load_model
from test_transcribe import PARALLELOGRAM

MINIMAL = """
<robot name="mini">
  <link name="base"/>
  <link name="arm">
    <inertial>
      <mass value="1.0"/>
      <origin xyz="0 0 0"/>
      <inertia ixx="1" iyy="1" izz="1" ixy="0" ixz="0" iyz="0"/>
    </inertial>
  </link>
  <joint name="j" type="revolute">
    <parent link="base"/>
    <child link="arm"/>
    <origin xyz="0 0 0"/>
    <axis xyz="0 0 1"/>
  </joint>
</robot>
"""


class TestParse:
    def test_minimal_two_link(self):
        m = parse_urdf(MINIMAL)
        assert m.n_links == 2
        assert len(m.joints) == 1
        assert m.joints[0].kind is JointKind.REVOLUTE
        assert m.base == "base"

    def test_unknown_link_reference(self):
        bad = MINIMAL.replace('child link="arm"', 'child link="nope"')
        with pytest.raises(GraphError):
            parse_urdf(bad)

    def test_six_r_fixture_shape(self, six_r):
        assert six_r.n_links == 7
        revolute = [j for j in six_r.joints if j.kind is JointKind.REVOLUTE]
        assert len(revolute) == 6
        assert max(six_r.depth.values()) == 6
        assert six_r.tool_link == "flange"

    def test_tree_joint_count_matches_links(self, three_r, six_r, pendulum):
        for m in (three_r, six_r, pendulum):
            assert len(m.tree_joints) == m.n_links - 1

    def test_bad_xml(self):
        with pytest.raises(MalformedDescription):
            parse_urdf("<robot name='x'><link name='a'>")

    def test_missing_mass(self):
        bad = MINIMAL.replace('<mass value="1.0"/>', "")
        with pytest.raises(MalformedDescription):
            parse_urdf(bad)

    def test_zero_axis(self):
        bad = MINIMAL.replace('axis xyz="0 0 1"', 'axis xyz="0 0 0"')
        with pytest.raises(MalformedDescription):
            parse_urdf(bad)

    def test_axis_normalized(self):
        scaled = MINIMAL.replace('axis xyz="0 0 1"', 'axis xyz="0 0 4"')
        m = parse_urdf(scaled)
        np.testing.assert_allclose(m.joints[0].axis.angular, [0, 0, 1], atol=1e-15)

    def test_nonpositive_mass(self):
        bad = MINIMAL.replace('value="1.0"', 'value="-2.0"')
        with pytest.raises(InvalidInertia):
            parse_urdf(bad)

    def test_non_positive_definite_inertia(self):
        bad = MINIMAL.replace('ixx="1"', 'ixx="-1"')
        with pytest.raises(InvalidInertia):
            parse_urdf(bad)

    def test_cycle_among_tree_joints(self):
        cyclic = MINIMAL.replace(
            "</robot>",
            """<joint name="back" type="revolute">
                 <parent link="arm"/><child link="base"/>
                 <origin xyz="0 0 0"/><axis xyz="0 0 1"/>
               </joint></robot>""",
        )
        with pytest.raises(GraphError):
            parse_urdf(cyclic)

    def test_disconnected_link(self):
        floating = MINIMAL.replace("</robot>", '<link name="orphan"/></robot>')
        with pytest.raises(GraphError):
            parse_urdf(floating)

    def test_unsupported_tags_warn(self):
        decorated = MINIMAL.replace(
            '<link name="base"/>',
            '<link name="base"><visual><geometry/></visual></link>',
        )
        with pytest.warns(UserWarning, match="visual"):
            parse_urdf(decorated)

    @pytest.mark.parametrize("old,new,where", [
        ('<axis xyz="0 0 1"/>', '<axis xyz="0 0 1"/><limit effort="1"/>', "joint j"),
        ("</robot>", '<material name="m"/></robot>', "robot"),
    ], ids=["joint", "robot"])
    def test_unsupported_tag_warns_naming_where(self, old, new, where):
        with pytest.warns(UserWarning, match=rf"^ignoring unsupported tag <\w+> in {where}$"):
            model = parse_urdf(MINIMAL.replace(old, new))
        assert [j.name for j in model.joints] == ["j"]

    def test_fixed_joint(self):
        fixed = MINIMAL.replace('type="revolute"', 'type="fixed"')
        m = parse_urdf(fixed)
        assert m.joints[0].kind is JointKind.FIXED
        assert m.movable_joints == ()


class TestLoopJoints:
    def test_five_bar_fixture(self, five_bar):
        assert five_bar.n_links == 5
        assert len(five_bar.tree_joints) == 4
        assert len(five_bar.loop_joints) == 1
        loop = five_bar.loop_joints[0]
        assert loop.name == "j5"
        assert loop.loop and not loop.actuated

    def test_five_bar_actuation_defaults(self, five_bar):
        # the two base joints drive; elbow joints are declared passive
        actuated = {j.name: j.actuated for j in five_bar.joints}
        assert actuated == {
            "j1": True, "j2": False, "j3": True, "j4": False, "j5": False,
        }

    def test_add_loop_joint(self, three_r):
        loop = Joint(
            name="brace",
            kind=JointKind.REVOLUTE,
            parent="link1",
            child="link3",
            origin=Pose(np.eye(3), np.array([0.1, 0.0, 0.0])),
            axis_local=np.array([0.0, 0.0, 1.0]),
            loop=True,
        )
        m2 = add_loop_joint(three_r, loop)
        assert len(m2.tree_joints) == len(three_r.tree_joints)
        assert len(m2.loop_joints) == 1
        # source model untouched
        assert len(three_r.loop_joints) == 0

    def test_loop_duplicating_tree_edge(self, three_r):
        dup = Joint(
            name="dup",
            kind=JointKind.REVOLUTE,
            parent="link1",
            child="link2",
            axis_local=np.array([0.0, 0.0, 1.0]),
            loop=True,
        )
        m2 = add_loop_joint(three_r, dup)
        assert len(m2.joints) == len(three_r.joints) + 1

    def test_loop_unknown_link(self, three_r):
        bad = Joint(
            name="bad",
            kind=JointKind.REVOLUTE,
            parent="link1",
            child="ghost",
            axis_local=np.array([0.0, 0.0, 1.0]),
            loop=True,
        )
        with pytest.raises(GraphError):
            add_loop_joint(three_r, bad)

    @pytest.mark.parametrize("name", ["pendulum", "three_r", "six_r", "five_bar",
                                      "parallelogram"])
    def test_tree_joint_shares_its_child_links_index(self, request, name):
        # transcription keys a tree joint's wrench by the joint's index,
        # which must be the child link's index
        model = (parse_urdf(PARALLELOGRAM) if name == "parallelogram"
                 else request.getfixturevalue(name))
        assert model.tree_joints
        for j in model.tree_joints:
            assert j.index == model.link_map[j.child].index


class TestSerialization:
    @pytest.mark.parametrize(
        "name", ["pendulum.urdf", "three_r.urdf", "six_r.urdf", "five_bar.urdf"]
    )
    def test_urdf_round_trip(self, name):
        m1 = load_model(name)
        m2 = parse_urdf(m1.to_urdf())
        assert [l.name for l in m1.links] == [l.name for l in m2.links]
        assert [j.name for j in m1.joints] == [j.name for j in m2.joints]
        for a, b in zip(m1.links, m2.links):
            if a.inertia is None:
                assert b.inertia is None
                continue
            assert abs(a.inertia.mass - b.inertia.mass) < 1e-12
            assert (
                np.abs(
                    a.inertia.rotational_inertia - b.inertia.rotational_inertia
                ).max()
                < 1e-12
            )
            assert np.abs(a.com_offset.matrix() - b.com_offset.matrix()).max() < 1e-12
        for a, b in zip(m1.joints, m2.joints):
            assert a.kind is b.kind
            assert (a.parent, a.child, a.loop, a.actuated) == (
                b.parent, b.child, b.loop, b.actuated,
            )
            assert np.abs(a.rest_offset.matrix() - b.rest_offset.matrix()).max() < 1e-12
            if a.axis is not None:
                assert np.abs(a.axis.vector - b.axis.vector).max() < 1e-12

    def test_json_document(self, five_bar):
        doc = json.loads(five_bar.to_json())
        assert doc["base"] == "base"
        assert len(doc["links"]) == 5
        assert len(doc["joints"]) == 5
        loop_rows = [j for j in doc["joints"] if j["loop"]]
        assert len(loop_rows) == 1 and loop_rows[0]["name"] == "j5"


class TestImmutability:
    def test_shared_structures_frozen(self, three_r):
        with pytest.raises(Exception):
            three_r.joints[0].axis.vector[0] = 99.0
        with pytest.raises(Exception):
            three_r.links[1].inertia.rotational_inertia[0, 0] = 99.0


JOINT_ORIGIN = '<origin xyz="0 0 0"/>\n    <axis xyz="0 0 1"/>'
NON_FINITE = {
    "mass-inf": ('<mass value="1.0"/>', '<mass value="inf"/>', InvalidInertia, "link arm"),
    "ixx-inf": ('ixx="1"', 'ixx="inf"', InvalidInertia, "link arm"),
    "iyy-overflow": ('iyy="1"', 'iyy="1e400"', InvalidInertia, "link arm"),
    "origin-nan": (JOINT_ORIGIN, JOINT_ORIGIN.replace('xyz="0 0 0"', 'xyz="0 nan 0"'),
                   MalformedDescription, "joint j origin"),
    "axis-nan": ('<axis xyz="0 0 1"/>', '<axis xyz="0 0 nan"/>', MalformedDescription,
                 "joint j axis"),
}


@pytest.mark.parametrize("old,new,error,where", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_number_fails_at_parse_naming_element(old, new, error, where):
    assert MINIMAL.count(old) == 1
    with pytest.raises(error, match=where):
        parse_urdf(MINIMAL.replace(old, new))


@pytest.mark.parametrize("old,new,where", [
    ('<mass value="1.0"/>', '<mass value="abc"/>', "link arm mass"),
    ('ixx="1"', 'ixx="x"', "link arm inertia ixx"),
    ('iyz="0"', 'iyz=""', "link arm inertia iyz"),
], ids=["mass-text", "ixx-text", "iyz-empty"])
def test_non_number_inertial_fails_at_parse_naming_link(old, new, where):
    assert MINIMAL.count(old) == 1
    with pytest.raises(MalformedDescription, match=where):
        parse_urdf(MINIMAL.replace(old, new))


def _joint(name, kind, parent, child):
    return (f'<joint name="{name}" type="{kind}"><parent link="{parent}"/>'
            f'<child link="{child}"/><axis xyz="0 0 1"/></joint>')


STRUCTURAL = {
    "duplicate-link": ('<link name="base"/>', '<link name="base"/><link name="base"/>',
                       MalformedDescription, "duplicate link names"),
    "duplicate-joint": ("</robot>", _joint("j", "fixed", "arm", "base") + "</robot>",
                        MalformedDescription, "duplicate joint names"),
    "no-links": (MINIMAL, '<robot name="empty"/>', MalformedDescription, "no links"),
    "self-joint": ('<child link="arm"/>', '<child link="base"/>', GraphError,
                   "joint j connects link base to itself"),
    "fixed-loop": ('type="revolute"', 'type="fixed" loop="true"', MalformedDescription,
                   "loop joint j must be revolute"),
    "two-parents": ("</robot>", _joint("k", "fixed", "base", "arm") + "</robot>", GraphError,
                    "link arm has two parent joints"),
    "detached-cycle": ("</robot>", '<link name="a"/><link name="b"/>'
                       + _joint("ab", "fixed", "a", "b") + _joint("ba", "fixed", "b", "a")
                       + "</robot>", GraphError,
                       r"links not reachable from base base: \['a', 'b'\]"),
    "no-inertia": ("</robot>", '<link name="hand"/>' + _joint("k", "revolute", "arm", "hand")
                   + "</robot>", InvalidInertia, "moving link hand has no inertia"),
    "missing-attribute": ('<parent link="base"/>', "<parent/>", MalformedDescription,
                          "joint j parent is missing required attribute 'link'"),
    "not-a-boolean": ('type="revolute"', 'type="revolute" actuated="maybe"',
                      MalformedDescription, "attribute actuated='maybe' is not a boolean"),
    "root-element": ("robot", "model", MalformedDescription,
                     "root element is <model>, expected <robot>"),
    "unsupported-type": ('type="revolute"', 'type="prismatic"', MalformedDescription,
                         "joint j: unsupported type 'prismatic'"),
    "no-child": ('<child link="arm"/>', "", MalformedDescription,
                 "joint j needs parent and child links"),
}


@pytest.mark.parametrize("old,new,error,where", STRUCTURAL.values(), ids=STRUCTURAL.keys())
def test_structural_error_fails_at_parse_naming_element(old, new, error, where):
    # every occurrence is replaced: the root element's name opens and closes it
    assert old in MINIMAL
    with pytest.raises(error, match=where):
        parse_urdf(MINIMAL.replace(old, new))
