"""Graph construction from robot state: twists, factors, loops, priors."""

import re
import sys
import threading

import numpy as np
import pytest
from scipy.linalg.lapack import dgesdd

from dyngraph import fgraph
from dyngraph import model as model_module
from dyngraph.errors import InconsistentLoopState, RankDeficient
from dyngraph.fgraph import (
    Assembly,
    Kind,
    LinearFactor,
    VarKey,
    back_substitute,
    eliminate,
    scatter,
)
from dyngraph.model import Joint, parse_urdf
from dyngraph.oracle import dense_solve, rnea_full, rnea_torques
from dyngraph.spatial import Pose, big_adjoint
from dyngraph.transcribe import (
    GivenAccel,
    GivenTorque,
    JointState,
    ProblemSpec,
    build_graph,
    compute_twists,
    link_poses,
    planar_factor,
    resolve_ordering,
    solve_dynamics,
)

from conftest import FIXTURES, load_model, random_state

GRAVITY_Y = (0.0, -9.81, 0.0)

# known defects near five-bar full extension (see TestFiveBar)
ILL_CONDITIONED_LOOP = (
    "the graph's condition number passes 1e8 and then 1e9, where the arbiter finds it "
    "rank deficient, while every frontal block passes its own rank test: agreement "
    "falls to 1e-8, then elimination solves what the arbiter refuses")
DEAD_ROW_CUT_SCALES_WITH_RHS = (
    "the dead-row cut scales with the largest entry of R, rhs included, so once the "
    "rhs is large the prior rows (weight 1e-3) are dropped as dead: wrong values")


class TestComputeTwists:
    def test_zero_rates_zero_twists(self, three_r):
        st = JointState(np.array([0.4, -1.1, 0.2]), np.zeros(3))
        for tw in compute_twists(three_r, st).values():
            assert np.abs(tw).max() == 0.0

    def test_single_joint_scales_axis(self, pendulum):
        st = JointState(np.array([0.7]), np.array([2.0]))
        tw = compute_twists(pendulum, st)["bob"]
        axis = pendulum.tree_joints[0].axis.vector
        np.testing.assert_allclose(tw, 2.0 * axis, atol=1e-14)

    def test_matches_differentiated_kinematics(self, three_r):
        # body-frame linear velocity equals R^T d/dt(origin), with the
        # derivative taken by central difference along the joint path
        rng = np.random.default_rng(201)
        h = 1e-6
        for _ in range(10):
            st = random_state(rng, 3)
            ahead = JointState(st.q + h * st.qd, st.qd)
            behind = JointState(st.q - h * st.qd, st.qd)
            for link in ("link1", "link2", "link3"):
                p_a = link_poses(three_r, ahead)[link].transform_point(np.zeros(3))
                p_b = link_poses(three_r, behind)[link].transform_point(np.zeros(3))
                v_world = (p_a - p_b) / (2 * h)
                pose = link_poses(three_r, st)[link]
                tw = compute_twists(three_r, st)[link]
                np.testing.assert_allclose(
                    pose.rotation.T @ v_world, tw[3:], atol=1e-5
                )

    def test_same_arrays_as_solve(self, three_r):
        rng = np.random.default_rng(205)
        st = random_state(rng, 3)
        twists = compute_twists(three_r, st)
        solved = solve_dynamics(three_r, st, ProblemSpec.inverse(three_r, np.zeros(3))).twists
        assert twists.keys() == solved.keys()
        for name, tw in twists.items():
            assert tw.shape == (6,)
            np.testing.assert_array_equal(tw, solved[name])

    @pytest.mark.parametrize("which", ["pendulum", "three_r", "three_r_fixed_j2", "six_r",
                                       "five_bar", "parallelogram", "tree21"])
    def test_matches_joint_transform_sweep(self, which, request, five_bar_kin):
        # poses and twists from the per-model constants agree with a sweep
        # that evaluates Joint.transform joint by joint, as the oracle does
        if which == "parallelogram":
            model = parse_urdf(PARALLELOGRAM)
            st = JointState([0.7, -0.7, 0.7 + np.pi, -0.7 - np.pi], [-0.4, 0.4, -0.4, 0.4])
        elif which == "three_r_fixed_j2":
            model = parse_urdf((FIXTURES / "three_r.urdf").read_text().replace(
                '<joint name="j2" type="revolute">', '<joint name="j2" type="fixed">'))
            st = random_state(np.random.default_rng(207), 2)
        elif which == "five_bar":
            model, st = request.getfixturevalue(which), five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
        else:
            model = request.getfixturevalue(which)
            st = random_state(np.random.default_rng(207), len(model.movable_joints))
        q = dict(zip((j.name for j in model.movable_joints), st.q))
        qd = dict(zip((j.name for j in model.movable_joints), st.qd))
        poses, twists = {model.base: Pose.identity()}, {model.base: np.zeros(6)}
        for name in model.topo_order[1:]:
            j = model.parent_joint[name]
            t = j.transform(q.get(j.name, 0.0))
            poses[name] = poses[j.parent] @ t.inverse()
            twists[name] = big_adjoint(t) @ twists[j.parent]
            if j.axis is not None:
                twists[name] = twists[name] + j.axis.vector * qd[j.name]
        got_poses, got_twists = link_poses(model, st), compute_twists(model, st)
        assert got_poses.keys() == got_twists.keys() == set(model.topo_order)
        for name in model.topo_order:
            np.testing.assert_allclose(got_poses[name].matrix(), poses[name].matrix(),
                                       rtol=0, atol=1e-13)
            np.testing.assert_allclose(got_twists[name], twists[name], rtol=0, atol=1e-13)

    def test_consistent_loop_rates_accepted(self, five_bar, five_bar_kin):
        st = five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
        compute_twists(five_bar, st)

    def test_inconsistent_loop_rates_rejected(self, five_bar, five_bar_kin):
        st = five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
        qd = st.qd.copy()
        qd[1] += 1e-3
        with pytest.raises(InconsistentLoopState):
            compute_twists(five_bar, JointState(st.q, qd))


NAN, INF = float("nan"), float("inf")


class TestInputValidation:
    @pytest.mark.parametrize("field,make", [
        ("q", lambda m: JointState([0.1, NAN, 0.3], np.zeros(3))),
        ("q", lambda m: JointState([0.1, INF, 0.3], np.zeros(3))),
        ("qd", lambda m: JointState(np.zeros(3), [0.0, 0.0, -INF])),
        ("gravity", lambda m: ProblemSpec.inverse(m, np.zeros(3), gravity=(0.0, NAN, 0.0))),
        ("base_accel", lambda m: ProblemSpec.inverse(
            m, np.zeros(3), base_accel=[0.0, 0.0, 0.0, 0.0, 0.0, INF])),
        ("tool_wrench", lambda m: ProblemSpec.inverse(
            m, np.zeros(3), tool_wrench=[NAN, 0.0, 0.0, 0.0, 0.0, 0.0])),
        ("planar loop j5 normal", lambda m: ProblemSpec.forward(
            m, np.zeros(3), planar_loops={"j5": (0.0, 0.0, NAN)})),
        ("designations", lambda m: ProblemSpec.forward(m, [0.0, NAN, 0.0])),
        ("designations", lambda m: ProblemSpec.hybrid(
            m, {"j1": {"torque": 0.0}, "j2": {"accel": INF}, "j3": {"torque": 0.0}})),
        # values that are not real numbers at all
        pytest.param("q", lambda m: JointState(["a", 0, 0], np.zeros(3)), id="q-text"),
        pytest.param("gravity", lambda m: ProblemSpec.inverse(m, np.zeros(3), gravity="abc"),
                     id="gravity-text"),
        pytest.param("designations", lambda m: ProblemSpec.hybrid(
            m, {"j1": GivenAccel("x"), "j2": GivenTorque(0), "j3": GivenTorque(0)}),
            id="designations-text"),
        pytest.param("designations", lambda m: ProblemSpec(designations=(GivenTorque(None),)),
                     id="designations-none"),
        pytest.param("designations", lambda m: ProblemSpec(designations=(GivenAccel([1, 2]),)),
                     id="designations-list"),
        pytest.param("designations", lambda m: ProblemSpec(designations=(GivenAccel(1 + 2j),)),
                     id="designations-complex"),
    ])
    def test_non_finite_input_names_field(self, three_r, field, make):
        with pytest.raises(ValueError, match=rf"^{re.escape(field)}\b.*finite"):
            make(three_r)

    def test_malformed_planar_loops_names_field(self, three_r):
        with pytest.raises(ValueError, match=r"^planar_loops must map"):
            ProblemSpec.forward(three_r, np.zeros(3), planar_loops=[1, 2])

    def test_short_base_accel_names_field(self, three_r):
        with pytest.raises(ValueError, match=r"^base_accel must have 6 entries"):
            ProblemSpec.inverse(three_r, np.zeros(3), base_accel=np.zeros(5))

    @pytest.mark.parametrize("bad", [{"accel": 1.0}, 0.5, None])
    def test_designation_type_names_entry(self, bad):
        with pytest.raises(ValueError, match=r"^designations\[1\] must be GivenAccel"):
            ProblemSpec(designations=(GivenTorque(0.0), bad))

    @pytest.mark.parametrize("bad", [5, None, 1.5])
    def test_designations_not_a_sequence_names_field(self, bad):
        with pytest.raises(ValueError, match=r"^designations must be a sequence"):
            ProblemSpec(designations=bad)

    @pytest.mark.parametrize("bad", ["no", 1, None, np.array([True])])
    def test_min_torque_prior_must_be_bool(self, three_r, bad):
        with pytest.raises(ValueError, match=r"^min_torque_prior must be a bool"):
            ProblemSpec.inverse(three_r, np.zeros(3), min_torque_prior=bad)

    def test_min_torque_prior_accepts_bools(self, three_r):
        st = JointState(np.zeros(3), np.zeros(3))
        for flag, count in ((False, 9), (np.False_, 9), (True, 12), (np.True_, 12)):
            spec = ProblemSpec.inverse(three_r, np.zeros(3), min_torque_prior=flag)
            assert spec.min_torque_prior is bool(flag)
            assert len(build_graph(three_r, st, spec).factors) == count


class TestBuildGraph:
    def test_serial_inverse_counts(self, pendulum, three_r, six_r):
        # a serial inverse problem carries three factors and three unknowns
        # per joint: acceleration, balance, torque
        for m in (pendulum, three_r, six_r):
            n = len(m.tree_joints)
            st = JointState(np.full(n, 0.3), np.full(n, 0.1))
            g = build_graph(m, st, ProblemSpec.inverse(m, np.zeros(n)))
            assert len(g.factors) == 3 * n
            assert len(g.variables) == 3 * n

    def test_inverse_unknown_set(self, three_r):
        st = JointState(np.zeros(3), np.zeros(3))
        g = build_graph(three_r, st, ProblemSpec.inverse(three_r, np.zeros(3)))
        got = {str(v) for v in g.variables}
        assert got == {"Vd1", "Vd2", "Vd3", "F1", "F2", "F3", "tau1", "tau2", "tau3"}

    def test_forward_unknown_set(self, three_r):
        st = JointState(np.zeros(3), np.zeros(3))
        g = build_graph(three_r, st, ProblemSpec.forward(three_r, np.zeros(3)))
        got = {str(v) for v in g.variables}
        assert got == {
            "Vd1", "Vd2", "Vd3", "F1", "F2", "F3", "qdd1", "qdd2", "qdd3",
        }

    def test_hybrid_unknown_set(self, three_r):
        st = JointState(np.zeros(3), np.zeros(3))
        spec = ProblemSpec.hybrid(
            three_r,
            {"j1": {"accel": 0.5}, "j2": {"torque": 1.0}, "j3": {"torque": -0.2}},
        )
        g = build_graph(three_r, st, spec)
        got = {str(v) for v in g.variables}
        assert got == {
            "Vd1", "Vd2", "Vd3", "F1", "F2", "F3", "tau1", "qdd2", "qdd3",
        }

    def test_knowns_folded_into_rhs(self, three_r):
        # designated quantities never appear as variables, only as numbers
        st = JointState(np.array([0.2, 0.1, -0.3]), np.array([0.5, -0.2, 0.1]))
        g = build_graph(three_r, st, ProblemSpec.inverse(three_r, np.ones(3)))
        kinds = {v.kind for v in g.variables}
        assert Kind.JOINT_ACCEL not in kinds

    def test_gravity_static_torques(self, three_r):
        st = JointState(np.array([0.4, -0.9, 0.3]), np.zeros(3))
        res = solve_dynamics(
            three_r, st, ProblemSpec.inverse(three_r, np.zeros(3), gravity=GRAVITY_Y)
        )
        tau = np.array([res.torques[j.name] for j in three_r.tree_joints])
        ref = rnea_torques(three_r, st, np.zeros(3), gravity=GRAVITY_Y)
        np.testing.assert_allclose(tau, ref, atol=1e-9)

    def test_factors_vanish_at_recursive_solution(self, six_r):
        # transcription and the recursive sweep encode the same physics:
        # the sweep's full variable set zeroes every hard factor
        rng = np.random.default_rng(202)
        for _ in range(5):
            st = random_state(rng, 6)
            qdd = rng.uniform(-1, 1, 6)
            full = rnea_full(six_r, st, qdd, gravity=GRAVITY_Y)
            g = build_graph(
                six_r, st, ProblemSpec.inverse(six_r, qdd, gravity=GRAVITY_Y)
            )
            values = {}
            for i, j in enumerate(six_r.tree_joints, start=1):
                values[VarKey(Kind.ACCEL, i)] = full["accels"][j.child]
                values[VarKey(Kind.WRENCH, i)] = full["wrenches"][j.child]
                values[VarKey(Kind.TORQUE, i)] = np.array([full["torques"][i - 1]])
            assert g.residual_max(values) < 1e-9

    def test_tool_wrench_enters_balance(self, three_r):
        rng = np.random.default_rng(203)
        st = random_state(rng, 3)
        wrench = rng.uniform(-2, 2, 6)
        spec = ProblemSpec.inverse(
            three_r, np.zeros(3), gravity=GRAVITY_Y, tool_wrench=wrench
        )
        res = solve_dynamics(three_r, st, spec)
        tau = np.array([res.torques[j.name] for j in three_r.tree_joints])
        ref = rnea_torques(
            three_r, st, np.zeros(3), gravity=GRAVITY_Y, tool_wrench=wrench
        )
        np.testing.assert_allclose(tau, ref, atol=1e-9)

    @pytest.mark.parametrize("which", ["tree21", "five_bar"])
    def test_tool_wrench_needs_a_single_tool_link(self, which, tree21, five_bar, five_bar_kin):
        # a branched tree and a closed loop have no single tool link, so a
        # nonzero tool wrench has no link to act on
        if which == "tree21":
            model, st = tree21, random_state(np.random.default_rng(209), 21)
            make, given, kw = ProblemSpec.inverse, np.zeros(21), {}
        else:
            model, st = five_bar, five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
            make, given = ProblemSpec.forward, np.array([1.0, 0.5])
            kw = {"planar_loops": {"j5": (0.0, 0.0, 1.0)}}
        assert model.tool_link is None
        pushed = make(model, given, tool_wrench=[0, 0, 0, 0, 0, 100], **kw)
        with pytest.raises(ValueError, match=r"^tool_wrench\b.*single tool link"):
            solve_dynamics(model, st, pushed)
        with pytest.raises(ValueError, match=r"^tool_wrench\b.*single tool link"):
            build_graph(model, st, pushed)
        res = solve_dynamics(model, st, make(model, given, tool_wrench=np.zeros(6), **kw))
        assert res.residual_max < 1e-9

    def test_base_accel_enters_propagation(self, three_r):
        rng = np.random.default_rng(204)
        st = random_state(rng, 3)
        base = rng.uniform(-1, 1, 6)
        spec = ProblemSpec.inverse(
            three_r, np.zeros(3), gravity=GRAVITY_Y, base_accel=base
        )
        res = solve_dynamics(three_r, st, spec)
        tau = np.array([res.torques[j.name] for j in three_r.tree_joints])
        ref = rnea_torques(
            three_r, st, np.zeros(3), gravity=GRAVITY_Y, base_accel=base
        )
        np.testing.assert_allclose(tau, ref, atol=1e-9)

    def test_min_torque_prior_adds_soft_tier(self, three_r):
        st = JointState(np.zeros(3), np.zeros(3))
        spec = ProblemSpec.forward(three_r, np.zeros(3), min_torque_prior=True)
        g = build_graph(three_r, st, spec)
        # forward problems have no unknown torques, so no priors appear
        assert all(f.weight == 1.0 for f in g.factors)
        spec = ProblemSpec.inverse(three_r, np.zeros(3), min_torque_prior=True)
        g = build_graph(three_r, st, spec)
        soft = [f for f in g.factors if f.weight == 1e-3]
        assert len(soft) == 3
        assert all(list(f.blocks) == [VarKey(Kind.TORQUE, i + 1)]
                   for i, f in enumerate(sorted(soft, key=lambda f: f.name)))


class TestPlanarFactor:
    def test_axis_aligned_rows(self):
        f5 = VarKey(Kind.WRENCH, 5)
        f = planar_factor(f5, np.array([0.0, 0.0, 1.0]))
        block = f.blocks[f5]
        assert block.shape == (3, 6)
        picked = sorted(np.flatnonzero(np.abs(block).sum(axis=0)))
        assert picked == [0, 1, 5]
        np.testing.assert_allclose(np.zeros(3), f.rhs, atol=1e-15)

    def test_rotated_normal_annihilates_planar_wrench(self):
        # a wrench transmissible through a planar revolute joint has moment
        # along the normal and force within the plane; the factor zeroes it
        rng = np.random.default_rng(211)
        f5 = VarKey(Kind.WRENCH, 5)
        for _ in range(10):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            f = planar_factor(f5, n)
            t1 = np.cross(n, rng.normal(size=3))
            t1 /= np.linalg.norm(t1)
            t2 = np.cross(n, t1)
            w = np.concatenate([rng.normal() * n,
                                rng.normal() * t1 + rng.normal() * t2])
            np.testing.assert_allclose(f.blocks[f5] @ w, np.zeros(3), atol=1e-12)

    def test_normal_scale_invariant(self):
        # the constraint depends on the plane, not the normal's magnitude
        rng = np.random.default_rng(212)
        f5 = VarKey(Kind.WRENCH, 5)
        a = planar_factor(f5, np.array([0.0, 0.0, 1.0])).blocks[f5]
        b = planar_factor(f5, np.array([0.0, 0.0, 7.5])).blocks[f5]
        for _ in range(5):
            w = rng.normal(size=6)
            assert (np.abs(a @ w) < 1e-12).all() == (np.abs(b @ w) < 1e-12).all()


class TestFiveBar:
    def forward_spec(self, model, planar=True, **kw):
        return ProblemSpec.forward(
            model,
            np.array([1.0, 0.5]),
            gravity=GRAVITY_Y,
            planar_loops=(("j5", (0.0, 0.0, 1.0)),) if planar else (),
            **kw,
        )

    def test_forward_without_planar_factor_underdetermined(
        self, five_bar, five_bar_kin
    ):
        st = five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
        with pytest.raises(RankDeficient) as err:
            solve_dynamics(five_bar, st, self.forward_spec(five_bar, planar=False))
        assert "F5" in str(err.value)

    @pytest.mark.parametrize("which,field,error,message", [
        pytest.param("five_bar", "q", ValueError, "^q must be finite", id="q-ValueError"),
        pytest.param("five_bar", "qd", InconsistentLoopState, "rates violate",
                     id="qd-InconsistentLoopState"),
        pytest.param("six_r", "q", ValueError, "^q must be finite", id="six_r-q-ValueError"),
        pytest.param("six_r", "qd", ValueError, "^qd must be finite",
                     id="six_r-qd-ValueError"),
    ])
    def test_nan_state_fails_in_kinematics(self, which, five_bar, five_bar_kin, six_r,
                                           field, error, message):
        # a NaN planted past JointState's check stops at kinematics: a bad
        # angle before any loop-closure test, a bad rate at the rate-closure
        # test on a loop and by name on a tree; never as a RankDeficient or
        # a NaN answer
        if which == "six_r":
            model, st = six_r, JointState(np.full(6, 0.2), np.full(6, 0.1))
            spec = ProblemSpec.inverse(six_r, np.zeros(6))
        else:
            model, st = five_bar, five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
            spec = self.forward_spec(five_bar)
        bad = getattr(st, field).copy()
        bad[1] = NAN
        object.__setattr__(st, field, bad)
        with pytest.raises(error, match=message):
            solve_dynamics(model, st, spec)

    def test_unreachable_state_rejected(self, five_bar, five_bar_kin):
        # bar tips 0.7 apart cannot meet with 0.25 bars: no real closure
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match=r"^q must be finite"):
            five_bar_kin.state(np.pi, 0.0, 0.0, 0.0)

    @staticmethod
    def near_extension(five_bar_kin):
        """States approaching full extension: at alpha = arccos(0.6),
        q1 = pi - alpha and q3 = alpha put the elbows 2L apart, the distal
        bars line up and the loop loses rank."""
        for k in np.arange(1.0, 15.5, 0.5):
            alpha = np.arccos(0.6) + 10.0 ** -k
            yield five_bar_kin.state(np.pi - alpha, alpha, 0.3, -0.2)

    @pytest.mark.parametrize("given,prior", [
        pytest.param(None, False, id="forward"),
        pytest.param("torque", False, id="hybrid"),
        pytest.param("accel", False, id="redundant", marks=pytest.mark.xfail(
            strict=True, reason=ILL_CONDITIONED_LOOP)),
        pytest.param("torque", True, id="hybrid-prior", marks=pytest.mark.xfail(
            strict=True, reason=DEAD_ROW_CUT_SCALES_WITH_RHS)),
        pytest.param("accel", True, id="redundant-prior", marks=pytest.mark.xfail(
            strict=True, reason=DEAD_ROW_CUT_SCALES_WITH_RHS)),
    ])
    def test_near_full_extension_agrees_or_names_a_variable(self, five_bar, five_bar_kin,
                                                          given, prior):
        # on the way to full extension every solve, under every ordering,
        # agrees with the dense arbiter to 1e-8 of its largest entry, or
        # raises a RankDeficient naming a variable of its graph, as the
        # arbiter then does too: never a NaN or a wrong answer
        if given is None:
            spec = self.forward_spec(five_bar)
        else:
            spec = ProblemSpec.hybrid(five_bar, {"j1": {"accel": 0.5}, "j3": {given: -0.3}},
                                      gravity=GRAVITY_Y, planar_loops=(("j5", (0.0, 0.0, 1.0)),),
                                      min_torque_prior=prior)
        outcomes = set()
        for st in self.near_extension(five_bar_kin):
            graph = build_graph(five_bar, st, spec)
            try:
                want = dense_solve(graph)
            except RankDeficient:
                want = None
            for ordering in ("auto", "md", "nd"):
                try:
                    res = solve_dynamics(five_bar, st, spec, ordering)
                except RankDeficient as err:
                    assert err.key in graph.variables
                    outcomes.add("rank")
                    continue
                assert want is not None, "solved a graph the arbiter finds rank deficient"
                scale = max(np.abs(v).max() for v in want.values())
                for key, v in want.items():
                    np.testing.assert_allclose(res.values[key], v, rtol=0, atol=1e-8 * scale)
                outcomes.add("solved")
        assert outcomes == {"solved", "rank"}

    def test_near_full_extension_tests_frontals_on_singular_values(self, five_bar, five_bar_kin,
                                                                  monkeypatch):
        # driven at both base joints, the loop wrench's 6-dim frontal block
        # gets too ill-conditioned for the batched bound, so the rank test
        # falls back to its singular values: first passing, then failing
        # and naming the loop wrench
        outcomes, fallbacks = [], []
        monkeypatch.setattr(fgraph, "dgesdd", lambda *a, **kw: (fallbacks.append(1),
                                                                 dgesdd(*a, **kw))[1])
        spec = ProblemSpec.hybrid(five_bar, {"j1": {"accel": 0.5}, "j3": {"accel": -0.3}},
                                  gravity=GRAVITY_Y, planar_loops=(("j5", (0.0, 0.0, 1.0)),))
        for st in self.near_extension(five_bar_kin):
            tested = len(fallbacks)
            try:
                solve_dynamics(five_bar, st, spec)
                outcome = "solved"
            except RankDeficient as err:
                outcome = str(err)
            if len(fallbacks) > tested:
                outcomes.append(outcome)
        assert outcomes[0] == "solved"
        assert outcomes[-1] == "rank-deficient system at variable F5: frontal block rank below 6"

    def test_forward_with_planar_factor_solves(self, five_bar, five_bar_kin):
        st = five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
        res = solve_dynamics(five_bar, st, self.forward_spec(five_bar))
        assert res.residual_max < 1e-8

    def test_forward_graph_has_unary_loop_factor(self, five_bar, five_bar_kin):
        st = five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
        g = build_graph(five_bar, st, self.forward_spec(five_bar))
        f5 = VarKey(Kind.WRENCH, 5)
        unary = [f for f in g.factors if list(f.blocks) == [f5]]
        # the passive loop joint folds its zero torque into one unary row,
        # and the declared plane contributes three more
        planar = [f for f in unary if f.blocks[f5].shape[0] == 3]
        assert len(planar) == 1

    def test_auto_orders_loop_wrench_last(self, five_bar, five_bar_kin):
        # plain min-degree eliminates F5 mid-sequence; "auto" defers it
        st = five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
        g = build_graph(five_bar, st, self.forward_spec(five_bar))
        f5 = VarKey(Kind.WRENCH, 5)
        assert resolve_ordering(g, "md", five_bar)[-1] != f5
        assert resolve_ordering(g, "auto", five_bar)[-1] == f5

    def test_forward_accels_satisfy_closure(self, five_bar, five_bar_kin):
        # solved accelerations must be differentiations of the loop closure
        st = five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
        res = solve_dynamics(five_bar, st, self.forward_spec(five_bar))
        qdd = np.array([res.accels[f"j{i}"] for i in range(1, 6)])
        qdd24 = five_bar_kin.accels(st.q, st.qd, qdd[0], qdd[2])
        np.testing.assert_allclose(qdd[1], qdd24[0], atol=1e-7)
        np.testing.assert_allclose(qdd[3], qdd24[1], atol=1e-7)
        np.testing.assert_allclose(
            qdd[4], (qdd[2] + qdd[3]) - (qdd[0] + qdd[1]), atol=1e-7
        )

    def test_inverse_torques_match_reduced_model(self, five_bar, five_bar_kin):
        """Cut the loop, solve the open tree, pull torques back through the
        closure jacobian: tau_pair = J^T tau_tree. The graph solve with the
        loop intact must agree."""
        from dyngraph.model import RobotModel

        st = five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
        qdd13 = np.array([0.7, -0.4])
        qdd24 = five_bar_kin.accels(st.q, st.qd, *qdd13)
        spec = ProblemSpec.hybrid(
            five_bar,
            {
                "j1": {"accel": qdd13[0]},
                "j2": {"torque": 0.0},
                "j3": {"accel": qdd13[1]},
                "j4": {"torque": 0.0},
            },
            gravity=GRAVITY_Y,
            planar_loops=(("j5", (0.0, 0.0, 1.0)),),
        )
        res = solve_dynamics(five_bar, st, spec)

        tree = RobotModel(five_bar.links, five_bar.tree_joints)
        qdd_t = np.array([qdd13[0], qdd24[0], qdd13[1], qdd24[1]])
        tau_t = rnea_torques(
            tree, JointState(st.q[:4], st.qd[:4]), qdd_t, gravity=GRAVITY_Y
        )
        c1 = five_bar_kin.rates(st.q, 1.0, 0.0)
        c2 = five_bar_kin.rates(st.q, 0.0, 1.0)
        jac = np.array([[1.0, 0.0], [c1[0], c2[0]], [0.0, 1.0], [c1[1], c2[1]]])
        tau_pair = jac.T @ tau_t
        np.testing.assert_allclose(
            [res.torques["j1"], res.torques["j3"]], tau_pair, atol=1e-8
        )
        # passive accelerations come out closure-consistent too
        np.testing.assert_allclose(res.accels["j2"], qdd24[0], atol=1e-7)
        np.testing.assert_allclose(res.accels["j4"], qdd24[1], atol=1e-7)


class TestSolveDynamics:
    def test_result_fields(self, three_r):
        st = JointState(np.array([0.1, 0.2, 0.3]), np.array([0.0, 0.1, -0.1]))
        res = solve_dynamics(
            three_r, st, ProblemSpec.inverse(three_r, np.zeros(3), gravity=GRAVITY_Y)
        )
        assert set(res.torques) == {"j1", "j2", "j3"}
        assert set(res.accels) == {"j1", "j2", "j3"}
        assert set(res.twists) == {"base", "link1", "link2", "link3"}
        assert set(res.wrenches) == {"j1", "j2", "j3"}
        assert res.residual_max < 1e-8
        assert len(res.ordering) == len(res.graph.variables)
        assert res.solve_micros > 0 and res.build_micros > 0

    def test_named_orderings_accepted(self, three_r):
        st = JointState(np.array([0.1, 0.2, 0.3]), np.array([0.0, 0.1, -0.1]))
        inverse = ProblemSpec.inverse(three_r, np.ones(3), gravity=GRAVITY_Y)
        forward = ProblemSpec.forward(three_r, np.ones(3), gravity=GRAVITY_Y)
        for spec, names in (
            (inverse, ("auto", "rnea", "md", "nd")),
            (forward, ("auto", "crba", "aba", "md", "nd")),
        ):
            results = [solve_dynamics(three_r, st, spec, ordering=n) for n in names]
            for a, b in zip(results, results[1:]):
                for j in ("j1", "j2", "j3"):
                    assert abs(a.torques[j] - b.torques[j]) < 1e-10
                    assert abs(a.accels[j] - b.accels[j]) < 1e-10

    def test_explicit_ordering_accepted(self, three_r):
        st = JointState(np.zeros(3), np.zeros(3))
        spec = ProblemSpec.inverse(three_r, np.ones(3))
        keys = ["tau3", "tau2", "tau1", "F1", "F2", "F3", "Vd3", "Vd2", "Vd1"]
        res = solve_dynamics(three_r, st, spec, ordering=keys)
        assert [str(v) for v in res.ordering] == keys

    def test_one_joint_transform_per_joint(self, five_bar_kin, monkeypatch):
        # a solve evaluates every joint from constants its model derives
        # once, loop joints included, and never calls Joint.transform
        calls, builds = [], []
        transform, derive = Joint.transform, model_module._joint_constants

        def counted(joint, angle):
            calls.append(joint.name)
            return transform(joint, angle)

        def counted_derive(model):
            builds.append(model)
            return derive(model)

        monkeypatch.setattr(Joint, "transform", counted)
        monkeypatch.setattr(model_module, "_joint_constants", counted_derive)
        six_r, five_bar = load_model("six_r.urdf"), load_model("five_bar.urdf")
        for _ in range(2):
            st = JointState(np.full(6, 0.2), np.full(6, 0.1))
            solve_dynamics(six_r, st, ProblemSpec.inverse(six_r, np.zeros(6)))
            st = five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
            solve_dynamics(five_bar, st, ProblemSpec.forward(
                five_bar, np.array([1.0, 0.5]), planar_loops=(("j5", (0.0, 0.0, 1.0)),)))
        assert calls == []
        assert builds == [six_r, five_bar]
        assert [j.name for j in five_bar.joint_constants.joints] == \
            [five_bar.parent_joint[n].name for n in five_bar.topo_order[1:]] + ["j5"]

    def test_no_pose_validation_inside_a_solve(self, six_r, monkeypatch):
        # poses composed, inverted and exponentiated from validated ones
        # skip the orthonormality check
        checks = []
        check = Pose.__post_init__

        def counted(pose):
            checks.append(pose)
            check(pose)

        monkeypatch.setattr(Pose, "__post_init__", counted)
        st = JointState(np.full(6, 0.2), np.full(6, 0.1))
        solve_dynamics(six_r, st, ProblemSpec.inverse(six_r, np.zeros(6)))
        assert checks == []


# a parallelogram four-bar: crank j1 from the base, coupler j2, rocker j3
# back down, and the loop joint j4 from the rocker's tip to a base anchor
PARALLELOGRAM = """
<robot name="parallelogram">
  <link name="base"/>
  <link name="crank"><inertial><origin xyz="0.15 0 0"/><mass value="0.5"/>
    <inertia ixx="1e-5" ixy="0" ixz="0" iyy="0.00375" iyz="0" izz="0.00375"/>
  </inertial></link>
  <link name="coupler"><inertial><origin xyz="0.2 0 0"/><mass value="0.5"/>
    <inertia ixx="1e-5" ixy="0" ixz="0" iyy="0.0066667" iyz="0" izz="0.0066667"/>
  </inertial></link>
  <link name="rocker"><inertial><origin xyz="0.15 0 0"/><mass value="0.5"/>
    <inertia ixx="1e-5" ixy="0" ixz="0" iyy="0.00375" iyz="0" izz="0.00375"/>
  </inertial></link>
  <joint name="j1" type="revolute">
    <parent link="base"/><child link="crank"/><axis xyz="0 0 1"/>
  </joint>
  <joint name="j2" type="revolute" actuated="false">
    <parent link="crank"/><child link="coupler"/>
    <origin xyz="0.3 0 0"/><axis xyz="0 0 1"/>
  </joint>
  <joint name="j3" type="revolute" actuated="false">
    <parent link="coupler"/><child link="rocker"/>
    <origin xyz="0.4 0 0"/><axis xyz="0 0 1"/>
  </joint>
  <joint name="j4" type="revolute" loop="true">
    <parent link="rocker"/><child link="base"/>
    <origin xyz="0.3 0 0"/><axis xyz="0 0 1"/><child_origin xyz="0.4 0 0"/>
  </joint>
</robot>
"""


class TestLoopClosingOnBase:
    @pytest.mark.parametrize("ordering", ["auto", "md", "nd"])
    def test_parallelogram_with_base_acceleration(self, ordering):
        # the coupler stays parallel to the base, so whatever the dynamics
        # the joint accelerations obey qdd2 = -qdd1, qdd3 = qdd1, qdd4 = -qdd1;
        # the loop joint's child is the base, so base_accel enters there too
        model = parse_urdf(PARALLELOGRAM)
        theta, rate = 0.7, -0.4
        st = JointState([theta, -theta, theta + np.pi, -theta - np.pi],
                        [rate, -rate, rate, -rate])
        spec = ProblemSpec.forward(model, [0.8], gravity=GRAVITY_Y,
                                   base_accel=[0.3, -0.2, 0.5, 1.5, -0.7, 0.4],
                                   planar_loops={"j4": (0.0, 0.0, 1.0)})
        res = solve_dynamics(model, st, spec, ordering)
        qdd = res.accels
        assert abs(qdd["j1"]) > 1e-3
        for name, sign in (("j2", -1), ("j3", 1), ("j4", -1)):
            assert abs(qdd[name] - sign * qdd["j1"]) < 1e-9
        dense = dense_solve(res.graph)
        for k, v in dense.items():
            np.testing.assert_allclose(res.values[k], v, rtol=0, atol=1e-8)


class TestOneWrenchPerJoint:
    @pytest.mark.parametrize("which", ["five_bar", "parallelogram", "tree21"])
    def test_wrench_enters_its_endpoint_balances(self, which, five_bar, five_bar_kin, tree21):
        # every joint, tree or loop: F_j sits in the balance of each endpoint
        # that is not the base, as -I in its child's and Ad_j^T in its parent's
        if which == "five_bar":
            model, st = five_bar, five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
        elif which == "tree21":
            model, st = tree21, random_state(np.random.default_rng(208), 21)
        else:
            model = parse_urdf(PARALLELOGRAM)
            st = JointState([0.7, -0.7, 0.7 + np.pi, -0.7 - np.pi], [-0.4, 0.4, -0.4, 0.4])
        n_act = sum(1 for j in model.movable_joints if j.actuated)
        g = build_graph(model, st, ProblemSpec.forward(model, np.ones(n_act)))
        balance = {f.name[len("balance["):-1]: f for f in g.factors
                   if f.name.startswith("balance[")}
        q = dict(zip((j.name for j in model.movable_joints), st.q))
        for j in model.joints:
            f = VarKey(Kind.WRENCH, j.index)
            assert {link for link, b in balance.items() if f in b.keys()} == \
                {j.child, j.parent} - {model.base}
            if j.child != model.base:
                np.testing.assert_array_equal(balance[j.child].blocks[f], -np.eye(6))
            if j.parent != model.base:
                np.testing.assert_allclose(balance[j.parent].blocks[f],
                                           big_adjoint(j.transform(q[j.name])).T,
                                           rtol=0, atol=1e-15)


def chain_model(n):
    """Serial chain of n revolute joints with alternating axes."""
    inertial = ('<inertial><mass value="1.0"/><inertia ixx="0.02" ixy="0" ixz="0" '
                'iyy="0.02" iyz="0" izz="0.01"/></inertial>')
    links = "".join(f'<link name="l{i}">{inertial if i else ""}</link>'
                    for i in range(n + 1))
    joints = "".join(
        f'<joint name="j{i}" type="revolute"><parent link="l{i - 1}"/>'
        f'<child link="l{i}"/><origin xyz="0 0 0.1"/>'
        f'<axis xyz="0 {i % 2} {1 - i % 2}"/></joint>' for i in range(1, n + 1))
    return parse_urdf(f'<robot name="chain">{links}{joints}</robot>')


@pytest.fixture
def fresh_plans():
    """Empty plan memo before and after the test."""
    fgraph._plans.clear()
    yield
    fgraph._plans.clear()


def fresh_solution(model, state, spec, ordering):
    """The public pipeline with no memoised plan: ordering, plan and
    elimination all computed afresh."""
    fgraph._plans.clear()
    graph = build_graph(model, state, spec)
    dag = eliminate(graph, resolve_ordering(graph, ordering, model))
    return dag, back_substitute(dag)


def assert_same_solution(res, dag, values):
    assert res.ordering == dag.ordering
    assert (res.dag.edge_count, res.dag.fill_in) == (dag.edge_count, dag.fill_in)
    assert res.values.keys() == values.keys()
    for k, v in values.items():
        np.testing.assert_allclose(res.values[k], v, rtol=0, atol=1e-12)


def fixture_cases(three_r, six_r, five_bar, five_bar_kin):
    """(model, spec maker, orderings) for the fixtures; specs are made per
    state so that the values change while the structure repeats."""
    planar = {"planar_loops": (("j5", (0.0, 0.0, 1.0)),)}
    yield three_r, lambda r: ProblemSpec.inverse(three_r, r.uniform(-1, 1, 3)), \
        ("auto", "md", "nd", "rnea", ["tau1", "tau2", "tau3", "F1", "F2", "F3",
                                      "Vd3", "Vd2", "Vd1"])
    yield three_r, lambda r: ProblemSpec.forward(three_r, r.uniform(-1, 1, 3)), \
        ("auto", "md", "nd", "crba", "aba")
    for pattern in ((True, False, True), (False, True, False), (False, False, True)):
        yield three_r, lambda r, p=pattern: ProblemSpec.hybrid(three_r, {
            f"j{i + 1}": {"accel" if a else "torque": x}
            for i, (a, x) in enumerate(zip(p, r.uniform(-1, 1, 3)))}), ("auto", "md", "nd")
    yield six_r, lambda r: ProblemSpec.inverse(six_r, r.uniform(-1, 1, 6)), \
        ("auto", "md", "nd", "rnea")
    yield six_r, lambda r: ProblemSpec.forward(six_r, r.uniform(-1, 1, 6)), \
        ("auto", "md", "nd", "crba", "aba")
    yield five_bar, lambda r: ProblemSpec.forward(five_bar, r.uniform(-1, 1, 2), **planar), \
        ("auto", "md", "nd")
    for prior in (False, True):
        yield five_bar, lambda r, p=prior: ProblemSpec.hybrid(five_bar, {
            "j1": {"accel": r.uniform(-1, 1)}, "j3": {"accel": r.uniform(-1, 1)}},
            min_torque_prior=p, **planar), ("auto", "md", "nd")


class TestPlanMemo:
    def states(self, model, five_bar_kin, rng, count):
        if model.loop_joints:
            return [five_bar_kin.state(rng.uniform(1.7, 2.1), rng.uniform(1.0, 1.4),
                                       *rng.uniform(-0.5, 0.5, 2)) for _ in range(count)]
        return [random_state(rng, len(model.movable_joints)) for _ in range(count)]

    def test_memoised_solve_matches_fresh_pipeline(self, three_r, six_r, five_bar,
                                                   five_bar_kin, fresh_plans):
        rng = np.random.default_rng(404)
        for model, make_spec, orderings in fixture_cases(three_r, six_r, five_bar,
                                                         five_bar_kin):
            warm, st = self.states(model, five_bar_kin, rng, 2)
            for ordering in orderings:
                solve_dynamics(model, warm, make_spec(rng), ordering)
                spec = make_spec(rng)
                res = solve_dynamics(model, st, spec, ordering)
                assert_same_solution(res, *fresh_solution(model, st, spec, ordering))

    def test_changed_structure_input_gets_its_own_plan(self, five_bar, five_bar_kin,
                                                       fresh_plans):
        # each variant changes one input that fixes the structure; solved
        # right after the base filled the memo, it must match a fresh solve
        st = five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
        planar = (("j5", (0.0, 0.0, 1.0)),)
        base = ({"j1": {"accel": 0.7}, "j3": {"accel": -0.4}}, False, planar, "auto")
        variants = [
            ({"j1": {"torque": 0.7}, "j3": {"accel": -0.4}}, False, planar, "auto"),
            (base[0], True, planar, "auto"),
            (base[0], False, planar, "md"),
            (base[0], False, (), "auto"),
        ]
        def problem(mapping, prior, loops, ordering):
            return ProblemSpec.hybrid(five_bar, mapping, min_torque_prior=prior,
                                      planar_loops=loops), ordering

        spec, ordering = problem(*base)
        before = solve_dynamics(five_bar, st, spec, ordering)
        for variant in variants:
            fgraph._plans.clear()
            solve_dynamics(five_bar, st, spec, ordering)
            vspec, vordering = problem(*variant)
            if not variant[2]:
                # no planar factor: the loop wrench is underdetermined
                with pytest.raises(RankDeficient) as err:
                    solve_dynamics(five_bar, st, vspec, vordering)
                assert err.value.key == VarKey(Kind.WRENCH, 5)
                continue
            res = solve_dynamics(five_bar, st, vspec, vordering)
            assert (res.graph.structure, res.ordering) != \
                (before.graph.structure, before.ordering)
            assert_same_solution(res, *fresh_solution(five_bar, st, vspec, vordering))

    def test_one_plan_per_request(self, three_r, five_bar, five_bar_kin, fresh_plans):
        # on a tree "auto" is "md" with nothing deferred; the plan is filed
        # under the request and under its own key sequence, which a key
        # sequence request, given as VarKeys or as text, finds again
        st = JointState(np.full(3, 0.2), np.full(3, 0.1))
        graph = build_graph(three_r, st, ProblemSpec.forward(three_r, np.zeros(3)))
        keys = resolve_ordering(graph, "auto", three_r)
        plan = fgraph.plan_for(graph, "md")
        assert len(fgraph._plans) == 2
        assert resolve_ordering(graph, "MD", three_r) == keys
        assert fgraph.plan_for(graph, keys) is plan
        assert fgraph.plan_for(graph, [str(k) for k in keys]) is plan
        assert eliminate(graph, keys).plan is plan
        assert len(fgraph._plans) == 2
        # on a loop, "auto" defers the loop wrench and gets its own entry
        loop = build_graph(five_bar, five_bar_kin.state(1.9, 1.2, 0.3, -0.2),
                           ProblemSpec.forward(five_bar, np.zeros(2),
                                               planar_loops={"j5": (0.0, 0.0, 1.0)}))
        f5 = VarKey(Kind.WRENCH, 5)
        assert fgraph.plan_for(loop, "md", (f5,)).ordering[-1] == f5
        assert fgraph.plan_for(loop, "md", (f5,)) is not fgraph.plan_for(loop, "md")

    def test_memo_stays_bounded(self, fresh_plans):
        model = chain_model(10)
        st = JointState(np.full(10, 0.3), np.full(10, -0.2))
        for pattern in range(1000):
            spec = ProblemSpec.hybrid(model, {
                f"j{i + 1}": GivenAccel(0.1) if pattern >> i & 1 else GivenTorque(0.1)
                for i in range(10)})
            resolve_ordering(build_graph(model, st, spec), "auto", model)
            assert len(fgraph._plans) <= fgraph._PLAN_MEMO_SIZE

    def test_rank_deficient_names_loop_wrench_on_every_solve(self, five_bar,
                                                             five_bar_kin, fresh_plans):
        # the first solve makes the plan, the second reuses it; the row
        # counts are those of elimination without a plan
        st = five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
        for spec, rows in (
                (ProblemSpec.forward(five_bar, np.array([1.0, 0.5])), 3),
                (ProblemSpec.hybrid(five_bar, {"j1": {"accel": 0.7},
                                               "j3": {"accel": -0.4}}), 5)):
            for _ in range(2):
                with pytest.raises(RankDeficient,
                                   match=f"F5: {rows} constraint rows for 6 dim"):
                    solve_dynamics(five_bar, st, spec)


class TestBackSubstitute:
    @staticmethod
    def reference(dag):
        """Per-conditional back-substitution: a general solve on each
        `diag`, walking `parent_blocks` from the last conditional back."""
        values = {}
        for cond in reversed(dag.conditionals):
            rhs = cond.rhs.copy()
            for p, a in cond.parent_blocks.items():
                rhs -= a @ values[p]
            values[cond.frontal] = np.linalg.solve(cond.diag, rhs)
        return values

    def test_flat_vector_matches_per_conditional_reference(self, three_r, six_r, five_bar,
                                                           five_bar_kin):
        rng = np.random.default_rng(505)
        for model, make_spec, orderings in fixture_cases(three_r, six_r, five_bar,
                                                         five_bar_kin):
            st = (five_bar_kin.state(1.9, 1.2, 0.3, -0.2) if model.loop_joints
                  else random_state(rng, len(model.movable_joints)))
            graph = build_graph(model, st, make_spec(rng))
            for ordering in orderings:
                dag = eliminate(graph, resolve_ordering(graph, ordering, model))
                values = back_substitute(dag)
                want = self.reference(dag)
                assert values.keys() == want.keys() == set(graph.variables)
                # both sum in floating point in their own order: 1e-12
                # relative to the solve's largest entry (wrenches reach 1e3)
                tol = 1e-12 * max(1.0, max(np.abs(w).max() for w in want.values()))
                for k, v in values.items():
                    assert v.shape == (k.dim,)
                    np.testing.assert_allclose(v, want[k], rtol=0, atol=tol)


def pipeline_outcome(model, state, spec, ordering):
    """The public pipeline build_graph -> resolve_ordering -> eliminate ->
    back_substitute -> residual_max, or the error it raises."""
    try:
        graph = build_graph(model, state, spec)
        dag = eliminate(graph, resolve_ordering(graph, ordering, model))
        values = back_substitute(dag)
        return graph, dag, values, graph.residual_max(values)
    except Exception as e:
        return e


def compiled_cases(pendulum, three_r, six_r, five_bar, five_bar_kin):
    """(model, state maker, spec maker, orderings) covering the fixtures and
    the parallelogram: inverse, forward, hybrid, the prior and planar loops."""
    rng_state = lambda m: (lambda r: random_state(r, len(m.movable_joints)))
    bar_state = lambda r: five_bar_kin.state(r.uniform(1.7, 2.1), r.uniform(1.0, 1.4),
                                             *r.uniform(-0.5, 0.5, 2))
    yield pendulum, rng_state(pendulum), \
        lambda r: ProblemSpec.inverse(pendulum, r.uniform(-1, 1, 1)), ("auto", "nd", "rnea")
    yield pendulum, rng_state(pendulum), \
        lambda r: ProblemSpec.forward(pendulum, r.uniform(-1, 1, 1)), ("md", "crba", "aba")
    for model, make_spec, orderings in fixture_cases(three_r, six_r, five_bar, five_bar_kin):
        yield model, bar_state if model.loop_joints else rng_state(model), make_spec, \
            orderings + (("rnea", "crba") if model.loop_joints else ())
    para = parse_urdf(PARALLELOGRAM)
    para_state = lambda r: JointState([0.7, -0.7, 0.7 + np.pi, -0.7 - np.pi],
                                      np.array([1, -1, 1, -1]) * r.uniform(-1, 1))
    planar = {"planar_loops": {"j4": (0.0, 0.0, 1.0)}}
    yield para, para_state, lambda r: ProblemSpec.forward(
        para, r.uniform(-1, 1, 1), base_accel=r.uniform(-1, 1, 6), gravity=GRAVITY_Y,
        **planar), ("auto", "md", "nd", "aba")
    yield para, para_state, lambda r: ProblemSpec.inverse(
        para, r.uniform(-1, 1, 1), tool_wrench=r.uniform(-1, 1, 6), min_torque_prior=True,
        **planar), ("auto", "md", "nd")


class TestCompiledSolve:
    """solve_dynamics scatters the numbers it lists straight into the
    plan's buffer; it must give what the public pipeline gives."""

    def test_matches_public_pipeline(self, pendulum, three_r, six_r, five_bar,
                                     five_bar_kin, fresh_plans):
        rng = np.random.default_rng(909)
        errors = 0
        for model, make_state, make_spec, orderings in compiled_cases(
                pendulum, three_r, six_r, five_bar, five_bar_kin):
            for ordering in orderings:
                for _ in range(2):
                    st, spec = make_state(rng), make_spec(rng)
                    want = pipeline_outcome(model, st, spec, ordering)
                    if isinstance(want, Exception):
                        errors += 1
                        with pytest.raises(type(want), match=re.escape(str(want))):
                            solve_dynamics(model, st, spec, ordering)
                        continue
                    graph, dag, values, residual = want
                    res = solve_dynamics(model, st, spec, ordering)
                    assert res.ordering == dag.ordering
                    assert res.dag.edges() == dag.edges()
                    assert res.dag.fill_in == dag.fill_in
                    assert len(res.dag.leftover) == len(dag.leftover)
                    assert res.values.keys() == values.keys()
                    for k, v in values.items():
                        np.testing.assert_allclose(res.values[k], v, rtol=0, atol=1e-12)
                    assert abs(res.residual_max - residual) <= 1e-12
                    assert res.graph.structure == graph.structure
        # the classic schemes that do not fit a problem fail the same way
        assert errors > 0

    def test_threads_sharing_one_plan_give_serial_answers(self, six_r, fresh_plans):
        rng = np.random.default_rng(910)
        problems = [(random_state(rng, 6), ProblemSpec.inverse(six_r, rng.uniform(-1, 1, 6)))
                    for _ in range(400)]
        serial = [solve_dynamics(six_r, st, spec) for st, spec in problems]
        plan = serial[0].dag.plan
        assert all(res.dag.plan is plan for res in serial)
        out = [None] * len(problems)

        def work(lo, hi):
            for i in range(lo, hi):
                out[i] = solve_dynamics(six_r, *problems[i])

        threads = [threading.Thread(target=work, args=(0, 200)),
                   threading.Thread(target=work, args=(200, 400))]
        # switch threads often, so the two interleave inside single solves
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for res, want in zip(out, serial):
            assert res.dag.plan is plan
            assert res.torques == want.torques
            assert res.residual_max == want.residual_max

    def test_threads_sharing_a_tree_plan_give_serial_answers_bit_for_bit(self, tree21,
                                                                        fresh_plans):
        # the tree's md plan under the prior has products and rows that die
        # on the way; two threads sharing it must match the serial solves
        rng = np.random.default_rng(2121)
        kinds = [(j.name, "accel" if k % 3 else "torque")
                 for k, j in enumerate(tree21.movable_joints)]
        problems = [(random_state(rng, 21), ProblemSpec.hybrid(
            tree21, {name: {kind: float(rng.uniform(-1, 1))} for name, kind in kinds},
            min_torque_prior=True)) for _ in range(400)]
        tree21.solve_templates.clear()
        serial = [solve_dynamics(tree21, st, spec, "md") for st, spec in problems]
        plan = serial[0].dag.plan
        assert any(st.product >= 0 for st in plan.steps)
        assert all(res.dag.plan is plan and len(res.dag.leftover) for res in serial)
        out = [None] * len(problems)

        def work(lo, hi):
            for i in range(lo, hi):
                out[i] = solve_dynamics(tree21, *problems[i], "md")

        threads = [threading.Thread(target=work, args=(0, 200)),
                   threading.Thread(target=work, args=(200, 400))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for res, want in zip(out, serial):
            assert res.dag.plan is plan
            assert res.values.keys() == want.values.keys()
            for k, v in want.values.items():
                np.testing.assert_array_equal(res.values[k], v)
            np.testing.assert_array_equal(res.dag.leftover, want.dag.leftover)
            assert res.residual_max == want.residual_max

    def test_no_linear_factor_until_graph_factors_read(self, six_r, five_bar, five_bar_kin,
                                                       monkeypatch):
        made = []
        init = LinearFactor.__init__

        def counted(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LinearFactor, "__init__", counted)
        cases = [
            (six_r, JointState(np.full(6, 0.2), np.full(6, 0.1)),
             ProblemSpec.inverse(six_r, np.ones(6), tool_wrench=np.ones(6))),
            (five_bar, five_bar_kin.state(1.9, 1.2, 0.3, -0.2),
             ProblemSpec.hybrid(five_bar, {"j1": {"accel": 0.7}, "j3": {"accel": -0.4}},
                                min_torque_prior=True, planar_loops={"j5": (0, 0, 1)})),
        ]
        for model, st, spec in cases:
            res = solve_dynamics(model, st, spec)
            assert made == []
            assert len(res.graph) == len(res.graph.structure) > 0
            assert res.graph.variables and res.graph.total_rows() > 0
            assert made == []
            want = build_graph(model, st, spec)
            made.clear()
            assert len(res.graph.factors) == len(want.factors)
            assert len(made) == len(want.factors)
            for f, g in zip(res.graph.factors, want.factors):
                assert (f.keys(), f.weight, f.name, f.knowns) == \
                    (g.keys(), g.weight, g.name, g.knowns)
                np.testing.assert_array_equal(f.ab, g.ab)
            made.clear()


def template_cases(six_r, five_bar, five_bar_kin, tree21):
    """(model, state maker, spec maker, orderings) for the template tests:
    inverse, forward, hybrid, the prior, a planar loop, a nonzero base
    acceleration and a nonzero tool wrench, on a chain, a loop and a tree."""
    rng_state = lambda m: (lambda r: random_state(r, len(m.movable_joints)))
    bar_state = lambda r: five_bar_kin.state(r.uniform(1.7, 2.1), r.uniform(1.0, 1.4),
                                             *r.uniform(-0.5, 0.5, 2))
    planar = {"planar_loops": (("j5", (0.0, 0.0, 1.0)),)}
    yield six_r, rng_state(six_r), lambda r: ProblemSpec.inverse(
        six_r, r.uniform(-1, 1, 6), base_accel=r.uniform(-1, 1, 6),
        tool_wrench=r.uniform(-1, 1, 6)), ("auto", "rnea", "nd")
    yield six_r, rng_state(six_r), lambda r: ProblemSpec.forward(
        six_r, r.uniform(-1, 1, 6), tool_wrench=r.uniform(-1, 1, 6)), ("auto", "crba", "aba")
    yield six_r, rng_state(six_r), lambda r: ProblemSpec.hybrid(six_r, {
        f"j{i}": {"accel" if i % 2 else "torque": x}
        for i, x in enumerate(r.uniform(-1, 1, 6), start=1)},
        min_torque_prior=True, base_accel=r.uniform(-1, 1, 6)), ("auto", "md")
    yield five_bar, bar_state, lambda r: ProblemSpec.forward(
        five_bar, r.uniform(-1, 1, 2), **planar), ("auto", "nd")
    yield five_bar, bar_state, lambda r: ProblemSpec.hybrid(five_bar, {
        "j1": {"accel": r.uniform(-1, 1)}, "j3": {"accel": r.uniform(-1, 1)}},
        min_torque_prior=True, base_accel=r.uniform(-1, 1, 6), **planar), ("auto", "md")
    names = [j.name for j in tree21.movable_joints]
    yield tree21, rng_state(tree21), lambda r: ProblemSpec.hybrid(tree21, {
        name: {"accel" if a else "torque": x}
        for name, a, x in zip(names, r.random(21) < 0.5, r.uniform(-1, 1, 21))},
        min_torque_prior=True, base_accel=r.uniform(-1, 1, 6)), ("auto", "nd")
    yield tree21, rng_state(tree21), lambda r: ProblemSpec.forward(
        tree21, r.uniform(-1, 1, 21)), ("crba", "aba")


class TestSolveTemplate:
    """The first solve of a problem shape compiles its template; later
    solves copy its buffer and put their state terms into it."""

    def test_hit_equals_miss_and_public_pipeline(self, six_r, five_bar, five_bar_kin,
                                                 tree21):
        rng = np.random.default_rng(1212)
        for model, make_state, make_spec, orderings in template_cases(
                six_r, five_bar, five_bar_kin, tree21):
            for ordering in orderings:
                st, spec = make_state(rng), make_spec(rng)
                model.solve_templates.clear()
                miss = solve_dynamics(model, st, spec, ordering)
                hit = solve_dynamics(model, st, spec, ordering)
                assert len(model.solve_templates) == 1
                assert hit.dag.plan is miss.dag.plan
                graph = build_graph(model, st, spec)
                dag = eliminate(graph, resolve_ordering(graph, ordering, model))
                values = back_substitute(dag)
                parts = [p for f in graph.factors for p in (*f.blocks.values(), f.rhs)]
                residual = Assembly(dag.plan, scatter(dag.plan, parts)).solve()[2]
                for res in (miss, hit):
                    assert res.ordering == dag.ordering
                    assert res.graph.structure == graph.structure
                    assert res.values.keys() == values.keys()
                    for k, v in values.items():
                        np.testing.assert_array_equal(res.values[k], v)
                    np.testing.assert_array_equal(res.dag.leftover, dag.leftover)
                    assert res.residual_max == residual
                for f, g in zip(hit.graph.factors, graph.factors):
                    np.testing.assert_array_equal(f.ab, g.ab)

    def test_model_without_joints_solves_to_nothing(self):
        model = parse_urdf('<robot name="r"><link name="base"/></robot>')
        st, spec = JointState(np.zeros(0), np.zeros(0)), ProblemSpec(designations=())
        res = solve_dynamics(model, st, spec)
        assert (res.values, res.torques, res.wrenches, res.residual_max) == ({}, {}, {}, 0.0)
        assert build_graph(model, st, spec).factors == ()

    def test_memo_stays_bounded(self):
        model = chain_model(10)
        st = JointState(np.full(10, 0.3), np.full(10, -0.2))
        memo = model.solve_templates
        for pattern in range(1000):
            spec = ProblemSpec.hybrid(model, {
                f"j{i + 1}": GivenAccel(0.1) if pattern >> i & 1 else GivenTorque(0.1)
                for i in range(10)})
            solve_dynamics(model, st, spec)
            assert len(memo) <= memo.size
        assert len(memo) == memo.size

    def test_template_is_read_only(self, six_r):
        rng = np.random.default_rng(1313)
        six_r.solve_templates.clear()
        spec = lambda: ProblemSpec.inverse(six_r, rng.uniform(-1, 1, 6),
                                           tool_wrench=rng.uniform(-1, 1, 6))
        solve_dynamics(six_r, random_state(rng, 6), spec())
        (tpl,) = six_r.solve_templates.values()
        listing, pieces = tpl.listing, six_r.factor_pieces
        arrays = [tpl.base, tpl.dest, tpl.torques[1], tpl.accels[1], listing.flat,
                  listing.src, listing.at, listing.accel_given, pieces.cond, pieces.flat,
                  pieces.start, pieces.size, pieces.term]
        assert all(not a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            tpl.base[0] = 1.0
        before = [a.copy() for a in arrays]
        for _ in range(3):
            solve_dynamics(six_r, random_state(rng, 6), spec())
        assert six_r.solve_templates.get(next(iter(six_r.solve_templates))) is tpl
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b)

    def test_threads_sharing_one_template_give_serial_answers(self, five_bar, five_bar_kin):
        rng = np.random.default_rng(1414)
        planar = (("j5", (0.0, 0.0, 1.0)),)
        problems = [(five_bar_kin.state(rng.uniform(1.7, 2.1), rng.uniform(1.0, 1.4),
                                        *rng.uniform(-0.5, 0.5, 2)),
                     ProblemSpec.hybrid(five_bar, {"j1": {"accel": rng.uniform(-1, 1)},
                                                   "j3": {"accel": rng.uniform(-1, 1)}},
                                        min_torque_prior=True, planar_loops=planar))
                    for _ in range(240)]
        five_bar.solve_templates.clear()
        serial = [solve_dynamics(five_bar, st, spec) for st, spec in problems]
        (tpl,) = five_bar.solve_templates.values()
        base = tpl.base.copy()
        out = [None] * len(problems)

        def work(lo, hi):
            for i in range(lo, hi):
                out[i] = solve_dynamics(five_bar, *problems[i])

        # more threads than cores, switching often, so that they interleave
        # inside single solves on the one template
        threads = [threading.Thread(target=work, args=(k, k + 60)) for k in range(0, 240, 60)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert list(five_bar.solve_templates.values()) == [tpl]
        np.testing.assert_array_equal(tpl.base, base)
        for res, want in zip(out, serial):
            assert res.dag.plan is tpl.plan
            assert (res.torques, res.accels) == (want.torques, want.accels)
            for k, v in want.values.items():
                np.testing.assert_array_equal(res.values[k], v)
            assert res.residual_max == want.residual_max
