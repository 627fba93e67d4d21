"""Reference algorithms: recursive sweeps, mass matrix, dense arbiter."""

import numpy as np
import pytest

from dyngraph import oracle
from dyngraph.errors import RankDeficient, SingularMass, UnsupportedTopology
from dyngraph.fgraph import FactorGraph, Kind, LinearFactor, VarKey, solve
from dyngraph.oracle import (
    dense_solve,
    forward_accel,
    hybrid_three_pass,
    mass_matrix,
    rnea_full,
    rnea_torques,
)
from dyngraph.transcribe import (
    JointState,
    ProblemSpec,
    build_graph,
    solve_dynamics,
)

from conftest import random_state

GRAVITY_Y = (0.0, -9.81, 0.0)

# pendulum fixture constants: rod of mass m with center at l, hinge on z
M, L, I_COM = 1.2, 0.45, 0.02025
I_PIVOT = I_COM + M * L * L


@pytest.mark.parametrize("match,call", [
    pytest.param(r"^expected 3 joint accelerations", lambda m, st: rnea_full(
        m, st, np.zeros(2)), id="rnea-qdd"),
    pytest.param(r"^state has 2 entries for 3 movable joints", lambda m, st: rnea_full(
        m, JointState(np.zeros(2), np.zeros(2)), np.zeros(3)), id="rnea-state"),
    pytest.param(r"^expected 3 torques", lambda m, st: forward_accel(m, st, np.zeros(2)),
                 id="forward-tau"),
])
def test_wrong_length_names_the_quantity(three_r, match, call):
    with pytest.raises(ValueError, match=match):
        call(three_r, JointState(np.zeros(3), np.zeros(3)))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("oracle_fn", [rnea_full, rnea_torques, forward_accel])
@pytest.mark.parametrize("match,vector,kw", [
    pytest.param(r"^gravity must be finite, got \[ 0\.  0\. nan\]", np.zeros(3),
                 {"gravity": [0.0, 0.0, NAN]}, id="gravity"),
    pytest.param(r"^tool_wrench must be finite", np.zeros(3),
                 {"tool_wrench": [0.0, 0.0, 0.0, 0.0, 0.0, NAN]}, id="tool-wrench-nan"),
    pytest.param(r"^tool_wrench must be finite", np.zeros(3),
                 {"tool_wrench": [INF, 0.0, 0.0, 0.0, 0.0, 0.0]}, id="tool-wrench-inf"),
    pytest.param(r"^base_accel must be finite", np.zeros(3),
                 {"base_accel": [0.0, NAN, 0.0, 0.0, 0.0, 0.0]}, id="base-accel"),
    pytest.param(r"^VECTOR must be finite, got \[ 0\. nan  0\.\]", [0.0, NAN, 0.0], {},
                 id="qdd-or-tau"),
])
def test_non_finite_input_names_the_field(three_r, oracle_fn, match, vector, kw):
    # as ProblemSpec does: never a NaN answer, a RuntimeWarning or scipy's
    # own message. VECTOR is the oracle's third argument
    match = match.replace("VECTOR", "tau" if oracle_fn is forward_accel else "qdd")
    with pytest.raises(ValueError, match=match):
        oracle_fn(three_r, JointState(np.zeros(3), np.zeros(3)), vector, **kw)


@pytest.mark.parametrize("call", [
    pytest.param(lambda m, st: forward_accel(m, st, np.zeros(3)), id="forward"),
    pytest.param(lambda m, st: hybrid_three_pass(m, st, ProblemSpec.forward(m, np.zeros(3))),
                 id="hybrid"),
])
def test_mass_matrix_without_cholesky_factor_raises_singular_mass(three_r, monkeypatch,
                                                                  call):
    monkeypatch.setattr(oracle, "mass_matrix", lambda model, state: np.zeros((3, 3)))
    with pytest.raises(SingularMass):
        call(three_r, JointState(np.zeros(3), np.zeros(3)))


class TestRneaTorques:
    def test_zero_dynamics(self, three_r):
        st = JointState(np.array([0.4, -0.2, 1.1]), np.zeros(3))
        tau = rnea_torques(three_r, st, np.zeros(3), gravity=(0, 0, 0))
        np.testing.assert_allclose(tau, np.zeros(3), atol=1e-14)

    def test_pendulum_analytic(self, pendulum):
        for th, qd, qdd in [(0.0, 0.0, 0.0), (0.5, 0.3, 1.2), (-1.1, -0.8, 0.4)]:
            st = JointState(np.array([th]), np.array([qd]))
            tau = rnea_torques(pendulum, st, np.array([qdd]), gravity=GRAVITY_Y)
            expected = I_PIVOT * qdd + M * 9.81 * L * np.cos(th)
            np.testing.assert_allclose(tau, [expected], atol=1e-12)

    def test_rejects_loops(self, five_bar):
        st = JointState(np.zeros(5), np.zeros(5))
        with pytest.raises(UnsupportedTopology):
            rnea_torques(five_bar, st, np.zeros(5))

    def test_matches_graph_solve(self, six_r):
        rng = np.random.default_rng(301)
        for _ in range(5):
            st = random_state(rng, 6)
            qdd = rng.uniform(-1, 1, 6)
            res = solve_dynamics(
                six_r, st, ProblemSpec.inverse(six_r, qdd, gravity=GRAVITY_Y)
            )
            tau = np.array([res.torques[j.name] for j in six_r.tree_joints])
            ref = rnea_torques(six_r, st, qdd, gravity=GRAVITY_Y)
            np.testing.assert_allclose(tau, ref, atol=1e-9)


class TestMassMatrix:
    def test_pendulum_analytic(self, pendulum):
        m = mass_matrix(pendulum, JointState(np.array([0.3]), np.zeros(1)))
        np.testing.assert_allclose(m, [[I_PIVOT]], atol=1e-12)

    def test_symmetric(self, three_r):
        rng = np.random.default_rng(302)
        for _ in range(5):
            m = mass_matrix(three_r, random_state(rng, 3))
            assert np.abs(m - m.T).max() < 1e-10

    def test_positive_definite(self, three_r, six_r):
        rng = np.random.default_rng(303)
        for model, n in ((three_r, 3), (six_r, 6)):
            for _ in range(3):
                m = mass_matrix(model, random_state(rng, n))
                assert np.linalg.eigvalsh(m).min() > 0

    def test_rejects_loops(self, five_bar):
        with pytest.raises(UnsupportedTopology):
            mass_matrix(five_bar, JointState(np.zeros(5), np.zeros(5)))


class TestForwardAccel:
    def test_round_trip(self, six_r):
        rng = np.random.default_rng(304)
        for _ in range(10):
            st = random_state(rng, 6)
            qdd = rng.uniform(-1, 1, 6)
            tau = rnea_torques(six_r, st, qdd, gravity=GRAVITY_Y)
            back = forward_accel(six_r, st, tau, gravity=GRAVITY_Y)
            np.testing.assert_allclose(back, qdd, atol=1e-9)

    def test_rest_stays_at_rest(self, three_r):
        st = JointState(np.array([0.7, -0.1, 0.4]), np.zeros(3))
        qdd = forward_accel(three_r, st, np.zeros(3), gravity=(0, 0, 0))
        np.testing.assert_allclose(qdd, np.zeros(3), atol=1e-12)

    def test_pendulum_drop(self, pendulum):
        # released horizontal with no torque: I_pivot qdd = -m g l
        st = JointState(np.zeros(1), np.zeros(1))
        qdd = forward_accel(pendulum, st, np.zeros(1), gravity=GRAVITY_Y)
        np.testing.assert_allclose(qdd, [-M * 9.81 * L / I_PIVOT], atol=1e-12)


class TestToolWrench:
    @pytest.mark.parametrize("oracle", [rnea_torques, forward_accel],
                             ids=["rnea_torques", "forward_accel"])
    def test_needs_a_single_tool_link(self, tree21, oracle):
        # tree21 has four leaves, so no link takes a tool wrench; a nonzero
        # one fails as it does in ProblemSpec, a zero one is no wrench
        st = JointState(np.zeros(21), np.zeros(21))
        wrench = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 100.0])
        with pytest.raises(ValueError) as spec_err:
            ProblemSpec.inverse(tree21, np.zeros(21), tool_wrench=wrench).by_joint(tree21)
        with pytest.raises(ValueError) as err:
            oracle(tree21, st, np.zeros(21), tool_wrench=wrench)
        assert str(err.value) == str(spec_err.value)
        np.testing.assert_array_equal(oracle(tree21, st, np.zeros(21), tool_wrench=np.zeros(6)),
                                      oracle(tree21, st, np.zeros(21)))


class TestHybridThreePass:
    def test_all_accels_reduces_to_inverse(self, three_r):
        rng = np.random.default_rng(305)
        st = random_state(rng, 3)
        qdd = rng.uniform(-1, 1, 3)
        spec = ProblemSpec.hybrid(
            three_r,
            {f"j{i + 1}": {"accel": qdd[i]} for i in range(3)},
            gravity=GRAVITY_Y,
        )
        torques, accels = hybrid_three_pass(three_r, st, spec)
        ref = rnea_torques(three_r, st, qdd, gravity=GRAVITY_Y)
        np.testing.assert_allclose(
            [torques[f"j{i + 1}"] for i in range(3)], ref, atol=1e-10
        )
        np.testing.assert_allclose(
            [accels[f"j{i + 1}"] for i in range(3)], qdd, atol=1e-12
        )

    def test_all_torques_reduces_to_forward(self, three_r):
        rng = np.random.default_rng(306)
        st = random_state(rng, 3)
        tau = rng.uniform(-2, 2, 3)
        spec = ProblemSpec.hybrid(
            three_r,
            {f"j{i + 1}": {"torque": tau[i]} for i in range(3)},
            gravity=GRAVITY_Y,
        )
        torques, accels = hybrid_three_pass(three_r, st, spec)
        ref = forward_accel(three_r, st, tau, gravity=GRAVITY_Y)
        np.testing.assert_allclose(
            [accels[f"j{i + 1}"] for i in range(3)], ref, atol=1e-10
        )
        np.testing.assert_allclose(
            [torques[f"j{i + 1}"] for i in range(3)], tau, atol=1e-12
        )

    def test_matches_one_shot_graph_solve(self, three_r):
        rng = np.random.default_rng(307)
        for _ in range(5):
            st = random_state(rng, 3)
            x = rng.uniform(-1, 1, 3)
            spec = ProblemSpec.hybrid(
                three_r,
                {
                    "j1": {"accel": x[0]},
                    "j2": {"torque": x[1]},
                    "j3": {"torque": x[2]},
                },
                gravity=GRAVITY_Y,
            )
            torques, accels = hybrid_three_pass(three_r, st, spec)
            res = solve_dynamics(three_r, st, spec)
            for j in ("j1", "j2", "j3"):
                assert abs(res.torques[j] - torques[j]) < 1e-9
                assert abs(res.accels[j] - accels[j]) < 1e-9

    def test_mixed_torques_satisfy_original_constraints(self, three_r):
        # re-derived torques and accelerations must zero the factor graph
        rng = np.random.default_rng(308)
        st = random_state(rng, 3)
        spec = ProblemSpec.hybrid(
            three_r,
            {"j1": {"accel": 0.3}, "j2": {"torque": -0.5}, "j3": {"torque": 0.1}},
            gravity=GRAVITY_Y,
        )
        torques, accels = hybrid_three_pass(three_r, st, spec)
        qdd = np.array([accels[f"j{i + 1}"] for i in range(3)])
        check = ProblemSpec.inverse(three_r, qdd, gravity=GRAVITY_Y)
        res = solve_dynamics(three_r, st, check)
        for j in ("j1", "j2", "j3"):
            assert abs(res.torques[j] - torques[j]) < 1e-8


class TestDenseSolve:
    def test_identity_factor(self):
        x = VarKey(Kind.ACCEL, 1)
        b = np.linspace(-1, 1, 6)
        sol = dense_solve(FactorGraph([LinearFactor({x: np.eye(6)}, b)]))
        np.testing.assert_allclose(sol[x], b, atol=1e-14)

    def test_agrees_with_elimination(self, six_r):
        rng = np.random.default_rng(309)
        st = random_state(rng, 6)
        qdd = rng.uniform(-1, 1, 6)
        g = build_graph(
            six_r, st, ProblemSpec.inverse(six_r, qdd, gravity=GRAVITY_Y)
        )
        ref = dense_solve(g)
        from dyngraph.fgraph import classic_ordering, min_degree_ordering

        for ordering in (classic_ordering(g, "rnea"), min_degree_ordering(g)):
            sol = solve(g, ordering)
            for k in ref:
                np.testing.assert_allclose(sol[k], ref[k], atol=1e-10)

    def test_underdetermined_loop_names_wrench(self, five_bar, five_bar_kin):
        st = five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
        spec = ProblemSpec.forward(
            five_bar, np.array([1.0, 0.5]), gravity=GRAVITY_Y
        )
        g = build_graph(five_bar, st, spec)
        with pytest.raises(RankDeficient) as err:
            dense_solve(g)
        assert "F5" in str(err.value)

    @pytest.mark.parametrize("where", ["coefficient", "rhs"])
    def test_non_finite_entry_is_named_before_lapack(self, where):
        # LAPACK's least squares never returns on the lone factor with a NaN
        # coefficient; the arbiter names the first factor and key holding a
        # non-finite entry, or its rhs, before it calls LAPACK
        x, y = VarKey(Kind.ACCEL, 1), VarKey(Kind.TORQUE, 2)
        a, b = np.eye(6), np.ones(6)
        if where == "coefficient":
            a[2, 3] = np.nan
            factors = [LinearFactor({x: a}, b, name="bad")]
            want = "factor 0 'bad': non-finite entry in Vd1"
        else:
            b[4] = np.inf
            factors = [LinearFactor({y: np.ones((1, 1))}, np.array([1.0]), name="prior"),
                       LinearFactor({y: np.ones((6, 1)), x: a}, b, name="bad")]
            want = "factor 1 'bad': non-finite entry in rhs"
        with pytest.raises(ValueError, match=f"^{want}$"):
            dense_solve(FactorGraph(factors))

    def test_weighted_rows_respected(self):
        # two soft pulls of different weights on the same scalar
        x = VarKey(Kind.TORQUE, 1)
        one = np.ones((1, 1))
        g = FactorGraph([
            LinearFactor({x: one}, np.array([1.0]), weight=1.0),
            LinearFactor({x: one}, np.array([0.0]), weight=0.5),
        ])
        sol = dense_solve(g)
        # minimize (x-1)^2 + 0.25 x^2 -> x = 0.8
        np.testing.assert_allclose(sol[x], [0.8], atol=1e-12)
