"""Factor graph elimination: conditionals, orderings, fill-in, DOT export."""

import itertools
import re
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from scipy.linalg.lapack import dgeqrf, dtrtrs

from dyngraph import fgraph
from dyngraph.errors import IncompatibleScheme, RankDeficient
from dyngraph.fgraph import (
    FactorGraph,
    Kind,
    LinearFactor,
    VarKey,
    back_substitute,
    classic_ordering,
    eliminate,
    export_dot,
    min_degree_ordering,
    nested_dissection_ordering,
    plan_elimination,
    solve,
)
from dyngraph.oracle import dense_solve, rnea_torques
from dyngraph.transcribe import (
    JointState,
    ProblemSpec,
    build_graph,
    resolve_ordering,
    solve_dynamics,
)

from conftest import assert_same_tables, random_state


@pytest.mark.parametrize("error,match,make", [
    pytest.param(ValueError, r"^cannot parse variable key 'x1'",
                 lambda g: VarKey.parse("x1"), id="key-text"),
    # only text that a key prints parses: no leading zero, no digit other
    # than 0-9, and no int() message of its own
    pytest.param(ValueError, r"^cannot parse variable key 'qdd01'",
                 lambda g: VarKey.parse("qdd01"), id="key-leading-zero"),
    pytest.param(ValueError, r"^cannot parse variable key 'F\u0663'",
                 lambda g: VarKey.parse("F\u0663"), id="key-arabic-indic-digit"),
    pytest.param(ValueError, r"^cannot parse variable key 'tau\u00b2'",
                 lambda g: VarKey.parse("tau\u00b2"), id="key-superscript-digit"),
    pytest.param(ValueError, r"^values\[tau1\] must have shape \(1,\), got no value",
                 lambda g: g.residual_max({k: np.zeros(k.dim) for k in g.variables
                                           if str(k) != "tau1"}), id="residual-missing-value"),
    pytest.param(ValueError, r"^values\[F3\] must have shape \(6,\), got shape \(6, 1\)",
                 lambda g: g.residual_max({k: np.zeros((k.dim, 1) if str(k) == "F3" else k.dim)
                                           for k in g.variables}), id="residual-value-shape"),
    pytest.param(ValueError, r"^factor 'f' has no variable blocks",
                 lambda g: LinearFactor({}, [0.0], name="f"), id="factor-no-blocks"),
    pytest.param(ValueError, r"^factor 'f': block for qdd1 has shape \(2, 2\), expected \(2, 1\)",
                 lambda g: LinearFactor({VarKey(Kind.JOINT_ACCEL, 1): np.zeros((2, 2))},
                                        [0.0, 0.0], name="f"), id="factor-block-shape"),
    pytest.param(IncompatibleScheme, r"^unknown ordering scheme 'bogus'",
                 lambda g: classic_ordering(g, "bogus"), id="ordering-scheme"),
    pytest.param(TypeError, r"^cannot export int as DOT", lambda g: export_dot(42),
                 id="export-type"),
])
def test_bad_input_names_what_is_wrong(three_r, error, match, make):
    graph = build_graph(three_r, JointState(np.zeros(3), np.zeros(3)),
                        ProblemSpec.inverse(three_r, np.zeros(3)))
    with pytest.raises(error, match=match):
        make(graph)


X = VarKey(Kind.ACCEL, 1)
Y = VarKey(Kind.ACCEL, 2)


def key(s):
    kinds = {"Vd": Kind.ACCEL, "F": Kind.WRENCH,
             "qdd": Kind.JOINT_ACCEL, "tau": Kind.TORQUE}
    prefix = s.rstrip("0123456789")
    return VarKey(kinds[prefix], int(s[len(prefix):]))


def three_r_graphs(model):
    st = JointState(np.array([0.3, -0.5, 0.8]), np.array([0.1, 0.2, -0.1]))
    inverse = build_graph(model, st, ProblemSpec.inverse(model, np.array([0.4, -0.2, 0.9])))
    forward = build_graph(model, st, ProblemSpec.forward(model, np.array([1.0, -0.5, 0.2])))
    hybrid = build_graph(model, st, ProblemSpec.hybrid(
        model, {"j1": {"accel": 0.5}, "j2": {"torque": 1.0}, "j3": {"torque": -0.2}}))
    return inverse, forward, hybrid


class TestEliminate:
    def test_single_identity_factor(self):
        b = np.arange(6.0)
        g = FactorGraph([LinearFactor({X: np.eye(6)}, b)])
        dag = eliminate(g, [X])
        assert len(dag.conditionals) == 1
        assert dag.conditionals[0].frontal == X
        assert dag.conditionals[0].parents == ()
        assert dag.fill_in == 0
        np.testing.assert_allclose(back_substitute(dag)[X], b, atol=1e-14)

    def test_two_variable_chain_both_orders(self):
        c = np.array([2.0, -1.0, 0.5, 3.0, 0.0, 1.0])
        factors = [
            LinearFactor({X: np.eye(6), Y: -np.eye(6)}, np.zeros(6)),
            LinearFactor({Y: np.eye(6)}, c),
        ]
        g = FactorGraph(factors)

        dag_xy = eliminate(g, [X, Y])
        assert dag_xy.conditionals[0].parents == (Y,)
        sol = back_substitute(dag_xy)
        np.testing.assert_allclose(sol[X], c, atol=1e-12)
        np.testing.assert_allclose(sol[Y], c, atol=1e-12)

        dag_yx = eliminate(g, [Y, X])
        assert dag_yx.conditionals[0].parents == (X,)
        sol = back_substitute(dag_yx)
        np.testing.assert_allclose(sol[X], c, atol=1e-12)
        np.testing.assert_allclose(sol[Y], c, atol=1e-12)

    def test_serial_inverse_dag_shape(self, three_r):
        # eliminating taus, then wrenches root-out, then accels tip-in gives
        # the recursive inverse-dynamics dependency pattern
        gi, _, _ = three_r_graphs(three_r)
        ordering = [key(s) for s in
                    ["tau3", "tau2", "tau1", "F1", "F2", "F3", "Vd3", "Vd2", "Vd1"]]
        dag = eliminate(gi, ordering)
        expected = {
            (key("tau1"), key("F1")),
            (key("tau2"), key("F2")),
            (key("tau3"), key("F3")),
            (key("F1"), key("F2")), (key("F1"), key("Vd1")),
            (key("F2"), key("F3")), (key("F2"), key("Vd2")),
            (key("F3"), key("Vd3")),
            (key("Vd3"), key("Vd2")),
            (key("Vd2"), key("Vd1")),
        }
        assert set(dag.edges()) == expected
        assert dag.edge_count == len(expected)
        assert dag.fill_in == 0

    def test_rank_deficient_names_variable(self):
        # one scalar row cannot determine a 6-dim wrench
        f5 = VarKey(Kind.WRENCH, 5)
        g = FactorGraph([LinearFactor({f5: np.ones((1, 6))}, np.zeros(1))])
        with pytest.raises(RankDeficient) as err:
            eliminate(g, [f5])
        assert "F5" in str(err.value)

    def test_non_finite_input_fails(self):
        # a NaN in a coefficient fails the condition gate, which LAPACK's
        # estimate of a NaN R fails; an infinite rhs leaves the coefficients
        # finite and shows only in the solution, here in X's value and,
        # through back-substitution, in Y's
        a = np.eye(6)
        a[2, 3] = np.nan
        with pytest.raises(RankDeficient, match="^rank-deficient system at variable Vd1: "
                                                "reciprocal condition estimate 0, "
                                                "not above 6 x 1e-9$"):
            solve(FactorGraph([LinearFactor({X: a}, np.ones(6))]), [X])
        rhs = np.array([1.0, 2.0, np.inf, 0.0, 0.0, 0.0])
        chain = FactorGraph([LinearFactor({X: np.eye(6)}, rhs),
                             LinearFactor({X: np.eye(6), Y: np.eye(6)}, np.zeros(6))])
        q = VarKey(Kind.JOINT_ACCEL, 1)
        for g, order in ((chain, [X, Y]), (chain, [Y, X]),
                         (FactorGraph([LinearFactor({q: [[2.0]]}, [np.inf])]), [q])):
            with pytest.raises(ValueError):
                solve(g, order)

    def test_rejects_non_permutation(self, three_r):
        gi, _, _ = three_r_graphs(three_r)
        with pytest.raises(ValueError, match="not a permutation"):
            eliminate(gi, [key("tau3")])

    def test_single_block_factor_variable_no_fill(self, three_r):
        # tau3 appears in exactly one factor; eliminating it first parents it
        # on that factor's remaining variable and creates no fill
        gi, _, _ = three_r_graphs(three_r)
        order = [key(s) for s in
                 ["tau3", "tau2", "tau1", "F1", "F2", "F3", "Vd3", "Vd2", "Vd1"]]
        dag = eliminate(gi, order)
        assert dag.conditionals[0].frontal == key("tau3")
        assert dag.conditionals[0].parents == (key("F3"),)


class TestLinearFactor:
    def test_copies_its_inputs_read_only(self):
        a = np.eye(6)
        b = np.ones(6)
        f = LinearFactor({X: a}, b)
        a[0, 0] = 5.0
        b[0] = 7.0
        np.testing.assert_array_equal(f.blocks[X], np.eye(6))
        np.testing.assert_array_equal(f.rhs, np.ones(6))
        np.testing.assert_array_equal(solve(FactorGraph([f]), [X])[X], np.ones(6))
        assert not f.ab.flags.writeable
        assert not f.blocks[X].flags.writeable
        with pytest.raises(ValueError):
            f.blocks[X][0, 0] = 5.0

    @pytest.mark.parametrize("weight", [float("inf"), float("nan"), -1e-3, "1", None])
    def test_rejects_bad_weight(self, weight):
        with pytest.raises(ValueError, match=r"factor 'prior': weight must be a finite real"):
            LinearFactor({X: np.eye(6)}, np.zeros(6), weight=weight, name="prior")

    def test_accepts_real_weights(self):
        for weight in (0, 0.0, 1e-3, np.float64(0.5), 1):
            assert LinearFactor({X: np.eye(6)}, np.zeros(6), weight=weight).weight == weight


class TestSolve:
    def test_matches_recursive_inverse(self, three_r):
        rng = np.random.default_rng(101)
        for _ in range(5):
            st = random_state(rng, 3)
            qdd = rng.uniform(-1, 1, 3)
            spec = ProblemSpec.inverse(three_r, qdd, gravity=(0, 0, -9.81))
            g = build_graph(three_r, st, spec)
            sol = solve(g, classic_ordering(g, "rnea"))
            tau = np.array([sol[key(f"tau{i}")][0] for i in (1, 2, 3)])
            ref = rnea_torques(three_r, st, qdd)
            np.testing.assert_allclose(tau, ref, atol=1e-9)

    def test_ordering_invariance_named(self, three_r):
        gi, gf, _ = three_r_graphs(three_r)
        for g, schemes in ((gi, ["rnea"]), (gf, ["crba", "aba"])):
            orders = [classic_ordering(g, s) for s in schemes]
            orders.append(min_degree_ordering(g))
            orders.append(nested_dissection_ordering(g))
            base = dense_solve(g)
            for o in orders:
                sol = solve(g, o)
                for k in base:
                    np.testing.assert_allclose(sol[k], base[k], atol=1e-10)

    def test_ordering_invariance_random_permutations(self, three_r):
        gi, _, _ = three_r_graphs(three_r)
        rng = np.random.default_rng(102)
        base = dense_solve(gi)
        keys = list(gi.variables)
        for _ in range(5):
            perm = list(rng.permutation(len(keys)))
            sol = solve(gi, [keys[i] for i in perm])
            for k in base:
                np.testing.assert_allclose(sol[k], base[k], atol=1e-10)

    def test_hard_residual_bound(self, three_r):
        gi, gf, gh = three_r_graphs(three_r)
        for g in (gi, gf, gh):
            sol = solve(g, min_degree_ordering(g))
            assert g.residual_max(sol) < 1e-8

    def test_soft_priors_match_weighted_least_squares(self):
        # hard row x + y = 2 plus weak pulls toward zero; the dense
        # normal-equations solution is the reference
        x1, x2 = VarKey(Kind.TORQUE, 1), VarKey(Kind.TORQUE, 2)
        one = np.ones((1, 1))
        factors = [
            LinearFactor({x1: one, x2: one}, np.array([2.0])),
            LinearFactor({x1: one}, np.zeros(1), weight=1e-3),
            LinearFactor({x2: 2 * one}, np.zeros(1), weight=1e-3),
        ]
        g = FactorGraph(factors)
        a = np.array([
            [1.0, 1.0],
            [1e-3, 0.0],
            [0.0, 2e-3],
        ])
        b = np.array([2.0, 0.0, 0.0])
        ref = np.linalg.solve(a.T @ a, a.T @ b)
        for order in ([x1, x2], [x2, x1]):
            sol = solve(g, order)
            np.testing.assert_allclose(
                [sol[x1][0], sol[x2][0]], ref, atol=1e-8)

    def test_edge_count_recomputable(self, three_r):
        gi, gf, _ = three_r_graphs(three_r)
        for g, scheme in ((gi, "rnea"), (gf, "aba")):
            dag = eliminate(g, classic_ordering(g, scheme))
            assert dag.fill_in >= 0
            assert dag.edge_count == sum(len(c.parents) for c in dag.conditionals)
            assert dag.edge_count == len(dag.edges())


class TestPlan:
    def test_fixed_ordering_reproduces_greedy_plan(self, six_r, five_bar, five_bar_kin):
        # one simulation serves both: replaying min-degree's picks as a
        # fixed ordering gives the very same steps
        st = JointState(np.full(6, 0.2), np.full(6, 0.1))
        graphs = [build_graph(six_r, st, ProblemSpec.forward(six_r, np.zeros(6))),
                  build_graph(five_bar, five_bar_kin.state(1.9, 1.2, 0.3, -0.2),
                              ProblemSpec.forward(five_bar, np.array([0.5, -0.3]),
                                                  planar_loops={"j5": (0, 0, 1)}))]
        for g in graphs:
            greedy = plan_elimination(g)
            fixed = plan_elimination(g, [(v,) for v in greedy.ordering])
            assert fixed.ordering == greedy.ordering
            assert (fixed.edge_count, fixed.fill_in) == (greedy.edge_count, greedy.fill_in)
            assert (fixed.size, fixed.slices) == (greedy.size, greedy.slices)
            assert fixed.steps == greedy.steps
            assert_same_tables(fixed.fronts, greedy.fronts)
            assert_same_tables((fixed.gather, fixed.leftover), (greedy.gather, greedy.leftover))
            assert_same_tables(fixed.system, greedy.system)

    def test_one_row_stack_is_the_r_lapack_leaves(self):
        # Householder QR of one row reflects nothing (tau = 0): the row is
        # bit for bit what dgeqrf returns, which the numeric pass relies on
        # when it skips dgeqrf for a one-row stack
        rng = np.random.default_rng(71)
        for width in (1, 2, 7, 19):
            for scale in (1e-300, 1e-3, 1.0, 1e3, 1e300):
                a = rng.standard_normal((1, width)) * scale
                a[0, rng.integers(width)] = -0.0
                want, tau = dgeqrf(a)[:2]
                assert want.shape == (1, width) and not tau.any()
                np.testing.assert_array_equal(a, want)
                assert (np.signbit(a) == np.signbit(want)).all()

    def test_empty_graph_plans_nothing(self):
        plan = plan_elimination(FactorGraph([]))
        assert (plan.ordering, plan.steps, plan.edge_count, plan.buffer_size) == ((), (), 0, 0)
        assert back_substitute(eliminate(FactorGraph([]), [])) == {}

    def test_one_by_one_rank_check(self):
        # a zero or NaN 1x1 R fails the gate; any other is perfectly
        # conditioned, however small
        q = VarKey(Kind.JOINT_ACCEL, 1)
        for entry in (0.0, np.nan):
            with pytest.raises(RankDeficient, match="qdd1: reciprocal condition estimate 0,"):
                eliminate(FactorGraph([LinearFactor({q: [[entry]]}, [1.0])]), [q])
        sol = solve(FactorGraph([LinearFactor({q: [[1e-300]]}, [3e-300])]), [q])
        np.testing.assert_allclose(sol[q], [3.0])

    def test_first_singular_frontal_named_before_later_row_shortage(self):
        # Vd2's block is singular, and F3 has one row or six. A row shortage
        # leaves exactly zero pivots, so the gate decides it with the rest:
        # it names Vd2 either way, and a NaN among the numbers fails it too.
        # With the two apart, F3 is named in both orders. Each name is a
        # variable the arbiter finds in its null space
        x, y, f = VarKey(Kind.ACCEL, 1), VarKey(Kind.ACCEL, 2), VarKey(Kind.WRENCH, 3)
        singular = np.diag([1.0, 2.0, 0.0, 1.0, 1.0, 1.0])
        poisoned = singular.copy()
        poisoned[0, 1] = np.nan
        cases = []
        for block in (singular, poisoned):
            for rows in (np.ones((1, 6)), np.eye(6)):
                g = FactorGraph([LinearFactor({x: np.eye(6)}, np.ones(6)),
                                 LinearFactor({y: block, f: np.eye(6)}, np.ones(6)),
                                 LinearFactor({f: rows}, np.ones(len(rows)))])
                cases.append((g, [x, y, f], "Vd2: reciprocal condition estimate 0, "
                                            "not above 18 x 1e-9"))
        apart = FactorGraph([LinearFactor({y: singular}, np.ones(6)),
                             LinearFactor({f: np.ones((1, 6))}, np.ones(1))])
        cases += [(apart, order, "F3: reciprocal condition estimate 0, not above 12 x 1e-9")
                  for order in ([y, f], [f, y])]
        for g, order, message in cases:
            with pytest.raises(RankDeficient, match=f"^rank-deficient system at variable "
                                                    f"{re.escape(message)}$") as err:
                eliminate(g, order)
            if np.isfinite(g.flat).all():
                with pytest.raises(RankDeficient) as arbiter:
                    dense_solve(g)
                assert err.value.key in arbiter.value.keys

    def test_singular_second_step_of_a_front_named_by_the_gate(self):
        # x, y and z are one front, reduced by one QR; y's block is singular
        # or not, and F4, in the next front, has one row or six. The gate
        # names the last variable its near-null vector touches, with the
        # keys the arbiter finds in its null space
        x, y, z, f = (VarKey(Kind.ACCEL, 1), VarKey(Kind.ACCEL, 2), VarKey(Kind.ACCEL, 3),
                      VarKey(Kind.WRENCH, 4))
        eye, zero = np.eye(6), np.zeros((6, 6))
        for diag, rows, name, keys in (
                ([1.0, 2.0, 0.0, 1.0, 1.0, 1.0], np.ones((1, 6)), "F4", (x, y, f)),
                ([1.0, 2.0, 0.0, 1.0, 1.0, 1.0], eye, "Vd2", (x, y)),
                ([1.0] * 6, np.ones((1, 6)), "F4", (f,))):
            g = FactorGraph([
                LinearFactor({x: np.vstack([eye, zero]), y: np.vstack([eye, np.diag(diag)]),
                              z: np.zeros((12, 6))}, np.ones(12)),
                LinearFactor({y: zero, z: eye}, np.ones(6)),
                LinearFactor({z: eye}, np.ones(6)),
                LinearFactor({f: rows}, np.ones(len(rows)))])
            assert [front[:2] for front in fgraph.plan_for(g, [x, y, z, f]).fronts] == \
                [(0, 3), (3, 4)]
            with pytest.raises(RankDeficient, match=f"^rank-deficient system at variable {name}: "
                                                    "reciprocal condition estimate 0, "
                                                    "not above 24 x 1e-9$") as err:
                eliminate(g, [x, y, z, f])
            with pytest.raises(RankDeficient) as arbiter:
                dense_solve(g)
            assert err.value.keys == arbiter.value.keys == keys

    def test_rank_deficiency_named_in_the_arbiters_null_space(self):
        # Vd3's block in the one big factor has rank 1 and one more row
        # touches it, so the null space is in Vd3 alone, whatever the
        # ordering. A count of rows misplaces it: after Vd1, Vd3 is handed
        # seven rows and looks full, and Vd2, left two, looks short
        x, y, z = VarKey(Kind.ACCEL, 1), VarKey(Kind.ACCEL, 2), VarKey(Kind.ACCEL, 3)
        rng = np.random.default_rng(4)
        rank_one = rng.standard_normal((13, 1)) @ rng.standard_normal((1, 6))
        g = FactorGraph([LinearFactor({x: rng.standard_normal((13, 6)), z: rank_one,
                                       y: rng.standard_normal((13, 6))}, rng.standard_normal(13)),
                         LinearFactor({z: rng.standard_normal((1, 6))}, rng.standard_normal(1))])
        with pytest.raises(RankDeficient) as arbiter:
            dense_solve(g)
        assert arbiter.value.keys == (z,)
        for order in itertools.permutations([x, y, z]):
            with pytest.raises(RankDeficient, match="^rank-deficient system at variable Vd3: ") \
                    as err:
                eliminate(g, order)
            assert err.value.keys == (z,)

    def test_fronts_are_maximal_nesting_runs(self, tree21, six_r):
        # a front is a maximal run of steps, each leaving its product to the
        # next step, whose variable and parents are exactly its parents
        rng = np.random.default_rng(0)
        st = JointState(rng.uniform(-1, 1, 21), rng.uniform(-1, 1, 21))
        cases = [(tree21, st, ProblemSpec.forward(tree21, np.zeros(21)), ordering, count)
                 for ordering, count in (("crba", 42), ("aba", 41), ("md", 58), ("nd", 48))]
        cases.append((six_r, JointState(np.full(6, 0.2), np.full(6, 0.1)),
                      ProblemSpec.inverse(six_r, np.zeros(6)), "auto", 16))
        for model, st, spec, ordering, count in cases:
            graph = build_graph(model, st, spec)
            plan = fgraph.plan_for(graph, resolve_ordering(graph, ordering, model))
            order, steps, _, _ = reference_plan(graph, [(v,) for v in plan.ordering])
            runs = []
            for i, (inputs, parents, _) in enumerate(steps):
                last = steps[i - 1] if i else None
                if last and 0 <= last[2] in inputs and last[1] == parents | {order[i]}:
                    runs[-1][1] = i + 1
                else:
                    runs.append([i, i + 1])
            assert [list(front[:2]) for front in plan.fronts] == runs
            assert (len(plan.fronts), len(plan.steps)) == (count, 63 if model is tree21 else 18)

    def test_variable_left_without_factor_is_named(self):
        # eliminating x uses up the one row, so no product reaches y
        x, y = VarKey(Kind.JOINT_ACCEL, 1), VarKey(Kind.JOINT_ACCEL, 2)
        g = FactorGraph([LinearFactor({x: [[1.0]], y: [[1.0]]}, [1.0])])
        with pytest.raises(RankDeficient, match="^rank-deficient system at variable qdd2: "
                                                "reciprocal condition estimate 0, "
                                                "not above 2 x 1e-9$") as err:
            eliminate(g, [x, y])
        with pytest.raises(RankDeficient) as arbiter:
            dense_solve(g)
        assert err.value.keys == arbiter.value.keys == (x, y)

    def test_numerically_dead_product_keeps_plan(self):
        # x's two factors are proportional, so the product that eliminating
        # x leaves on (y, z) has one structural row and it reduces to zero;
        # the plan still stacks it, z stays a parent of y with a zero block,
        # and the values are those of the full solve
        x, y, z = (VarKey(Kind.JOINT_ACCEL, i) for i in (1, 2, 3))
        g = FactorGraph([
            LinearFactor({x: [[1.0]], y: [[0.0]], z: [[0.0]]}, [1.0]),
            LinearFactor({x: [[2.0]]}, [2.0]),
            LinearFactor({y: [[1.0]]}, [2.0]),
            LinearFactor({z: [[1.0]]}, [3.0]),
        ])
        dag = eliminate(g, [x, y, z])
        assert dag.edges() == [(x, y), (x, z), (y, z)]
        assert not dag.conditionals[1].parent_blocks[z].any()
        assert dag.leftover.shape == (1,)
        sol = back_substitute(dag)
        for v, want in ((x, 1.0), (y, 2.0), (z, 3.0)):
            np.testing.assert_allclose(sol[v], [want], atol=1e-14)

    @pytest.mark.parametrize("kind", [Kind.JOINT_ACCEL, Kind.ACCEL], ids=["1-dim", "6-dim"])
    def test_row_dead_on_the_way_through_a_front_is_no_pivot(self, kind):
        # x and y are one front; the rows that eliminating x leaves on y have
        # rounding-level coefficients, rows that die on the way: y has
        # nothing else to constrain it, so the gate names it, as the arbiter
        # does, rather than solve it to 1e14
        rng = np.random.default_rng(3)
        x, y = VarKey(Kind.JOINT_ACCEL, 1), VarKey(kind, 2)
        rows = y.dim + 1
        g = FactorGraph([LinearFactor({x: rng.standard_normal((rows, 1)),
                                       y: 1e-14 * rng.standard_normal((rows, y.dim))},
                                      rng.standard_normal(rows))])
        assert [front[:2] for front in fgraph.plan_for(g, [x, y]).fronts] == [(0, 2)]
        with pytest.raises(RankDeficient, match=f"^rank-deficient system at variable {y}: "
                                                "reciprocal condition estimate") as err:
            eliminate(g, [x, y])
        assert err.value.keys == (y,)
        with pytest.raises(RankDeficient, match=str(y)) as arbiter:
            dense_solve(g)
        assert arbiter.value.keys == (y,)

    def test_front_with_pivot_below_the_gate_raises_as_the_arbiter(self):
        # x and y are one front. The row that eliminating x leaves on y has a
        # coefficient of 4e-15 and a rhs of 447, and y's own row is
        # 1e-10 y = 1e-10: the whole system's condition is 2e10, and in
        # either order the gate names y, as the arbiter does, rather than
        # solve it off a row of rounding
        x, y = VarKey(Kind.JOINT_ACCEL, 1), VarKey(Kind.JOINT_ACCEL, 2)
        g = FactorGraph([LinearFactor({x: [[1.0]], y: [[1e-14]]}, [1.0]),
                         LinearFactor({x: [[2.0]], y: [[3e-14]]}, [1002.0]),
                         LinearFactor({y: [[1e-10]]}, [1e-10])])
        assert [front[:2] for front in fgraph.plan_for(g, [x, y]).fronts] == [(0, 2)]
        for order in ([x, y], [y, x]):
            with pytest.raises(RankDeficient, match="^rank-deficient system at variable qdd2: "
                                                    "reciprocal condition estimate 4.5e-11, "
                                                    "not above 2 x 1e-9$") as err:
                eliminate(g, order)
            assert err.value.keys == (y,)
        with pytest.raises(RankDeficient) as arbiter:
            dense_solve(g)
        assert arbiter.value.keys == (y,)

    @pytest.mark.parametrize("ordering,message", [
        ([1, 2], r"^ordering\[0\] must be a VarKey or its text, got 1$"),
        ([None], r"^ordering\[0\] .* got None$"),
        ([b"tau1"], r"^ordering\[0\] .* got b'tau1'$"),
        (["tau1", 3.0], r"^ordering\[1\] .* got 3\.0$"),
        (5, r"^ordering must be a scheme name or a sequence of variable keys, got 5$"),
    ], ids=["int-items", "none-item", "bytes-item", "second-item", "int-request"])
    def test_malformed_ordering_request_names_item(self, three_r, ordering, message):
        inverse, _, _ = three_r_graphs(three_r)
        with pytest.raises(ValueError, match=message):
            eliminate(inverse, ordering)
        st = JointState(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match=message):
            solve_dynamics(three_r, st, ProblemSpec.inverse(three_r, np.zeros(3)), ordering)


class TestMinDegree:
    def test_single_variable(self):
        g = FactorGraph([LinearFactor({X: np.eye(6)}, np.zeros(6))])
        assert min_degree_ordering(g) == [X]

    def test_star_leaves_before_hub(self):
        # leaves stay at degree 1 while the hub starts at 3; the final
        # degree-1 tie resolves by the (kind, index) rule, accelerations first
        hub = VarKey(Kind.WRENCH, 0)
        leaves = [VarKey(Kind.ACCEL, i) for i in (1, 2, 3)]
        factors = [
            LinearFactor({hub: np.ones((1, 6)), leaf: np.ones((1, 6))}, np.zeros(1))
            for leaf in leaves
        ]
        order = min_degree_ordering(FactorGraph(factors))
        assert order[-1] == hub
        assert set(order[:3]) == set(leaves)

    def test_hybrid_matches_hand_schedule(self, three_r):
        # a hand-verified nine-step schedule for the mixed 3R problem;
        # greedy min-degree should tie its total dependency count
        _, _, gh = three_r_graphs(three_r)
        hand = [key(s) for s in
                ["tau1", "qdd2", "qdd3", "Vd3", "F1", "Vd1", "F2", "Vd2", "F3"]]
        hand_edges = eliminate(gh, hand).edge_count
        md_edges = eliminate(gh, min_degree_ordering(gh)).edge_count
        assert md_edges == hand_edges

    def test_deterministic(self, three_r):
        gi, _, _ = three_r_graphs(three_r)
        assert min_degree_ordering(gi) == min_degree_ordering(gi)

    def test_groups_eliminated_in_order(self, three_r):
        # a crba-shaped constraint: every wrench, then every link
        # acceleration, then every joint acceleration
        _, gf, _ = three_r_graphs(three_r)
        groups = [{v for v in gf.variables if v.kind is kind}
                  for kind in (Kind.WRENCH, Kind.ACCEL, Kind.JOINT_ACCEL)]
        order = min_degree_ordering(gf, groups)
        assert [set(order[:3]), set(order[3:6]), set(order[6:])] == groups
        assert min_degree_ordering(gf, [set(gf.variables)]) == min_degree_ordering(gf)
        ref = solve(gf, min_degree_ordering(gf))
        for v, x in solve(gf, order).items():
            np.testing.assert_allclose(x, ref[v], atol=1e-10)


class TestNestedDissection:
    def test_single_variable(self):
        g = FactorGraph([LinearFactor({X: np.eye(6)}, np.zeros(6))])
        assert nested_dissection_ordering(g) == [X]

    def test_path_middle_last(self):
        # five torques in a path; the balanced separator is the middle one
        keys = [VarKey(Kind.TORQUE, i) for i in range(1, 6)]
        factors = [
            LinearFactor({a: np.ones((1, 1)), b: -np.ones((1, 1))}, np.zeros(1))
            for a, b in zip(keys, keys[1:])
        ]
        factors.append(LinearFactor({keys[0]: np.ones((1, 1))}, np.ones(1)))
        order = nested_dissection_ordering(FactorGraph(factors))
        assert order[-1] == keys[2]

    def test_forward_beats_or_ties_level_schedule(self, three_r):
        _, gf, _ = three_r_graphs(three_r)
        nd_edges = eliminate(gf, nested_dissection_ordering(gf)).edge_count
        crba_edges = eliminate(gf, classic_ordering(gf, "crba")).edge_count
        assert nd_edges <= crba_edges

    def test_deterministic(self, three_r):
        _, gf, _ = three_r_graphs(three_r)
        assert nested_dissection_ordering(gf) == nested_dissection_ordering(gf)


# full key sequences of the fill-reducing orderings: a change in degree
# bookkeeping or tie-breaks shows here even when edge counts stay the same
PINNED_SEQUENCES = {
    ("six_r", "md"): "qdd1 F1 qdd2 Vd1 F2 qdd3 Vd2 F3 qdd4 Vd3 F4 qdd5 Vd4 F5 F6 Vd5 Vd6 qdd6",
    ("six_r", "auto"): "qdd1 F1 qdd2 Vd1 F2 qdd3 Vd2 F3 qdd4 Vd3 F4 qdd5 Vd4 F5 F6 Vd5 Vd6 qdd6",
    ("six_r", "nd"): "qdd6 Vd6 F5 qdd4 qdd5 Vd4 Vd5 F6 F3 F1 qdd1 qdd2 Vd1 qdd3 Vd2 F2 Vd3 F4",
    ("five_bar", "md"): "qdd1 qdd3 F1 F3 qdd2 Vd1 F2 qdd4 Vd3 F4 F5 Vd2 Vd4 qdd5",
    ("five_bar", "auto"): "qdd1 qdd3 F1 F3 qdd2 Vd1 F2 qdd4 Vd3 F4 F5 Vd2 Vd4 qdd5",
    ("five_bar", "nd"): "F3 F4 qdd3 qdd4 Vd3 qdd2 qdd5 Vd2 qdd1 F1 Vd1 F2 Vd4 F5",
}


@pytest.mark.parametrize("fixture,ordering", sorted(PINNED_SEQUENCES))
def test_forward_ordering_sequence_pinned(request, five_bar_kin, fixture, ordering):
    model = request.getfixturevalue(fixture)
    if fixture == "five_bar":
        st = five_bar_kin.state(1.9, 1.2, 0.3, -0.2)
        spec = ProblemSpec.forward(model, np.array([0.5, -0.3]),
                                   planar_loops={"j5": (0.0, 0.0, 1.0)})
    else:
        st = JointState(np.full(6, 0.2), np.full(6, 0.1))
        spec = ProblemSpec.forward(model, np.zeros(6))
    keys = resolve_ordering(build_graph(model, st, spec), ordering, model)
    assert " ".join(map(str, keys)) == PINNED_SEQUENCES[fixture, ordering]


def reference_plan(graph, groups):
    """Minimum degree over frozensets, the planner's rules written plainly:
    per group, pick the least (distinct-neighbor degree, key); merge the
    pick's factors into a product over its parents whose row budget is
    min(rows - dim, parent dims), and leave none when that is <= 0.
    Returns the ordering, per step (input ids, parent set, product id) and
    the edge and fill counts."""
    factors = {fid: (frozenset(keys), rows) for fid, (keys, rows, _) in enumerate(graph.structure)}
    first_neighbors = {v: set().union(*(ks for ks, _ in factors.values() if v in ks)) - {v}
                       for v in graph.variables}
    order, steps, edges, fill = [], [], 0, 0

    def degree(x):
        return len(set().union(*(ks for ks, _ in factors.values() if x in ks)) - {x})

    for group in groups:
        pool = set(group)
        while pool:
            v = min(pool, key=lambda x: (degree(x), x))
            pool.remove(v)
            fids = sorted(fid for fid, (ks, _) in factors.items() if v in ks)
            parents = frozenset().union(*(factors[f][0] for f in fids)) - {v}
            budget = min(sum(factors.pop(f)[1] for f in fids) - v.dim,
                         sum(p.dim for p in parents))
            product = -1
            if parents and budget > 0:
                product = len(graph.structure) + sum(s[2] >= 0 for s in steps)
                factors[product] = (parents, budget)
            order.append(v)
            steps.append((tuple(fids), parents, product))
            edges += len(parents)
            fill += len(parents - first_neighbors[v])
    return order, steps, edges, fill


@hs.composite
def structures(draw):
    """A small random graph over at most ten 1- and 6-dim variables, and a
    random split of its variables into ordered groups (or None)."""
    keys = draw(hs.lists(hs.builds(VarKey, hs.sampled_from(list(Kind)), hs.integers(1, 4)),
                         min_size=1, max_size=10, unique=True))
    factors = []
    for _ in range(draw(hs.integers(1, 12))):
        ks = draw(hs.lists(hs.sampled_from(keys), min_size=1, max_size=4, unique=True))
        rows = draw(hs.integers(1, 8))
        factors.append(LinearFactor({k: np.zeros((rows, k.dim)) for k in ks}, np.zeros(rows),
                                    weight=draw(hs.sampled_from([1.0, 1e-3]))))
    graph = FactorGraph(factors)
    if draw(hs.booleans()):
        return graph, None
    perm = draw(hs.permutations(graph.variables))
    cuts = sorted(draw(hs.sets(hs.integers(1, max(len(perm) - 1, 1)), max_size=3)))
    return graph, [set(perm[a:b]) for a, b in zip([0, *cuts], [*cuts, len(perm)])]


@settings(deadline=None, max_examples=150)
@given(structures())
def test_plan_matches_frozenset_reference(case):
    graph, groups = case
    plan = plan_elimination(graph, groups)
    order, steps, edges, fill = reference_plan(graph, groups or [graph.variables])
    assert list(plan.ordering) == order
    assert (plan.edge_count, plan.fill_in) == (edges, fill)
    position = {v: i for i, v in enumerate(order)}
    for step, (inputs, parents, product) in zip(plan.steps, steps):
        assert (step.inputs, step.product) == (inputs, product)
        assert step.parents == tuple(sorted(parents, key=position.__getitem__))


@settings(deadline=None, max_examples=150)
@given(structures(), hs.integers(0, 2**32 - 1))
def test_fronts_solve_as_the_dense_arbiter(case, seed):
    # the random structures with random numbers: eliminating front by front
    # gives the dense least-squares answer wherever the arbiter finds one.
    # The right-hand sides are consistent, so both answers are as accurate
    # as the conditioning allows, not its square
    structure, groups = case
    rng = np.random.default_rng(seed)
    x = {k: rng.standard_normal(k.dim) for k in structure.variables}
    factors = []
    for keys, rows, weight in structure.structure:
        blocks = {k: rng.standard_normal((rows, k.dim)) for k in keys}
        factors.append(LinearFactor(blocks, sum(a @ x[k] for k, a in blocks.items()), weight))
    graph = FactorGraph(factors)
    try:
        want = dense_solve(graph)
    except RankDeficient:
        return
    got = back_substitute(eliminate(graph, plan_elimination(graph, groups).ordering))
    scale = max(np.abs(v).max() for v in want.values())
    for k, v in want.items():
        np.testing.assert_allclose(got[k], v, rtol=0, atol=1e-9 * scale)


@settings(deadline=None, max_examples=150)
@given(structures(), hs.integers(0, 2**32 - 1))
def test_graph_listed_from_its_factors_is_the_same_bits(case, seed):
    # FactorGraph(factors) lists the factors that `factors` makes from a
    # listing: the round trip keeps every bit, and so does elimination
    structure, groups = case
    rng = np.random.default_rng(seed)
    graph = FactorGraph(
        LinearFactor({k: rng.standard_normal((rows, k.dim)) for k in keys},
                     rng.standard_normal(rows), weight, f"f{i}", ("Vd0",) * (i % 2))
        for i, (keys, rows, weight) in enumerate(structure.structure))
    again = FactorGraph(graph.factors)
    assert (again.structure, again.labels) == (graph.structure, graph.labels)
    assert again.flat.tobytes() == graph.flat.tobytes()
    assert not (graph.flat.flags.writeable or again.flat.flags.writeable)
    ordering = plan_elimination(graph, groups).ordering
    outcomes = []
    for g in (graph, again):
        try:
            dag = eliminate(g, ordering)
        except RankDeficient as e:
            outcomes.append(str(e))
            continue
        values = back_substitute(dag)
        outcomes.append(({k: v.tobytes() for k, v in values.items()}, dag.leftover.tobytes()))
    assert outcomes[0] == outcomes[1]


def reference_back_substitute(dag):
    """The per-front loop that back-substituted every DAG before one
    triangular solve over the plan's system, kept as an oracle for
    `back_substitute`: from the last front to the first, `d - R_fp @ x_p`
    over the last step's gather, then `R_ff` solved by LAPACK. A zero pivot
    names its variable as the loop meets it, a non-finite solution its last
    non-finite entry in elimination order (the source: a NaN or infinity
    only spreads to entries eliminated earlier)."""
    plan = dag.plan
    x = np.empty(plan.size)
    with np.errstate(invalid="ignore", over="ignore"):
        for (_, stop, _, _, _, at, *_), block in zip(reversed(plan.fronts), reversed(dag.fronts)):
            d, parents = block.shape[0], plan.steps[stop - 1].parents
            xp = [x[plan.slices[p]] for p in parents]
            rhs = block[:, -1] - block[:, d:-1] @ np.concatenate(xp) if parents else block[:, -1]
            sol, info = dtrtrs(block[:, :d], rhs)
            if info:
                bad = next(v for v, s in plan.slices.items() if s.stop >= at + info)
                raise RankDeficient(bad, f"triangular solve failed (LAPACK info {info})")
            x[at:at + d] = sol
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        v = next(v for v, s in plan.slices.items() if s.stop > bad[-1])
        raise ValueError(f"non-finite solution at variable {v}")
    return {v: x[s] for v, s in plan.slices.items()}


def documented_error(e):
    """The type and message of an error `back_substitute` documents; any
    other error (a DAG it cannot read, say) is raised again, so that it
    cannot pass as the same outcome on both sides of a comparison."""
    if not (isinstance(e, RankDeficient) or str(e).startswith("non-finite solution at ")):
        raise e
    return type(e).__name__, str(e)


def stacked(graph):
    """The weighted rows of every factor as one dense matrix, its columns
    the variables' entries in `graph.variables` order, as `dense_solve`
    stacks them."""
    at = np.cumsum([0] + [v.dim for v in graph.variables])
    col = dict(zip(graph.variables, at))
    a = np.zeros((graph.total_rows(), at[-1]))
    r = 0
    for f in graph.factors:
        for k, block in f.blocks.items():
            a[r:r + f.rows, col[k]:col[k] + k.dim] = f.weight * block
        r += f.rows
    return a


def arbiter_contract(graph, ordering):
    """One elimination held to the dense arbiter, returning "solved" or
    "rank". The solve never returns values where the arbiter raises.

    Values agree with `dense_solve` to 1e-8 of its largest entry, or, where
    it is larger and at most 1e-6 of it, to the first-order forward error
    bound of a backward stable least-squares solve, eps (kappa + kappa^2
    |r| / (sigma_max |x|)) |x|: on inconsistent graphs of kappa 1e3 to 1e6
    (6 of 50,000 random `hazardous_graphs`) either side can be off the
    exact answer by more than 1e-8, elimination by up to 3e-8 and the
    arbiter by up to 2.5e-7. Where the arbiter is off the exact answer
    (`exact_least_squares`) by more than the 1e-6 cap (a huge rhs and
    residual), the values agree with the exact answer instead, to the
    same tolerance.

    A raise names a key among the arbiter's `keys` when the arbiter raises
    too. Where the arbiter solves, the graph must be within the gate's
    reach: the gate raises only when R's estimated reciprocal 1-norm
    condition is at most size x 1e-9, the estimate is at or above the true
    one, and kappa_1 <= size x kappa_2, so sigma_min / sigma_max of the
    weighted rows is at most size^2 x 1e-9. A graph with a non-finite
    number, which the arbiter's SVD cannot take, raises RankDeficient or
    the documented non-finite ValueError."""
    finite = np.isfinite(graph.flat).all()
    want = None
    if finite:
        try:
            want = dense_solve(graph)
        except RankDeficient as e:
            want = e
    try:
        got = back_substitute(eliminate(graph, ordering))
    except RankDeficient as e:
        assert e.key in graph.variables
        if isinstance(want, RankDeficient):
            assert e.key in want.keys, (str(e), want.keys)
        elif finite:
            a = stacked(graph)
            sv = np.linalg.svd(a, compute_uv=False)
            assert sv[-1] <= a.shape[1] ** 2 * 1e-9 * sv[0], (str(e), sv[-1] / sv[0])
        return "rank"
    except ValueError as e:
        assert not finite and str(e).startswith("non-finite solution at variable "), str(e)
        return "rank"
    assert finite and not isinstance(want, RankDeficient), "solved what the arbiter refuses"
    a, x = stacked(graph), np.concatenate([want[v] for v in graph.variables])
    b = np.concatenate([f.weight * f.rhs for f in graph.factors])
    sv = np.linalg.svd(a, compute_uv=False)
    kappa, size = sv[0] / sv[-1], np.linalg.norm(x)
    bound = np.finfo(float).eps * (kappa + kappa**2 * np.linalg.norm(a @ x - b) / (sv[0] * size))
    scale = max(np.abs(v).max() for v in want.values())
    atol = max(1e-8 * scale, min(bound * size, 1e-6 * scale))
    try:
        for k, v in want.items():
            np.testing.assert_allclose(got[k], v, rtol=0, atol=atol)
    except AssertionError:
        exact = exact_least_squares(graph)
        if max(np.abs(want[k] - v).max() for k, v in exact.items()) <= 1e-6 * scale:
            raise
        for k, v in exact.items():
            np.testing.assert_allclose(got[k], v, rtol=0, atol=atol)
    return "solved"


def exact_least_squares(graph):
    """The weighted least-squares answer per variable, from the normal
    equations of `stacked` rows solved in 60-digit arithmetic."""
    a = stacked(graph)
    b = np.concatenate([f.weight * f.rhs for f in graph.factors])
    with mpmath.workdps(60):
        a, b = mpmath.matrix(a.tolist()), mpmath.matrix(b.tolist())
        x = np.array(mpmath.lu_solve(a.T * a, a.T * b).tolist(), dtype=float).ravel()
    at = np.cumsum([0] + [v.dim for v in graph.variables])
    return {v: x[i:j] for v, i, j in zip(graph.variables, at, at[1:])}


def hazardous_graph(structure, groups, seed, factor, key, hazard):
    """The structure's graph (see `structures`) with random numbers from
    `seed` and one planted `hazard` in the factor numbered `factor` (at
    `key`), each a way a front's reduction can go wrong: proportional rows
    (a product row that reduces to rounding), a block at 1e-14 (rows and
    pivots near zero against the rest), a zero column in every block of a
    variable (a zero 1-dim pivot, a singular 6-dim block or rows short), a
    NaN, or a right-hand side of 1e13 (small live rows under a large rhs).
    Returns the graph and its ordering under `groups`."""
    rng = np.random.default_rng(seed)
    factors = [({k: rng.standard_normal((rows, k.dim)) for k in keys},
                rng.standard_normal(rows), weight) for keys, rows, weight in structure.structure]
    blocks, rhs, _ = factors[factor]
    if hazard == "proportional":
        for b in blocks.values():
            b[-1] = 2.0 * b[0]
        rhs[-1] = 2.0 * rhs[0] + 1.0
    elif hazard == "tiny":
        blocks[key] *= 1e-14
    elif hazard == "zero":
        for b, _, _ in factors:
            if key in b:
                b[key][:, 0] = 0.0
    elif hazard == "nan":
        blocks[key][0, 0] = np.nan
    elif hazard == "rhs":
        rhs *= 1e13
    graph = FactorGraph(LinearFactor(b, r, w) for b, r, w in factors)
    return graph, plan_elimination(graph, groups).ordering


@hs.composite
def hazardous_graphs(draw):
    """A random structure with random numbers and one planted hazard (see
    `hazardous_graph`). Returns the graph and an ordering."""
    structure, groups = draw(structures())
    seed = draw(hs.integers(0, 2**32 - 1))
    factor = draw(hs.integers(0, len(structure) - 1))
    key = draw(hs.sampled_from(sorted(structure.structure[factor][0])))
    hazard = draw(hs.sampled_from(["none", "proportional", "tiny", "zero", "nan", "rhs"]))
    return hazardous_graph(structure, groups, seed, factor, key, hazard)


def inaccurate_arbiter_draw():
    """A draw of `hazardous_graphs` on which the arbiter is the inaccurate
    side: ten factors over Vd1, Vd2, qdd1 and qdd2, three of them priors
    of weight 1e-3, a rhs of 1e13 in the third (2.7e10 once weighted),
    kappa 2.1e4 and a residual of 3.2e10, ordered Vd1 Vd2 qdd1 qdd2.
    `dense_solve` is 7.6e-5 of the largest entry off the exact answer
    (60-digit normal equations) and elimination 5.7e-12."""
    structure = FactorGraph(
        LinearFactor({key(k): np.zeros((rows, key(k).dim)) for k in keys.split()},
                     np.zeros(rows), weight)
        for keys, rows, weight in [
            ("Vd1 Vd2 qdd1 qdd2", 1, 1e-3), ("Vd1 Vd2 qdd1", 1, 1.0), ("qdd1", 5, 1e-3),
            ("Vd2 qdd1 qdd2", 3, 1.0), ("Vd1 qdd1 qdd2", 1, 1.0), ("qdd1", 8, 1.0),
            ("Vd1 qdd1 qdd2", 4, 1.0), ("Vd2 qdd2", 4, 1e-3), ("qdd1", 4, 1.0),
            ("qdd1", 6, 1.0)])
    return hazardous_graph(structure, None, 521403388, 2, key("qdd1"), "rhs")


@settings(deadline=None, max_examples=300)
@given(hazardous_graphs())
@example(inaccurate_arbiter_draw())
def test_reduce_then_gate_agrees_with_the_arbiter(case):
    # whatever the hazard, the values are the arbiter's (or, where the
    # arbiter is off the exact answer, that answer's) or the solve raises
    # as `arbiter_contract` allows
    arbiter_contract(*case)


def hazard_cases():
    """One hand-built graph per way a front's reduction can go wrong, and
    one of random numbers at the edge of the accuracy `arbiter_contract`
    allows for, each with its ordering and the outcome the contract
    returns for it."""
    u, w, x, y, z = (VarKey(Kind.JOINT_ACCEL, i) for i in range(1, 6))
    f, g = VarKey(Kind.ACCEL, 1), VarKey(Kind.ACCEL, 2)
    # x's front, after w's, leaves two rows on (y, z) that are dead, and
    # y's front (over y, z and u) receives none of them
    dead = FactorGraph([LinearFactor({w: [[1.0]]}, [1.0]),
                        LinearFactor({w: [[1.0]], x: [[1.0]]}, [2.0]),
                        LinearFactor({x: [[1.0]], y: [[0.0]], z: [[0.0]]}, [1.0]),
                        LinearFactor({x: [[2.0]]}, [2.0]),
                        LinearFactor({y: [[1.0]], u: [[1.0]]}, [2.0]),
                        LinearFactor({u: [[1.0]]}, [1.0]), LinearFactor({z: [[1.0]]}, [3.0])])
    # x and y are one front and y's pivot is tiny: the graph is rank 1 to
    # the arbiter
    cut = FactorGraph([LinearFactor({x: [[1.0]], y: [[1e-14]]}, [1.0]),
                       LinearFactor({x: [[2.0]], y: [[3e-14]]}, [1002.0]),
                       LinearFactor({y: [[1e-10]]}, [1e-10])])
    # the row that x's front leaves on y has a coefficient of 1e-7 and a rhs
    # of 1e6; the R row kept for x is all of order 1
    big_rhs = FactorGraph([LinearFactor({x: [[1.0]], y: [[0.0]]}, [1.0]),
                           LinearFactor({x: [[0.0]], y: [[1e-7]]}, [1e6]),
                           LinearFactor({y: [[1.0]], u: [[1.0]]}, [2.0]),
                           LinearFactor({u: [[1.0]]}, [1.0])])
    short = FactorGraph([LinearFactor({x: [[1.0]], y: [[1.0]]}, [1.0])])
    # x's product row on y is exactly zero, so y's own front, after z's,
    # has one row and a zero pivot
    starved = FactorGraph([LinearFactor({x: [[1.0]], y: [[0.0]]}, [1.0]),
                           LinearFactor({x: [[2.0]]}, [2.0]), LinearFactor({z: [[1.0]]}, [3.0])])
    zero = FactorGraph([LinearFactor({x: [[0.0]]}, [1.0])])
    singular = FactorGraph([LinearFactor({f: np.eye(6)}, np.ones(6)),
                            LinearFactor({g: np.diag([1.0, 2.0, 0.0, 1.0, 1.0, 1.0]),
                                          f: np.eye(6)}, np.ones(6))])
    nan = FactorGraph([LinearFactor({x: [[1.0]], y: [[np.nan]]}, [1.0]),
                       LinearFactor({y: [[1.0]]}, [1.0])])
    # random numbers with kappa 7.3e5 whose rows, a weight-1e-3 prior among
    # them, leave a residual of 1.2
    v1, v2, v3, f1 = (VarKey(Kind.ACCEL, 1), VarKey(Kind.ACCEL, 2), VarKey(Kind.ACCEL, 3),
                      VarKey(Kind.WRENCH, 1))
    rng = np.random.default_rng(0)
    ill = FactorGraph(LinearFactor({k: rng.standard_normal((rows, k.dim)) for k in keys},
                                   rng.standard_normal(rows), weight)
                      for keys, rows, weight in [
                          ((v1,), 1, 1.0), ((v1, v2, v3, f1), 3, 1.0), ((v1,), 1, 1.0),
                          ((v2,), 1, 1.0), ((v2,), 1, 1.0), ((v1, f1), 3, 1.0), ((v1,), 1, 1.0),
                          ((v1, v2, v3), 4, 1.0), ((v1,), 5, 1.0), ((v3,), 5, 1.0),
                          ((v2,), 1, 1e-3)])
    return {"dead-row": (dead, [w, x, y, z, u], "solved"), "pivot-at-cut": (cut, [x, y], "rank"),
            "rhs-sized-cut": (big_rhs, [x, y, u], "solved"),
            "row-shortage": (short, [x, y], "rank"), "starved-consumer": (starved, [x, z, y], "rank"),
            "zero-pivot": (zero, [x], "rank"),
            "singular-6-dim": (singular, [g, f], "rank"), "nan": (nan, [x, y], "rank"),
            "ill-conditioned-inconsistent": (ill, [v1, v2, v3, f1], "solved")}


@pytest.mark.parametrize("name", sorted(hazard_cases()))
def test_each_hazard_meets_the_arbiter_contract(name):
    # each hazard solves as the arbiter does, or raises as it allows
    graph, ordering, outcome = hazard_cases()[name]
    assert arbiter_contract(graph, ordering) == outcome


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="elimination is 3.2e-8 of the largest entry off the arbiter on this "
                          "ill-conditioned inconsistent graph")
def test_ill_conditioned_inconsistent_graph_agrees_with_the_arbiter_to_1e_8():
    # the arbiter is 4.4e-9 off the exact answer (60-digit normal
    # equations) and elimination 2.7e-8, both inside the forward error
    # bound, 9.9e-8, that `arbiter_contract` allows for
    graph, ordering, _ = hazard_cases()["ill-conditioned-inconsistent"]
    want, got = dense_solve(graph), solve(graph, ordering)
    scale = max(np.abs(v).max() for v in want.values())
    for k, v in want.items():
        np.testing.assert_allclose(got[k], v, rtol=0, atol=1e-8 * scale)


@settings(deadline=None, max_examples=150)
@given(structures(), hs.integers(0, 2**32 - 1))
def test_residual_max_reads_the_listing(case, seed):
    # soft and hard factors: the residual check makes no factor and gives
    # the float the weight-1 factors' own residuals give
    structure, _ = case
    rng = np.random.default_rng(seed)
    graph = FactorGraph(LinearFactor({k: rng.standard_normal((rows, k.dim)) for k in keys},
                                     rng.standard_normal(rows), weight)
                        for keys, rows, weight in structure.structure)
    listed = FactorGraph.listed(graph.structure, graph.labels, graph.flat)
    values = {k: rng.standard_normal(k.dim) for k in graph.variables}
    got = listed.residual_max(values)
    assert "factors" not in vars(listed)
    hard = [f.ab[:, :-1] @ np.concatenate([values[k] for k in f.keys()]) - f.ab[:, -1]
            for f in graph.factors if f.weight == 1.0]
    assert got == (float(np.abs(np.concatenate(hard)).max()) if hard else 0.0)


def back_substitution_outcome(dag, solve):
    """The values `solve` gives for a DAG, or its error's type and message."""
    try:
        return solve(dag)
    except (RankDeficient, ValueError) as e:
        return documented_error(e)


@settings(deadline=None, max_examples=200)
@given(structures(), hs.integers(0, 2**32 - 1),
       hs.sampled_from(["none", "huge", "inf", "nan"]))
def test_one_triangular_solve_is_the_per_front_loop(case, seed, hazard):
    # random numbers, and in one factor maybe a rhs of 1e300 over 1e-10
    # coefficients (an overflow in back-substitution), an infinite or a NaN
    # rhs: the values agree to 1e-12 of the largest, and the errors match
    structure, groups = case
    rng = np.random.default_rng(seed)
    factors = [({k: rng.standard_normal((rows, k.dim)) for k in keys},
                rng.standard_normal(rows), weight) for keys, rows, weight in structure.structure]
    blocks, rhs, _ = factors[rng.integers(len(factors))]
    if hazard == "huge":
        rhs *= 1e300
        for b in blocks.values():
            b *= 1e-10
    elif hazard != "none":
        rhs[0] = np.inf if hazard == "inf" else np.nan
    graph = FactorGraph(LinearFactor(b, r, w) for b, r, w in factors)
    try:
        dag = eliminate(graph, plan_elimination(graph, groups).ordering)
    except RankDeficient:
        return
    got, want = (back_substitution_outcome(dag, f)
                 for f in (back_substitute, reference_back_substitute))
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    scale = max((np.abs(v).max() for v in want.values()), default=0.0)
    for k, v in want.items():
        np.testing.assert_allclose(got[k], v, rtol=0, atol=1e-12 * scale)


def test_non_finite_solution_names_its_source():
    # c overflows (1e305 / 1e-5; the system's condition, 1e5, passes the
    # gate). A dense solve spreads NaN (0 x inf) to every entry eliminated
    # before c, d included; the error names the last non-finite entry in
    # elimination order, c, as the per-front loop does
    a, b, c, d = (VarKey(Kind.JOINT_ACCEL, i) for i in range(4))
    graph = FactorGraph([LinearFactor({a: [[1.0]], b: [[1.0]]}, [0.0]),
                         LinearFactor({b: [[1.0]], c: [[1e-5]]}, [0.0]),
                         LinearFactor({c: [[1e-5]]}, [1e305]),
                         LinearFactor({d: [[1.0]]}, [1.0])])
    dag = eliminate(graph, [d, a, b, c])
    for solve_dag in (back_substitute, reference_back_substitute):
        with pytest.raises(ValueError, match="^non-finite solution at variable qdd2$"):
            solve_dag(dag)


def test_the_spare_system_is_zeroed_after_errors_and_aliases_no_result(three_r, tree21):
    # a gate failure (a singular Vd2 block, with and without a NaN) and a
    # non-finite solution each give their system back all zeros, and so do
    # a public solve and a compiled one; the one system kept is of the last
    # size solved, and no result is a view of it
    x, y, f = VarKey(Kind.ACCEL, 1), VarKey(Kind.ACCEL, 2), VarKey(Kind.WRENCH, 3)
    singular = np.diag([1.0, 2.0, 0.0, 1.0, 1.0, 1.0])
    poisoned = singular.copy()
    poisoned[0, 1] = np.nan
    a, b, c, d = (VarKey(Kind.JOINT_ACCEL, i) for i in range(4))
    overflow = FactorGraph([LinearFactor({a: [[1.0]], b: [[1.0]]}, [0.0]),
                            LinearFactor({b: [[1.0]], c: [[1e-5]]}, [0.0]),
                            LinearFactor({c: [[1e-5]]}, [1e305]),
                            LinearFactor({d: [[1.0]]}, [1.0])])
    results = []

    def spare_is_zeroed(size):
        spare, = fgraph._spare
        assert spare.size == size * (size + 1) and spare.tobytes() == bytes(spare.nbytes)
        assert not any(np.shares_memory(spare, r) for r in results)

    fgraph._spare.clear()
    for block in (singular, poisoned):
        g = FactorGraph([LinearFactor({x: np.eye(6)}, np.ones(6)),
                         LinearFactor({y: block, f: np.eye(6)}, np.ones(6)),
                         LinearFactor({f: np.ones((1, 6))}, np.ones(1))])
        with pytest.raises(RankDeficient, match="Vd2: reciprocal condition estimate 0"):
            eliminate(g, [x, y, f])
        spare_is_zeroed(18)
    dag = eliminate(overflow, [d, a, b, c])
    with pytest.raises(ValueError, match="^non-finite solution at variable qdd2$"):
        back_substitute(dag)
    results += [dag.rows, dag.leftover]
    spare_is_zeroed(4)
    solved = eliminate(FactorGraph([LinearFactor({x: np.eye(6)}, np.ones(6)),
                                    LinearFactor({y: np.eye(6), x: np.eye(6)}, np.ones(6))]),
                       [y, x])
    results += [solved.rows, solved.leftover, *back_substitute(solved).values()]
    spare_is_zeroed(12)
    res = solve_dynamics(tree21, random_state(np.random.default_rng(0), 21),
                         ProblemSpec.forward(tree21, np.ones(21)))
    results += [res.dag.rows, res.dag.leftover, *res.values.values()]
    spare_is_zeroed(273)
    st = JointState(np.array([0.3, -0.5, 0.8]), np.array([0.1, 0.2, -0.1]))
    res = solve_dynamics(three_r, st, ProblemSpec.forward(three_r, np.array([1.0, -0.5, 0.2])))
    results += [res.dag.rows, res.dag.leftover, *res.values.values()]
    spare_is_zeroed(39)


def test_zero_pivot_fails_the_triangular_solve_at_its_variable():
    # eliminate never leaves a zero pivot (the gate fails first), so a
    # DAG is built by hand: the last pivot of Vd1's block, solution entry 6
    # after qdd1, made zero. LAPACK's info counts from the first solution
    # entry (the per-front loop counted from its front's)
    v, q, t = VarKey(Kind.ACCEL, 1), VarKey(Kind.JOINT_ACCEL, 1), VarKey(Kind.TORQUE, 1)
    rng = np.random.default_rng(5)
    graph = FactorGraph([LinearFactor({q: [[1.0]], v: rng.standard_normal((1, 6))}, [1.0]),
                         LinearFactor({v: rng.standard_normal((6, 6)), t: np.ones((6, 1))},
                                      rng.standard_normal(6)),
                         LinearFactor({t: [[2.0]]}, [1.0])])
    dag = eliminate(graph, [q, v, t])
    assert back_substitute(dag)  # solvable as eliminated
    hand = fgraph.EliminationDag(dag.leftover, dag.plan, dag.rows.copy(), dag.rcond)
    at = dag.plan.slices[v].stop - 1
    f = next(f for f, front in enumerate(dag.plan.fronts) if front[5] <= at < front[5] + front[6])
    hand.fronts[f][at - dag.plan.fronts[f][5], at - dag.plan.fronts[f][5]] = 0.0
    with pytest.raises(RankDeficient, match=r"Vd1: triangular solve failed \(LAPACK info 7\)$"):
        back_substitute(hand)
    with pytest.raises(RankDeficient) as per_front:
        reference_back_substitute(hand)
    assert per_front.value.key == v


class TestTree21:
    """A 21-joint branched tree (torso plus four limbs of five): the
    forward ordering table, the fill-reducing sequences and hybrid edge
    counts at a size where fill matters."""

    MD = ("qdd1 qdd2 qdd3 qdd4 qdd5 qdd6 Vd6 F6 Vd5 F5 Vd4 F4 Vd3 F3 Vd2 qdd7 qdd8 qdd9 qdd10 "
          "qdd11 Vd11 F11 Vd10 F10 Vd9 F9 Vd8 F8 Vd7 qdd12 qdd13 qdd14 qdd15 qdd16 Vd16 F16 "
          "Vd15 F15 Vd14 F14 Vd13 F13 Vd12 qdd17 qdd18 qdd19 qdd20 qdd21 Vd21 F21 Vd20 F20 "
          "Vd19 F19 Vd18 F18 Vd17 Vd1 F1 F2 F7 F12 F17")
    ND = ("qdd6 Vd6 F6 qdd5 Vd5 F4 qdd2 qdd3 Vd2 qdd4 Vd3 F3 Vd4 F5 F1 F12 qdd12 qdd13 Vd12 "
          "qdd7 qdd8 Vd7 qdd17 qdd18 Vd17 F7 F17 qdd1 Vd1 F2 qdd11 Vd11 F9 F10 qdd9 qdd10 Vd9 "
          "Vd10 F11 qdd16 Vd16 F14 F15 qdd14 qdd15 Vd14 Vd15 F16 qdd21 Vd21 F19 F20 qdd19 "
          "qdd20 Vd19 Vd20 F21 Vd8 Vd13 Vd18 F8 F13 F18")

    @staticmethod
    def state(model):
        rng = np.random.default_rng(0)
        n = len(model.movable_joints)
        return JointState(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))

    def test_forward_ordering_table(self, tree21):
        st = self.state(tree21)
        spec = ProblemSpec.forward(tree21, np.zeros(len(tree21.movable_joints)))
        got = {o: (r.dag.edge_count, r.dag.fill_in) for o in ("crba", "aba", "md", "nd")
               for r in [solve_dynamics(tree21, st, spec, o)]}
        assert got == {"crba": (932, 804), "aba": (180, 52), "md": (128, 0), "nd": (197, 69)}
        graph = build_graph(tree21, st, spec)
        for ordering, want in (("md", self.MD), ("nd", self.ND)):
            assert " ".join(map(str, resolve_ordering(graph, ordering, tree21))) == want

    @pytest.mark.parametrize("split,edges", [
        (lambda i, name: i % 2 == 0, 118),
        (lambda i, name: name == "torso_yaw" or name.startswith("limb0"), 123),
        (lambda i, name: name.endswith("j4"), 124),
    ], ids=["even-joints", "torso-and-limb0", "limb-tips"])
    def test_hybrid_edge_counts(self, tree21, split, edges):
        # accelerations given where `split` holds, torques elsewhere; "auto" plans each
        given = {j.name: {"accel": 0.1} if split(i, j.name) else {"torque": 0.2}
                 for i, j in enumerate(tree21.movable_joints)}
        res = solve_dynamics(tree21, self.state(tree21), ProblemSpec.hybrid(tree21, given))
        assert (res.dag.edge_count, res.dag.fill_in) == (edges, 0)


    @pytest.mark.parametrize("ordering", ["md", "nd"])
    def test_planner_matches_frozenset_reference(self, tree21, ordering):
        # the reference at the workload's size: 63 variables, where the
        # hypothesis test draws at most ten; `res.graph` is numbered over
        # every key of the model's shapes, as solve_dynamics plans it
        rng = np.random.default_rng(2121)
        names = [j.name for j in tree21.movable_joints]
        for _ in range(20):
            spec = ProblemSpec.hybrid(tree21, {
                name: {"accel" if a else "torque": x}
                for name, a, x in zip(names, rng.random(21) < 0.5, rng.uniform(-1, 1, 21))})
            res = solve_dynamics(tree21, random_state(rng, 21), spec, ordering)
            groups = [res.graph.variables] if ordering == "md" else \
                fgraph.nested_dissection_groups(build_graph(tree21, self.state(tree21), spec))
            order, steps, edges, fill = reference_plan(res.graph, groups)
            for plan in (res.dag.plan, plan_elimination(res.graph, groups)):
                assert list(plan.ordering) == order
                assert (plan.edge_count, plan.fill_in) == (edges, fill)
                position = {v: i for i, v in enumerate(order)}
                for step, (inputs, parents, product) in zip(plan.steps, steps):
                    assert (step.inputs, step.product) == (inputs, product)
                    assert step.parents == tuple(sorted(parents, key=position.__getitem__))

    def test_a_fresh_split_makes_no_plan_step_until_steps_are_read(self, tree21, monkeypatch):
        # a fresh hybrid split compiles a template and plans it, and a solve
        # reads no PlanStep, so none is made; read afterwards, `steps` are
        # the frozenset reference's, made once
        made, step = [], fgraph.PlanStep
        monkeypatch.setattr(fgraph, "PlanStep", lambda *a: made.append(a) or step(*a))
        rng = np.random.default_rng(2222)
        names = [j.name for j in tree21.movable_joints]
        spec = ProblemSpec.hybrid(tree21, {
            name: {"accel" if a else "torque": x}
            for name, a, x in zip(names, rng.random(21) < 0.5, rng.uniform(-1, 1, 21))})
        tree21.solve_templates.clear()
        res = solve_dynamics(tree21, random_state(rng, 21), spec)
        assert made == []
        order, steps, _, _ = reference_plan(res.graph, [res.graph.variables])
        position = {v: i for i, v in enumerate(order)}
        plan = res.dag.plan
        assert list(plan.ordering) == order
        assert [(st.inputs, st.parents, st.product) for st in plan.steps] == [
            (inputs, tuple(sorted(parents, key=position.__getitem__)), product)
            for inputs, parents, product in steps]
        assert len(made) == 63
        assert plan.steps is plan.steps and len(made) == 63

    def test_the_spare_system_leaks_nothing_between_plans(self, tree21):
        # forward solves under crba, aba, md and nd interleaved with hybrid
        # splits, all of size 273, share the spare triangular system; each
        # comes out bit for bit as it does on a system made for it alone
        rng = np.random.default_rng(2323)
        names = [j.name for j in tree21.movable_joints]
        problems = []
        for i in range(24):
            if i % 2:
                spec, ordering = ProblemSpec.hybrid(tree21, {
                    name: {"accel" if a else "torque": x}
                    for name, a, x in zip(names, rng.random(21) < 0.5,
                                          rng.uniform(-1, 1, 21))}), "md"
            else:
                spec = ProblemSpec.forward(tree21, rng.uniform(-1, 1, 21))
                ordering = ("crba", "aba", "md", "nd")[i // 2 % 4]
            problems.append((random_state(rng, 21), spec, ordering))

        def outcome(res):
            return ({k: v.tobytes() for k, v in res.values.items()}, res.dag.rows.tobytes(),
                    res.dag.leftover.tobytes(), res.residual_max, res.dag.plan.size)

        fgraph._spare.clear()
        kept = [outcome(solve_dynamics(tree21, *p)) for p in problems]
        spare, = fgraph._spare
        assert spare.size == 273 * 274
        alone = []
        for p in problems:
            fgraph._spare.clear()
            alone.append(outcome(solve_dynamics(tree21, *p)))
        assert kept == alone
        assert {o[-1] for o in kept} == {273}

    def test_threads_sharing_the_spare_give_serial_answers(self, tree21):
        # four threads on two cores solve forward dynamics under the four
        # orderings, taking the spare size-273 system or making their own
        # while the others hold theirs: every answer is the serial one bit
        # for bit, and the one system kept at the end is zeroed
        rng = np.random.default_rng(2424)
        problems = [(random_state(rng, 21), ProblemSpec.forward(tree21, rng.uniform(-1, 1, 21)),
                     ("crba", "aba", "md", "nd")[i % 4]) for i in range(80)]

        def outcome(res):
            return {k: v.tobytes() for k, v in res.values.items()}, res.dag.rows.tobytes()

        serial = [outcome(solve_dynamics(tree21, *p)) for p in problems]
        out = [None] * len(problems)

        def work(t):
            for i in range(t, len(problems), 4):
                out[i] = outcome(solve_dynamics(tree21, *problems[i]))

        fgraph._spare.clear()
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
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
        assert out == serial
        spare, = fgraph._spare
        assert spare.size == 273 * 274 and spare.tobytes() == bytes(spare.nbytes)

    def test_planted_condition_below_the_arbiters_rcond_raises(self, tree21):
        # a forward graph at the workload's size (273 unknowns) with Vd21's
        # columns scaled until sigma_min / sigma_max of its rows is 0.98e-9,
        # just below the arbiter's rcond. The 1-norm estimate there is close
        # to 1e-9 (1.01e-9 under "md"); the gate's size x 1e-9 still raises,
        # as the arbiter does, under every ordering
        rng = np.random.default_rng(0)
        base = build_graph(tree21, random_state(rng, 21),
                           ProblemSpec.forward(tree21, rng.standard_normal(21)))
        v = VarKey(Kind.ACCEL, 21)

        def planted(s):
            return FactorGraph(
                LinearFactor({k: b * s if k == v else b for k, b in f.blocks.items()},
                             f.rhs, f.weight) for f in base.factors)

        def ratio(graph):
            sv = np.linalg.svd(stacked(graph), compute_uv=False)
            return sv[-1] / sv[0]

        s = 1e-7
        for _ in range(4):  # sigma_min is near linear in the scale here
            s *= 0.98e-9 / ratio(planted(s))
        graph = planted(s)
        assert 0.97e-9 < ratio(graph) < 1e-9 and stacked(graph).shape[1] == 273
        for ordering in ("md", "nd", "aba", "crba"):
            assert arbiter_contract(graph, resolve_ordering(graph, ordering, tree21)) == "rank"


class TestVarKeyProperties:
    keys = hs.builds(VarKey, hs.sampled_from(list(Kind)), hs.integers(0, 10**6))

    @given(keys)
    def test_parse_inverts_str(self, k):
        assert VarKey.parse(str(k)) == k

    @given(hs.lists(keys))
    def test_sorted_by_kind_then_index(self, ks):
        assert sorted(ks) == sorted(ks, key=lambda k: (int(k.kind), k.index))

    @given(keys)
    def test_equal_keys_hash_equal(self, k):
        twin = VarKey(Kind(int(k.kind)), int(k.index))
        assert twin == k and twin is not k
        assert hash(twin) == hash(k) == hash((k.kind, k.index))


class TestClassicOrdering:
    def test_inverse_schedule(self, three_r):
        gi, _, _ = three_r_graphs(three_r)
        got = [str(v) for v in classic_ordering(gi, "rnea")]
        assert got == ["tau3", "tau2", "tau1", "F1", "F2", "F3", "Vd3", "Vd2", "Vd1"]

    def test_forward_sweep_schedule(self, three_r):
        _, gf, _ = three_r_graphs(three_r)
        got = [str(v) for v in classic_ordering(gf, "crba")]
        assert got == ["F1", "F2", "F3", "Vd3", "Vd2", "Vd1", "qdd3", "qdd2", "qdd1"]

    def test_forward_interleaved_schedule(self, three_r):
        # tip-to-root triplets, one wrench/accel/joint-accel group per joint
        _, gf, _ = three_r_graphs(three_r)
        got = classic_ordering(gf, "aba")
        kinds = [v.kind for v in got]
        assert kinds == [Kind.WRENCH, Kind.ACCEL, Kind.JOINT_ACCEL] * 3
        assert [v.index for v in got] == [3, 3, 3, 2, 2, 2, 1, 1, 1]

    def test_interleaved_fewer_edges_than_sweep(self, three_r):
        _, gf, _ = three_r_graphs(three_r)
        aba = eliminate(gf, classic_ordering(gf, "aba")).edge_count
        crba = eliminate(gf, classic_ordering(gf, "crba")).edge_count
        assert aba < crba

    def test_custom_accepted_verbatim(self, three_r):
        _, _, gh = three_r_graphs(three_r)
        wanted = [key(s) for s in
                  ["tau1", "qdd2", "qdd3", "F1", "Vd1", "Vd3", "F3", "Vd2", "F2"]]
        got = classic_ordering(gh, wanted)
        assert got == wanted
        sol = solve(gh, got)
        assert gh.residual_max(sol) < 1e-8

    def test_incompatible_scheme(self, three_r):
        gi, gf, _ = three_r_graphs(three_r)
        with pytest.raises(IncompatibleScheme):
            classic_ordering(gf, "rnea")
        with pytest.raises(IncompatibleScheme):
            classic_ordering(gi, "crba")
        with pytest.raises(IncompatibleScheme):
            classic_ordering(gi, "aba")


class TestExportDot:
    def test_empty_graph(self):
        dot = export_dot(FactorGraph([]))
        body = dot.split("{", 1)[1].rsplit("}", 1)[0]
        assert all(line.strip().startswith(("node", "edge")) or not line.strip()
                   for line in body.splitlines())

    def test_single_pair(self):
        g = FactorGraph([LinearFactor({X: np.eye(6)}, np.zeros(6))])
        dot = export_dot(g)
        assert dot.count("shape=circle") == 1
        assert dot.count("shape=point") == 1
        assert dot.count(" -- ") == 1

    def test_serial_inverse_node_counts(self, three_r):
        gi, _, _ = three_r_graphs(three_r)
        dot = export_dot(gi)
        assert dot.count("shape=circle") == 9
        assert dot.count("shape=point") == 9

    def test_knowns_drawn_as_boxes(self, three_r):
        gi, _, _ = three_r_graphs(three_r)
        dot = export_dot(gi)
        assert "shape=box" in dot

    def test_dag_export_directed(self, three_r):
        gi, _, _ = three_r_graphs(three_r)
        dag = eliminate(gi, classic_ordering(gi, "rnea"))
        dot = export_dot(dag)
        assert dot.startswith("digraph")
        assert dot.count(" -> ") == dag.edge_count
