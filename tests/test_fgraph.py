"""Factor graph elimination: conditionals, orderings, fill-in, DOT export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.linalg.lapack import dgeqrf, dgesdd, dtrtrs

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
        # a NaN in a frontal block fails the rank test; an infinite rhs
        # leaves the blocks finite and shows only in the solution, here in
        # X's value and, through back-substitution, in Y's
        a = np.eye(6)
        a[2, 3] = np.nan
        with pytest.raises(RankDeficient, match="Vd1: frontal block rank below 6"):
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
            assert_same_tables(fixed.proof, greedy.proof)
            assert_same_tables(fixed.system, greedy.system)

    def test_one_row_r_factor_is_the_row_lapack_leaves(self):
        # Householder QR of one row reflects nothing (tau = 0), so the
        # one-row R that skips LAPACK is bit for bit what LAPACK returns
        rng = np.random.default_rng(71)
        for width in (1, 2, 7, 19):
            for scale in (1e-300, 1e-3, 1.0, 1e3, 1e300):
                a = rng.standard_normal((1, width)) * scale
                a[0, rng.integers(width)] = -0.0
                got = fgraph._r_factor(a)
                want = dgeqrf(a)[0]
                assert got.shape == (1, width) and got.flags.c_contiguous
                assert not np.shares_memory(got, a)
                np.testing.assert_array_equal(got, want)
                assert (np.signbit(got) == np.signbit(want)).all()

    def test_empty_graph_plans_nothing(self):
        plan = plan_elimination(FactorGraph([]))
        assert (plan.ordering, plan.steps, plan.edge_count, plan.buffer_size) == ((), (), 0, 0)
        assert back_substitute(eliminate(FactorGraph([]), [])) == {}

    def test_one_by_one_rank_check(self):
        q = VarKey(Kind.JOINT_ACCEL, 1)
        for entry in (0.0, np.nan):
            with pytest.raises(RankDeficient, match="qdd1: frontal block rank below 1"):
                eliminate(FactorGraph([LinearFactor({q: [[entry]]}, [1.0])]), [q])
        sol = solve(FactorGraph([LinearFactor({q: [[1e-300]]}, [3e-300])]), [q])
        np.testing.assert_allclose(sol[q], [3.0])

    def test_first_singular_frontal_named_before_later_row_shortage(self):
        # Vd2's block is singular and F3 is left with one row, but 6-dim
        # blocks are tested after the loop: the row shortage found at F3
        # waits for them, and Vd2, the first failure in plan order, is the
        # one named, with the message the rank test gives
        x, y, f = VarKey(Kind.ACCEL, 1), VarKey(Kind.ACCEL, 2), VarKey(Kind.WRENCH, 3)
        singular = np.diag([1.0, 2.0, 0.0, 1.0, 1.0, 1.0])
        g = FactorGraph([LinearFactor({x: np.eye(6)}, np.ones(6)),
                         LinearFactor({y: singular, f: np.eye(6)}, np.ones(6)),
                         LinearFactor({f: np.ones((1, 6))}, np.ones(1))])
        with pytest.raises(RankDeficient) as err:
            eliminate(g, [x, y, f])
        assert str(err.value) == "rank-deficient system at variable Vd2: frontal block rank below 6"
        assert err.value.key == y
        # with the shortage first in plan order, the shortage is named
        apart = FactorGraph([LinearFactor({y: singular}, np.ones(6)),
                             LinearFactor({f: np.ones((1, 6))}, np.ones(1))])
        for order, message in (([y, f], "Vd2: frontal block rank below 6"),
                               ([f, y], "F3: 1 constraint rows for 6 dimensions")):
            with pytest.raises(RankDeficient, match=f"^rank-deficient system at variable "
                                                    f"{message}$"):
                eliminate(apart, order)

    def test_singular_second_step_of_a_front_named_before_later_row_shortage(self):
        # x, y and z are one front, reduced by one QR; y's block is singular
        # and F4, in the next front, is left with one row: the rank test
        # names y, the first failure in plan order, as step by step
        x, y, z, f = (VarKey(Kind.ACCEL, 1), VarKey(Kind.ACCEL, 2), VarKey(Kind.ACCEL, 3),
                      VarKey(Kind.WRENCH, 4))
        eye, zero = np.eye(6), np.zeros((6, 6))
        for diag, message in (([1.0, 2.0, 0.0, 1.0, 1.0, 1.0], "Vd2: frontal block rank below 6"),
                              ([1.0] * 6, "F4: 1 constraint rows for 6 dimensions")):
            g = FactorGraph([
                LinearFactor({x: np.vstack([eye, zero]), y: np.vstack([eye, np.diag(diag)]),
                              z: np.zeros((12, 6))}, np.ones(12)),
                LinearFactor({y: zero, z: eye}, np.ones(6)),
                LinearFactor({z: eye}, np.ones(6)),
                LinearFactor({f: np.ones((1, 6))}, np.ones(1))])
            assert [front[:2] for front in fgraph.plan_for(g, [x, y, z, f]).fronts] == \
                [(0, 3), (3, 4)]
            with pytest.raises(RankDeficient, match=f"^rank-deficient system at variable "
                                                    f"{message}$") as err:
                eliminate(g, [x, y, z, f])
            assert err.value.key == (y if diag[2] == 0.0 else f)

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
        with pytest.raises(RankDeficient,
                           match="qdd2: no factor constrains this variable") as err:
            eliminate(g, [x, y])
        assert err.value.key == y

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
        # nothing else to constrain it and is named as a step on its own
        # names it, not solved to 1e14
        rng = np.random.default_rng(3)
        x, y = VarKey(Kind.JOINT_ACCEL, 1), VarKey(kind, 2)
        rows = y.dim + 1
        g = FactorGraph([LinearFactor({x: rng.standard_normal((rows, 1)),
                                       y: 1e-14 * rng.standard_normal((rows, y.dim))},
                                      rng.standard_normal(rows))])
        assert [front[:2] for front in fgraph.plan_for(g, [x, y]).fronts] == [(0, 2)]
        with pytest.raises(RankDeficient, match=f"^rank-deficient system at variable {y}: "
                                                "no factor constrains this variable$"):
            eliminate(g, [x, y])
        with pytest.raises(RankDeficient, match=str(y)):
            dense_solve(g)

    def test_front_with_pivot_at_the_cut_is_reduced_step_by_step(self):
        # x and y are one front. The row that eliminating x leaves on y is
        # dead (coefficient 4e-15, rhs 447), and y's own row (1e-10 y = 1e-10)
        # is below the cut too, so one QR would solve y to 2e8 off that dead
        # row; step by step the dead row is cut, as it always was: y = 1 and
        # the dead row's rhs is the one leftover
        x, y = VarKey(Kind.JOINT_ACCEL, 1), VarKey(Kind.JOINT_ACCEL, 2)
        g = FactorGraph([LinearFactor({x: [[1.0]], y: [[1e-14]]}, [1.0]),
                         LinearFactor({x: [[2.0]], y: [[3e-14]]}, [1002.0]),
                         LinearFactor({y: [[1e-10]]}, [1e-10])])
        assert [front[:2] for front in fgraph.plan_for(g, [x, y]).fronts] == [(0, 2)]
        dag = eliminate(g, [x, y])
        sol = back_substitute(dag)
        np.testing.assert_allclose([sol[x][0], sol[y][0]], [401.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(np.abs(dag.leftover), [1000.0 / np.sqrt(5.0)], rtol=1e-12)

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
    ("five_bar", "auto"): "qdd1 qdd3 F1 F3 qdd2 Vd1 F2 qdd4 Vd3 F4 qdd5 Vd2 Vd4 F5",
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


def reference_eliminate(graph, plan):
    """The per-front loop that eliminated every graph before the fronts were
    reduced first and proven after, kept as an oracle for
    `Assembly.eliminate`: per front in plan order, the live product rows of
    earlier fronts copied into its slots, one QR, the exact cut
    1e-12 max(1, max |R|), a reduction a step at a time when a later pivot
    is at or below the cut, the row and pivot tests step by step, and the
    product rows with a coefficient above the cut kept for the consumer.
    Returns the fronts' R rows and the leftover, or raises the first
    RankDeficient in plan order."""
    data, steps, n_graph = fgraph.scatter(plan, graph.flat), plan.steps, len(graph.structure)
    filled = [sum(graph.structure[f][1] for f in st.inputs if f < n_graph) for st in steps]
    front_of = {k: g for g, front in enumerate(plan.fronts) for k in range(*front[:2])}
    sources = {}  # per consuming front: (making front, row 0 of its slot, step)
    for g, (_, _, _, width, _, _, c, _, _, dst, to, _) in enumerate(plan.fronts):
        if to >= 0:
            sources.setdefault(front_of[to], []).append((g, dst[:width - c], to))
    peak, rests, blocks, leftover, frontal, failed = np.maximum.reduce, [], [], [], [], None
    for f, (start, stop, offset, width, m, _, _, ends, *_) in enumerate(plan.fronts):
        for at, slot, step in sources.get(f, ()):
            n = rests[at].shape[0]
            if n:
                data[slot + np.arange(n)[:, None]] = rests[at]
            filled[step] += n
        stack = data[offset:offset + m * width].reshape(width, m).T
        r = fgraph._r_factor(stack) if m else None
        if m > 1 and (stop - start > 1 or steps[stop - 1].product >= 0):
            mag = np.abs(r)
            cut = 1e-12 * max(1.0, peak(mag, None))
            if stop - start > 1:
                lo = steps[start].var.dim
                hi = width - 1 - sum(p.dim for p in steps[stop - 1].parents)
                if not np.minimum.reduce(mag.diagonal()[lo:hi], initial=np.inf) > cut:
                    r, cut = fgraph._by_steps(stack, ends, steps, start, filled, leftover)
                    mag = np.abs(r)
        left = c = 0
        for k in range(start, stop):
            v, parents = steps[k].var, steps[k].parents
            dv, left = v.dim, left + filled[k]
            if left < dv:
                failed = RankDeficient(v, f"{left} constraint rows for {dv} dimensions"
                                       if left else "no factor constrains this variable")
                break
            if dv > 1:
                frontal.append(r[c:c + dv, c:c + dv])
            elif not (a := abs(r[c, c])) > 1e-9 * a:
                failed = RankDeficient(v, "frontal block rank below 1")
                break
            left, c = left - dv, c + dv
        if failed:
            break
        blocks.append(r[:c])
        rest = r[c:]
        if rest.shape[0] and parents:
            live = peak(mag[c:, c:-1], 1) > cut
            leftover.extend(rest[~live, -1])
            rest = rest[live]
        else:
            leftover.extend(rest[:, -1])
        rests.append(rest[:, c:])
    ok = fgraph._full_rank(np.array(frontal).reshape(-1, 6, 6))
    if not ok.all():
        bad = [st.var for st in steps if st.var.dim > 1][np.argmin(ok)]
        raise RankDeficient(bad, "frontal block rank below 6")
    if failed:
        raise failed
    return tuple(blocks), np.array(leftover, dtype=float)


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


def elimination_outcome(graph, ordering, reduce):
    """The fronts, leftover and values an elimination gives (`reduce` maps a
    graph and plan to fronts and leftover), as bytes, or its error's type
    and message."""
    plan = fgraph.plan_for(graph, ordering)
    try:
        fronts, leftover = reduce(graph, plan)
    except RankDeficient as e:
        return type(e).__name__, str(e)
    got = [[(b.shape, b.tobytes()) for b in fronts], leftover.tobytes()]
    rows = np.concatenate([np.zeros(0), *map(np.ravel, fronts)])
    try:
        values = back_substitute(fgraph.EliminationDag(leftover, plan, rows))
        return got + [{k: v.tobytes() for k, v in values.items()}]
    except (RankDeficient, ValueError) as e:
        return got + [documented_error(e)]


def reduce_first(graph, plan):
    """`Assembly.eliminate`'s fronts and leftover."""
    dag = fgraph.Assembly(plan, fgraph.scatter(plan, graph.flat), graph.flat).eliminate()
    return dag.fronts, dag.leftover


@hs.composite
def hazardous_graphs(draw):
    """A random structure (see `structures`) with random numbers and one
    planted hazard, each a way a front's fast reduction can fail its proof:
    proportional rows (a product row that reduces to rounding), a block at
    1e-14 (rows and pivots at the cut), a zero column in every block of a
    variable (a zero 1-dim pivot, a singular 6-dim block or rows short), a
    NaN, or a right-hand side of 1e13 (a cut above small live rows).
    Returns the graph and an ordering."""
    structure, groups = draw(structures())
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    factors = [({k: rng.standard_normal((rows, k.dim)) for k in keys},
                rng.standard_normal(rows), weight) for keys, rows, weight in structure.structure]
    blocks, rhs, _ = factors[draw(hs.integers(0, len(factors) - 1))]
    key = draw(hs.sampled_from(sorted(blocks)))
    hazard = draw(hs.sampled_from(["none", "proportional", "tiny", "zero", "nan", "rhs"]))
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


@settings(deadline=None, max_examples=300)
@given(hazardous_graphs())
def test_reduce_then_prove_is_the_per_front_loop_bit_for_bit(case):
    # whatever the proof finds, the fronts, leftover, values and the first
    # error, by type and message, are those of the per-front loop
    graph, ordering = case
    assert elimination_outcome(graph, ordering, reduce_first) == \
        elimination_outcome(graph, ordering, reference_eliminate)


def hazard_cases():
    """One hand-built graph per way the proof fails, with its ordering."""
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
    # x and y are one front and y's pivot is at the cut: a step at a time
    cut = FactorGraph([LinearFactor({x: [[1.0]], y: [[1e-14]]}, [1.0]),
                       LinearFactor({x: [[2.0]], y: [[3e-14]]}, [1002.0]),
                       LinearFactor({y: [[1e-10]]}, [1e-10])])
    # the row that x's front leaves on y has a coefficient of 1e-7 and a rhs
    # of 1e6, so the cut, 1e-6, kills it; the R row kept for x is all of
    # order 1
    big_rhs = FactorGraph([LinearFactor({x: [[1.0]], y: [[0.0]]}, [1.0]),
                           LinearFactor({x: [[0.0]], y: [[1e-7]]}, [1e6]),
                           LinearFactor({y: [[1.0]], u: [[1.0]]}, [2.0]),
                           LinearFactor({u: [[1.0]]}, [1.0])])
    short = FactorGraph([LinearFactor({x: [[1.0]], y: [[1.0]]}, [1.0])])
    zero = FactorGraph([LinearFactor({x: [[0.0]]}, [1.0])])
    singular = FactorGraph([LinearFactor({f: np.eye(6)}, np.ones(6)),
                            LinearFactor({g: np.diag([1.0, 2.0, 0.0, 1.0, 1.0, 1.0]),
                                          f: np.eye(6)}, np.ones(6))])
    nan = FactorGraph([LinearFactor({x: [[1.0]], y: [[np.nan]]}, [1.0]),
                       LinearFactor({y: [[1.0]]}, [1.0])])
    return {"dead-row": (dead, [w, x, y, z, u]), "pivot-at-cut": (cut, [x, y]),
            "rhs-sized-cut": (big_rhs, [x, y, u]),
            "row-shortage": (short, [x, y]), "zero-pivot": (zero, [x]),
            "singular-6-dim": (singular, [g, f]), "nan": (nan, [x, y])}


@pytest.mark.parametrize("name", sorted(hazard_cases()))
def test_each_proof_failure_is_redone_as_the_per_front_loop(name, monkeypatch):
    graph, ordering = hazard_cases()[name]
    redone = []
    redo = fgraph.Assembly._redo
    monkeypatch.setattr(fgraph.Assembly, "_redo",
                        lambda self, f, *a: (redone.append(f), redo(self, f, *a))[1])
    got = elimination_outcome(graph, ordering, reduce_first)
    assert redone, "the proof passed"
    assert got == elimination_outcome(graph, ordering, reference_eliminate)


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
    # c overflows (1e300 / 1e-10). A dense solve spreads NaN (0 x inf) to
    # every entry eliminated before c, d included; the error names the last
    # non-finite entry in elimination order, c, as the per-front loop does
    a, b, c, d = (VarKey(Kind.JOINT_ACCEL, i) for i in range(4))
    graph = FactorGraph([LinearFactor({a: [[1.0]], b: [[1.0]]}, [0.0]),
                         LinearFactor({b: [[1.0]], c: [[1e-10]]}, [0.0]),
                         LinearFactor({c: [[1e-10]]}, [1e300]),
                         LinearFactor({d: [[1.0]]}, [1.0])])
    dag = eliminate(graph, [d, a, b, c])
    for solve_dag in (back_substitute, reference_back_substitute):
        with pytest.raises(ValueError, match="^non-finite solution at variable qdd2$"):
            solve_dag(dag)


def test_zero_pivot_fails_the_triangular_solve_at_its_variable():
    # eliminate never leaves a zero pivot (its rank tests fail first), so a
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
    hand = fgraph.EliminationDag(dag.leftover, dag.plan, dag.rows.copy())
    at = dag.plan.slices[v].stop - 1
    f = next(f for f, front in enumerate(dag.plan.fronts) if front[5] <= at < front[5] + front[6])
    hand.fronts[f][at - dag.plan.fronts[f][5], at - dag.plan.fronts[f][5]] = 0.0
    with pytest.raises(RankDeficient, match=r"Vd1: triangular solve failed \(LAPACK info 7\)$"):
        back_substitute(hand)
    with pytest.raises(RankDeficient) as per_front:
        reference_back_substitute(hand)
    assert per_front.value.key == v


def singular_value_rank_test(r) -> bool:
    """The frontal rank test on the singular values alone."""
    sv = dgesdd(r, compute_uv=0)[1]
    return bool(sv[-1] > 1e-9 * sv[0])


@hs.composite
def triangular_blocks(draw):
    """An upper triangular 6x6 R with condition number 10**c, c in [0, 13],
    at a scale from 1e-120 to 1e120; sometimes with a zero, NaN or infinite
    diagonal entry."""
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    u, v = (np.linalg.qr(rng.standard_normal((6, 6)))[0] for _ in range(2))
    sv = np.logspace(0.0, -draw(hs.floats(0.0, 13.0)), 6) * 10.0 ** draw(hs.floats(-120, 120))
    r = np.linalg.qr((u * sv) @ v.T, mode="r")
    special = draw(hs.sampled_from([None, None, 0.0, np.nan, np.inf, -np.inf]))
    if special is not None:
        i = draw(hs.integers(0, 5))
        r[i, i] = special
    return r


@settings(deadline=None, max_examples=300)
@given(hs.lists(triangular_blocks(), min_size=1, max_size=5))
def test_batched_rank_test_decides_as_singular_values_do(blocks):
    # the Frobenius bound passes a block only where sigma_min / sigma_max
    # > 1e-8, and every other block is tested on its singular values, so
    # the batched decision is the per-block dgesdd decision
    want = [singular_value_rank_test(r) for r in blocks]
    assert fgraph._full_rank(np.array(blocks)).tolist() == want


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
