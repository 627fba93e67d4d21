"""Factor graph elimination: conditionals, orderings, fill-in, DOT export."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs

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
from dyngraph.transcribe import JointState, ProblemSpec, build_graph, resolve_ordering

from conftest import random_state

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
            for a, b in zip(fixed.steps, greedy.steps):
                assert a._replace(scatter=(), gather=()) == b._replace(scatter=(), gather=())
                assert all(np.array_equal(x, y) for x, y in zip(a.scatter, b.scatter))
                assert np.array_equal(a.gather, b.gather)

    def test_one_by_one_rank_check(self):
        q = VarKey(Kind.JOINT_ACCEL, 1)
        for entry in (0.0, np.nan):
            with pytest.raises(RankDeficient, match="qdd1: frontal block rank below 1"):
                eliminate(FactorGraph([LinearFactor({q: [[entry]]}, [1.0])]), [q])
        sol = solve(FactorGraph([LinearFactor({q: [[1e-300]]}, [3e-300])]), [q])
        np.testing.assert_allclose(sol[q], [3.0])

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
