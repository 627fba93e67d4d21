"""Block-sparse linear factor graph with variable elimination.

Variables are keyed by (kind, index) with a block dimension fixed by the
kind. Factors are weighted linear constraints over a few variables.
Eliminating the variables one at a time against a chosen ordering turns the
graph into a DAG of conditionals (a solved triangular form); the amount of
fill-in created depends only on the ordering, which is the whole point:
classical recursive dynamics algorithms fall out as particular orderings.

Weights scale factor rows, and elimination is plain weighted least squares
over all rows at once: a soft prior (weight below 1) that conflicts with the
hard rows (weight 1) pulls them off exact satisfaction instead of acting
only on the null space they leave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular

from .errors import IncompatibleScheme, RankDeficient


class Kind(IntEnum):
    # the values fix the (kind, index) sort order of variables, which is
    # every ordering's tie-break; they are not renumbered when kinds go
    ACCEL = 1
    WRENCH = 2
    JOINT_ACCEL = 4
    TORQUE = 5


KIND_DIM = {Kind.ACCEL: 6, Kind.WRENCH: 6, Kind.JOINT_ACCEL: 1, Kind.TORQUE: 1}

KIND_TAG = {Kind.ACCEL: "Vd", Kind.WRENCH: "F", Kind.JOINT_ACCEL: "qdd",
            Kind.TORQUE: "tau"}

_TAG_KIND = {tag: kind for kind, tag in KIND_TAG.items()}


class VarKey(NamedTuple):
    """(kind, index) handle for one block variable, e.g. F3 or qdd1."""

    kind: Kind
    index: int

    @property
    def dim(self) -> int:
        return KIND_DIM[self.kind]

    def __str__(self) -> str:
        return f"{KIND_TAG[self.kind]}{self.index}"

    def __repr__(self) -> str:
        return f"VarKey({self})"

    @classmethod
    def parse(cls, text: str) -> "VarKey":
        for tag in sorted(_TAG_KIND, key=len, reverse=True):
            if text.startswith(tag) and text[len(tag):].isdigit():
                return cls(_TAG_KIND[tag], int(text[len(tag):]))
        raise ValueError(f"cannot parse variable key {text!r}")


@dataclass(frozen=True, eq=False)
class LinearFactor:
    """One weighted linear constraint: sum_k blocks[k] @ x_k = rhs.

    Weight 1 marks a hard constraint and smaller weights soft priors; both
    are rows of one least-squares problem, scaled by their weight.
    `knowns` lists labels of quantities folded into the rhs, kept so graph
    drawings can still show them.
    """

    blocks: dict
    rhs: np.ndarray
    weight: float = 1.0
    name: str = ""
    knowns: tuple = ()

    def __post_init__(self):
        if not self.blocks:
            raise ValueError(f"factor {self.name!r} has no variable blocks")
        rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        rows = rhs.shape[0]
        blocks = {}
        for key, a in self.blocks.items():
            a = np.asarray(a, dtype=float)
            if a.shape != (rows, key.dim):
                raise ValueError(
                    f"factor {self.name!r}: block for {key} has shape {a.shape}, "
                    f"expected {(rows, key.dim)}")
            blocks[key] = a
        if not self.weight >= 0.0:
            raise ValueError(f"factor {self.name!r}: weight must be >= 0")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "rhs", rhs)

    @property
    def rows(self) -> int:
        return self.rhs.shape[0]

    def keys(self):
        return tuple(self.blocks.keys())

    def residual(self, values: dict) -> np.ndarray:
        r = -self.rhs.copy()
        for key, a in self.blocks.items():
            r += a @ values[key]
        return r


class FactorGraph:
    """Immutable collection of factors over a variable set."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.variables = tuple(sorted({k for f in self.factors for k in f.blocks}))
        adj = {v: set() for v in self.variables}
        for f in self.factors:
            ks = f.keys()
            for a in ks:
                for b in ks:
                    if a != b:
                        adj[a].add(b)
        self.adjacency = {v: frozenset(s) for v, s in adj.items()}

    def __len__(self) -> int:
        return len(self.factors)

    def total_rows(self) -> int:
        return sum(f.rows for f in self.factors)

    def residual_max(self, values: dict) -> float:
        """Largest absolute residual over the weight-1 factors."""
        worst = 0.0
        for f in self.factors:
            if f.weight != 1.0:
                continue
            r = f.residual(values)
            if r.size:
                worst = max(worst, float(np.max(np.abs(r))))
        return worst


@dataclass(frozen=True, eq=False)
class Conditional:
    """Solved form of one variable: diag @ x = rhs - sum parent_blocks @ x_p.

    `diag` is upper triangular and invertible; parents are ordered by their
    position in the elimination ordering (all eliminated later).
    """

    frontal: VarKey
    parents: tuple
    diag: np.ndarray
    parent_blocks: dict
    rhs: np.ndarray


@dataclass(frozen=True, eq=False)
class EliminationDag:
    """Result of eliminating every variable of a graph in a given order."""

    conditionals: tuple
    ordering: tuple
    edge_count: int
    fill_in: int
    leftover: np.ndarray
    graph: FactorGraph = field(repr=False)

    def edges(self):
        """Directed (frontal, parent) dependency pairs."""
        return [(c.frontal, p) for c in self.conditionals for p in c.parents]


def eliminate(graph: FactorGraph, ordering) -> EliminationDag:
    """Eliminate every variable in the given order, producing a DAG.

    Per frontal variable, the rows of every factor touching it are stacked
    and orthogonally reduced; the leading block rows become the variable's
    conditional and the remainder becomes a new factor over the parents.
    Raises RankDeficient if a frontal block does not determine its variable.
    """
    ordering = tuple(ordering)
    if sorted(ordering) != sorted(graph.variables):
        raise ValueError("ordering is not a permutation of the graph's variables")
    position = {v: i for i, v in enumerate(ordering)}

    # mutable working copies, rows pre-scaled by weight
    work = {}
    var_to_fids = {v: set() for v in ordering}
    for fid, f in enumerate(graph.factors):
        work[fid] = ({k: f.weight * a for k, a in f.blocks.items()},
                     f.weight * f.rhs)
        for k in f.blocks:
            var_to_fids[k].add(fid)
    next_fid = len(graph.factors)

    conditionals = []
    fill_in = 0
    leftover = []

    for v in ordering:
        dv = v.dim
        fids = sorted(var_to_fids[v])
        if not fids:
            raise RankDeficient(v, "no factor constrains this variable")
        parents = sorted({k for fid in fids for k in work[fid][0] if k != v},
                         key=lambda k: position[k])
        m = sum(work[fid][1].shape[0] for fid in fids)
        if m < dv:
            raise RankDeficient(v, f"{m} constraint rows for {dv} dimensions")

        cols = dv + sum(p.dim for p in parents) + 1
        stacked = np.zeros((m, cols))
        offs = {}
        c = dv
        for p in parents:
            offs[p] = c
            c += p.dim
        r = 0
        for fid in fids:
            blocks, rhs = work[fid]
            n = rhs.shape[0]
            for k, a in blocks.items():
                c0 = 0 if k == v else offs[k]
                stacked[r:r + n, c0:c0 + (dv if k == v else k.dim)] = a
            stacked[r:r + n, -1] = rhs
            r += n

        rmat = np.linalg.qr(stacked, mode="r")
        diag = rmat[:dv, :dv]
        sv = np.linalg.svd(diag, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= 1e-9 * sv[0]:
            raise RankDeficient(v, f"frontal block rank below {dv}")
        conditionals.append(Conditional(
            frontal=v,
            parents=tuple(parents),
            diag=diag,
            parent_blocks={p: rmat[:dv, offs[p]:offs[p] + p.dim] for p in parents},
            rhs=rmat[:dv, -1].copy(),
        ))
        fill_in += sum(1 for p in parents if p not in graph.adjacency[v])

        for fid in fids:
            for k in work[fid][0]:
                if k != v:
                    var_to_fids[k].discard(fid)
            del work[fid]

        rest = rmat[dv:]
        if rest.shape[0]:
            coef = rest[:, dv:-1]
            scale = max(1.0, float(np.max(np.abs(rmat))))
            if coef.size:
                live = np.max(np.abs(coef), axis=1) > 1e-12 * scale
            else:
                live = np.zeros(rest.shape[0], dtype=bool)
            leftover.extend(rest[~live, -1])
            if parents and np.any(live):
                kept = rest[live]
                work[next_fid] = (
                    {p: kept[:, offs[p]:offs[p] + p.dim] for p in parents},
                    kept[:, -1].copy(),
                )
                for p in parents:
                    var_to_fids[p].add(next_fid)
                next_fid += 1

    return EliminationDag(
        conditionals=tuple(conditionals),
        ordering=ordering,
        edge_count=sum(len(c.parents) for c in conditionals),
        fill_in=fill_in,
        leftover=np.array(leftover, dtype=float),
        graph=graph,
    )


def back_substitute(dag: EliminationDag) -> dict:
    """Solve for every variable by walking the DAG in reverse order."""
    values: dict = {}
    for cond in reversed(dag.conditionals):
        rhs = cond.rhs.copy()
        for p, a in cond.parent_blocks.items():
            rhs -= a @ values[p]
        values[cond.frontal] = solve_triangular(cond.diag, rhs)
    return values


def solve(graph: FactorGraph, ordering) -> dict:
    return back_substitute(eliminate(graph, ordering))


def min_degree_ordering(graph: FactorGraph, groups=None) -> list:
    """Greedy minimum-degree ordering on a symbolic elimination simulation.

    Degree counts distinct neighbors in the current factor adjacency; after
    each pick the touched factors are merged into one product factor whose
    row budget is capped by what an orthogonal reduction can leave behind,
    so merged factors that reduce to nothing drop their connections (this
    happens whenever a variable is fully determined by its factors).
    Ties break on the lowest (kind, index).

    `groups` (default: all variables in one) is an ordered list of disjoint
    variable sets covering the graph. Every variable of a group is
    eliminated before any of the next; the greedy pick runs inside the
    current group, on a simulation that carries over from earlier groups.
    """
    if groups is None:
        groups = [graph.variables]
    factors = {}
    var_to_fids = {v: set() for v in graph.variables}
    for fid, f in enumerate(graph.factors):
        factors[fid] = (frozenset(f.blocks), f.rows)
        for k in f.blocks:
            var_to_fids[k].add(fid)
    next_fid = len(factors)
    order = []

    def degree(v):
        return len({k for fid in var_to_fids[v] for k in factors[fid][0]} - {v})

    deg = {v: degree(v) for v in graph.variables}
    for group in groups:
        pool = set(group)
        while pool:
            v = min(pool, key=lambda x: (deg[x], x))
            order.append(v)
            pool.discard(v)

            fids = list(var_to_fids[v])
            parents = frozenset(k for fid in fids for k in factors[fid][0]) - {v}
            rows = sum(factors[fid][1] for fid in fids)
            for fid in fids:
                for k in factors[fid][0]:
                    var_to_fids[k].discard(fid)
                del factors[fid]
            new_rows = min(rows - v.dim, sum(p.dim for p in parents))
            if parents and new_rows > 0:
                factors[next_fid] = (parents, new_rows)
                for p in parents:
                    var_to_fids[p].add(next_fid)
                next_fid += 1
            # a pick changes only its parents' factor sets, so only their degrees move
            for p in parents:
                deg[p] = degree(p)
    return order


def _components(adj, sub):
    sub = set(sub)
    comps = []
    while sub:
        seed = min(sub)
        comp = {seed}
        frontier = [seed]
        while frontier:
            at = frontier.pop()
            for n in adj[at] & sub:
                if n not in comp:
                    comp.add(n)
                    frontier.append(n)
        comps.append(comp)
        sub -= comp
    return sorted(comps, key=min)


def _bfs_levels(adj, sub, start):
    levels = [[start]]
    seen = {start}
    while True:
        nxt = sorted({n for at in levels[-1] for n in adj[at] & sub} - seen)
        if not nxt:
            return levels
        seen.update(nxt)
        levels.append(nxt)


def nested_dissection_ordering(graph: FactorGraph) -> list:
    """Recursive bisection ordering: both halves first, separator last.

    The separator is a breadth-first level from a pseudo-peripheral start
    vertex, chosen to balance the halves and thinned to the vertices that
    actually touch the far half; level vertices with no far-side neighbor
    drop into the near half. Bisection stops at three or fewer variables;
    the leaf subsets and separators become the `groups` of
    `min_degree_ordering`, which orders the variables inside each group.
    """
    adj = graph.adjacency

    def dissect(sub) -> list:
        if len(sub) <= 3:
            return [sub]
        comps = _components(adj, sub)
        if len(comps) > 1:
            return [group for comp in comps for group in dissect(comp)]
        # double-BFS pseudo-peripheral start: go far, then level-partition;
        # a connected subset of four or more variables has at least two levels
        start = min(sub)
        levels = _bfs_levels(adj, sub, start)
        start = min(levels[-1])
        levels = _bfs_levels(adj, sub, start)
        best = None
        for t in range(1, len(levels)):
            after = {v for l in levels[t + 1:] for v in l}
            level = set(levels[t])
            sep = {v for v in level if adj[v] & after} or level
            before = {v for l in levels[:t] for v in l} | (level - sep)
            cand = (abs(len(before) - len(after)), len(sep), t)
            if best is None or cand < best[0]:
                best = (cand, sep, before, after)
        _, separator, before, after = best
        return dissect(before) + dissect(after) + [separator]

    return min_degree_ordering(graph, dissect(set(graph.variables)))


def classic_ordering(graph: FactorGraph, scheme) -> list:
    """Orderings mirroring the classical recursive algorithms.

    rnea: torques last-to-first, then wrenches first-to-last, then link
    accelerations last-to-first (inverse dynamics).
    crba: all wrenches, then all link accelerations, then joint
    accelerations (forward dynamics, mass-matrix shaped).
    aba: per link last-to-first, wrench then link acceleration then joint
    acceleration (forward dynamics, propagation shaped).
    A list of VarKeys is passed through as a custom ordering.

    Raises IncompatibleScheme when the schedule does not cover the graph's
    variables exactly (e.g. rnea on a forward-dynamics graph).
    """
    if not isinstance(scheme, str):
        return list(scheme)
    by_kind = {}
    for v in graph.variables:
        by_kind.setdefault(v.kind, []).append(v)
    for ks in by_kind.values():
        ks.sort(key=lambda v: v.index)
    tau = by_kind.get(Kind.TORQUE, [])
    wr = by_kind.get(Kind.WRENCH, [])
    acc = by_kind.get(Kind.ACCEL, [])
    qdd = by_kind.get(Kind.JOINT_ACCEL, [])

    name = scheme.lower()
    if name == "rnea":
        ordering = tau[::-1] + wr + acc[::-1]
    elif name == "crba":
        ordering = wr + acc[::-1] + qdd[::-1]
    elif name == "aba":
        ordering = []
        accel_of = {v.index: v for v in acc}
        qdd_of = {v.index: v for v in qdd}
        for w in wr[::-1]:
            ordering.append(w)
            if w.index in accel_of:
                ordering.append(accel_of[w.index])
            if w.index in qdd_of:
                ordering.append(qdd_of[w.index])
        ordering += [v for v in acc[::-1] if v not in ordering]
        ordering += [v for v in qdd[::-1] if v not in ordering]
    else:
        raise IncompatibleScheme(f"unknown ordering scheme {scheme!r}")
    if sorted(ordering) != sorted(graph.variables):
        raise IncompatibleScheme(
            f"scheme {scheme!r} does not cover this problem's unknowns")
    return ordering


def export_dot(obj) -> str:
    """Render a FactorGraph or an EliminationDag as Graphviz DOT text.

    Graphs are undirected: variables as circles, factors as filled dots,
    folded-in known quantities as boxes. DAGs are digraphs with an edge
    from each variable to each of its parents.
    """
    lines = []
    if isinstance(obj, FactorGraph):
        lines.append("graph factors {")
        lines.append("  node [fontsize=10];")
        for v in obj.variables:
            lines.append(f'  "{v}" [shape=circle];')
        knowns = []
        for i, f in enumerate(obj.factors):
            label = f' // {f.name}' if f.name else ""
            lines.append(f'  "f{i}" [shape=point];{label}')
            for v in f.blocks:
                lines.append(f'  "f{i}" -- "{v}";')
            for k in f.knowns:
                if k not in knowns:
                    knowns.append(k)
                    lines.append(f'  "{k}" [shape=box];')
                lines.append(f'  "f{i}" -- "{k}";')
        lines.append("}")
    elif isinstance(obj, EliminationDag):
        lines.append("digraph elimination {")
        lines.append("  node [fontsize=10, shape=circle];")
        for c in obj.conditionals:
            lines.append(f'  "{c.frontal}";')
            for p in c.parents:
                lines.append(f'  "{c.frontal}" -> "{p}";')
        lines.append("}")
    else:
        raise TypeError(f"cannot export {type(obj).__name__} as DOT")
    return "\n".join(lines) + "\n"
