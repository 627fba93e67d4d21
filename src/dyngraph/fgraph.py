"""Block-sparse linear factor graph with variable elimination.

Variables are keyed by (kind, index) with a block dimension fixed by the
kind. Every factor is one keyed `[A | b]` row block: a weighted linear
constraint over a few variables, or the product factor an elimination
step leaves over its parents. Eliminating the variables one at a time
against a chosen ordering turns the graph into a DAG of conditionals (a
solved triangular form); the amount of fill-in created depends only on the
ordering, which is the whole point: classical recursive dynamics
algorithms fall out as particular orderings.

Elimination runs in two phases. The symbolic one (`plan_elimination`)
reads only the graph's `structure` (each factor's keys, row count and
weight) plus the ordering, and fixes every step's input factors, parents
and the stack column of each of their columns, the flat solution vector
with a slice per variable, and the assembly map: where each graph factor
entry goes in one flat buffer that holds every step's stack. `plan_for` is
the one way from an ordering request to a plan, memoised by the structure,
so graphs that differ only in their numbers share it. The numeric phase
is one `Assembly` per solve: the factors' blocks and right-hand sides,
from a `FactorGraph` or listed by `transcribe` without building one, are
scattered into a fresh buffer; each step reduces its stack, keeps its raw
R row block `[R_ff | R_fp | d]` as its conditional and copies its product
rows into the stack that consumes them. `back_substitute` fills the flat
vector from the last step to the first.

Weights scale factor rows, and elimination is plain weighted least squares
over all rows at once: a soft prior (weight below 1) that conflicts with the
hard rows (weight 1) pulls them off exact satisfaction instead of acting
only on the null space they leave.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from enum import IntEnum
from functools import cached_property, lru_cache
from threading import Lock
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgesdd, dtrtrs

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


def _split(block: np.ndarray, keys, start: int = 0) -> dict:
    """Per-key column views of a keyed row block whose columns hold `keys`
    in order from column `start`."""
    views = {}
    c = start
    for k in keys:
        views[k] = block[:, c:c + k.dim]
        c += k.dim
    return views


class LinearFactor:
    """One weighted linear constraint: sum_k blocks[k] @ x_k = rhs.

    It is held as one read-only row block `ab = [A_1 | ... | A_k | b]`
    over `keys()`, copied from its inputs; `blocks` and `rhs` are views.
    Weight 1 marks a hard constraint and smaller weights soft priors; both
    are rows of one least-squares problem, scaled by their weight.
    `knowns` lists labels of quantities folded into the rhs, kept so graph
    drawings can still show them.
    """

    def __init__(self, blocks, rhs, weight=1.0, name: str = "", knowns: tuple = ()):
        if not blocks:
            raise ValueError(f"factor {name!r} has no variable blocks")
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        rows = rhs.shape[0]
        columns = []
        for key, a in blocks.items():
            a = np.asarray(a, dtype=float)
            if a.shape != (rows, key.dim):
                raise ValueError(
                    f"factor {name!r}: block for {key} has shape {a.shape}, "
                    f"expected {(rows, key.dim)}")
            columns.append(a)
        if not weight >= 0.0:
            raise ValueError(f"factor {name!r}: weight must be >= 0")
        columns.append(rhs[:, None])
        self.ab = np.concatenate(columns, axis=1)
        self.ab.setflags(write=False)
        self.weight = weight
        self.name = name
        self.knowns = knowns
        self._keys = tuple(blocks)

    @property
    def blocks(self) -> dict:
        return _split(self.ab, self._keys)

    @property
    def rhs(self) -> np.ndarray:
        return self.ab[:, -1]

    @property
    def rows(self) -> int:
        return self.ab.shape[0]

    def keys(self) -> tuple:
        return self._keys

    def residual(self, values: dict) -> np.ndarray:
        x = np.concatenate([values[k] for k in self._keys])
        return self.ab[:, :-1] @ x - self.ab[:, -1]


class FactorGraph:
    """Immutable collection of factors over a variable set.

    `structure` is the factor sequence reduced to each factor's keys, row
    count and weight: the only input an elimination plan depends on besides
    the ordering. `variables`, `adjacency` and `structure` are computed on
    first use, the first two from `structure` alone, as are `len` and
    `total_rows`.
    """

    def __init__(self, factors):
        self.factors = tuple(factors)

    @cached_property
    def structure(self) -> tuple:
        return tuple((f.keys(), f.rows, f.weight) for f in self.factors)

    @cached_property
    def variables(self) -> tuple:
        return tuple(sorted({k for keys, _, _ in self.structure for k in keys}))

    @cached_property
    def adjacency(self) -> dict:
        adj = {v: set() for v in self.variables}
        for ks, _, _ in self.structure:
            for a in ks:
                for b in ks:
                    if a != b:
                        adj[a].add(b)
        return {v: frozenset(s) for v, s in adj.items()}

    def __len__(self) -> int:
        return len(self.structure)

    def total_rows(self) -> int:
        return sum(rows for _, rows, _ in self.structure)

    def residual_max(self, values: dict) -> float:
        """Largest absolute residual over the weight-1 factors."""
        hard = [f.residual(values) for f in self.factors if f.weight == 1.0]
        r = np.concatenate(hard) if hard else np.empty(0)
        return float(np.abs(r).max()) if r.size else 0.0


class Conditional(NamedTuple):
    """Solved form of one variable: diag @ x = rhs - sum parent_blocks @ x_p.

    `block` is the step's `dim x width` R row block `[diag | parents | rhs]`
    and `diag`, `parent_blocks` and `rhs` are views into it. `diag` is upper
    triangular and invertible; parents are ordered by their position in the
    elimination ordering (all eliminated later), which is also their column
    order in `block`.
    """

    frontal: VarKey
    parents: tuple
    block: np.ndarray

    @property
    def diag(self) -> np.ndarray:
        return self.block[:, :self.frontal.dim]

    @property
    def rhs(self) -> np.ndarray:
        return self.block[:, -1]

    @property
    def parent_blocks(self) -> dict:
        return _split(self.block, self.parents, self.frontal.dim)


class EliminationDag(NamedTuple):
    """Result of eliminating every variable of a graph under one plan:
    one conditional per step of `plan`, and the right-hand sides of the
    rows that elimination left with no coefficient (`leftover`)."""

    conditionals: tuple
    leftover: np.ndarray
    plan: EliminationPlan

    @property
    def ordering(self) -> tuple:
        return self.plan.ordering

    @property
    def edge_count(self) -> int:
        return self.plan.edge_count

    @property
    def fill_in(self) -> int:
        return self.plan.fill_in

    def edges(self):
        """Directed (frontal, parent) dependency pairs."""
        return [(c.frontal, p) for c in self.conditionals for p in c.parents]


class PlanStep(NamedTuple):
    """One elimination step, fixed by the graph's structure and the ordering.

    Factor ids number the graph's factors from 0, then the product factors
    in the order the steps leave them. The stack for `var` holds the rows
    of the factors `inputs` (ascending, so graph factors before products)
    in columns `var`, `parents` (by elimination position) and the rhs last,
    `width` in all; `scatter[i]` lists the stack column of each column of
    input `i`'s `[A | b]` row block. The stack starts at `offset` in the
    assembly buffer, its first `rows` rows are the graph factors' and the
    product rows follow as elimination makes them. `product` is the id of
    the factor it leaves over the parents, -1 when the planner's row budget
    leaves none (see `plan_elimination`), and `sink` is the (step, input)
    that consumes it, () when there is none. `gather` indexes the parents'
    entries of the flat solution vector in the stack's column order.
    """

    var: VarKey
    inputs: tuple
    scatter: tuple
    parents: tuple
    width: int
    product: int
    gather: np.ndarray
    offset: int
    rows: int
    sink: tuple


class EliminationPlan(NamedTuple):
    """Symbolic elimination: the ordering and every step's bookkeeping.

    It depends only on each factor's keys, row count and weight (the
    graph's `structure`) and on the ordering, so one plan serves every
    graph of the same structure, whatever its numbers. `slices` maps each
    variable to its entries of the flat solution vector of length `size`,
    laid out in elimination order.

    The assembly map lays every step's stack out in one flat buffer of
    `buffer_size` floats. `dest` is the buffer position of each entry of
    the graph factors' parts (see `Assembly`), `scale` the (positions,
    weights) of soft rows' entries, and `check` the (positions, solution
    entries, hard row numbers, rhs positions) of the weight-1 rows'
    coefficients and right-hand sides, for the residual check.
    """

    ordering: tuple
    steps: tuple
    edge_count: int
    fill_in: int
    size: int
    slices: dict
    buffer_size: int
    dest: np.ndarray
    scale: tuple
    check: tuple


def plan_elimination(graph: FactorGraph, groups=None) -> EliminationPlan:
    """Simulate elimination on the factors' key sets and row counts.

    `groups` (default: all variables in one) is an ordered list of disjoint
    variable sets covering the graph (ValueError otherwise). Every variable
    of a group is eliminated before any of the next; inside a group the
    pick is greedy minimum degree, ties broken on the lowest (kind, index),
    so a sequence of one-variable groups is a fixed ordering. Degree counts
    distinct neighbors in the current factor adjacency. After each pick the
    touched factors merge into one product factor whose row budget is
    capped by what an orthogonal reduction can leave behind, so merged
    factors that reduce to nothing drop their connections (this happens
    whenever a variable is fully determined by its factors). The budget is
    also the product's room in its consumer's stack: a reduction never
    leaves more live rows than that.
    """
    if groups is None:
        groups = [graph.variables]
    elif sorted(v for g in groups for v in g) != list(graph.variables):
        raise ValueError("ordering is not a permutation of the graph's variables")
    structure = graph.structure
    factors = {}
    var_to_fids = {v: set() for v in graph.variables}
    for fid, (keys, rows, _) in enumerate(structure):
        factors[fid] = (frozenset(keys), rows)
        for k in keys:
            var_to_fids[k].add(fid)
    n_graph = next_fid = len(structure)
    picked = []

    def degree(v):
        return len({k for fid in var_to_fids[v] for k in factors[fid][0]} - {v})

    # before any pick, a variable's degree is its number of graph neighbors;
    # one dropped from `deg` has moved since and is recounted with its group
    deg = {v: len(n) for v, n in graph.adjacency.items()}
    for group in groups:
        pool = set(group)
        deg.update((x, degree(x)) for x in pool - deg.keys())
        # the least (degree, key) of the pool; an entry is stale once its
        # variable is picked or its degree has moved, and is then skipped
        heap = [(deg[x], x) for x in pool]
        heapq.heapify(heap)
        while pool:
            d, v = heapq.heappop(heap)
            if v not in pool or d != deg[v]:
                continue
            pool.discard(v)

            fids = sorted(var_to_fids[v])
            parents = frozenset(k for fid in fids for k in factors[fid][0]) - {v}
            rows = sum(factors[fid][1] for fid in fids)
            for fid in fids:
                for k in factors[fid][0]:
                    var_to_fids[k].discard(fid)
                del factors[fid]
            # the most rows an orthogonal reduction leaves on the parents
            budget = min(rows - v.dim, sum(p.dim for p in parents))
            product = -1
            if parents and budget > 0:
                product = next_fid
                factors[product] = (parents, budget)
                for p in parents:
                    var_to_fids[p].add(product)
                next_fid += 1
            picked.append((v, fids, parents, product, budget))
            # a pick changes only its parents' factor sets, so only their degrees move
            for p in parents:
                if p not in pool:
                    deg.pop(p, None)
                    continue
                d = degree(p)
                if d != deg[p]:
                    deg[p] = d
                    heapq.heappush(heap, (d, p))

    # parents are ordered by elimination position, known once every pick is
    order = tuple(v for v, *_ in picked)
    position = {v: i for i, v in enumerate(order)}
    slices = {}
    size = 0
    for v in order:
        slices[v] = slice(size, size + v.dim)
        size += v.dim
    entries = np.arange(size)
    # the keys and row count of every factor id: the graph's, then each product's
    keys_of = [keys for keys, _, _ in structure]
    rows_of = [rows for _, rows, _ in structure]
    sink_of = {fid: (i, at) for i, (_, fids, *_) in enumerate(picked)
               for at, fid in enumerate(fids) if fid >= n_graph}
    # per graph factor id: the flat position of its first stack row, the
    # stack width and its columns there
    place = [None] * n_graph
    steps = []
    edge_count = fill_in = offset = 0
    for v, fids, parent_set, product, budget in picked:
        parents = tuple(sorted(parent_set, key=position.__getitem__))
        offsets = {v: 0}
        c = v.dim
        for p in parents:
            offsets[p] = c
            c += p.dim
        width = c + 1
        scatter = tuple(
            np.array([col for k in keys_of[fid]
                      for col in range(offsets[k], offsets[k] + k.dim)] + [c])
            for fid in fids)
        row = 0
        for fid, cols in zip(fids, scatter):
            if fid < n_graph:
                place[fid] = (offset + row * width, width, cols)
                row += rows_of[fid]
        if product >= 0:
            keys_of.append(parents)
            rows_of.append(budget)
        gather = np.concatenate([entries[slices[p]] for p in parents]) if parents else entries[:0]
        steps.append(PlanStep(v, tuple(fids), scatter, parents, width, product, gather,
                              offset, row, sink_of.get(product, ())))
        offset += sum(rows_of[fid] for fid in fids) * width
        edge_count += len(parents)
        fill_in += sum(1 for p in parents if p not in graph.adjacency[v])

    # the assembly map, one group per key block and per rhs of each graph
    # factor: `height` rows of `dim` entries from buffer position `start`,
    # rows `stride` apart, over solution entries from `first` (-1: the rhs);
    # weight-1 rows are numbered from 0 in factor order, from `hard_row`
    start, height, dim, stride, first, weight, hard_row = [], [], [], [], [], [], []
    hard = 0
    for (keys, rows, w), (base, wd, cols) in zip(structure, place):
        c = 0
        for k in keys:
            start.append(base + cols[c])
            dim.append(k.dim)
            first.append(slices[k].start)
            c += k.dim
        start.append(base + wd - 1)
        dim.append(1)
        first.append(-1)
        n = len(keys) + 1
        height += [rows] * n
        stride += [wd] * n
        weight += [w] * n
        hard_row += [hard] * n
        if w == 1.0:
            hard += rows
    start, height, dim, stride, first, hard_row = (
        np.array(a, dtype=np.intp) for a in (start, height, dim, stride, first, hard_row))
    weight = np.array(weight, dtype=float)
    sizes = height * dim
    local = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    row_e, col_e = np.divmod(local, np.repeat(dim, sizes))
    dest = np.repeat(start, sizes) + row_e * np.repeat(stride, sizes) + col_e
    soft = np.repeat(weight != 1.0, sizes)
    is_rhs = np.repeat(first < 0, sizes)
    coef = ~soft & ~is_rhs
    check = (dest[coef], (np.repeat(first, sizes) + col_e)[coef],
             (np.repeat(hard_row, sizes) + row_e)[coef], dest[~soft & is_rhs])
    return EliminationPlan(order, tuple(steps), edge_count, fill_in, size, slices, offset,
                           dest, (dest[soft], np.repeat(weight, sizes)[soft]), check)


def _parse_item(item, i: int) -> VarKey:
    if not isinstance(item, str):
        raise ValueError(f"ordering[{i}] must be a VarKey or its text, got {item!r}")
    return VarKey.parse(item)


_PLAN_MEMO_SIZE = 64
_plans: OrderedDict = OrderedDict()
_plans_lock = Lock()


def plan_for(graph: FactorGraph, ordering, deferred=()) -> EliminationPlan:
    """The plan for an ordering request: a scheme name in any case, or a
    sequence of VarKeys or their text (e.g. "qdd1"). "md" is minimum
    degree over every variable but `deferred`, then over `deferred`; "nd"
    is minimum degree inside `nested_dissection_groups`; any other name or
    a key sequence is the fixed ordering of `classic_ordering`. Anything
    else raises ValueError naming the request or its first bad item. The
    plan is memoised under (graph.structure, request, deferred) and under its
    own key sequence, so eliminating with the ordering it resolved to
    reuses it; the memo keeps the most recently used _PLAN_MEMO_SIZE
    entries.
    """
    if isinstance(ordering, str):
        request = ordering.lower()
    else:
        try:
            items = enumerate(ordering)
        except TypeError:
            raise ValueError(f"ordering must be a scheme name or a sequence of "
                             f"variable keys, got {ordering!r}") from None
        request = tuple(k if isinstance(k, VarKey) else _parse_item(k, i) for i, k in items)
    deferred = tuple(deferred)
    key = (graph.structure, request, deferred)
    with _plans_lock:
        plan = _plans.get(key)
        if plan is not None:
            _plans.move_to_end(key)
            return plan
    if request == "md":
        groups = [set(graph.variables) - set(deferred), deferred]
    elif request == "nd":
        groups = nested_dissection_groups(graph)
    else:
        groups = [(v,) for v in classic_ordering(graph, request)]
    plan = plan_elimination(graph, groups)
    with _plans_lock:
        for k in (key, (graph.structure, plan.ordering, ())):
            _plans[k] = plan
            _plans.move_to_end(k)
        while len(_plans) > _PLAN_MEMO_SIZE:
            _plans.popitem(last=False)
    return plan


class Assembly:
    """The numbers of one solve in the buffer its plan lays out.

    `parts` are the graph factors' blocks and right-hand sides in the order
    of `EliminationPlan.dest`: for each factor in id order, its key blocks
    in key order, then its rhs. They are scattered into a fresh zeroed
    buffer in one step and soft rows are scaled by their weight; the plan
    is only read, so any number of assemblies may share it across threads.
    """

    __slots__ = ("plan", "data")

    def __init__(self, plan: EliminationPlan, parts):
        self.plan = plan
        self.data = np.zeros(plan.buffer_size)
        self.data[plan.dest] = np.concatenate(parts, axis=None) if parts else ()
        pos, weight = plan.scale
        if pos.size:
            self.data[pos] *= weight

    def eliminate(self) -> EliminationDag:
        """Reduce every step's stack in plan order (see `eliminate`)."""
        data = self.data
        steps = self.plan.steps
        filled = [st.rows for st in steps]
        conditionals = []
        leftover = []
        for i, st in enumerate(steps):
            v = st.var
            dv = v.dim
            m = filled[i]
            if m == 0:
                raise RankDeficient(v, "no factor constrains this variable")
            if m < dv:
                raise RankDeficient(v, f"{m} constraint rows for {dv} dimensions")

            rmat = _r_factor(data[st.offset:st.offset + m * st.width].reshape(m, st.width))
            # a 1x1 block's one singular value is its entry's magnitude; the
            # test is written so that a NaN fails it
            sv = (abs(rmat[0, 0]),) if dv == 1 else dgesdd(rmat[:dv, :dv], compute_uv=0)[1]
            if not sv[-1] > 1e-9 * sv[0]:
                raise RankDeficient(v, f"frontal block rank below {dv}")
            conditionals.append(Conditional(v, st.parents, rmat[:dv]))

            rest = rmat[dv:]
            if rest.shape[0] and st.parents:
                mag = np.abs(rmat)
                scale = max(1.0, float(mag.max()))
                live = mag[dv:, dv:-1].max(axis=1) > 1e-12 * scale
            else:
                live = np.zeros(rest.shape[0], dtype=bool)
            leftover.extend(rest[~live, -1])
            if st.product >= 0:
                # appended below the consumer's rows so far; empty when every
                # row died numerically: the plan's structure stands, and the
                # parents' columns from it stay zero
                product = rest[live, dv:]
                at, slot = st.sink
                to = steps[at]
                r = filled[at]
                n = product.shape[0]
                base = to.offset + r * to.width
                data[base:base + n * to.width].reshape(n, to.width)[:, to.scatter[slot]] = product
                filled[at] = r + n

        return EliminationDag(tuple(conditionals), np.array(leftover, dtype=float), self.plan)

    def solve(self) -> tuple:
        """Eliminate, back-substitute and check the hard rows: returns the
        DAG, {key: value} as `back_substitute` gives it, and the largest
        absolute residual of the weight-1 rows, one gathered product over
        the buffer's graph rows (the plan's `check`)."""
        dag = self.eliminate()
        x = _solution(dag)
        pos, entry, row, rhs = self.plan.check
        residual = 0.0
        if rhs.size:
            r = np.bincount(row, self.data[pos] * x[entry], minlength=rhs.size) - self.data[rhs]
            residual = float(np.abs(r).max())
        return dag, {v: x[s] for v, s in self.plan.slices.items()}, residual


def eliminate(graph: FactorGraph, ordering) -> EliminationDag:
    """Eliminate every variable under the plan for `ordering`, producing a DAG.

    `ordering` is any request `plan_for` takes, usually a key sequence.
    The graph's factors are assembled into the buffer the plan lays out,
    weighted, so each step's stack holds its input row blocks in the plan's
    columns. Per frontal variable the stacked rows are orthogonally
    reduced, the leading block rows, kept as they are (`[R_ff | R_fp | d]`),
    become the variable's conditional and the remainder, less rows left
    with no parent coefficient (their right-hand sides go to `leftover`),
    becomes a new factor over the parents, copied into the stack of the step
    that consumes it. Raises RankDeficient if a frontal block does not
    determine its variable.
    """
    plan = plan_for(graph, ordering)
    parts = []
    for f in graph.factors:
        parts += f.blocks.values()
        parts.append(f.rhs)
    return Assembly(plan, parts).eliminate()


@lru_cache(maxsize=256)
def _strict_lower(rows: int, cols: int) -> np.ndarray:
    return np.tri(rows, cols, -1, dtype=bool)


def _r_factor(a: np.ndarray) -> np.ndarray:
    """The R of a = QR, min(rows, cols) rows: LAPACK's Householder QR, as
    np.linalg.qr(a, mode="r") computes it, without that wrapper's cost."""
    qr = dgeqrf(a)[0]
    r = np.array(qr[:min(a.shape)], order="C")
    r[_strict_lower(*r.shape)] = 0.0
    return r


def back_substitute(dag: EliminationDag) -> dict:
    """Solve for every variable by walking the DAG in reverse order.

    The plan fixes the layout: one flat solution vector with a slice per
    variable, filled from the last conditional to the first; each step
    gathers its parents' entries, forms `d - R_fp @ x_parents` and solves
    the triangular `R_ff` with LAPACK. Returns {key: view into that vector}.
    Raises ValueError if the solution is not finite (an infinite or NaN
    input that the frontal rank test cannot see, such as an infinite rhs).
    """
    x = _solution(dag)
    return {v: x[s] for v, s in dag.plan.slices.items()}


# a non-finite solution raises below, so numpy's warnings about it would only repeat it
@np.errstate(invalid="ignore", over="ignore")
def _solution(dag: EliminationDag) -> np.ndarray:
    """The flat solution vector `back_substitute` hands out views of."""
    plan = dag.plan
    x = np.empty(plan.size)
    for cond, st in zip(reversed(dag.conditionals), reversed(plan.steps)):
        block = cond.block
        dv = block.shape[0]
        rhs = block[:, -1] - block[:, dv:-1] @ x[st.gather] if st.parents else block[:, -1]
        sol, info = dtrtrs(block[:, :dv], rhs)
        if info:
            raise RankDeficient(st.var, f"triangular solve failed (LAPACK info {info})")
        x[plan.slices[st.var]] = sol
    if not np.isfinite(x).all():
        bad = next(v for v, s in plan.slices.items() if not np.isfinite(x[s]).all())
        raise ValueError(f"non-finite solution at variable {bad}")
    return x


def solve(graph: FactorGraph, ordering) -> dict:
    return back_substitute(eliminate(graph, ordering))


def min_degree_ordering(graph: FactorGraph, groups=None) -> list:
    """Greedy minimum-degree ordering: the ordering `plan_elimination`
    picks for `groups` (see there)."""
    return list(plan_elimination(graph, groups).ordering)


def _bfs_levels(adj, sub, start):
    levels = [[start]]
    seen = {start}
    while True:
        nxt = sorted({n for at in levels[-1] for n in adj[at] & sub} - seen)
        if not nxt:
            return levels
        seen.update(nxt)
        levels.append(nxt)


def nested_dissection_groups(graph: FactorGraph) -> list:
    """Recursive bisection: both halves first, separator last.

    The separator is a breadth-first level from a pseudo-peripheral start
    vertex, chosen to balance the halves and thinned to the vertices that
    actually touch the far half; level vertices with no far-side neighbor
    drop into the near half. Bisection stops at three or fewer variables.
    Returns the leaf subsets and separators in elimination order, the
    `groups` of `plan_elimination`.
    """
    adj = graph.adjacency

    def dissect(sub) -> list:
        if len(sub) <= 3:
            return [sub]
        comps = []
        rest = set(sub)
        while rest:
            comps.append({v for level in _bfs_levels(adj, rest, min(rest)) for v in level})
            rest -= comps[-1]
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

    return dissect(set(graph.variables))


def nested_dissection_ordering(graph: FactorGraph) -> list:
    """Nested dissection ordering: min-degree inside the groups of
    `nested_dissection_groups`, as `plan_for(graph, "nd")` plans it."""
    return list(plan_for(graph, "nd").ordering)


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
            for v in f.keys():
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
