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
weight), as int bitmasks over variable ranks (`FactorGraph.numbering`),
plus the ordering. It fixes every step's input factors, parents and the
stack column of each of their columns, the flat solution vector with a
slice per variable, and the assembly map: where each graph factor entry
goes in one flat buffer that holds every step's stack. `plan_for` is the
one way from an ordering request to a plan, memoised by the structure, so
graphs that differ only in their numbers share it. The numeric phase
is one `Assembly` per solve over a buffer of that layout (`scatter` fills
one from a graph's factors, `transcribe` from a template): a flat loop
over the plan's step tables (`PlanStep`) reduces each stack (a one-row
stack is its own R), keeps its raw R rows `[R_ff | R_fp | d]` as the
conditional, copies live product rows on and rank-tests the 6-dim
frontals at once; `back_substitute` then fills the flat vector backwards.

Weights scale factor rows, and elimination is plain weighted least squares
over all rows at once: a soft prior (weight below 1) that conflicts with the
hard rows (weight 1) pulls them off exact satisfaction instead of acting
only on the null space they leave.
"""

from __future__ import annotations

from collections import OrderedDict
from enum import IntEnum
from functools import cached_property, lru_cache, reduce
from numbers import Real
from operator import or_
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
        if not (isinstance(weight, Real) and 0.0 <= weight < float("inf")):
            raise ValueError(f"factor {name!r}: weight must be a finite real >= 0, got {weight!r}")
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
    the ordering. `variables`, `numbering` and `structure` are computed on
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
    def numbering(self) -> tuple:
        """(rank, keys, masks, neighbors, incidence) over key ranks in
        `variables`, a set being the int with bit r for rank r: per factor
        its [A | b] columns as ranks (len(variables) for b) and key set, per
        variable the set it shares a factor with and the factor ids holding it."""
        rank = {v: r for r, v in enumerate(self.variables)}
        keys, masks, neighbors, incidence = [], [], [0] * len(rank), [0] * len(rank)
        for fid, (ks, _, _) in enumerate(self.structure):
            ranks = [rank[k] for k in ks]
            m = 0
            for r in ranks:
                m |= 1 << r
            for r in ranks:
                neighbors[r] |= m
                incidence[r] |= 1 << fid
            keys.append(ranks + [len(rank)])
            masks.append(m)
        return rank, keys, masks, [m & ~(1 << r) for r, m in enumerate(neighbors)], incidence

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


def _bits(mask: int) -> list:
    """The members of a set of variable ranks or factor ids, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _runs(starts, lengths) -> np.ndarray:
    """range(s, s + n) for each pair (s, n), concatenated."""
    shift = np.asarray(starts, dtype=np.intp) + lengths - np.cumsum(lengths)
    return np.arange(lengths.sum()) + np.repeat(shift, lengths)


def plan_elimination(graph: FactorGraph, groups=None) -> EliminationPlan:
    """Simulate elimination on the factors' key sets and row counts.

    `groups` (default: all variables in one) is an ordered list of disjoint
    variable sets covering the graph (ValueError naming the first unknown,
    repeated or missing key otherwise). Every variable of a group is
    eliminated before any of the next; inside a group the pick is greedy
    minimum degree, ties broken on the lowest (kind, index), so a sequence
    of one-variable groups is a fixed ordering. Degree counts distinct
    neighbors in the current factor adjacency. After each pick the touched
    factors merge into one product factor whose row budget is capped by
    what an orthogonal reduction can leave behind, so merged factors that
    reduce to nothing drop their connections (this happens whenever a
    variable is fully determined by its factors). The budget is also the
    product's room in its consumer's stack: a reduction never leaves more
    live rows than that. It runs on the rank bitmasks of `graph.numbering`.
    """
    variables, structure = graph.variables, graph.structure
    rank, keys_of, masks, neighbors, live = graph.numbering
    n, n_graph = len(variables), len(structure)
    bad = "ordering is not a permutation of the graph's variables: {} {}".format
    pools, seen = [], 0
    for group in [variables] if groups is None else groups:
        pools.append(seen)
        for v in group:
            r = rank.get(v)
            if r is None or seen >> r & 1:
                raise ValueError(bad(v, "is not one of them" if r is None else "appears twice"))
            seen |= 1 << r
        pools[-1] ^= seen
    if seen != (1 << n) - 1:
        raise ValueError(bad(variables[(~seen & seen + 1).bit_length() - 1], "is missing"))
    # per factor id, graph's then products': [A | b] columns (n for b), their count, key set, rows
    dims = [v.dim for v in variables] + [1]
    keys_of, masks, nb, live = list(keys_of), list(masks), list(neighbors), list(live)
    cols_of = [sum(map(dims.__getitem__, ks)) for ks in keys_of]
    rows_of = [rows for _, rows, _ in structure]
    position, first, slices, picked, size, fill_in = [0] * n, [0] * n, {}, [], 0, 0
    by_degree = [0] * n  # bit r of by_degree[d] is set while pool member r has degree d
    for pool in pools:
        for r in _bits(pool):
            by_degree[nb[r].bit_count()] |= 1 << r
        d = 0
        while pool:
            while not by_degree[d]:
                d += 1
            bit = by_degree[d] & -by_degree[d]
            by_degree[d] ^= bit
            pool ^= bit
            v = bit.bit_length() - 1
            position[v], first[v], size = len(picked), size, size + dims[v]
            slices[variables[v]] = slice(first[v], size)
            fids, parents, plist = _bits(live[v]), nb[v], _bits(nb[v])
            rows, cols = sum(map(rows_of.__getitem__, fids)), sum(map(dims.__getitem__, plist))
            # the most rows an orthogonal reduction leaves on the parents
            budget = min(rows - dims[v], cols)
            product = len(masks) if parents and budget > 0 else -1
            if product >= 0:
                masks.append(parents)
                rows_of.append(budget)
                cols_of.append(cols + 1)
            picked.append((v, fids, plist, product, rows, cols))
            fill_in += (parents & ~neighbors[v]).bit_count()
            # a pick changes only its parents' factor sets, so only their degrees move
            for p in plist:
                old = nb[p]
                live[p] &= ~live[v]
                if product >= 0:
                    live[p] |= 1 << product
                    nb[p] = (old | parents) & ~(bit | 1 << p)
                else:
                    nb[p] = reduce(or_, map(masks.__getitem__, _bits(live[p])), 0) & ~(1 << p)
                if pool >> p & 1 and old.bit_count() != nb[p].bit_count():
                    by_degree[old.bit_count()] ^= 1 << p
                    by_degree[nb[p].bit_count()] |= 1 << p
                    d = min(d, nb[p].bit_count())

    # parents are ordered by elimination position, known once every pick is.
    # Scatter and gather are views into `columns` and `entries`, filled last
    # from the inputs' columns as ranks (`flat`) and first stack columns
    # (`scol`); `place`: per graph factor its first column in `flat`, flat
    # position of its first stack row and stack width
    col, place = [0] * (n + 1), [None] * n_graph
    columns = np.empty(sum(cols_of), dtype=np.intp)
    entries = np.empty(sum(p[-1] for p in picked), dtype=np.intp)
    flat, scol, gvar, steps, at_col, at_entry, offset = [], [], [], [], 0, 0, 0
    for v, fids, plist, product, rows, cols in picked:
        parents = sorted(plist, key=position.__getitem__)
        gvar += parents
        col[v], c = 0, dims[v]
        for p in parents:
            col[p], c = c, c + dims[p]
        col[n], scatter, row, sink = c, [], 0, ()
        for f in fids:
            if f < n_graph:
                place[f] = (len(flat), offset + row * (c + 1), c + 1)
                row += rows_of[f]
            flat += keys_of[f]
            scol += map(col.__getitem__, keys_of[f])
            scatter.append(columns[at_col:at_col + cols_of[f]])
            at_col += cols_of[f]
        if product >= 0:
            # the first parent eliminated takes the product
            keys_of.append(parents + [n])
            sink = (position[parents[0]], picked[position[parents[0]]][1].index(product))
        steps.append(PlanStep(variables[v], tuple(fids), tuple(scatter),
                              tuple(map(variables.__getitem__, parents)), c + 1, product,
                              entries[at_entry:at_entry + cols], offset, row, sink))
        at_entry, offset = at_entry + cols, offset + rows * (c + 1)
    dims, first = np.array(dims, dtype=np.intp), np.array(first + [-1], dtype=np.intp)
    flat, scol, gvar = (np.array(a, dtype=np.intp) for a in (flat, scol, gvar))
    columns[:] = _runs(scol, dims[flat])
    entries[:] = _runs(first[gvar], dims[gvar])

    # the assembly map, a group per key block and rhs of each graph factor:
    # `height` rows of `dim` entries from buffer position `start`, `stride`
    # apart, over solution entries from `sol` (-1: the rhs); weight-1 rows
    # are numbered from 0 in factor order, from `hard_row`
    run, base, stride = np.array(place, dtype=np.intp).reshape(-1, 3).T
    groups_of = np.array(list(map(len, keys_of[:n_graph])), dtype=np.intp)
    at = _runs(run, groups_of)
    height = np.array(rows_of[:n_graph], dtype=np.intp)
    weight = np.array([w for *_, w in structure], dtype=float)
    hard = np.where(weight == 1.0, height, 0)
    start, dim, sol = np.repeat(base, groups_of) + scol[at], dims[flat[at]], first[flat[at]]
    stride, height, weight, hard_row = (np.repeat(a, groups_of) for a in
                                        (stride, height, weight, np.cumsum(hard) - hard))
    sizes = height * dim
    row_e, col_e = np.divmod(_runs(np.zeros_like(sizes), sizes), np.repeat(dim, sizes))
    dest = np.repeat(start, sizes) + row_e * np.repeat(stride, sizes) + col_e
    soft, is_rhs = np.repeat(weight != 1.0, sizes), np.repeat(sol < 0, sizes)
    coef = ~soft & ~is_rhs
    check = (dest[coef], (np.repeat(sol, sizes) + col_e)[coef],
             (np.repeat(hard_row, sizes) + row_e)[coef], dest[~soft & is_rhs])
    return EliminationPlan(tuple(slices), tuple(steps), len(gvar), fill_in, size, slices,
                           offset, dest, (dest[soft], np.repeat(weight, sizes)[soft]), check)


class LruMemo(OrderedDict):
    """A map that keeps its `size` most recently used entries, read with
    `get` and written with `put` under one lock, so threads may share it."""

    def __init__(self, size: int):
        super().__init__()
        self.size = size
        self.lock = Lock()

    def get(self, key):
        with self.lock:
            value = super().get(key)
            if value is not None:
                self.move_to_end(key)
            return value

    def put(self, value, *keys):
        with self.lock:
            for key in keys:
                size = len(self)
                self[key] = value
                if len(self) == size:  # a fresh key is added last, a held one moves there
                    self.move_to_end(key)
            while len(self) > self.size:
                self.popitem(last=False)


def ordering_request(ordering):
    """An ordering request as `plan_for` keys it: a scheme name in lower
    case, or a tuple of VarKeys parsed from VarKeys or their text (e.g.
    "qdd1"). ValueError names a request that is neither, or its first bad
    item."""
    if isinstance(ordering, str):
        return ordering.lower()
    try:
        items = enumerate(ordering)
    except TypeError:
        raise ValueError(f"ordering must be a scheme name or a sequence of "
                         f"variable keys, got {ordering!r}") from None
    request = []
    for i, k in items:
        if not isinstance(k, (VarKey, str)):
            raise ValueError(f"ordering[{i}] must be a VarKey or its text, got {k!r}")
        request.append(k if isinstance(k, VarKey) else VarKey.parse(k))
    return tuple(request)


_PLAN_MEMO_SIZE = 64
_plans = LruMemo(_PLAN_MEMO_SIZE)


def plan_for(graph: FactorGraph, ordering, deferred=()) -> EliminationPlan:
    """The plan for an ordering request (see `ordering_request`). "md" is
    minimum degree over every variable but `deferred`, then over
    `deferred`; "nd" is minimum degree inside `nested_dissection_groups`;
    any other name or a key sequence is the fixed ordering of
    `classic_ordering`. The plan is memoised under (structure hash, request,
    deferred), the structure hashed once per call and compared on a hit, and
    under its own key sequence, so eliminating with the ordering it resolved
    to reuses it; the memo keeps the most recently used _PLAN_MEMO_SIZE entries.
    """
    structure, request, deferred = graph.structure, ordering_request(ordering), tuple(deferred)
    key = (hash(structure), request, deferred)
    hit = _plans.get(key)
    if hit is not None and hit[0] == structure:
        return hit[1]
    if request == "md":
        groups = [set(graph.variables) - set(deferred), deferred]
    elif request == "nd":
        groups = nested_dissection_groups(graph)
    else:
        groups = [(v,) for v in classic_ordering(graph, request)]
    plan = plan_elimination(graph, groups)
    _plans.put((structure, plan), key, (key[0], plan.ordering, ()))
    return plan


def scatter(plan: EliminationPlan, parts) -> np.ndarray:
    """A fresh buffer of the plan's layout holding the graph factors'
    `parts` in the order of `EliminationPlan.dest`: for each factor in id
    order, its key blocks in key order, then its rhs. Soft rows are scaled
    by their weight; every other entry is zero."""
    data = np.zeros(plan.buffer_size)
    data[plan.dest] = np.concatenate(parts, axis=None) if parts else ()
    pos, weight = plan.scale
    data[pos] *= weight
    return data


class Assembly(NamedTuple):
    """The numbers of one solve in the buffer its plan lays out, as
    `scatter` fills it. The plan's step tables are only read, so any number
    of assemblies may share it across threads; the buffer, reduced in place,
    and the 6-dim `R_ff` blocks awaiting the batched rank test are per solve.
    """

    plan: EliminationPlan
    data: np.ndarray

    def eliminate(self) -> EliminationDag:
        """Reduce every step's stack in plan order (see `eliminate`)."""
        data, steps, peak = self.data, self.plan.steps, np.maximum.reduce
        filled = [st.rows for st in steps]
        conditionals, leftover, frontal, failed = [], [], [], None
        for i, (v, _, _, parents, width, _, _, offset, _, sink) in enumerate(steps):
            m, dv = filled[i], v.dim
            if m < dv:
                failed = RankDeficient(v, f"{m} constraint rows for {dv} dimensions" if m
                                       else "no factor constrains this variable")
                break
            r = _r_factor(data[offset:offset + m * width].reshape(m, width))
            if dv > 1:
                frontal.append(r[:dv, :dv])
            # a 1x1 block's singular value is |entry|; written so NaN fails
            elif not (a := abs(r[0, 0])) > 1e-9 * a:
                failed = RankDeficient(v, "frontal block rank below 1")
                break
            conditionals.append(Conditional(v, parents, r[:dv]))
            rest = r[dv:]
            if rest.shape[0] and parents:
                mag = np.abs(r)
                live = peak(mag[dv:, dv:-1], 1) > 1e-12 * max(1.0, peak(mag, None))
                if np.count_nonzero(live) < live.size:
                    # compacted; when every row died the plan's structure
                    # stands, and the parents' columns from it stay zero
                    leftover.extend(rest[~live, -1])
                    rest = rest[live]
                at, slot = sink
                to, n, f = steps[at], rest.shape[0], filled[at]
                stack = data[to.offset + f * to.width:to.offset + (f + n) * to.width]
                stack.reshape(n, to.width)[:, to.scatter[slot]] = rest[:, dv:]
                filled[at] = f + n
            else:
                leftover.extend(rest[:, -1])
        ok = _full_rank(np.array(frontal).reshape(-1, 6, 6))
        if not ok.all():
            bad = [st.var for st in steps if st.var.dim > 1][np.argmin(ok)]
            raise RankDeficient(bad, "frontal block rank below 6")
        if failed:
            raise failed
        return EliminationDag(tuple(conditionals), np.array(leftover, dtype=float), self.plan)

    def solve(self) -> tuple:
        """Eliminate, back-substitute and check the hard rows: returns the
        DAG, the flat solution vector `back_substitute` hands out views of,
        and the largest absolute residual of the weight-1 rows, one gathered
        product over the buffer's graph rows (the plan's `check`)."""
        dag = self.eliminate()
        x = _solution(dag)
        pos, entry, row, rhs = self.plan.check
        r = np.bincount(row, self.data[pos] * x[entry], minlength=rhs.size) - self.data[rhs]
        return dag, x, float(np.abs(r).max(initial=0.0))


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
    that consumes it. Raises RankDeficient for the first step in plan order
    whose frontal block does not determine its variable (see `_full_rank`).
    """
    plan = plan_for(graph, ordering)
    parts = []
    for f in graph.factors:
        parts += f.blocks.values()
        parts.append(f.rhs)
    return Assembly(plan, scatter(plan, parts)).eliminate()


@lru_cache(maxsize=256)
def _strict_lower(rows: int, cols: int) -> np.ndarray:
    return np.flatnonzero(np.tri(rows, cols, -1, dtype=bool))


def _r_factor(a: np.ndarray) -> np.ndarray:
    """The R of a = QR, min(rows, cols) rows: LAPACK's Householder QR, as
    np.linalg.qr(a, mode="r") computes it, without that wrapper's cost.
    LAPACK leaves one row as it is (its reflector is the identity), so a
    one-row R is a copy of the row."""
    if a.shape[0] == 1:
        return a.copy()
    qr = dgeqrf(a)[0]
    r = np.array(qr[:min(a.shape)], order="C")
    r.reshape(-1)[_strict_lower(*r.shape)] = 0.0
    return r


def _full_rank(blocks: np.ndarray) -> np.ndarray:
    """Whether each upper triangular 6x6 R has sigma_min > 1e-9 sigma_max (NaN: no).
    ||R||_F ||R^-1||_F < 1e8, one batched inverse over the finite R with nonzero diagonal,
    proves it (||.||_2 <= ||.||_F gives sigma_min / sigma_max > 1e-8); dgesdd does the rest."""
    with np.errstate(all="ignore"):
        ok = np.isfinite(blocks).all(axis=(1, 2)) & np.diagonal(blocks, 0, 1, 2).all(axis=1)
        r, inv = blocks[ok], np.linalg.inv(blocks[ok])
        ok[ok] = np.einsum("kij,kij->k", r, r) * np.einsum("kij,kij->k", inv, inv) < 1e16
    for j in np.flatnonzero(~ok):
        sv = dgesdd(blocks[j], compute_uv=0)[1]
        ok[j] = sv[-1] > 1e-9 * sv[0]
    return ok


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


def nested_dissection_groups(graph: FactorGraph) -> list:
    """Recursive bisection: both halves first, separator last.

    The separator is a breadth-first level from a pseudo-peripheral start
    vertex, chosen to balance the halves and thinned to the vertices that
    actually touch the far half; level vertices with no far-side neighbor
    drop into the near half. Bisection stops at three or fewer variables.
    Returns the leaf subsets and separators in elimination order, the
    `groups` of `plan_elimination`, found on the sets of `graph.numbering`.
    """
    nb = graph.numbering[3]

    def levels_of(sub: int, start: int) -> list:  # breadth-first, from the set `start`
        levels, seen = [start], start
        while True:
            nxt = reduce(or_, map(nb.__getitem__, _bits(levels[-1])), 0) & sub & ~seen
            if not nxt:
                return levels
            seen |= nxt
            levels.append(nxt)

    def dissect(sub: int) -> list:
        if sub.bit_count() <= 3:
            return [sub]
        comps, rest = [], sub
        while rest:
            comps.append(sum(levels_of(rest, rest & -rest)))
            rest &= ~comps[-1]
        if len(comps) > 1:
            return [group for comp in comps for group in dissect(comp)]
        # double-BFS pseudo-peripheral start: go far, then level-partition;
        # a connected subset of four or more variables has at least two levels
        levels = levels_of(sub, sub & -sub)
        levels = levels_of(sub, levels[-1] & -levels[-1])
        best = None
        for t in range(1, len(levels)):
            after, level = sum(levels[t + 1:]), levels[t]
            sep = sum(1 << v for v in _bits(level) if nb[v] & after) or level
            before = sum(levels[:t]) | level & ~sep
            cand = (abs(before.bit_count() - after.bit_count()), sep.bit_count(), t)
            if best is None or cand < best[0]:
                best = (cand, sep, before, after)
        _, separator, before, after = best
        return dissect(before) + dissect(after) + [separator]

    return [{graph.variables[r] for r in _bits(group)}
            for group in dissect((1 << len(graph.variables)) - 1)]


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
