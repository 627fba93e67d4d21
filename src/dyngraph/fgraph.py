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
plus the ordering. It fixes every step's input factors and parents, the
fronts (runs of steps whose parent sets nest, each reduced as one stack,
like a supernode), the flat solution vector with a slice per variable, and
the assembly map: where each graph factor entry goes in one flat buffer
that holds every front's stack. `plan_for` is the one way from an ordering
request to a plan, memoised by the structure, so graphs that differ only in
their numbers share it. The numeric phase is one `Assembly` per solve over
a buffer of that layout (`scatter` fills one from a graph's factors,
`transcribe` from a template): a flat loop over the fronts reduces each
stack with one QR (a one-row stack is its own R), keeps its raw R rows
`[R_ff | R_fp | d]` (each step's conditional is a view), copies live
product rows on and rank-tests the 6-dim frontals at once;
`back_substitute` then fills the flat vector backwards, a front at a time.

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
from scipy.linalg.lapack import dgeqrf, dgesdd, dtrtri, dtrtrs

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
        """(keys, rank, dims, columns, sizes, masks, neighbors, incidence) over
        key ranks in `variables`, a set being the int with bit r for rank r:
        per rank its dim (then 1 for b); per factor its [A | b] columns as
        ranks (len(variables) for b), their count and key set; per variable
        the set it shares a factor with and the factor ids holding it."""
        keys = self.variables
        n = len(keys)
        rank, dims = dict(zip(keys, range(n))), [KIND_DIM[kind] for kind, _ in keys] + [1]
        columns, sizes, masks, neighbors, incidence = [], [], [], [0] * n, [0] * n
        bit = 1  # the factor's id as a set
        for ks, _, _ in self.structure:
            ranks, m, c = list(map(rank.__getitem__, ks)), 0, 1
            for r in ranks:
                m |= 1 << r
                c += dims[r]
            for r in ranks:
                neighbors[r] |= m
                incidence[r] |= bit
            bit <<= 1
            ranks.append(n)
            columns.append(ranks)
            sizes.append(c)
            masks.append(m)
        return (keys, rank, dims, columns, sizes, masks,
                [m & ~(1 << r) for r, m in enumerate(neighbors)], incidence)

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

    `block` is the variable's R rows `[diag | parents | rhs]` in its front's
    R, and `diag`, `parent_blocks` and `rhs` are views into it. `diag` is upper
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
    """Result of eliminating every variable of a graph under one plan: one
    conditional per step of `plan`, the rhs of the rows elimination left with
    no coefficient (`leftover`) and per front its R rows (`fronts`)."""

    conditionals: tuple
    leftover: np.ndarray
    plan: EliminationPlan
    fronts: tuple

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
    in the order the steps leave them. The step eliminates `var` from the
    rows of the factors `inputs` (ascending, so graph factors before
    products), `rows` of them graph rows, over columns `var`, `parents` (by
    elimination position) and the rhs. `product` is the id of the factor it
    leaves over the parents, -1 when the planner's row budget leaves none
    (see `plan_elimination`). `scatter` lists, per input that is a product
    from outside the step's front, the front's stack column of each column
    of its `[A | b]` row block: the arrays the front's `sources` hold.
    `gather` indexes the parents' entries of the flat solution vector in
    column order.
    """

    var: VarKey
    inputs: tuple
    scatter: tuple
    parents: tuple
    product: int
    gather: np.ndarray
    rows: int


class EliminationPlan(NamedTuple):
    """Symbolic elimination: the ordering and every step's bookkeeping.

    It depends only on each factor's keys, row count and weight (the
    graph's `structure`) and on the ordering, so one plan serves every
    graph of the same structure, whatever its numbers. `slices` maps each
    variable to its entries of the flat solution vector of length `size`,
    laid out in elimination order.

    A front is a run of steps `steps[start:stop]` whose parents are each the
    next step's variable and parents, reduced as one stack in the first
    step's columns: per step its graph rows, then a slot per product from
    outside the run. `fronts` has per front (start, stop, stack offset,
    width, rows, first solution entry, sources, ends), `sources` per slot
    (front, buffer position, step, columns: an array of `PlanStep.scatter`)
    and `ends` per step the end of its rows. One flat buffer of
    `buffer_size` floats holds every stack: the assembly map. `dest` is the
    buffer position of each entry of the graph factors' parts (see
    `Assembly`), `scale` the (positions, weights) of soft rows' entries, and
    `check` the (positions, solution entries, hard row numbers, rhs
    positions) of the weight-1 rows' coefficients and right-hand sides, for
    the residual check.
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
    fronts: tuple


def _bits(mask: int) -> list:
    """The members of a set of variable ranks or factor ids, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _runs(starts, lengths: np.ndarray) -> np.ndarray:
    """range(s, s + n) for each pair (s, n), concatenated."""
    ends = lengths.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + (starts + lengths - ends).repeat(lengths)


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
    keys, rank, dims, keys_of, cols_of, masks, neighbors, live = graph.numbering
    n, n_graph, structure = len(keys), len(masks), graph.structure
    every = (1 << n) - 1
    bad = "ordering is not a permutation of the graph's variables: {} {}".format
    pools, seen = ([every], every) if groups is None else ([], 0)
    for group in groups or ():
        pools.append(seen)
        for v in group:
            r = rank.get(v)
            if r is None or seen >> r & 1:
                raise ValueError(bad(v, "is not one of them" if r is None else "appears twice"))
            seen |= 1 << r
        pools[-1] ^= seen
    if seen != every:
        raise ValueError(bad(keys[(~seen & seen + 1).bit_length() - 1], "is missing"))
    # per factor id, graph's then products': [A | b] columns (n for b), their count, key set, rows
    keys_of, cols_of, masks = list(keys_of), list(cols_of), list(masks)
    nb, live, rows_of = list(neighbors), list(live), [rows for _, rows, _ in structure]
    position, first, slices, picks, size, fill_in = [0] * n, [0] * n, {}, [], 0, 0
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
            position[v], first[v], size = len(picks), size, size + dims[v]
            slices[keys[v]] = slice(first[v], size)
            used, parents = live[v], nb[v]
            fids, plist, rows, cols, m = [], [], 0, 0, used
            while m:
                f = (m & -m).bit_length() - 1
                fids.append(f)
                rows += rows_of[f]
                m &= m - 1
            # a product is left when there are parents and rows for them
            product = len(masks) if parents and rows > dims[v] else -1
            fill_in += (parents & ~neighbors[v]).bit_count()
            # a pick changes only its parents' factor sets, so only their degrees move
            m, keep, made = parents, ~used, 1 << product if product >= 0 else 0
            while m:
                own = m & -m
                p = own.bit_length() - 1
                plist.append(p)
                cols += dims[p]
                m ^= own
                old = nb[p]
                if made:
                    live[p] = live[p] & keep | made
                    nb[p] = new = (old | parents) & ~(bit | own)
                else:
                    f = live[p] = live[p] & keep
                    new = 0
                    while f:
                        new |= masks[(f & -f).bit_length() - 1]
                        f &= f - 1
                    nb[p] = new = new & ~own
                if pool & own and (a := old.bit_count()) != (b := new.bit_count()):
                    by_degree[a] ^= own
                    by_degree[b] |= own
                    d = b if b < d else d
            if product >= 0:
                masks.append(parents)
                # the most rows an orthogonal reduction leaves on the parents
                rows_of.append(rows - dims[v] if rows - dims[v] < cols else cols)
                cols_of.append(cols + 1)
            picks.append((v, fids, plist, product, rows, parents, cols))

    # parents are ordered by elimination position, known once every pick is;
    # a step whose variable and parents are the last step's parents joins its
    # front (taking its product, `inner`). Scatter and gather are views into
    # `columns` and `entries`, filled last from outside products' columns as
    # ranks (`pflat`) and stack columns (`pcol`); per graph factor: its first
    # column in `flat`, first row, stride
    col, run, base, stride = [0] * (n + 1), [0] * n_graph, [0] * n_graph, [0] * n_graph
    columns = np.empty(sum(cols_of[n_graph:]), dtype=np.intp)
    entries = np.empty(sum(pick[-1] for pick in picks), dtype=np.intp)
    flat, scol, pflat, pcol, gvar, steps, fronts, maker = [], [], [], [], [], [], [], {}
    at_col, at_entry, offset, inner = 0, 0, 0, -1
    for i, (v, fids, plist, product, rows, mask, cols) in enumerate(picks):
        parents = sorted(plist, key=position.__getitem__) if len(plist) > 1 else plist
        gvar += parents
        if inner < 0:
            begin, x0, sources, ends = i, first[v], [], []
            col[v], c = 0, dims[v]
            for p in parents:
                col[p], c = c, c + dims[p]
            col[n], width, height = c, c + 1, 0
        scatter, row = [], 0
        for f in fids:
            if f == inner:
                continue
            ks, at = keys_of[f], offset + height * width
            if f < n_graph:
                run[f], base[f], stride[f] = len(flat), at, width
                row += rows_of[f]
                flat += ks
                scol += map(col.__getitem__, ks)
            else:
                pflat += ks
                pcol += map(col.__getitem__, ks)
                scatter.append(columns[at_col:at_col + cols_of[f]])
                sources.append((maker[f], at, i, scatter[-1]))
                at_col += cols_of[f]
            height += rows_of[f]
        ends.append(height)
        if product >= 0:
            keys_of.append(parents + [n])
            maker[product] = len(fronts)
        steps.append(PlanStep(keys[v], tuple(fids), tuple(scatter),
                              tuple(map(keys.__getitem__, parents)), product,
                              entries[at_entry:at_entry + cols], row))
        at_entry, inner = at_entry + cols, product
        if product < 0 or i + 1 == len(picks) or mask != picks[i + 1][5] | 1 << picks[i + 1][0]:
            fronts.append((begin, i + 1, offset, width, height, x0, tuple(sources), tuple(ends)))
            offset, inner = offset + height * width, -1
    dims, first = np.array(dims, dtype=np.intp), np.array(first + [-1], dtype=np.intp)
    flat, scol, pflat, pcol, gvar = (np.array(a, dtype=np.intp)
                                     for a in (flat, scol, pflat, pcol, gvar))
    columns[:at_col], entries[:] = _runs(pcol, dims[pflat]), _runs(first[gvar], dims[gvar])

    # the assembly map, a group per key block and rhs of each graph factor:
    # `height` rows of `dim` entries from buffer position `start`, `stride`
    # apart, over solution entries from `sol` (-1: the rhs); weight-1 rows
    # are numbered from 0 in factor order, from `hard_row`
    run, base, stride, height = (np.array(a[:n_graph], dtype=np.intp)
                                 for a in (run, base, stride, rows_of))
    groups_of = np.array(list(map(len, keys_of[:n_graph])), dtype=np.intp)
    weight = np.array([w for *_, w in structure], dtype=float)
    hard = np.where(weight == 1.0, height, 0)
    at = _runs(run, groups_of)
    key = flat[at]
    start, dim, sol = base.repeat(groups_of) + scol[at], dims[key], first[key]
    stride, height, weight, hard_row = (a.repeat(groups_of) for a in
                                        (stride, height, weight, hard.cumsum() - hard))
    sizes = height * dim
    row_e, col_e = np.divmod(_runs(0, sizes), dim.repeat(sizes))
    dest = start.repeat(sizes) + row_e * stride.repeat(sizes) + col_e
    soft, is_rhs = (weight != 1.0).repeat(sizes), (sol < 0).repeat(sizes)
    coef = ~(soft | is_rhs)
    check = (dest[coef], (sol.repeat(sizes) + col_e)[coef],
             (hard_row.repeat(sizes) + row_e)[coef], dest[is_rhs & ~soft])
    return EliminationPlan(tuple(slices), tuple(steps), len(gvar), fill_in, size, slices,
                           offset, dest, (dest[soft], weight.repeat(sizes)[soft]), check, fronts)


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
        groups = [set(graph.variables) - set(deferred), deferred] if deferred else None
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
    `scatter` fills it. The plan's tables are only read, so any number
    of assemblies may share it across threads; the buffer, reduced in place,
    and the 6-dim `R_ff` blocks awaiting the batched rank test are per solve.
    """

    plan: EliminationPlan
    data: np.ndarray

    def eliminate(self) -> EliminationDag:
        """Reduce every front's stack in plan order (see `eliminate`)."""
        data, steps, fronts, peak = self.data, self.plan.steps, self.plan.fronts, np.maximum.reduce
        filled, rests = [st.rows for st in steps], []
        conditionals, blocks, leftover, frontal, failed = [], [], [], [], None
        for start, stop, offset, width, m, _, sources, ends in fronts:
            for at, to, step, cols in sources:
                n = rests[at].shape[0]
                data[to:to + n * width].reshape(n, width)[:, cols] = rests[at]
                filled[step] += n
            stack = data[offset:offset + m * width].reshape(m, width)
            r = _r_factor(stack) if m else None
            if m > 1 and (stop - start > 1 or steps[stop - 1].product >= 0):
                mag = np.abs(r)  # a row with no coefficient above `cut` is dead
                cut = 1e-12 * max(1.0, peak(mag, None))
                if stop - start > 1:  # a later step's pivot down at the cut may
                    # rest on rows that die on the way: reduce a step at a time
                    d = mag.diagonal()[steps[start][0].dim:width - 1 - len(steps[stop - 1].gather)]
                    if not np.minimum.reduce(d, initial=np.inf) > cut:
                        r, cut = _by_steps(stack, ends, steps, start, filled, leftover)
                        mag = np.abs(r)
            left = c = 0  # rows that reach the step; its first row and column in r
            for k in range(start, stop):
                v, parents = steps[k][0], steps[k][3]
                dv, left = v.dim, left + filled[k]
                if left < dv:
                    failed = RankDeficient(v, f"{left} constraint rows for {dv} dimensions"
                                           if left else "no factor constrains this variable")
                    break
                block = r[c:c + dv, c:]
                if dv > 1:
                    frontal.append(block[:, :dv])
                # a 1x1 block's singular value is |entry|, written so NaN fails
                elif not (a := abs(block[0, 0])) > 1e-9 * a:
                    failed = RankDeficient(v, "frontal block rank below 1")
                    break
                conditionals.append(Conditional(v, parents, block))
                left, c = left - dv, c + dv
            if failed:
                break
            blocks.append(r[:c])
            rest = r[c:]
            if rest.shape[0] and parents:
                live = peak(mag[c:, c:-1], 1) > cut
                if np.count_nonzero(live) < live.size:
                    # compacted; when every row died the plan's structure
                    # stands, and the parents' columns from it stay zero
                    leftover.extend(rest[~live, -1])
                    rest = rest[live]
            else:
                leftover.extend(rest[:, -1])
            rests.append(rest[:, c:])
        ok = _full_rank(np.array(frontal).reshape(-1, 6, 6))
        if not ok.all():
            bad = [st.var for st in steps if st.var.dim > 1][np.argmin(ok)]
            raise RankDeficient(bad, "frontal block rank below 6")
        if failed:
            raise failed
        return EliminationDag(tuple(conditionals), np.array(leftover, dtype=float), self.plan,
                              tuple(blocks))

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
    weighted, so each front's stack holds its input row blocks in the plan's
    columns. Per front the stacked rows are orthogonally reduced at once,
    each variable's block rows, kept as they are (`[R_ff | R_fp | d]`), are
    its conditional, and the rows below, less rows left with no parent
    coefficient (their right-hand sides go to `leftover`), become a factor
    over the last step's parents, copied into the stack that consumes it.
    A front with a later step's pivot at or below that cut is reduced again
    a step at a time (`_by_steps`): such a pivot may rest on rows cut there.
    Raises RankDeficient for the first step in plan order whose frontal
    block does not determine its variable (see `_full_rank`).
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


def _by_steps(a, ends, steps, start, filled, leftover) -> tuple:
    """Front stack `a` (from `steps[start]`) reduced a step at a time, dead rows
    cut between steps (rhs to `leftover`): its R rows as one QR lays them out and
    the last step's cut; `filled` is set so the rows reaching each step count."""
    out, rest, c, h, prev, cut = np.zeros_like(a), a[:0], 0, 0, 0, 0.0
    for k, end in enumerate(ends, start):
        dv, reach = steps[k][0].dim, len(rest) + filled[k]
        filled[k], prev = reach - prev, reach - dv
        if reach < dv:  # the step fails on its row count
            return out, cut
        s = _r_factor(np.vstack((a[h:end, c:], rest)))
        mag = np.abs(s)
        out[c:c + dv, c:], rest, cut = s[:dv], s[dv:], 1e-12 * max(1.0, mag.max())
        if k + 1 < start + len(ends):
            live = np.maximum.reduce(mag[dv:, dv:-1], 1) > cut
            leftover.extend(rest[~live, -1])
            rest = rest[live, dv:]
        c, h = c + dv, end
    out[c:c + len(rest), c - dv:] = rest
    return out[:c + len(rest)], cut


def _full_rank(blocks: np.ndarray) -> np.ndarray:
    """Whether each upper triangular 6x6 R has sigma_min > 1e-9 sigma_max (NaN: no).
    ||R||_F ||R^-1||_F < 1e8 proves it (||.||_2 <= ||.||_F gives sigma_min / sigma_max
    > 1e-8), R^-1 being LAPACK's triangular inverse of each finite R with a nonzero
    diagonal; dgesdd decides the rest."""
    with np.errstate(all="ignore"):
        ok = np.isfinite(blocks).all(axis=(1, 2)) & np.diagonal(blocks, 0, 1, 2).all(axis=1)
        r = blocks[ok]
        inv = np.array([dtrtri(a)[0] for a in r]).reshape(-1, 6, 6)
        ok[ok] = np.einsum("kij,kij->k", r, r) * np.einsum("kij,kij->k", inv, inv) < 1e16
    for j in np.flatnonzero(~ok):
        sv = dgesdd(blocks[j], compute_uv=0)[1]
        ok[j] = sv[-1] > 1e-9 * sv[0]
    return ok


def back_substitute(dag: EliminationDag) -> dict:
    """Solve for every variable by walking the DAG in reverse order.

    The plan fixes the layout: one flat solution vector with a slice per
    variable, filled from the last front to the first; each front gathers
    its last step's parents' entries, forms `d - R_fp @ x_parents` and
    solves its triangular `R_ff` with LAPACK. Returns {key: view into that vector}.
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
    for (_, stop, _, _, _, at, *_), block in zip(reversed(plan.fronts), reversed(dag.fronts)):
        d, last = block.shape[0], plan.steps[stop - 1]
        rhs = block[:, -1] - block[:, d:-1] @ x[last.gather] if last.parents else block[:, -1]
        sol, info = dtrtrs(block[:, :d], rhs)
        if info:
            bad = next(v for v, s in plan.slices.items() if s.stop >= at + info)
            raise RankDeficient(bad, f"triangular solve failed (LAPACK info {info})")
        x[at:at + d] = sol
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
    keys, *_, nb, _ = graph.numbering

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

    return [{keys[r] for r in _bits(group)} for group in dissect((1 << len(keys)) - 1)]


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
