"""Block-sparse linear factor graph with variable elimination.

Variables are keyed by (kind, index) with a block dimension fixed by the
kind. Every factor is one keyed `[A | b]` row block: a weighted linear
constraint over a few variables, or the product factor an elimination
step leaves over its parents. Eliminating the variables one at a time
against a chosen ordering turns the graph into a DAG of conditionals (a
solved triangular form); the amount of fill-in created depends only on the
ordering, which is the whole point: classical recursive dynamics
algorithms fall out as particular orderings.

A graph (`FactorGraph`) lists its factors' keys, row counts and weights
(`structure`) and their numbers (`flat`). Elimination runs in two phases.
The symbolic one (`plan_elimination`) reads only the `structure`, as int
bitmasks over variable ranks (`FactorGraph.numbering`), plus the ordering.
It fixes every step's input factors and parents, the fronts (runs of steps
whose parent sets nest, each reduced as one stack, like a supernode), the
flat solution vector with a slice per variable, the assembly map (where
each entry of `flat` goes in one flat buffer that holds every front's
stack, column-major), where each front hands its product and where its R
rows are gathered from.
`plan_for` is the one way from an ordering request to a plan. It plans on
every call; graphs that differ only in their numbers can share one plan,
and `transcribe.solve_dynamics` keeps one per problem shape. The numeric
phase runs on one buffer of that layout per solve (`scatter` fills one
from `flat`, `transcribe` from a template): per front one QR in place
in the buffer and one gathered copy of its product into the consumer's
slot. The fronts' R rows then go into one upper triangular system over the
flat vector, `size` x (`size` + 1) floats with the rhs last, which is the
zeroed one the last solve gave back when that has the same size (the
module keeps at most one). One condition estimate of that system (LAPACK
`dtrcon`) is the gate for rank, structural or numerical, and one `dtrtrs`
solves it. The hard-row residual is one gathered product over `flat` at
that solution.

Weights scale factor rows, and elimination is plain weighted least squares
over all rows at once: a soft prior (weight below 1) that conflicts with the
hard rows (weight 1) pulls them off exact satisfaction instead of acting
only on the null space they leave.
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from functools import cached_property, reduce
from itertools import accumulate, chain, islice
from numbers import Real
from operator import or_
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgeqrf, dtrcon, dtrtrs

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
        """The key that prints as `text`; ValueError for any other text."""
        for tag, kind in _TAG_KIND.items():
            digits = text[len(tag):]
            if text.startswith(tag) and digits.isdecimal() and str(int(digits)) == digits:
                return cls(kind, int(digits))
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


class FactorGraph:
    """Immutable factors over a variable set, held as one listing:
    `structure` (per factor its keys, row count and weight: all a plan reads
    besides the ordering), `labels` (its name and knowns) and `flat`, a
    read-only vector of each factor's key blocks, row by row, then its rhs.
    `FactorGraph(factors)` lists LinearFactors and `listed` takes a listing
    as it is; `factors` are made from the listing on first read, and
    `variables`, `numbering`, `len` and `total_rows` from `structure`.
    """

    def __init__(self, factors):
        factors = tuple(factors)
        parts = [p for f in factors for p in (*f.blocks.values(), f.rhs)]
        self.structure = tuple((f.keys(), f.rows, f.weight) for f in factors)
        self.labels = tuple((f.name, f.knowns) for f in factors)
        self.flat = np.concatenate(parts, axis=None) if parts else np.zeros(0)
        self.flat.setflags(write=False)

    @classmethod
    def listed(cls, structure: tuple, labels: tuple, flat: np.ndarray) -> FactorGraph:
        graph = cls.__new__(cls)
        graph.structure, graph.labels, graph.flat = structure, labels, flat
        flat.setflags(write=False)
        return graph

    def _blocks(self):
        """Per factor its key blocks by key and its rhs, views into `flat`."""
        at = 0
        for keys, rows, _ in self.structure:
            blocks = {}
            for k in keys:
                blocks[k] = self.flat[at:at + rows * k.dim].reshape(rows, k.dim)
                at += rows * k.dim
            yield blocks, self.flat[at:at + rows]
            at += rows

    @cached_property
    def factors(self) -> tuple:
        return tuple(LinearFactor(blocks, rhs, weight, name, knowns)
                     for (blocks, rhs), (_, _, weight), (name, knowns)
                     in zip(self._blocks(), self.structure, self.labels))

    @cached_property
    def variables(self) -> tuple:
        return tuple(sorted({k for keys, _, _ in self.structure for k in keys}))

    @cached_property
    def numbering(self) -> tuple:
        """(keys, rank, dims, columns, masks, neighbors, incidence) over key
        ranks in `variables`, a set being the int with bit r for rank r: per
        rank its dim (then 1 for b); per factor its [A | b] columns as ranks
        (len(variables) for b) and its key set; per variable the set it
        shares a factor with and the factor ids holding it."""
        keys = self.variables
        n = len(keys)
        rank, dims = dict(zip(keys, range(n))), [KIND_DIM[kind] for kind, _ in keys] + [1]
        columns, masks, neighbors, incidence = [], [], [0] * n, [0] * n
        bit = 1  # the factor's id as a set
        for ks, _, _ in self.structure:
            ranks, m = list(map(rank.__getitem__, ks)), 0
            for r in ranks:
                m |= 1 << r
            for r in ranks:
                neighbors[r] |= m
                incidence[r] |= bit
            bit <<= 1
            ranks.append(n)
            columns.append(ranks)
            masks.append(m)
        return (keys, rank, dims, columns, masks,
                [m & ~(1 << r) for r, m in enumerate(neighbors)], incidence)

    def __len__(self) -> int:
        return len(self.structure)

    def total_rows(self) -> int:
        return sum(rows for _, rows, _ in self.structure)

    def residual_max(self, values: dict) -> float:
        """Largest absolute residual over the weight-1 factors, read from the
        listing: no factor is made. ValueError naming a variable that
        `values` lacks or holds in a shape other than (dim,)."""
        hard = [np.concatenate(list(blocks.values()), axis=1) @ np.concatenate(
            [_value(values, k) for k in blocks]) - rhs for (blocks, rhs), (_, _, weight) in zip(
                self._blocks(), self.structure) if weight == 1.0]
        r = np.concatenate(hard) if hard else np.empty(0)
        return float(np.abs(r).max()) if r.size else 0.0


def _value(values, key: VarKey):
    """`values[key]`, which must be a vector of `key.dim` entries."""
    x = values.get(key)
    if np.shape(x) != (key.dim,):
        raise ValueError(f"values[{key}] must have shape ({key.dim},), got "
                         + ("no value" if x is None else f"shape {np.shape(x)}"))
    return x


class Conditional(NamedTuple):
    """Solved form of one variable: diag @ x = rhs - sum parent_blocks @ x_p.

    `block` is the variable's R rows `[diag | parents | rhs]` in its front's
    R, and `diag`, `parent_blocks` and `rhs` are views into it. `diag` is upper
    triangular, and invertible because the whole R passed elimination's
    condition gate (see `eliminate`); parents are ordered by their position in the
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


class EliminationDag:
    """Result of eliminating every variable of a graph under one plan: the
    fronts' R rows `[R_ff | R_fp | d]`, row-major and one front after
    another (`rows`, as the plan's `gather` lays them out: a front's c R
    rows of its width each, its lower triangle and any rows past a short
    stack's end zero), the rhs of each front's R row with no coefficient
    (`leftover`, see `EliminationPlan`), the `plan`, and `rcond`, the gate's
    estimate of the reciprocal 1-norm condition number of the whole R
    (LAPACK `dtrcon`; above `size` x 1e-9, or elimination raised). Per
    front its R rows (`fronts`) and the `conditionals`, one per step of the
    plan and views into its front's R rows, are made on first read."""

    def __init__(self, leftover: np.ndarray, plan: EliminationPlan, rows: np.ndarray,
                 rcond: float):
        self.leftover, self.plan, self.rows, self.rcond = leftover, plan, rows, rcond

    @cached_property
    def fronts(self) -> tuple:
        return tuple(self.rows[x:x + c * w].reshape(c, w)
                     for _, _, _, w, _, _, c, *_, x in self.plan.fronts)

    @cached_property
    def conditionals(self) -> tuple:
        out = []
        for (start, stop, *_), block in zip(self.plan.fronts, self.fronts):
            c = 0
            for st in self.plan.steps[start:stop]:
                out.append(Conditional(st.var, st.parents, block[c:c + st.var.dim, c:]))
                c += st.var.dim
        return tuple(out)

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
    products), over columns `var`, `parents` (by elimination position) and
    the rhs. `product` is the id of the factor it leaves over the parents,
    -1 when the planner's row budget leaves none (see `plan_elimination`).
    """

    var: VarKey
    inputs: tuple
    parents: tuple
    product: int


class _PlanFields(NamedTuple):
    ordering: tuple
    picks: tuple
    edge_count: int
    fill_in: int
    size: int
    slices: dict
    buffer_size: int
    dest: np.ndarray
    scale: tuple
    check: tuple
    fronts: tuple
    gather: np.ndarray
    leftover: np.ndarray
    system: np.ndarray


class EliminationPlan(_PlanFields):
    """Symbolic elimination: the ordering and every step's bookkeeping.

    It depends only on each factor's keys, row count and weight (the
    graph's `structure`) and on the ordering, so one plan serves every
    graph of the same structure, whatever its numbers. `slices` maps each
    variable to its entries of the flat solution vector of length `size`,
    laid out in elimination order. `picks` lists every step as plain ints
    (its input count and ids, its parent count and parents as ranks in
    `sorted(ordering)`, its product), and the `PlanStep`s are made from it
    on first read of `steps`: a solve reads none of them.

    A front is a run of steps `steps[start:stop]` whose parents are each the
    next step's variable and parents, reduced as one stack in the first
    step's columns: per step its graph rows, then a slot per product from
    outside the run. One flat buffer of `buffer_size` floats and a trailing
    zero holds every stack, column-major as dgeqrf reduces it: the assembly
    map. `dest` is the buffer position of each entry of the graph's `flat`
    listing (see `scatter`), `scale` the (positions, weights) of soft rows'
    entries, and `check` the (positions in `flat`, solution entries, hard
    row numbers, rhs positions in `flat`) of the weight-1 rows'
    coefficients and right-hand sides, for the residual check.

    `fronts` has per front (start, stop, stack offset, width, rows, first
    solution entry, frontal columns c, src, dst, R offset): the handoff
    copies the buffer entries `src` (the upper triangular part of the
    product rows, R rows c on) to the positions `dst` in the slot of the
    step that consumes the product (both empty when no step does); the R
    offset is where the front's R rows start in `gather`.

    Positions in the buffer, read after every front is reduced: `gather`
    has the fronts' R rows `[R_ff | R_fp | d]`, row-major and one front
    after another (entries off a front's R read the buffer's trailing
    zero), and `leftover` the rhs of R row w - 1, which has no coefficient,
    of each front whose stack has m >= w rows.

    `system` has per entry of the R rows (`gather`) its position in the
    column-major `size` x (`size` + 1) upper triangular system that
    back-substitution solves: row the entry's solution index, column the
    solution entry of its stack column or `size` (rhs).
    """

    @cached_property
    def steps(self) -> tuple:
        keys, it = sorted(self.ordering), iter(self.picks)
        return tuple(PlanStep(v, tuple(islice(it, next(it))),
                              tuple(keys[p] for p in islice(it, next(it))), next(it))
                     for v in self.ordering)


def _bits(mask: int) -> list:
    """The members of a set of variable ranks or factor ids, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _runs(starts, lengths: np.ndarray, steps=None) -> np.ndarray:
    """range(s, s + n * d, d) for each (s, n, d), concatenated, d 1 unless
    `steps` are given: one arange and a repeat or two, no cumsum per entry."""
    ends = lengths.cumsum()
    at = np.arange(ends[-1] if len(ends) else 0)
    if steps is None:
        return at + (starts + lengths - ends).repeat(lengths)
    return at * steps.repeat(lengths) + (starts + (lengths - ends) * steps).repeat(lengths)


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
    keys, rank, dims, keys_of, masks, neighbors, live = graph.numbering
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
    # per factor id, graph's then products': key set, rows
    masks = list(masks)
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
            picks.append((v, fids, plist, product, rows, parents, cols))

    # parents are ordered by elimination position, known once every pick is; a
    # step whose variable and parents are the last step's parents joins its
    # front (taking its product, `inner`). Per graph factor its first row in
    # the buffer (`base`) and its front (`home`); per front (`spans`) its
    # start, stop, offset, width, rows, first solution entry, frontal columns
    # and its product's slot (buffer position and consuming front), and
    # its columns' variables in `fvar`, each front's closed by n (the rhs)
    base, home, fvar, record, spans, maker = [0] * n_graph, [0] * n_graph, [], [], [], {}
    edges, offset, inner = 0, 0, -1
    for i, (v, fids, plist, product, rows, mask, cols) in enumerate(picks):
        parents = sorted(plist, key=position.__getitem__) if len(plist) > 1 else plist
        edges += len(parents)
        if inner < 0:
            begin, x0, width, height = i, first[v], dims[v] + cols + 1, 0
            fvar += [v, *parents, n]
        for f in fids:
            if f == inner:
                continue
            if f < n_graph:
                base[f], home[f] = offset + height, len(spans)
            else:
                spans[maker[f]][7:] = offset + height, len(spans)
            height += rows_of[f]
        if product >= 0:
            maker[product] = len(spans)
        record += (len(fids), *fids, len(parents), *parents, product)
        inner = product
        if product < 0 or i + 1 == len(picks) or mask != picks[i + 1][5] | 1 << picks[i + 1][0]:
            spans.append([begin, i + 1, offset, width, height, x0, width - 1 - cols, 0, 0])
            offset, inner = offset + height * width, -1
    dims, first, fvar, base, home, height = (np.array(a, dtype=np.intp) for a in (
        dims, first + [-1], fvar, base, home, rows_of[:n_graph]))
    _, _, o, w, m, _, c, to, ct = np.array(spans, dtype=np.intp).reshape(-1, 9).T
    nf, ws = len(spans), w.cumsum() - w

    # every front's columns, expanded once: per column its front `fc`, its
    # variable `rk` and its entry `wi` in that variable; `colmap` has each
    # front's first stack column of each of its variables
    ends = fvar == n
    fv, lens = ends.cumsum() - ends, dims[fvar]
    fc, rk, wi = fv.repeat(lens), fvar.repeat(lens), _runs(0, lens)
    colmap = np.zeros((nf, n + 1), dtype=np.intp)
    colmap[fv, fvar] = lens.cumsum() - lens - ws[fv]

    # the assembly map, a group per key block and rhs of each graph factor
    # (`key` its variable, n for the rhs; `g` its factor) over solution
    # entries from `sol` (-1: the rhs), and a row per group row: `r` its row
    # in the group, `dim` entries from `head` in `flat` and from `start` in
    # the buffer, `stride` (its front's rows) apart. Weight-1 rows are
    # numbered from 0 in factor order, from `hard_row`
    key = np.fromiter(chain.from_iterable(keys_of[:n_graph]), dtype=np.intp)
    ends = key == n
    g = ends.cumsum() - ends
    weight = np.array([s[2] for s in structure], dtype=float)
    hard = np.where(weight == 1.0, height, 0)
    height, home = height[g], home[g]
    r, sizes = _runs(0, height), height * dims[key]
    start, stride, weight, hard_row, sol, dim = (a.repeat(height) for a in (
        base[g] + colmap[home, key] * m[home], m[home], weight[g], (hard.cumsum() - hard)[g],
        first[key], dims[key]))
    head = (sizes.cumsum() - sizes).repeat(height) + r * dim
    dest = _runs(start + r, dim, stride)
    soft, rhs = weight != 1.0, sol < 0
    coef = ~(soft | rhs)
    n_coef = dim[coef]
    pos = _runs(head[coef], n_coef)
    check = (pos, pos + (sol - head)[coef].repeat(n_coef), (hard_row + r)[coef].repeat(n_coef),
             head[rhs & ~soft])
    scale = dest[_runs(head[soft], dim[soft])], weight[soft].repeat(dim[soft])

    # the numeric phase's tables over each front's rows m, width w and frontal
    # columns c, as buffer positions (one zero at `offset` is read for
    # entries off a front's R). dgeqrf leaves the product in R rows c to
    # min(m, w - 1) - 1 (the R row w - 1 holds only a rhs, whatever the
    # numbers: the leftover); a front that leaves some has a consumer.
    # The handoff copies the upper triangular entries of each product row
    # (`i` its row in the product, `q` its entries) to the consumer's slot,
    # row by row: stack column c + i + k goes to row i of the slot, in the
    # consumer's column of the same variable entry (`slot`, per column)
    rows = np.maximum(np.minimum(m, w - 1) - c, 0)
    fr, i = np.arange(nf).repeat(rows), _runs(0, rows)
    q, mr = (w - c)[fr] - i, m[fr]
    src = _runs(o[fr] + (c[fr] + i) * (mr + 1), q, mr)
    slot = (colmap[ct[fc], rk] + wi) * m[ct][fc] + to[fc]
    dst = slot[_runs((ws + c)[fr] + i, q)] + i.repeat(q)
    cut = list(accumulate((rows * (w - c) - rows * (rows - 1) // 2).tolist(), initial=0))
    fronts = tuple((*s[:7], src[a:b], dst[a:b], x)
                   for s, a, b, x in zip(spans, cut, cut[1:],
                                         accumulate((c * w).tolist(), initial=0)))
    # the fronts' R rows, row-major and one front after another (lower
    # triangles, and rows past a short front's end, read the zero; `fe` is
    # each row's front, `t` its column there)
    fe, t = np.arange(nf).repeat(c), _runs(0, c)
    wf, mf = w[fe], m[fe]
    gather = _runs(o[fe] + t, wf, mf)
    gather[_runs(wf.cumsum() - wf, np.where(t < mf, t, wf))] = offset
    # each R row entry's place in the column-major size x (size + 1) system:
    # row its solution entry, column the solution entry of its stack column,
    # or size for the rhs (whose first entry is -1)
    system = ((first[rk] + wi) % (size + 1) * size)[_runs(ws[fe], wf)]
    system += np.arange(size).repeat(wf)
    return EliminationPlan(tuple(slices), tuple(record), edges, fill_in, size, slices, offset,
                           dest, scale, check, fronts, gather, (o + (w - 1) * (m + 1))[m >= w],
                           system)


def ordering_request(ordering):
    """An ordering request as `plan_for` reads it: a scheme name in lower
    case ("auto" is "md"), or a tuple of VarKeys parsed from VarKeys or
    their text (e.g. "qdd1"). ValueError names a request that is neither,
    or its first bad item."""
    if isinstance(ordering, str):
        return "md" if ordering.lower() == "auto" else ordering.lower()
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


def plan_for(graph: FactorGraph, ordering) -> EliminationPlan:
    """The plan for an ordering request (see `ordering_request`). "md" is
    minimum degree; "nd" is minimum degree inside `nested_dissection_groups`;
    any other name or a key sequence is the fixed ordering of
    `classic_ordering`. Each call plans afresh; `transcribe.solve_dynamics`
    keeps the plan of each problem shape in its model's solve templates.
    """
    request = ordering_request(ordering)
    if request == "md":
        groups = None
    elif request == "nd":
        groups = nested_dissection_groups(graph)
    else:
        groups = [(v,) for v in classic_ordering(graph, request)]
    return plan_elimination(graph, groups)


def scatter(plan: EliminationPlan, flat: np.ndarray) -> np.ndarray:
    """A fresh buffer of the plan's layout holding a graph's `flat` listing
    (`FactorGraph.flat`) at `EliminationPlan.dest`. Soft rows are scaled by
    their weight; every other entry, the trailing one included, is zero."""
    data = np.zeros(plan.buffer_size + 1)
    data[plan.dest] = flat
    pos, weight = plan.scale
    data[pos] *= weight
    return data


def _eliminate_buffer(plan: EliminationPlan, data: np.ndarray, solve: bool = False) -> tuple:
    """Reduce every front of a buffer of the plan's layout, as `scatter`
    fills one, and gate the result (see `eliminate`): the DAG and, if
    `solve`, the flat solution (see `_solution`), else None.

    Per front in plan order: one dgeqrf in place (a one-row stack is its
    own R, as LAPACK leaves it) and the handoff of its product. The R rows
    and the leftover come out in one gather each. The plan's tables are
    only read, so any number of solves may share it across threads; the
    buffer is the caller's, and so is the triangular system while the solve
    holds it (see `_with_system`)."""
    for _, _, o, w, m, _, _, src, dst, _ in plan.fronts:
        if m > 1:
            dgeqrf(data[o:o + m * w].reshape(w, m).T, overwrite_a=1)
        data[dst] = data[src]
    rows = data[plan.gather]
    rcond, x = _with_system(plan, rows, True, solve)
    return EliminationDag(data[plan.leftover], plan, rows, rcond), x


def _hard_residual(plan: EliminationPlan, flat: np.ndarray, x: np.ndarray) -> float:
    """The largest absolute residual of the weight-1 rows of the graph whose
    listing is `flat`, at the flat solution `x`: one gathered product over
    their entries in `flat` (the plan's `check`)."""
    pos, entry, row, rhs = plan.check
    r = np.bincount(row, flat[pos] * x[entry], minlength=rhs.size) - flat[rhs]
    return float(np.abs(r).max(initial=0.0))


def eliminate(graph: FactorGraph, ordering) -> EliminationDag:
    """Eliminate every variable under the plan for `ordering`, producing a DAG.

    `ordering` is any request `plan_for` takes, usually a key sequence, and
    is planned afresh on each call. The graph's `flat` listing is scattered
    into the buffer the plan lays out, weighted, so each front's stack holds
    its input row blocks in the plan's columns. Every front's stack is
    orthogonally reduced, in place in the buffer and in plan order: each
    variable's block rows, kept as they are (`[R_ff | R_fp | d]`), are its
    conditional, and the rows below become a factor over the last step's
    parents, copied into the slot of the stack that consumes it. No row is
    cut: a front's R row with no coefficient only holds a right-hand side,
    which goes to `leftover`.

    Rank is decided once, on the whole R: the gate raises RankDeficient
    when LAPACK `dtrcon`'s estimate of its reciprocal 1-norm condition
    number is not above `size` x 1e-9 (NaN fails), naming the variables a
    near-null vector touches (see `_gate`). A step that its rows cannot
    determine leaves an exactly zero pivot, whose estimate is 0.
    """
    plan = plan_for(graph, ordering)
    return _eliminate_buffer(plan, scatter(plan, graph.flat))[0]


_spare = deque(maxlen=1)  # the last system given back, zeroed


def _with_system(plan: EliminationPlan, rows: np.ndarray, gate: bool, solve: bool) -> tuple:
    """The gate's reciprocal condition estimate (`_gate`) if `gate` and the
    flat solution (`_solution`) if `solve`, each None otherwise, on the R
    rows scattered into a zeroed column-major `size` x (`size` + 1) upper
    triangular system, the rhs last (`plan.system`).

    The system is the spare one if that has this size, else a new one. On
    every path, an error included, it is zeroed again at `plan.system` (the
    steps only read it) and kept as the spare, which drops the one before:
    the module keeps one system, 8 `size` (`size` + 1) bytes for the last
    size solved (585 KiB at tree21's 273 unknowns, 78 MB at 3,120). Each
    benchmark workload solves a single size, so its solves pay no
    allocation and no page faults (a new tree21 system faulted about 150
    pages on crba and aba requests). Threads that solve at once take the
    spare or make their own."""
    n = plan.size
    try:
        system = _spare.pop()
    except IndexError:  # none spare, or another thread took it
        system = None
    if system is None or system.size != n * (n + 1):
        system = np.zeros(n * (n + 1))
    system[plan.system] = rows
    try:
        rcond = _gate(plan, system) if gate else None
        return rcond, _solution(plan, system) if solve else None
    finally:
        system[plan.system] = 0.0
        _spare.append(system)


def _gate(plan: EliminationPlan, system: np.ndarray) -> float:
    """The reciprocal 1-norm condition estimate of the system's R (Hager's
    estimator as LAPACK `dtrcon` runs it: a lower bound on ||R^-1||_1, so
    an estimate at or above the true reciprocal condition). Raises
    RankDeficient when it is not above n x 1e-9, n being `size`. The
    arbiter, `dense_solve`, refuses a graph whose sigma_min / sigma_max is
    at most 1e-9 (its rcond), and kappa_1 >= kappa_2 / n, so every graph it
    refuses has a reciprocal 1-norm condition at most n x 1e-9.

    The failure is named as `dense_solve` names its failures: one step of
    inverse iteration on R^T R (a solve with R^T, then one with R) from a
    fixed pseudo-random start, with R's non-finite entries zeroed and its
    pivots raised to eps max|R|, gives a near-null vector. A plain solve
    with R from all ones misses the null vector of an R whose row with a
    zero pivot repeats a later row (its left null vector is orthogonal to
    the ones). Every variable whose entries in the vector are above 1e-6 of
    its largest finite one (or not finite) is touched, and the last touched
    in `graph.variables` order is the key."""
    n = plan.size
    r = system[:n * n].reshape(n, n).T
    rcond = dtrcon(r, norm="1")[0]
    if rcond > n * 1e-9:
        return rcond
    with np.errstate(all="ignore"):
        r = np.where(np.isfinite(r), r, 0.0)
        floor = np.finfo(float).eps * (np.abs(r).max() or 1.0)
        d = r.diagonal()
        np.fill_diagonal(r, np.where(np.abs(d) < floor, floor, d))
        z = dtrtrs(r, np.random.default_rng(0).uniform(0.5, 1.5, n), trans=1)[0]
        z = np.abs(dtrtrs(r, z)[0])
        touched = ~(z <= 1e-6 * np.max(z, where=np.isfinite(z), initial=0.0))
    keys = sorted(v for v, s in plan.slices.items() if touched[s].any())
    raise RankDeficient(keys[-1], f"reciprocal condition estimate {rcond:.2g}, "
                        f"not above {n} x 1e-9", keys=keys)


def back_substitute(dag: EliminationDag) -> dict:
    """Solve for every variable: one triangular solve over the DAG's R rows.

    The plan fixes the layout: one flat solution vector with a slice per
    variable, in elimination order, and the place of every R row entry in
    a `size` x (`size` + 1) upper triangular system, the rhs last (see
    `_solution`). Returns {key: view into that vector}. The DAG's R passed
    the gate when it was eliminated, so it has no zero pivot; a hand-built
    DAG may, and then RankDeficient names the first zero pivot in
    elimination order. ValueError if the solution is not finite (an
    infinite or NaN rhs, which the gate does not read, or an overflow),
    naming its last non-finite entry in elimination order: the source,
    since a NaN or infinity spreads only to the entries eliminated before
    it.
    """
    x = _with_system(dag.plan, dag.rows, False, True)[1]
    return {v: x[s] for v, s in dag.plan.slices.items()}


def _solution(plan: EliminationPlan, system: np.ndarray) -> np.ndarray:
    """The flat solution vector `back_substitute` hands out views of: one
    `dtrtrs` over the system (see `_with_system`), whose cost grows as size^2
    whatever the sparsity. Forward dynamics of a serial chain under "md",
    on a 2-vCPU Xeon: 15 µs at size 78 (6 joints) and 46 µs at 273 (21
    joints), where a loop over the fronts (a gather, a matvec and a
    `dtrtrs` each) took 66 and 222 µs. The two meet near size 1,560 (120
    joints, 358 fronts); at 3,120 the dense solve takes 10.4 ms to the
    loop's 2.8 ms.

    Errors, first to last: the gate ran before (`_eliminate_buffer`, so a
    solve raises its RankDeficient and never gets here); then LAPACK's
    info, a zero pivot that only a hand-built DAG has, as RankDeficient;
    then a non-finite solution as ValueError."""
    n = plan.size
    x, info = dtrtrs(system[:n * n].reshape(n, n).T, system[n * n:]) if n else (system, 0)
    if info:
        bad = next(v for v, s in plan.slices.items() if s.stop >= info)
        raise RankDeficient(bad, f"triangular solve failed (LAPACK info {info})")
    if not np.isfinite(x).all():
        at = np.flatnonzero(~np.isfinite(x))[-1]
        bad = next(v for v, s in plan.slices.items() if s.stop > at)
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
        for i, ((keys, _, _), (name, folded)) in enumerate(zip(obj.structure, obj.labels)):
            label = f' // {name}' if name else ""
            lines.append(f'  "f{i}" [shape=point];{label}')
            for v in keys:
                lines.append(f'  "f{i}" -- "{v}";')
            for k in folded:
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
