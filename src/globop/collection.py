"""Collections: globular sets equipped with a pasting-diagram arity map.

Also home to the labelling enumerator (a labelling of a shape by a globular
set is a globular map, so labels of higher cells force the labels of their
boundary cells) and to ``labelling_fits``, the memo of the labellings of an
arity split at the arity bound: with an operation, a labelling of its arity
is a cell of a tensor product and the argument of every multiplication and
operad law.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import pasting
from .globset import GlobularSet, glob_set
from .pasting import (
    CellAddr,
    LabelledDiagram,
    PastingDiagram,
    all_cells,
    boundary,
    cell_ends,
    enumerate_trees,
    size,
    subst_arities,
    unit_tree,
)
from .report import Report
from .util import Keyed


@dataclass(frozen=True)
class Bounds:
    max_dim: int
    max_arity_size: int
    max_term_size: int

    def __post_init__(self):
        values = (self.max_dim, self.max_arity_size, self.max_term_size)
        if any(type(v) is not int for v in values):
            raise ValueError(f"bounds must be ints, got {values!r}")
        if min(values) < 0:
            raise ValueError("bounds must be non-negative")

    def check_unit(self, d: int) -> None:
        """Raise ``ValueError`` unless the unit at dimension ``d``, of arity size ``2d + 1``, fits."""
        if 2 * d + 1 > self.max_arity_size:
            raise ValueError(f"max-arity-size must be at least {2 * d + 1} to fit the unit at dimension {d}")


@dataclass(frozen=True)
class Overflow:
    """Aggregated record of candidates a step refused to materialize."""

    step: str
    dim: int
    reason: str
    count: int
    sample: tuple = ()


@dataclass(frozen=True, eq=True)
class Collection(GlobularSet):
    """A globular set whose ``arity[k]`` maps each k-cell to its k-diagram."""

    arity: tuple[dict, ...]

    def arity_of(self, k: int, c) -> PastingDiagram:
        return self.arity[k][c]

    def has_cell(self, k: int, c) -> bool:
        return c in self.arity[k]


def make_collection(cells_by_dim, src, tgt, arity) -> Collection:
    g = glob_set(cells_by_dim, src, tgt)
    return Collection(g.cells, g.src, g.tgt, tuple(dict(a) for a in arity))


def add_cells(coll: Collection, d: int, new, src, tgt, arity) -> Collection:
    """``coll`` with the cells ``new`` appended to layer ``d``, their src, tgt
    (from dimension 1) and arity read from the mappings given.  Every other
    layer's tables are shared with ``coll``."""

    def extend(layers: tuple, table) -> tuple:
        layer = dict(layers[d])
        layer.update((c, table[c]) for c in new)
        return (*layers[:d], layer, *layers[d + 1 :])

    cells = (*coll.cells[:d], coll.cells[d] + tuple(new), *coll.cells[d + 1 :])
    ends = (extend(coll.src, src), extend(coll.tgt, tgt)) if d >= 1 else (coll.src, coll.tgt)
    return Collection(cells, *ends, extend(coll.arity, arity))


def empty_collection(max_dim: int = 0) -> Collection:
    n = max_dim + 1
    return Collection(((),) * n, ({},) * n, ({},) * n, ({},) * n)


def check_collection(a: Collection) -> Report:
    """The arity map must be globular: arities of src and tgt are the arity's
    boundary.  A contraction cell carries its own arity, src and tgt, and
    the tables must agree with them."""
    from .contraction import CtrCell

    rep = Report("collection")
    for k in range(a.max_dim + 1):
        for c in a.cells_at(k):
            if c not in a.arity[k]:
                rep.add("cell has no arity", witness=(k, c))
                continue
            if isinstance(c, CtrCell):
                if a.arity_of(k, c) != c.theta:
                    rep.add("arity of a contraction cell differs from its theta", witness=(k, c))
                if k >= 1 and a.src[k].get(c) != c.a:
                    rep.add("src of a contraction cell differs from its a", witness=(k, c))
                if k >= 1 and a.tgt[k].get(c) != c.b:
                    rep.add("tgt of a contraction cell differs from its b", witness=(k, c))
            if a.arity_of(k, c).dim != k:
                rep.add("arity dimension differs from cell dimension", witness=(k, c))
                continue
            if k >= 1:
                b = boundary(a.arity_of(k, c))
                if a.arity_of(k - 1, a.src_of(k, c)) != b:
                    rep.add("arity of src is not the boundary of the arity", witness=(k, c))
                if a.arity_of(k - 1, a.tgt_of(k, c)) != b:
                    rep.add("arity of tgt is not the boundary of the arity", witness=(k, c))
    return rep


def unit_collection(max_dim: int) -> Collection:
    """One cell per dimension, with the single-cell diagram as arity."""
    cells = [[("u", k)] for k in range(max_dim + 1)]
    src = [{("u", k): ("u", k - 1)} for k in range(max_dim + 1)]
    tgt = [{("u", k): ("u", k - 1)} for k in range(max_dim + 1)]
    arity = [{("u", k): unit_tree(k)} for k in range(max_dim + 1)]
    return make_collection(cells, src, tgt, arity)


def one_cell_collection(max_dim: int = 0) -> Collection:
    """A single 0-cell named "v" (padding empty layers up to max_dim)."""
    layers = max_dim + 1
    cells = [["v"]] + [[] for _ in range(layers - 1)]
    src = [{} for _ in range(layers)]
    tgt = [{} for _ in range(layers)]
    arity = [{"v": PastingDiagram(0, ())}] + [{} for _ in range(layers - 1)]
    return make_collection(cells, src, tgt, arity)


def terminal_collection(bounds: Bounds) -> Collection:
    """The bounded slice of the diagram family itself: cells are diagrams,
    src and tgt are the boundary, the arity is the identity."""
    cells, src, tgt, arity = [], [], [], []
    for k in range(bounds.max_dim + 1):
        layer = enumerate_trees(k, bounds.max_arity_size)
        cells.append(layer)
        src.append({t: boundary(t) for t in layer} if k >= 1 else {})
        tgt.append({t: boundary(t) for t in layer} if k >= 1 else {})
        arity.append({t: t for t in layer})
    return make_collection(cells, src, tgt, arity)


def truncate(a: Collection, k: int) -> Collection:
    """Discard all cells of dimension greater than k."""
    n = min(k, a.max_dim) + 1
    return Collection(a.cells[:n], a.src[:n], a.tgt[:n], a.arity[:n])


# ---------------------------------------------------------------------------
# labellings of a shape by a globular set


def labelling_order(shape: PastingDiagram) -> list[int]:
    """The positions in ``all_cells(shape)`` in the order
    ``enumerate_labellings`` assigns them: top dimension first, then by
    path.  It yields labellings sorted by the candidate positions of their
    labels read in this order."""
    addrs = all_cells(shape)
    return sorted(range(len(addrs)), key=lambda p: (-addrs[p].dim, addrs[p].path))


def enumerate_labellings(
    shape: PastingDiagram, family: GlobularSet, overrides: dict[CellAddr, list] | None = None
) -> list[tuple]:
    """All labellings of ``shape`` by ``family``: maps of globular sets, a
    j-cell labelled by a j-cell of ``family``, so that the label of every
    cell's source/target is the source/target of that cell's label.  Each
    is its label tuple, aligned with ``all_cells(shape)``.

    Cells are assigned top dimension first, so boundary labels are forced by
    the time their turn comes.  ``overrides`` narrows the candidate list of
    individual cells that nothing forces, such as top cells: a cell forced by
    a higher cell's label takes the forced label, and its override is ignored
    without a sign.  Deterministic output order.
    """
    addrs = all_cells(shape)
    order = labelling_order(shape)
    dims = [a.dim for a in addrs]
    ends = [None] * len(addrs)
    for p, s, t in cell_ends(shape):
        ends[p] = (s, t)
    narrowed = [overrides.get(a) for a in addrs] if overrides else [None] * len(addrs)
    free = object()
    forced = [free] * len(addrs)
    assign = [None] * len(addrs)
    last = len(order)
    out: list[tuple] = []

    def place(i: int) -> None:
        if i == last:
            out.append(tuple(assign))
            return
        p = order[i]
        dim = dims[p]
        if forced[p] is not free:
            options = (forced[p],)
        elif narrowed[p] is not None:
            options = narrowed[p]
        else:
            options = family.cells[dim]
        if ends[p] is None:
            for lab in options:
                assign[p] = lab
                place(i + 1)
            return
        s, t = ends[p]
        src, tgt = family.src[dim], family.tgt[dim]
        for lab in options:
            # both neighbours agree before either is pushed
            fs = forced[s]
            vs = src[lab]
            if fs is not free and fs != vs:
                continue
            ft = forced[t]
            vt = tgt[lab]
            if ft is not free and ft != vt:
                continue
            if fs is free:
                forced[s] = vs
            if ft is free:
                forced[t] = vt
            assign[p] = lab
            place(i + 1)
            if fs is free:
                forced[s] = free
            if ft is free:
                forced[t] = free

    place(0)
    return out


def count_labellings(shape: PastingDiagram, family: GlobularSet, weights, limit) -> tuple[int, int]:
    """The numbers of the labellings ``enumerate_labellings`` finds, without
    overrides, of weight within ``limit`` and over it.  ``weights[j]`` maps
    every label that can sit on a cell of dimension j to its weight, which
    may be negative; a labelling weighs the sum over its cells.

    A pasting diagram is a tree: a labelling of a column at depth j between
    the (j - 1)-cells s and t labels its points by j-cells from s to t (any
    0-cells for ``shape`` itself, at depth 0), one after another, and each
    of its columns by the hom between the labels of the points on either
    side.  A column's labellings are tallied by the
    excess of their labels over the least weight of each dimension, capped
    past the limit, and memoized on the column, its depth and its ends.
    """
    least = [min(weights[j].values(), default=0) for j in range(shape.dim + 1)]
    # a tally maps each excess below ``cap`` to its number of labellings,
    # and ``cap`` to those past the limit less the least weights of the cells
    cap = max(limit - sum([least[a.dim] for a in all_cells(shape)]) + 1, 0)
    # per dimension j, the j-cells with their excess, by their (src, tgt)
    homs: list[dict] = []
    for j, m in enumerate(least):
        hom: dict = {}
        src, tgt, weight = family.src[j], family.tgt[j], weights[j]
        for lab in family.cells[j]:
            hom.setdefault((src[lab], tgt[lab]) if j else None, []).append((lab, weight[lab] - m))
        homs.append(hom)
    memo: dict = {}

    def add(into: dict, a: dict, b: dict, shift: int) -> None:
        # the product of the tallies ``a`` and ``b``, shifted, added to ``into``
        for e, n in a.items():
            for f, k in b.items():
                g = min(e + f + shift, cap)
                into[g] = into.get(g, 0) + n * k

    def column(c: PastingDiagram, j: int, ends) -> dict[int, int]:
        key = (c, j, ends)
        if key in memo:
            return memo[key]
        points = homs[j].get(ends, ())
        # per label of the last point placed, the tally of the labellings so far
        row = {x: {min(e, cap): 1} for x, e in points}
        for child in c.children:
            nxt: dict = {}
            for x, before in row.items():
                for y, e in points:
                    tally = column(child, j + 1, (x, y))
                    if tally:
                        add(nxt.setdefault(y, {}), before, tally, e)
            row = nxt
        total: dict = {}
        for tally in row.values():
            add(total, tally, {0: 1}, 0)
        memo[key] = total
        return total

    tally = column(shape, 0, None)
    over = tally.get(cap, 0)
    return sum(tally.values()) - over, over


def collection_labellings(shape: PastingDiagram, b: Collection, overrides=None) -> list[LabelledDiagram]:
    return [LabelledDiagram(shape, labels) for labels in enumerate_labellings(shape, b, overrides)]


def labelling_fits(b: Collection, max_arity_size: int):
    """A memo of ``shape -> (fits, over)``: the labellings of ``shape`` by
    cells of ``b``, as label tuples in ``enumerate_labellings`` order, split
    at ``max_arity_size`` by the substitution of their labels' arities into
    ``shape``.  ``fits`` pairs each labelling within the bound with that
    composite; ``over`` holds the labellings over it.  Labellings are
    enumerated once per shape."""

    @cache
    def split(shape: PastingDiagram) -> tuple[tuple, tuple]:
        addrs = all_cells(shape)
        fits, over = [], []
        for labels in enumerate_labellings(shape, b):
            composite = subst_arities(shape, tuple(b.arity_of(a.dim, lab) for a, lab in zip(addrs, labels)))
            if size(composite) <= max_arity_size:
                fits.append((labels, composite))
            else:
                over.append(labels)
        return tuple(fits), tuple(over)

    return split


# ---------------------------------------------------------------------------
# tensor product


@dataclass(frozen=True, slots=True)
class PairCell(Keyed):
    """A cell of a tensor product: a left cell with a labelling of its arity
    by right cells."""

    left: object
    labelling: LabelledDiagram


@dataclass(frozen=True)
class TensorResult:
    collection: Collection
    overflows: tuple[Overflow, ...]


def tensor(a: Collection, b: Collection, bounds: Bounds) -> TensorResult:
    """Bounded tensor product of collections.

    k-cells are pairs of a k-cell of ``a`` with a compatible labelling of its
    arity by cells of ``b``; the arity of a pair is the substitution of the
    labels' arities.  Pairs whose arity exceeds the bound are counted, not
    silently dropped.
    """
    top = min(a.max_dim, bounds.max_dim)
    cells, src, tgt, arity = [], [], [], []
    split = labelling_fits(b, bounds.max_arity_size)
    # the number of pairs over the bound, and the first three of them
    skipped, samples = 0, []
    for k in range(top + 1):
        layer, layer_src, layer_tgt, layer_arity = [], {}, {}, {}
        for left in a.cells_at(k):
            shape = a.arity_of(k, left)
            fits, over = split(shape)
            skipped += len(over)
            for labels in over[: 3 - len(samples)]:
                samples.append((k, PairCell(left, LabelledDiagram(shape, labels))))
            for labels, composed in fits:
                phi = LabelledDiagram(shape, labels)
                pair = PairCell(left, phi)
                layer.append(pair)
                layer_arity[pair] = composed
                if k >= 1:
                    layer_src[pair] = PairCell(a.src_of(k, left), pasting.boundary_restrict(phi, 0))
                    layer_tgt[pair] = PairCell(a.tgt_of(k, left), pasting.boundary_restrict(phi, 1))
        cells.append(tuple(layer))
        src.append(layer_src)
        tgt.append(layer_tgt)
        arity.append(layer_arity)
    overflows = ()
    if skipped:
        sample = tuple(repr(s) for s in samples)
        overflows = (Overflow(step="tensor", dim=-1, reason="arity", count=skipped, sample=sample),)
    return TensorResult(make_collection(cells, src, tgt, arity), overflows)
