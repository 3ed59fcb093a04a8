"""Operad structures on collections and the dimensionwise free operad steps.

Cells freely added at dimension d are normal-form terms: the formal unit, or
a generator grafted with a labelling of its arity whose d-dimensional labels
are themselves normal forms and whose lower labels are existing cells.  A
generator composed with the all-unit labelling collapses to the bare
generator, so the embedding of the input cells into the free structure is the
identity and the right unit law holds by construction.

The new dimension is built as a union of strata: stratum 0 holds the unit,
stratum n+1 everything expressible with top labels from stratum n.  Strata
grow monotonically and stabilize under the bounds; the step reports the
stabilization depth.  Boundaries of new terms are evaluated eagerly in the
operad structure one dimension down and stored in the cell tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from itertools import product
from operator import itemgetter
from typing import Callable
from weakref import KeyedRef

from .collection import Bounds, Collection, Overflow, add_cells, configurations, count_labellings
from .collection import enumerate_labellings, labelling_fits, labelling_order
from .globset import GlobularSet
from .pasting import (
    LabelledDiagram,
    PastingDiagram,
    all_cells,
    boundary,
    boundary_slicer,
    cell_ends,
    cells,
    emb_map,
    inner_size,
    labelled,
    size,
    slicers,
    subst_arities,
    unit_tree,
)
from .report import Report
from .util import Keyed, canonical_key, new_cell


_units: dict = {}
_nodes: dict = {}
_TRANSIENT = object()  # tags a transient (see ``_plan``): cells can be tuples


@dataclass(frozen=True, slots=True, eq=False, init=False)
class UnitTerm(Keyed):
    """The formal unit at a dimension; interned (see ``util.Keyed``)."""

    dim: int

    def __new__(cls, dim: int):
        try:
            return _units[dim]
        except KeyError:
            self = _units[dim] = new_cell(cls, (dim,))
            return self

    def __repr__(self):
        return f"UnitTerm({self.dim})"


def _drop_node(ref, nodes=_nodes):
    # the callback of a dead node's weak reference; a live node built later
    # under the same key has replaced the entry, so look before deleting
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


@dataclass(frozen=True, slots=True, eq=False, init=False)
class NodeTerm(Keyed):
    """A generator grafted with a labelling of its arity.

    ``labels`` is aligned with ``all_cells`` of the generator's arity; entries
    at the node's own dimension are terms, lower entries are plain cells.
    Interned through a table of weak references (see ``util.Keyed``).
    """

    dim: int
    gen: object
    labels: tuple

    def __new__(cls, dim: int, gen, labels: tuple):
        key = (dim, gen, labels)
        ref = _nodes.get(key)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = new_cell(cls, key)
        _nodes[key] = KeyedRef(self, _drop_node, key)
        return self


@dataclass
class OperadStructure:
    """A collection with unit cells and one multiplication per dimension.

    ``mults[d](op, d, a, phi)`` composes the d-cell ``a`` with a labelling
    ``phi`` of its arity by cells of ``op.over``; a freely built dimension
    uses ``term_mult``.  Entries of ``products``, keyed by
    ``(d, a, phi.labels)``, take precedence over the multiplications.
    """

    over: Collection
    units: dict[int, object]
    mults: tuple[Callable[[OperadStructure, int, object, LabelledDiagram], object], ...]
    products: dict = field(default_factory=dict)
    # per shape, the unit labels of its cells, for the unit collapse of
    # nodes; ``units`` is not changed once nodes are built
    _unit_labels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def up_to_dim(self) -> int:
        return len(self.mults) - 1

    def mult(self, d: int, a, phi: LabelledDiagram):
        if self.products:
            try:
                return self.products[(d, a, phi.labels)]
            except KeyError:
                pass
        return self.mults[d](self, d, a, phi)


# ---------------------------------------------------------------------------
# structural term operations


def cell_arity(op: OperadStructure, j: int, c) -> PastingDiagram:
    """Arity of a cell.  The layer's table holds it for every cell of the
    collection; for composition results that were never materialized it is
    computed structurally."""
    try:
        return op.over.arity[j][c]
    except KeyError:
        pass
    if isinstance(c, UnitTerm):
        return unit_tree(j)
    if isinstance(c, NodeTerm):
        shape = op.over.arity_of(j, c.gen)
        return subst_arities(shape, _label_arities(op, shape, c.labels))
    return op.over.arity_of(j, c)


def _label_arities(op: OperadStructure, shape: PastingDiagram, labels: tuple) -> tuple:
    return tuple([cell_arity(op, x.dim, lab) for x, lab in zip(all_cells(shape), labels)])


def term_size(op: OperadStructure, j: int, c) -> int:
    """Number of grafting nodes at dimension j; lower labels are opaque."""
    if isinstance(c, UnitTerm):
        return 0
    if isinstance(c, NodeTerm):
        shape = op.over.arity_of(j, c.gen)
        return 1 + sum(
            term_size(op, j, lab)
            for a, lab in zip(all_cells(shape), c.labels)
            if a.dim == j
        )
    return 1


def _unit_labels(op: OperadStructure, shape: PastingDiagram) -> tuple:
    """The unit of each cell's dimension, per cell of ``shape``, memoized on ``op``."""
    units = op._unit_labels.get(shape)
    if units is None:
        units = op._unit_labels[shape] = tuple(op.units[x.dim] for x in all_cells(shape))
    return units


def term_mult(op: OperadStructure, d: int, a, phi: LabelledDiagram):
    """Grafting with unit collapse.

    ``phi`` lies over the arity of ``a``; its labels at dimension d are terms
    and its lower labels are cells.  Top labels of a node are composed with
    their slice of ``phi``, lower labels are composed in the lower operad.
    The shape is checked here; the product of ``a``'s plan is interned.
    """
    if isinstance(a, NodeTerm):
        shape = op.over.arity_of(d, a.gen)
        arity = subst_arities(shape, _label_arities(op, shape, a.labels))
    else:
        arity = cell_arity(op, d, a)
    if phi.shape != arity:
        raise ValueError("labelling shape differs from the arity of the operation")
    return _intern(_plan(op, d, a)(phi.labels))


def _plan(op: OperadStructure, d: int, a) -> Callable[[tuple], object]:
    """``term_mult`` on ``a`` without the shape check, as a function of the
    label tuple.  The arity, label arities and slicers of ``a`` are read
    once, here; each label of a node gets a plan, a top label its grafting
    and a lower label its ``_mult_plan`` behind ``op.products``.

    A plan interns nothing: a grafted node is the live ``NodeTerm`` of its
    key, else a transient ``(_TRANSIENT, d, gen, labels)``, which
    ``_intern`` makes a node where the term is kept.  A sub-term with a live
    node is that node, so two products are one term exactly when they are
    ``==``, and a transient equals no cell.  Hence the invariant: never
    compare a transient with a node interned after the transient was made.
    Only the law check compares them."""
    if isinstance(a, UnitTerm):
        return itemgetter(-1)  # the top cell comes last in all_cells
    gen = a.gen if isinstance(a, NodeTerm) else a
    shape = op.over.arity_of(d, gen)
    units = _unit_labels(op, shape)
    if gen is a:
        # bare generator: behaves as the unit-labelled node, so the slices
        # are exactly the labels
        return lambda labels: gen if labels == units else _live_node(d, gen, labels)
    arities = _label_arities(op, shape, a.labels)
    parts = [
        (_plan(op, d, lab) if x.dim == d else _mult_plan(op, x.dim, lab, op.products), take)
        for x, lab, take in zip(all_cells(shape), a.labels, slicers(shape, arities))
    ]

    def graft(labels):
        new = tuple([run(take(labels)) for run, take in parts])
        return gen if new == units else _live_node(d, gen, new)

    return graft


def _live_node(d: int, gen, labels: tuple):
    """The live ``NodeTerm`` of ``(d, gen, labels)``, else a transient."""
    ref = _nodes.get((d, gen, labels))
    node = ref() if ref is not None else None
    return (_TRANSIENT, d, gen, labels) if node is None else node


def _intern(t):
    """The cell of a grafting product: a transient becomes its ``NodeTerm``,
    labels first; any other value is returned as it is."""
    if _is_transient(t):
        _, d, gen, labels = t
        return NodeTerm(d, gen, tuple([_intern(lab) for lab in labels]))
    return t


def _is_transient(t) -> bool:
    return type(t) is tuple and len(t) == 4 and t[0] is _TRANSIENT


def _mult_plan(op: OperadStructure, j: int, a, products=None) -> Callable[[tuple], object]:
    """``op.mults[j]`` on ``a`` as a function of a label tuple: the plan of
    ``a`` if dimension j grafts, else a call through a ``LabelledDiagram``;
    no transient reaches it, as every structure built here (``extend_operad``
    appends grafting) grafts only above the dimensions that do not.  A
    non-empty ``products`` is looked up first, as ``op.mult`` does."""
    mult = op.mults[j]
    if mult is term_mult:
        run = _plan(op, j, a)
    else:
        arity = cell_arity(op, j, a)
        run = lambda labels: mult(op, j, a, LabelledDiagram(arity, labels))
    if not products:
        return run
    get = products.get
    return lambda labels: run(labels) if (r := get((j, a, labels))) is None else r


def counit_eval(y: OperadStructure, d: int, t):
    """Evaluate a term over the cells of ``y`` using y's own structure."""
    if isinstance(t, UnitTerm):
        return y.units[d]
    if isinstance(t, NodeTerm):
        if not y.over.has_cell(d, t.gen):
            raise KeyError(f"unknown generator {t.gen!r}")
        shape = y.over.arity_of(d, t.gen)
        new_labels = {
            a: counit_eval(y, d, lab) if a.dim == d else lab
            for a, lab in zip(all_cells(shape), t.labels)
        }
        return y.mult(d, t.gen, labelled(shape, new_labels))
    if not y.over.has_cell(d, t):
        raise KeyError(f"unknown generator {t!r}")
    return t


# ---------------------------------------------------------------------------
# operad structures over a collection


def extend_operad(lower: OperadStructure | None, coll: Collection, d: int) -> OperadStructure:
    """Operad structure over ``coll`` whose dimension-d multiplication is term
    grafting and whose lower dimensions are those of ``lower``."""
    units = lower.units if lower else {}
    mults = lower.mults if lower else ()
    return OperadStructure(coll, units | {d: UnitTerm(d)}, mults + (term_mult,))


def _substitute_mult(op: OperadStructure, d: int, a, phi: LabelledDiagram):
    if phi.shape != a:
        raise ValueError("labelling shape differs from the operation")
    return subst_arities(phi.shape, phi.labels)


def terminal_operad(bounds: Bounds) -> OperadStructure:
    """Diagrams as cells, substitution as multiplication."""
    from .collection import terminal_collection

    bounds.check_unit(bounds.max_dim)
    return OperadStructure(
        terminal_collection(bounds),
        {k: unit_tree(k) for k in range(bounds.max_dim + 1)},
        (_substitute_mult,) * (bounds.max_dim + 1),
    )


# ---------------------------------------------------------------------------
# the free steps


@dataclass
class FreeOperadResult:
    operad: OperadStructure
    new_dim: int
    stabilization_depth: int
    overflows: tuple[Overflow, ...]
    strata: dict = field(default_factory=dict)  # new cell -> stratum of first appearance


def free_operad_dim0(a: Collection, bounds: Bounds) -> FreeOperadResult:
    """Replace the 0-cells by all bounded normal-form composites of them."""
    return _free_at(a, None, 0, bounds)


def free_operad_step(x: OperadStructure, bounds: Bounds) -> FreeOperadResult:
    """One dimension of free operad structure on top of an operad up to k."""
    return _free_at(x.over, x, x.up_to_dim + 1, bounds)


def _free_at(coll: Collection, lower: OperadStructure | None, d: int, bounds: Bounds) -> FreeOperadResult:
    """The free operad step at dimension ``d``, built stratum by stratum.

    Stratum 1 tries each generator ``g`` with all labellings of its arity,
    stratum ``n > 1`` with those whose top labels come from earlier strata,
    one at least from stratum ``n - 1``.  A candidate is checked in this
    order, and only a survivor is made a ``NodeTerm`` and substituted:

    1. unit collapse: the unit labels give ``g`` itself, which is skipped;
    2. term size, ``1 + Σ tsize`` over the top labels, within the bound,
       else rejected as "term";
    3. arity, ``Σ inner_size`` of the labels' arities, within the bound,
       else rejected as "arity".  The labelling is globular (the collection
       was checked, and ``enumerate_labellings`` forces src and tgt), so the
       sum is the size of the substitution of the labels' arities into
       ``g``'s arity (see ``inner_size``), which is built only for a
       survivor, as its arity;
    4. for ``d >= 1``, the boundary: ``g``'s src and tgt, each with the
       labels on its side of the boundary of ``g``'s arity, must be keys of
       ``cell_products`` on the lower layer, made once per step (a candidate
       within the arity bound has its boundary within it), else rejected as
       "boundary".

    No node is built twice: in stratum ``n > 1`` the top labels before the
    first from stratum ``n - 1`` come from earlier strata, so its position
    splits the candidates, and a node lands in the stratum after the latest
    stratum of its top labels (the unit's is 0, a generator's 1).  The loop
    stops at the first stratum that adds nothing; the one before it is the
    stabilization depth.

    These are the checks made by building every candidate as a node and
    reading its ``term_size``, ``cell_arity`` and boundary, as the reference
    loop in ``tests/test_free_step.py`` does, on the same candidates in the
    same order, so the cells, tables, counts and samples do not move: a
    rejected candidate is made a node only to be one of the first three
    samples of its reason.  Where the lower dimension grafts, ``g``'s src
    and tgt must each have the boundary of ``g``'s arity as arity, else
    ``ValueError``: checked once per generator, before the loop.

    A generator whose arity has no top cell is tried in stratum 1 only; its
    candidates have term size 1, so check 2 or 3 rejects them as "arity",
    or as "term" if ``max_term_size`` is 0, when none reaches check 4.  The
    unit labelling is skipped, not rejected.

    Once "arity" and "boundary" hold their three samples, ``g``'s
    labellings within the bound and over it are only counted
    (``count_labellings``, once per arity shape and step).  ``g``'s arity
    has the cells of its boundary, in the same order and with the same
    ``labelling_order``, so a labelling is its src side, and the labellings
    within the bound whose src side composes to a lower cell are the
    entries of ``cell_products`` on the lower layer whose operation is
    ``g``'s src, as the size of the composite is the inner-size sum.  Less
    the unit labelling, they are the candidates whose src passes check 4,
    in enumeration order, and the loop checks them as any other candidate.
    The labellings over the bound are added to "arity", and the rest of
    those within it to "boundary", each less the unit labelling if it is on
    that side.  Every candidate that is neither returned nor counted would
    have been rejected as it is counted, with the samples full, so the
    cells, tables, counts and samples do not move.
    """
    if d > coll.max_dim:
        raise ValueError("collection has no layer at the requested dimension")
    bounds.check_unit(d)
    ctx = extend_operad(lower, coll, d)
    gens = list(coll.cells_at(d))
    unit = UnitTerm(d)
    max_term, max_arity = bounds.max_term_size, bounds.max_arity_size

    # the tables of the new layer (the plan adds the generators); the arity,
    # src and tgt of a lower cell are read from ``coll``, and its inner size
    # from its arity
    narity: dict = {unit: unit_tree(d)}
    ninner: dict = {unit: inner_size(unit_tree(d))}
    tsize: dict = {unit: 0}
    nsrc: dict = dict(coll.src[d])
    ntgt: dict = dict(coll.tgt[d])
    if d >= 1:
        nsrc[unit] = ntgt[unit] = ctx.units[d - 1]
    arity_tables = (*coll.arity[:d], narity)
    inner_tables = (*({c: inner_size(a) for c, a in layer.items()} for layer in coll.arity[:d]), ninner)
    src_tables = (*coll.src[:d], nsrc)
    tgt_tables = (*coll.tgt[:d], ntgt)

    # per generator: its arity, top cells, unit labels, the position of the
    # first top label (the top cells come last in all_cells), the tables each
    # label's arity and inner size are read from and, for d >= 1, its src and
    # tgt, each with the slicer of its side of the boundary of its arity
    plan = []
    for g in gens:
        shape = narity[g] = coll.arity_of(d, g)
        ninner[g] = inner_size(shape)
        tsize[g] = 1
        addrs, tops = all_cells(shape), cells(shape, d)
        sides = None
        if d >= 1:
            bshape = boundary(shape)
            heads = (coll.src_of(d, g), coll.tgt_of(d, g))
            if ctx.mults[d - 1] is term_mult and any(cell_arity(ctx, d - 1, h) != bshape for h in heads):
                raise ValueError("labelling shape differs from the arity of the operation")
            sides = [(h, boundary_slicer(shape, i)) for i, h in enumerate(heads)]
        tables = [arity_tables[x.dim] for x in addrs]
        inners = [inner_tables[x.dim] for x in addrs]
        plan.append((g, shape, tops, _unit_labels(ctx, shape), len(addrs) - len(tops), tables, inners, sides))

    def fits(terms):
        # a node is at least one bigger than any of its top labels
        return [t for t in terms if tsize[t] <= max_term - 1]

    strata: dict = {}
    # per reason, the number of rejected candidates and the first three,
    # which are all the state records of them
    rejected = dict.fromkeys(("term", "arity", "boundary"), 0)
    samples: dict[str, list] = {reason: [] for reason in rejected}

    def reject(reason, g, labels):
        rejected[reason] += 1
        if len(samples[reason]) < 3:
            samples[reason].append(NodeTerm(d, g, labels))

    # the lower products that are cells, and their label tuples grouped by
    # operation, made once per step
    products: dict = cell_products(ctx, bounds, [d - 1]) if d >= 1 else {}
    products_by_op: dict = {}
    for _, a, q in products:
        products_by_op.setdefault(a, []).append(q)

    @cache
    def count(shape):
        # the labellings of an arity without top cells within the arity bound
        # and over it, each counted once per step
        return count_labellings(shape, family, inner_tables, max_arity)

    # the top labels of the strata before the last, and the terms of the last
    top_old: list = []
    frontier: list = [unit]
    n = 0
    while frontier:
        n += 1
        additions = []
        top_frontier = fits(frontier)
        family = GlobularSet((*coll.cells[:d], top_old + top_frontier), src_tables, tgt_tables)
        for g, shape, tops, units, first_top, tables, inners, sides in plan:
            if n > 1:
                labellings = []
                for pos in range(len(tops)):
                    overrides = {tops[i]: top_old for i in range(pos)}
                    overrides[tops[pos]] = top_frontier
                    labellings.extend(enumerate_labellings(shape, family, overrides))
            elif not tops and len(samples["arity"]) == len(samples["boundary"]) == 3:
                unit_over = sum([inner[lab] for inner, lab in zip(inners, units)]) > max_arity
                within, over = count(shape)
                labellings = [q for q in products_by_op.get(coll.src_of(d, g), ()) if q != units]
                rejected["arity"] += over - unit_over
                rejected["boundary"] += within - (not unit_over) - len(labellings)
            else:
                labellings = enumerate_labellings(shape, family)
            for labels in labellings:
                if labels == units:
                    continue
                ts = 1 + sum([tsize[lab] for lab in labels[first_top:]])
                if ts > max_term:
                    reject("term", g, labels)
                    continue
                if sum([inner[lab] for inner, lab in zip(inners, labels)]) > max_arity:
                    reject("arity", g, labels)
                    continue
                if d >= 1:
                    (src_g, take_s), (tgt_g, take_t) = sides
                    s = products.get((d - 1, src_g, take_s(labels)))
                    t = products.get((d - 1, tgt_g, take_t(labels))) if s is not None else None
                    if t is None:
                        reject("boundary", g, labels)
                        continue
                cell = NodeTerm(d, g, labels)
                if d >= 1:
                    nsrc[cell], ntgt[cell] = s, t
                ar = narity[cell] = subst_arities(shape, tuple([table[lab] for table, lab in zip(tables, labels)]))
                ninner[cell] = inner_size(ar)
                tsize[cell] = ts
                strata[cell] = n
                additions.append(cell)
        additions.sort(key=canonical_key)
        top_old += top_frontier
        frontier = gens + additions if n == 1 else additions

    nodes = sorted(strata, key=canonical_key)
    new_coll = add_cells(coll, d, (unit, *nodes), nsrc, ntgt, narity)

    overflows = tuple(
        Overflow(
            step=f"operad-{d}",
            dim=d,
            reason=reason,
            count=count,
            sample=tuple(repr(c) for c in samples[reason]),
        )
        for reason, count in rejected.items()
        if count
    )
    strata[unit] = 0
    return FreeOperadResult(
        operad=extend_operad(lower, new_coll, d),
        new_dim=d,
        stabilization_depth=n - 1,
        overflows=overflows,
        strata=strata,
    )


# ---------------------------------------------------------------------------
# tables and law checking


def mult_table(op: OperadStructure, bounds: Bounds, dims=None) -> dict:
    """Materialized multiplication on all composable pairs within bounds.

    Keys are (dim, operation, label tuple); configurations whose composite
    arity exceeds the bound are left out.
    """
    table = {}
    for d in dims if dims is not None else range(op.up_to_dim + 1):
        operations = ((a, op.over.arity_of(d, a)) for a in op.over.cells_at(d))
        for a, fits, _ in configurations(operations, op.over, bounds.max_arity_size):
            for phi, _ in fits:
                table[(d, a, phi.labels)] = op.mult(d, a, phi)
    return table


def cell_products(op: OperadStructure, bounds: Bounds, dims=None) -> dict:
    """The entries of ``mult_table`` whose product is a cell of its layer,
    in the same order.

    Where every dimension up to the largest one asked for multiplies by
    ``term_mult`` and ``op.products`` is empty, they are found by inverting
    grafting instead of multiplying.  Grafting is free, so ``a∘phi`` is the
    d-cell ``c`` exactly when ``a`` is a top piece of ``c`` and ``phi`` the
    quotient of ``c`` by ``a`` (see ``_cuts``).  Each cut whose operation is
    a cell is an entry, unless its composite arity is over the bound or its
    labels are not a labelling of the operation's arity by cells (a decoded
    state can have such cuts).  Entries are sorted by operation, then by the
    layer positions of their labels read in ``labelling_order``, which is
    ``mult_table``'s order.  Elsewhere they are read from ``mult_table``.
    """
    dims = list(dims if dims is not None else range(op.up_to_dim + 1))
    if op.products or any(m is not term_mult for m in op.mults[: max(dims, default=-1) + 1]):
        return {k: r for k, r in mult_table(op, bounds, dims).items() if op.over.has_cell(k[0], r)}
    over = op.over
    src, tgt = over.src, over.tgt
    index = [{c: i for i, c in enumerate(over.cells_at(j))} for j in range(over.max_dim + 1)]
    cuts = _cuts(op, [(d, c) for d in dims for c in over.cells_at(d)])
    order_of = cache(labelling_order)
    table = {}
    for d in dims:
        layer = index[d]
        found = []
        for c in layer:
            for a, q in cuts(d, c).items():
                if a not in layer:
                    continue
                shape = over.arity_of(d, a)
                addrs = all_cells(shape)
                if len(q) != len(addrs) or any(lab not in index[x.dim] for x, lab in zip(addrs, q)):
                    continue
                if any(
                    src[addrs[p].dim][q[p]] != q[s] or tgt[addrs[p].dim][q[p]] != q[t]
                    for p, s, t in cell_ends(shape)
                ):
                    continue
                arities = tuple([over.arity_of(x.dim, lab) for x, lab in zip(addrs, q)])
                if size(subst_arities(shape, arities)) > bounds.max_arity_size:
                    continue
                key = tuple([index[addrs[p].dim][q[p]] for p in order_of(shape)])
                found.append(((layer[a], key), (d, a, q), c))
        found.sort(key=itemgetter(0))
        for _, entry, c in found:
            table[entry] = c
    return table


def _cuts(op: OperadStructure, cells):
    """The cut recursion of one ``cell_products`` call, memoized.

    ``cuts(j, t)`` maps each known top piece ``a`` of the j-term ``t`` to
    the quotient of ``t`` by ``a``: the one ``psi`` with ``t =
    term_mult(a, psi)``, unique since grafting is free.  The pieces are the
    unit, with ``_unit_argument`` of ``t`` if ``t`` is a cell (else the
    quotient would hold ``t`` as a label); the generator of ``t``, with
    ``t``'s labels (a bare generator counts as its node with the unit
    labels); and each known node of that generator whose labels are pieces
    of ``t``'s labels, with their quotients glued over its arity.  The terms
    are normal forms, as grafting builds them; the state decoder rejects
    any other node.

    Known terms are the cells given and, recursively, the labels of their
    nodes.  A cut's operation is a cell given, so the lookup misses no cut;
    without it, the pieces of a label would grow into every node that
    pieces of its labels could form.
    """
    over = op.over
    known = [set() for _ in range(over.max_dim + 1)]
    nodes = [{} for _ in range(over.max_dim + 1)]  # (gen, labels) -> node

    def know(j: int, t) -> None:
        if t not in known[j]:
            known[j].add(t)
            if isinstance(t, NodeTerm):
                nodes[j][t.gen, t.labels] = t
                for x, lab in zip(all_cells(over.arity_of(j, t.gen)), t.labels):
                    know(x.dim, lab)

    for j, c in cells:
        know(j, c)

    @cache
    def cuts(j: int, t) -> dict:
        out = {UnitTerm(j): _unit_argument(op, j, t).labels} if over.has_cell(j, t) else {}
        if isinstance(t, UnitTerm):
            return out
        gen = t.gen if isinstance(t, NodeTerm) else t
        shape = over.arity_of(j, gen)
        labels = t.labels if isinstance(t, NodeTerm) else _unit_labels(op, shape)
        out[gen] = labels
        parts = [cuts(x.dim, lab) for x, lab in zip(all_cells(shape), labels)]
        for pieces in product(*parts):
            a = nodes[j].get((gen, pieces))
            if a is not None:
                q = _glue(op, shape, pieces, [part[p] for part, p in zip(parts, pieces)])
                if q is not None:
                    out[a] = q
        return out

    return cuts


def _glue(op: OperadStructure, shape, labels: tuple, parts: list):
    """The quotients ``parts`` of a node's targets by its ``labels``, glued
    over the node's arity; None if two slices disagree."""
    arities = _label_arities(op, shape, labels)
    out = [None] * len(all_cells(subst_arities(shape, arities)))
    for positions, part in zip(emb_map(shape, arities), parts):
        for p, v in zip(positions, part):
            if out[p] is None:
                out[p] = v
            elif v != out[p]:
                return None
    return tuple(out)


def _unit_argument(op: OperadStructure, d: int, t) -> LabelledDiagram:
    """The labelling of the single-cell shape whose top label is ``t``, its
    lower labels read from the src and tgt tables."""
    shape = unit_tree(d)
    out = {}
    for addr in all_cells(shape):
        c = t
        j = d
        while j > addr.dim:
            c = op.over.src_of(j, c) if addr.path[-1] == 0 else op.over.tgt_of(j, c)
            j -= 1
        out[addr] = c
    return labelled(shape, out)


def check_operad_laws(op: OperadStructure, bounds: Bounds, dims=None) -> Report:
    """Unit laws and associativity on every composable configuration whose
    composite arities stay within the bounds.

    The two maps A⊗A⊗A → A, μ∘(μ⊗1) and μ∘(1⊗μ), both factor through μ on
    A⊗A.  So each configuration ``(a, phi)`` of A⊗A within the bound is
    multiplied once, into a table seeded with ``op.products`` that lives for
    this call, and the check runs on a view of ``op`` whose ``products`` is
    that table: the lhs ``(a∘phi)∘chi``, the label products of ``1⊗μ``, the
    rhs and the lower labels inside grafting read it.  The third factor
    ``chi`` is a configuration of the composite arity of ``(a, phi)``; both
    levels read one ``labelling_fits`` memo per dimension.

    The composed labelling ``phi·chi`` of ``1⊗μ`` depends on the arity S of
    ``a``, not on ``a``: the cells of a layer are grouped by arity, and
    ``phi·chi`` is built once per (S, phi, chi), with the label plans and
    slicers once per (S, phi).  The plan (``_plan``) of a cell is built once
    per call, that of ``r = a∘phi`` once per (a, phi), and the lhs ``r∘chi``
    and the rhs ``a∘(phi·chi)`` once per configuration.  The table is read
    only where it can hold the product: for the lhs if ``r`` is an
    operation of it (a cell of the layer or of ``op.products``), for the rhs
    if ``phi·chi`` holds no transient, as a transient equals no cell.  Each
    violation keeps its place in the order of a loop over the cells (the
    position of ``a``, then of ``phi``, then of ``chi``), and they are
    reported sorted by it.

    Only the first-level products are interned, all before anything is
    compared: both sides of the laws are compared as ``_plan`` returns them.

    ``counts`` gives the configurations at both levels, those left out over
    the arity bound, and how many of the products the check asked for were
    multiplied or read from the table.
    """
    rep = Report("operad-laws")
    table = dict(op.products)
    view = replace(op, products=table)
    get = table.get
    multiplied = read = first = triples = over_bound = 0

    @cache
    def plan(j, c):
        # the plan of a cell, built once per call
        return _mult_plan(view, j, c)

    def product(j, c, labels, run, lookup=True):
        # view.mult on a label tuple, with ``run`` the plan of ``c``; the
        # table is read only if ``lookup``
        nonlocal multiplied, read
        r = get((j, c, labels)) if lookup else None
        if r is None:
            multiplied += 1
            return run(labels)
        read += 1
        return r

    for d in dims if dims is not None else range(op.up_to_dim + 1):
        unit = op.units[d]
        layer = op.over.cells_at(d)
        split = labelling_fits(op.over, bounds.max_arity_size)
        for a in layer:
            fits, over = split(op.over.arity_of(d, a))
            first += len(fits)
            over_bound += len(over)
            for phi, _ in fits:
                table[(d, a, phi.labels)] = _intern(product(d, a, phi.labels, plan(d, a)))
        for t in layer:
            if product(d, unit, _unit_argument(view, d, t).labels, plan(d, unit)) != t:
                rep.add("left unit law fails", witness=(d, t))
        operations = set(layer).union(k[1] for k in op.products if k[0] == d)
        groups: dict = {}
        found = []  # (place in the order of a loop over the cells, message, witness)
        for i, a in enumerate(layer):
            shape = op.over.arity_of(d, a)
            run_a = plan(d, a)
            if product(d, a, _unit_labels(view, shape), run_a) != a:
                found.append(((i, -1), "right unit law fails", (d, a)))
            groups.setdefault(shape, []).append((i, a, run_a))
        for shape, group in groups.items():
            for p, (phi, mid_shape) in enumerate(split(shape)[0]):
                sides = []
                for i, a, run_a in group:
                    r = table[(d, a, phi.labels)]
                    if cell_arity(op, d, r) != mid_shape:
                        found.append(((i, p), "arity of composite differs from substitution", (d, a, phi.labels)))
                    else:
                        sides.append((i, a, run_a, r, _mult_plan(view, d, r), r in operations))
                if not sides:
                    continue
                fits, over = split(mid_shape)
                triples += len(fits) * len(sides)
                over_bound += len(over) * len(sides)
                arities = _label_arities(op, shape, phi.labels)
                factors = [
                    (x.dim, lab, plan(x.dim, lab), take)
                    for x, lab, take in zip(all_cells(shape), phi.labels, slicers(shape, arities))
                ]
                for q, (chi, _) in enumerate(fits):
                    labels = chi.labels
                    composed = tuple([product(j, lab, take(labels), run) for j, lab, run, take in factors])
                    lookup = not any(_is_transient(lab) for lab in composed)
                    for i, a, run_a, r, run_r, r_is_operation in sides:
                        lhs = product(d, r, labels, run_r, r_is_operation)
                        if lhs != product(d, a, composed, run_a, lookup):
                            found.append(((i, p, q), "associativity fails", (d, a, phi.labels, labels)))
        found.sort(key=itemgetter(0))
        for _, message, witness in found:
            rep.add(message, witness=witness)
    rep.counts.update(
        first_level_configurations=first,
        associativity_configurations=triples,
        configurations_over_bound=over_bound,
        products_multiplied=multiplied,
        products_read_from_table=read,
    )
    return rep
