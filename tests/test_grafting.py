"""The grafting path on label tuples against the one it replaced.

``term_mult`` used to check the shape on every recursive call, compute the
arity of every cell structurally, build a ``LabelledDiagram`` for every
slice and collapse units with a Python ``all``.  The reference functions
below are verbatim copies of that path: ``cell_arity``, ``term_mult``,
``make_node``, ``compose_labellings`` and the ``slices`` they used (only
the names are prefixed and the imports hoisted).  The tests check that the
rewrite gives the same products, and that the law check's multiplications,
asked through ``op.mult``, are the same calls in the same order.

Grafting on label tuples then became plans: ``_plan`` reads an operation's
arity, its labels' arities and its slicers once and returns a function of
the label tuple.  The recursion it replaced, ``_graft``, ``_graft_node``,
``_mult_labels`` and ``_node``, is copied below verbatim as well, and one
plan run on many label tuples must give the term it gives.

Plans no longer intern: a product with no live node comes back as a
transient, and only ``_intern`` makes it a node, so the plan test interns
each run before it compares it with the reference.

Multiplications then became plan builders, ``term_mult`` went, and
``OperadStructure.mult`` checks the shape and interns.  The references
keep their bodies: ``term_mult`` below names grafting's plan builder, the
reference grafting enters an operad through ``_plan_builder``, and
``reference_mult_labels`` reads an operad whose other multiplications take
a labelling (``_labelling_mults``).

Also here: the invariant the rewrite relies on, that the arity a layer's
table holds for a cell is its structural arity.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from globop.collection import Bounds, labelling_fits, one_cell_collection
from globop.interleave import free_owc
from globop.operad import (
    NodeTerm,
    OperadStructure,
    UnitTerm,
    _intern,
    _label_arities,
    _nodes,
    _plan,
    _unit_labels,
    cell_arity,
    cell_products,
    free_operad_step,
    terminal_operad,
)
from globop.pasting import (
    LabelledDiagram,
    PastingDiagram,
    all_cells,
    cells,
    emb_map,
    labelled,
    slicers,
    subst_arities,
    unit_tree,
)
from globop.serialize import state_from_json
from globop.verify import cached_initial

from test_cell_identity import count_new_nodes
from test_configurations import (
    _broken_terminal,
    _four_argument,
    _plan_builder,
    _unit_argument,
    _wrong_product,
    compose_labellings,
    reference_cell_products,
    reference_mult_table,
)
from test_operad import make_node, self_loop_operad, unit_labelling

FIXTURES = Path(__file__).parent / "fixtures"


# the name the references below give grafting's multiplication
term_mult = _plan


# --- reference: the grafting path before the rewrite, verbatim --------------


def reference_slices(phi: LabelledDiagram, shape: PastingDiagram, arities: tuple) -> tuple[LabelledDiagram, ...]:
    """The parts of ``phi`` (a labelling of subst_arities(shape, arities))
    that sit over the arities of the cells of ``shape``, in ``all_cells``
    order."""
    labels = phi.labels
    return tuple(
        LabelledDiagram(alpha, tuple(labels[p] for p in positions))
        for alpha, positions in zip(arities, emb_map(shape, arities))
    )


def reference_cell_arity(op: OperadStructure, j: int, c) -> PastingDiagram:
    """Arity of a cell, computed structurally for terms so that it is defined
    even for composition results that were never materialized."""
    if isinstance(c, UnitTerm):
        return unit_tree(j)
    if isinstance(c, NodeTerm):
        shape = op.over.arity_of(j, c.gen)
        return subst_arities(
            shape,
            tuple(reference_cell_arity(op, a.dim, lab) for a, lab in zip(all_cells(shape), c.labels)),
        )
    return op.over.arity_of(j, c)


def reference_make_node(op: OperadStructure, d: int, gen, phi: LabelledDiagram):
    """Build a normal-form node, collapsing the all-unit labelling to the
    bare generator."""
    shape = op.over.arity_of(d, gen)
    if phi.shape != shape:
        raise ValueError("labelling shape differs from the generator arity")
    trivial = all(
        lab == op.units[addr.dim]
        for addr, lab in zip(all_cells(shape), phi.labels)
    )
    if trivial:
        return gen
    return NodeTerm(d, gen, phi.labels)


def reference_term_mult(op: OperadStructure, d: int, a, phi: LabelledDiagram):
    """Grafting with unit collapse.

    ``phi`` lies over the arity of ``a``; its labels at dimension d are terms
    and its lower labels are cells.  Top labels of a node are composed with
    their slice of ``phi``, lower labels are composed in the lower operad.
    """
    if phi.shape != reference_cell_arity(op, d, a):
        raise ValueError("labelling shape differs from the arity of the operation")
    if isinstance(a, UnitTerm):
        return phi.label_of(cells(phi.shape, d)[0])
    if isinstance(a, NodeTerm):
        shape = op.over.arity_of(d, a.gen)
        psi = dict(zip(all_cells(shape), a.labels))
        arities = tuple(reference_cell_arity(op, x.dim, psi[x]) for x in all_cells(shape))
        new_labels = {}
        for x, piece in zip(all_cells(shape), reference_slices(phi, shape, arities)):
            if x.dim == d:
                new_labels[x] = reference_term_mult(op, d, psi[x], piece)
            else:
                new_labels[x] = op.mult(x.dim, psi[x], piece)
        return reference_make_node(op, d, a.gen, labelled(shape, new_labels))
    # bare generator: behaves as the unit-labelled node, so the slices are
    # exactly the labels of phi
    return reference_make_node(op, d, a, phi)


def reference_compose_labellings(op: OperadStructure, phi: LabelledDiagram, chi: LabelledDiagram) -> LabelledDiagram:
    """Compose every label of ``phi`` with its slice of ``chi``."""
    shape = phi.shape
    cells_and_labels = tuple(zip(all_cells(shape), phi.labels))
    arities = tuple(reference_cell_arity(op, x.dim, lab) for x, lab in cells_and_labels)
    return LabelledDiagram(
        shape,
        tuple(
            op.mult(x.dim, lab, piece)
            for (x, lab), piece in zip(cells_and_labels, reference_slices(chi, shape, arities))
        ),
    )


def _reference(op: OperadStructure) -> OperadStructure:
    """``op`` with the reference grafting wherever it grafts terms."""
    mults = tuple(_plan_builder(reference_term_mult) if m is term_mult else m for m in op.mults)
    return dataclasses.replace(op, mults=mults)


# --- reference: grafting on label tuples before plans, verbatim ---------------


def reference_graft(op: OperadStructure, d: int, a, labels: tuple):
    """``term_mult`` on a labelling known to lie over the arity of ``a``."""
    if isinstance(a, UnitTerm):
        return labels[-1]  # the top cell comes last in all_cells
    if isinstance(a, NodeTerm):
        shape = op.over.arity_of(d, a.gen)
        return reference_graft_node(op, d, a, shape, _label_arities(op, shape, a.labels), labels)
    # bare generator: behaves as the unit-labelled node, so the slices are
    # exactly the labels
    return reference_node(op, d, a, op.over.arity_of(d, a), labels)


def reference_graft_node(op: OperadStructure, d: int, a: NodeTerm, shape, arities: tuple, labels: tuple):
    products = op.products
    new_labels = []
    for x, lab, alpha, take in zip(all_cells(shape), a.labels, arities, slicers(shape, arities)):
        piece = take(labels)
        j = x.dim
        if j == d:
            r = reference_graft(op, d, lab, piece)
        else:
            r = products.get((j, lab, piece)) if products else None
            if r is None:
                r = reference_mult_labels(op, j, lab, alpha, piece)
        new_labels.append(r)
    return reference_node(op, d, a.gen, shape, tuple(new_labels))


def reference_mult_labels(op: OperadStructure, j: int, a, alpha: PastingDiagram, labels: tuple):
    """``op.mults[j]`` on ``a`` and a label tuple known to lie over
    ``alpha``, the arity of ``a``: grafting takes the tuple, any other
    multiplication a ``LabelledDiagram`` built for it."""
    mult = op.mults[j]
    if mult is term_mult:
        return reference_graft(op, j, a, labels)
    return mult(op, j, a, LabelledDiagram(alpha, labels))


def reference_node(op: OperadStructure, d: int, gen, shape: PastingDiagram, labels: tuple):
    units = op._unit_labels.get(shape) or _unit_labels(op, shape)
    return gen if labels == units else NodeTerm(d, gen, labels)


def _labelling_mults(op: OperadStructure) -> OperadStructure:
    """``op`` with each multiplication but grafting taking a labelling, as
    ``reference_mult_labels`` calls it."""
    return dataclasses.replace(op, mults=tuple(m if m is term_mult else _four_argument(m) for m in op.mults))


# --- inputs ------------------------------------------------------------------


def _decoded_valid_state():
    decoded = state_from_json(json.loads((FIXTURES / "valid_state.json").read_text()))
    op = dataclasses.replace(decoded.state.operad, products=decoded.mult_entries)
    return op, decoded.state.bounds


def _self_loop():
    # the lower unit is the plain cell "e" and the lower multiplication is
    # not term grafting, so lower labels are composed through a labelling
    bounds = Bounds(1, 7, 4)
    return free_operad_step(self_loop_operad(), bounds).operad, bounds


def _terminal():
    bounds = Bounds(2, 5, 2)
    return terminal_operad(bounds), bounds


# name -> (operad and bounds, every how many first-level configurations the
# law check's second level is walked: the reference grafting is slow)
CASES = {
    "initial-251": (lambda: (cached_initial(Bounds(2, 5, 1)).operad, Bounds(2, 5, 1)), 1),
    "initial-252": (lambda: (cached_initial(Bounds(2, 5, 2)).operad, Bounds(2, 5, 2)), 2000),
    "initial-371": (lambda: (cached_initial(Bounds(3, 7, 1)).operad, Bounds(3, 7, 1)), 20),
    "one-atom-251": (lambda: (free_owc(one_cell_collection(1), Bounds(2, 5, 1)).operad, Bounds(2, 5, 1)), 5),
    "valid-state": (_decoded_valid_state, 25),
    "self-loop-174": (_self_loop, 1),
    "terminal-252": (_terminal, 4),
    "broken-terminal": (_broken_terminal, 1),
}


def _law_check_calls(op: OperadStructure, bounds: Bounds, arity_fn, compose_fn, stride: int) -> list:
    """The multiplications of the law check without its table of products
    (``reference_check_operad_laws``), with ``arity_fn`` and ``compose_fn``
    in place of ``cell_arity`` and ``compose_labellings``:
    every ``op.mult`` call made from outside a multiplication, with its
    product, and the arity of every first-level product.  The second level
    is walked from every ``stride``-th first-level configuration."""
    log = []
    rec = dataclasses.replace(op)
    depth = 0

    def mult(d, a, phi):
        nonlocal depth
        depth += 1
        try:
            r = OperadStructure.mult(rec, d, a, phi)
        finally:
            depth -= 1
        if depth == 0:
            log.append((d, a, phi.labels, r))
        return r

    rec.mult = mult
    split = labelling_fits(op.over, bounds.max_arity_size)
    for d in range(op.up_to_dim + 1):
        for t in op.over.cells_at(d):
            rec.mult(d, op.units[d], _unit_argument(rec, d, t))
        n = 0
        for a in op.over.cells_at(d):
            shape = op.over.arity_of(d, a)
            rec.mult(d, a, unit_labelling(rec, d, shape))
            for labels, mid in split(shape)[0]:
                phi = LabelledDiagram(shape, labels)
                r = rec.mult(d, a, phi)
                log.append(arity_fn(rec, d, r))
                n += 1
                if n % stride or arity_fn(rec, d, r) != mid:
                    continue
                for inner, _ in split(mid)[0]:
                    chi = LabelledDiagram(mid, inner)
                    rec.mult(d, r, chi)
                    rec.mult(d, a, compose_fn(rec, phi, chi))
    return log


@pytest.mark.parametrize("case", CASES)
def test_grafting_matches_the_reference(case):
    make, stride = CASES[case]
    op, bounds = make()
    new = _law_check_calls(op, bounds, cell_arity, compose_labellings, stride)
    old = _law_check_calls(_reference(op), bounds, reference_cell_arity, reference_compose_labellings, stride)
    assert len(new) == len(old)
    assert new == old


@pytest.mark.parametrize("case", ["one-atom-251", "initial-371", "self-loop-174"])
def test_plans_graft_as_the_reference(case, monkeypatch):
    """The plan of each cell runs on every first-level labelling of its
    arity within the bound, and the plan of the interned product ``r =
    a∘phi`` on every labelling ``chi`` of ``r``'s arity within the bound:
    the lhs of the law check.  Each run, interned, gives the reference's
    term, by identity.

    A plan interns nothing: it makes no ``NodeTerm``, so a node it returns
    is one that the table held before the call; any other product is a
    transient, which ``_intern`` makes a node."""
    op, bounds = CASES[case][0]()
    ref = _labelling_mults(op)
    made = count_new_nodes(monkeypatch)

    def run(plan, labels):
        before = made[0]
        r = plan(labels)
        assert made[0] == before
        if isinstance(r, NodeTerm):
            assert _nodes[(r.dim, r.gen, r.labels)]() is r
        return _intern(r)

    split = labelling_fits(op.over, bounds.max_arity_size)
    firsts = lhs = 0
    for d in range(op.up_to_dim + 1):
        if op.mults[d] is not _plan:
            continue
        for a in op.over.cells_at(d):
            plan = _plan(op, d, a)
            for phi, mid in split(op.over.arity_of(d, a))[0]:
                r = run(plan, phi)
                assert r is reference_graft(ref, d, a, phi)
                firsts += 1
                plan_r = _plan(op, d, r)
                for chi, _ in split(mid)[0]:
                    assert run(plan_r, chi) is reference_graft(ref, d, r, chi)
                    lhs += 1
    assert firsts > 0 and lhs > firsts


def test_plans_collapse_units_as_the_reference():
    """In a free operad a grafted node never has only unit labels, so the
    unit collapse after grafting a node shows only when ``products`` takes
    each of its lower labels to a unit: the plan of the node then gives the
    bare generator, as the reference does."""
    op, _ = CASES["one-atom-251"][0]()
    d = 2
    node = next(c for c in op.over.cells_at(d) if isinstance(c, NodeTerm))
    products = {}
    for x, lab in zip(all_cells(op.over.arity_of(d, node.gen)), node.labels):
        assert x.dim < d or lab is op.units[d]  # term size 1: top labels are units
        products[(x.dim, lab, _unit_labels(op, cell_arity(op, x.dim, lab)))] = op.units[x.dim]
    op = dataclasses.replace(op, products=products)
    units = _unit_labels(op, op.over.arity_of(d, node))
    assert _plan(op, d, node)(units) is reference_graft(_labelling_mults(op), d, node, units) is node.gen


@pytest.mark.parametrize("case", ["initial-252", "initial-371", "valid-state"])
def test_cell_products_match_the_reference(case):
    op, bounds = CASES[case][0]()
    # without a table of products cell_products cuts grafting, so
    # the reference grafting multiplies for the reference enumeration
    op = dataclasses.replace(op, products={})
    new = cell_products(op, bounds)
    assert list(new.items()) == list(reference_cell_products(_reference(op), bounds).items())


# operads whose cell products cannot be cut by grafting, with the dimensions
# asked for: substitution, a lower dimension that does not graft, even when
# only dimension 1 is asked for, and a table of products that overrides it
@pytest.mark.parametrize(
    "make, dims",
    [(_terminal, None), (_self_loop, [1]), (_wrong_product, None)],
    ids=["terminal-252", "self-loop-174-dim-1", "wrong-product"],
)
def test_cell_products_fall_back_to_the_table(make, dims):
    """Where grafting cannot be inverted, ``cell_products`` is what it
    stands for: the entries of the reference ``mult_table`` whose product is
    a cell, in the same order."""
    op, bounds = make()
    new = list(cell_products(op, bounds, dims).items())
    want = [(k, r) for k, r in reference_mult_table(op, bounds, dims).items() if op.over.has_cell(k[0], r)]
    assert new and new == want
    if make is not _terminal:
        # the reference enumeration prunes by term size, which substitution
        # does not add, so on the term-based operads alone it gives this too
        assert new == list(reference_cell_products(op, bounds, dims).items())


def test_make_node_collapses_as_the_reference():
    for op, _ in (CASES["initial-371"][0](), CASES["self-loop-174"][0]()):
        for d in range(op.up_to_dim + 1):
            if op.mults[d] is not _plan:
                continue
            for g in op.over.cells_at(d):
                if isinstance(g, (UnitTerm, NodeTerm)):
                    continue
                shape = op.over.arity_of(d, g)
                phi = unit_labelling(op, d, shape)
                assert make_node(op, d, g, phi) is reference_make_node(op, d, g, phi) is op.mult(d, g, phi) is g
                # one top label that is not the unit
                for x in cells(shape, d):
                    phi = labelled(shape, {y: (g if y == x else op.units[y.dim]) for y in all_cells(shape)})
                    node = make_node(op, d, g, phi)
                    assert isinstance(node, NodeTerm) and node is reference_make_node(op, d, g, phi)
                    assert node is op.mult(d, g, phi)


# --- the invariant the table lookup relies on ----------------------------------


@pytest.mark.parametrize("case", ["initial-252", "initial-371", "valid-state"])
def test_table_arity_is_the_structural_arity(case):
    op, _ = CASES[case][0]()
    n = 0
    for j in range(op.over.max_dim + 1):
        for c in op.over.cells_at(j):
            assert op.over.arity_of(j, c) is reference_cell_arity(op, j, c)
            assert cell_arity(op, j, c) is reference_cell_arity(op, j, c)
            n += isinstance(c, NodeTerm)
    assert n > 0


def test_transient_terms_get_their_structural_arity():
    op, bounds = CASES["initial-251"][0]()
    seen = 0
    split = labelling_fits(op.over, bounds.max_arity_size)
    for d in range(op.up_to_dim + 1):
        for a in op.over.cells_at(d):
            shape = op.over.arity_of(d, a)
            for labels, mid in split(shape)[0]:
                r = op.mult(d, a, LabelledDiagram(shape, labels))
                if not op.over.has_cell(d, r):
                    seen += 1
                    assert cell_arity(op, d, r) is reference_cell_arity(op, d, r) is mid
    assert seen > 0
