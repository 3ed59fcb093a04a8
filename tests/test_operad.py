from dataclasses import replace
from operator import itemgetter

import pytest

from globop.collection import Bounds, empty_collection, make_collection, one_cell_collection
from globop.interleave import free_owc
from globop.operad import (
    NodeTerm,
    OperadStructure,
    UnitTerm,
    cell_arity,
    cell_products,
    check_operad_laws,
    counit_eval,
    extend_operad,
    free_operad_dim0,
    _unit_labels,
    free_operad_step,
    mult_table,
    term_size,
    terminal_operad,
)
from globop.pasting import (
    DOT,
    LabelledDiagram,
    all_cells,
    boundary,
    boundary_slicer,
    cells,
    chain,
    labelled,
    unit_tree,
    PastingDiagram,
)


# --- node building and term boundaries, one term at a time -------------------
# ``_free_at`` checks candidates on label tuples instead; the reference loop in
# test_free_step.py and the tests here build the node and read its boundary.


def _term_side(op: OperadStructure, j: int, c, side: int):
    if isinstance(c, UnitTerm):
        return op.units[j - 1]
    if isinstance(c, NodeTerm):
        shape = op.over.arity_of(j, c.gen)
        phi = LabelledDiagram(boundary(shape), boundary_slicer(shape, side)(c.labels))
        head = op.over.src_of(j, c.gen) if side == 0 else op.over.tgt_of(j, c.gen)
        return op.mult(j - 1, head, phi)
    return op.over.src_of(j, c) if side == 0 else op.over.tgt_of(j, c)


def term_src(op: OperadStructure, j: int, c):
    """Source of a dimension-j term, evaluated in the operad one level down."""
    return _term_side(op, j, c, 0)


def term_tgt(op: OperadStructure, j: int, c):
    return _term_side(op, j, c, 1)


def make_node(op: OperadStructure, d: int, gen, phi: LabelledDiagram):
    """Build a normal-form node, collapsing the all-unit labelling to the
    bare generator."""
    shape = op.over.arity_of(d, gen)
    if phi.shape != shape:
        raise ValueError("labelling shape differs from the generator arity")
    return gen if phi.labels == _unit_labels(op, shape) else NodeTerm(d, gen, phi.labels)


def unit_labelling(op: OperadStructure, d: int, shape: PastingDiagram) -> LabelledDiagram:
    return labelled(shape, {a: op.units[a.dim] for a in all_cells(shape)})


def _first_label(op, d, a):
    # a plan builder for dimension 0, where every arity is a point
    return itemgetter(0)


def self_loop_operad(max_dim=1):
    """One 0-cell acting as its own unit, one 1-generator on it."""
    coll = make_collection(
        [["e"], ["g"]] + [[] for _ in range(max_dim - 1)],
        [{}, {"g": "e"}] + [{} for _ in range(max_dim - 1)],
        [{}, {"g": "e"}] + [{} for _ in range(max_dim - 1)],
        [{"e": DOT}, {"g": unit_tree(1)}] + [{} for _ in range(max_dim - 1)],
    )
    return OperadStructure(
        coll, {0: "e"}, (_first_label,)
    )


def idempotent_one_operad():
    """Hand-built operad up to dimension 1 with a collapsing composition."""
    coll = make_collection(
        [["w"], ["i", "f"], []],
        [{}, {"i": "w", "f": "w"}, {}],
        [{}, {"i": "w", "f": "w"}, {}],
        [{"w": DOT}, {"i": unit_tree(1), "f": unit_tree(1)}, {}],
    )

    def mult_fn(op, d, a):
        if d == 0:
            return itemgetter(0)
        # every 1-cell has one arrow as its arity, and the arrow comes last
        return lambda labels: labels[-1] if a == "i" else ("f" if labels[-1] in ("i", "f") else None)

    return OperadStructure(coll, {0: "w", 1: "i"}, (mult_fn,) * 2)


# --- dimension 0 -------------------------------------------------------------


def test_free_dim0_on_empty():
    res = free_operad_dim0(empty_collection(0), Bounds(0, 1, 3))
    assert res.operad.over.cells_at(0) == (UnitTerm(0),)
    assert res.operad.over.arity_of(0, UnitTerm(0)) == DOT
    assert res.stabilization_depth == 0


def test_free_dim0_one_generator():
    res = free_operad_dim0(one_cell_collection(), Bounds(0, 1, 2))
    got = set(res.operad.over.cells_at(0))
    gg = NodeTerm(0, "v", ("v",))
    assert got == {UnitTerm(0), "v", gg}
    assert res.stabilization_depth == 2


def test_dim0_unit_collapse():
    res = free_operad_dim0(one_cell_collection(), Bounds(0, 1, 3))
    op = res.operad
    for t in op.over.cells_at(0):
        assert op.mult(0, UnitTerm(0), labelled(DOT, {all_cells(DOT)[0]: t})) == t
        assert op.mult(0, t, unit_labelling(op, 0, DOT)) == t


# --- the free step -----------------------------------------------------------


def test_free_step_single_loop_generator():
    lower = self_loop_operad()
    res = free_operad_step(lower, Bounds(1, 3, 3))
    g1 = NodeTerm(1, "g", ("e", "e", "g"))
    g2 = NodeTerm(1, "g", ("e", "e", g1))
    assert set(res.operad.over.cells_at(1)) == {UnitTerm(1), "g", g1, g2}
    assert res.operad.over.src_of(1, g2) == "e"
    assert res.stabilization_depth == 3


def test_free_step_no_generators_adds_only_unit():
    coll = make_collection(
        [["e"], []], [{}, {}], [{}, {}], [{"e": DOT}, {}]
    )
    lower = OperadStructure(
        coll, {0: "e"}, (_first_label,)
    )
    res = free_operad_step(lower, Bounds(1, 3, 3))
    assert res.operad.over.cells_at(1) == (UnitTerm(1),)
    assert res.operad.over.src_of(1, UnitTerm(1)) == "e"


def test_strata_are_monotone_and_reported():
    lower = self_loop_operad()
    res = free_operad_step(lower, Bounds(1, 3, 4))
    strata = res.strata
    assert strata[UnitTerm(1)] == 0
    depth = res.stabilization_depth
    assert depth == max(strata.values())
    # every node's top labels come from strictly earlier strata
    for cell, n in strata.items():
        if isinstance(cell, NodeTerm):
            for addr, lab in zip(all_cells(unit_tree(1)), cell.labels):
                if addr.dim == 1 and isinstance(lab, NodeTerm):
                    assert strata[lab] < n


# --- grafting ----------------------------------------------------------------


def test_term_mult_unit_laws():
    lower = self_loop_operad()
    res = free_operad_step(lower, Bounds(1, 3, 3))
    op = res.operad
    for t in op.over.cells_at(1):
        shape = op.over.arity_of(1, t)
        assert op.mult(1, t, unit_labelling(op, 1, shape)) == t
        arg = {a: t if a.dim == 1 else None for a in all_cells(unit_tree(1))}
        arg[all_cells(unit_tree(1))[0]] = term_src(op, 1, t)
        arg[all_cells(unit_tree(1))[1]] = term_tgt(op, 1, t)
        assert op.mult(1, UnitTerm(1), labelled(unit_tree(1), arg)) == t


def test_term_mult_chain_arities():
    """Composing a two-slot generator with two one-slot generators."""
    coll = make_collection(
        [["e"], ["g1", "g2"]],
        [{}, {"g1": "e", "g2": "e"}],
        [{}, {"g1": "e", "g2": "e"}],
        [{"e": DOT}, {"g1": chain(1), "g2": chain(2)}],
    )
    lower = OperadStructure(
        coll, {0: "e"}, (_first_label,)
    )
    ctx = extend_operad(lower, coll, 1)
    sh = chain(2)
    arg = {a: "e" for a in cells(sh, 0)}
    arg[cells(sh, 1)[0]] = "g1"
    arg[cells(sh, 1)[1]] = "g1"
    out = ctx.mult(1, "g2", labelled(sh, arg))
    assert isinstance(out, NodeTerm)
    assert cell_arity(ctx, 1, out) == chain(2)
    assert term_size(ctx, 1, out) == 3


def test_term_mult_shape_mismatch():
    lower = self_loop_operad()
    ctx = extend_operad(lower, lower.over, 1)
    node = NodeTerm(1, "g", ("e", "e", "g"))

    def over(shape):
        return labelled(shape, {a: "e" if a.dim == 0 else "g" for a in all_cells(shape)})

    # a unit operation, a bare generator and a node, each of arity chain(1)
    products = {UnitTerm(1): "g", "g": node, node: NodeTerm(1, "g", ("e", "e", node))}
    for a, product in products.items():
        assert ctx.mult(1, a, over(chain(1))) == product
        for shape in (chain(2), chain(0)):
            with pytest.raises(ValueError):
                ctx.mult(1, a, over(shape))


@pytest.mark.parametrize("structure", ["grafting", "terminal"])
def test_mult_checks_the_shape_on_every_structure(structure):
    """``mult`` checks the shape ahead of ``products`` and of the plan: a
    labelling over a shape other than the arity of the operation is a
    ``ValueError`` with one message, whichever structure multiplies, and an
    entry of ``products`` under its labels does not get past it."""
    if structure == "grafting":
        lower = self_loop_operad()
        op = extend_operad(lower, lower.over, 1)
        # a unit operation, a bare generator and a node, each of arity chain(1)
        operations = [(a, chain(1)) for a in (UnitTerm(1), "g", NodeTerm(1, "g", ("e", "e", "g")))]
        point, arrow = "e", "g"
    else:
        op = terminal_operad(Bounds(1, 5, 2))
        operations = [(chain(m), chain(m)) for m in (0, 1, 2)]
        point, arrow = DOT, chain(1)

    def over(shape):
        return labelled(shape, {x: point if x.dim == 0 else arrow for x in all_cells(shape)})

    for a, arity in operations:
        op.mult(1, a, over(arity))
        for shape in (chain(0), chain(1), chain(2), chain(3)):
            if shape == arity:
                continue
            phi = over(shape)
            for products in ({}, {(1, a, phi.labels): a}):
                with pytest.raises(ValueError, match="labelling shape differs from the arity of the operation"):
                    replace(op, products=products).mult(1, a, phi)


def test_term_mult_associativity_exhaustive():
    lower = self_loop_operad()
    res = free_operad_step(lower, Bounds(1, 7, 4))
    rep = check_operad_laws(res.operad, Bounds(1, 7, 4))
    assert rep.passed, rep.violations[:3]


def test_arity_homomorphism():
    lower = self_loop_operad()
    res = free_operad_step(lower, Bounds(1, 3, 3))
    op = res.operad
    from globop.pasting import subst_arities

    for (d, a, labels), r in mult_table(op, Bounds(1, 3, 3)).items():
        shape = op.over.arity_of(d, a)
        assert cell_arity(op, d, r) == subst_arities(
            shape,
            tuple(cell_arity(op, x.dim, lab) for x, lab in zip(all_cells(shape), labels)),
        )


# --- evaluation ---------------------------------------------------------------


def test_counit_examples():
    y = terminal_operad(Bounds(1, 5, 2))
    assert counit_eval(y, 1, UnitTerm(1)) == unit_tree(1)
    assert counit_eval(y, 1, chain(2)) == chain(2)
    # a depth-2 term over diagram cells evaluates to its arity
    inner = NodeTerm(1, chain(2), (DOT, DOT, DOT, chain(1), chain(1)))
    outer = NodeTerm(1, chain(1), (DOT, DOT, inner))
    assert counit_eval(y, 1, outer) == chain(2)
    with pytest.raises(KeyError):
        counit_eval(y, 1, NodeTerm(1, "nope", (DOT, DOT, UnitTerm(1))))


def test_triangle_counit_of_embedding_is_identity():
    lower = self_loop_operad()
    res = free_operad_step(lower, Bounds(1, 3, 3))
    op = res.operad
    for t in op.over.cells_at(1):
        assert counit_eval(op, 1, t) == t
    for x in ("g",):
        assert counit_eval(op, 1, x) == x


def test_counit_is_homomorphic():
    y = idempotent_one_operad()
    # evaluate a composite two ways on terms over y's 1-cells
    t = NodeTerm(1, "f", ("w", "w", "f"))
    head = NodeTerm(1, "f", ("w", "w", UnitTerm(1)))
    sh = unit_tree(1)
    arg = labelled(sh, {a: (t if a.dim == 1 else "w") for a in all_cells(sh)})
    composed = _term_ctx(y).mult(1, head, arg)
    lhs = counit_eval(y, 1, composed)
    rhs = y.mult(
        1,
        counit_eval(y, 1, head),
        labelled(sh, {a: (counit_eval(y, 1, t) if a.dim == 1 else "w") for a in all_cells(sh)}),
    )
    assert lhs == rhs


def _term_ctx(y):
    return extend_operad(
        OperadStructure(y.over, {0: y.units[0]}, (lambda op, d, a: y.mults[d](y, d, a),)),
        y.over,
        1,
    )


# --- law checking -------------------------------------------------------------


def test_terminal_operad_laws():
    rep = check_operad_laws(terminal_operad(Bounds(2, 7, 2)), Bounds(2, 7, 2))
    assert rep.passed, rep.violations[:3]


def test_corrupted_mult_located():
    base = terminal_operad(Bounds(1, 5, 2))

    def mult_fn(op, d, a):
        run = base.mults[d](base, d, a)

        def broken(labels):
            out = run(labels)
            if d == 1 and a == chain(2) and out == chain(2):
                return chain(1)  # wrong size on purpose
            return out

        return broken

    broken = OperadStructure(base.over, dict(base.units), (mult_fn,) * 2)
    rep = check_operad_laws(broken, Bounds(1, 5, 2))
    assert not rep.passed


def test_lower_dims_unchanged_by_step():
    lower = self_loop_operad()
    res = free_operad_step(lower, Bounds(1, 3, 3))
    assert res.operad.over.cells_at(0) == lower.over.cells_at(0)
    assert mult_table(lower, Bounds(1, 3, 3), dims=[0]) == mult_table(
        res.operad, Bounds(1, 3, 3), dims=[0]
    )


def test_make_node_unit_collapse_definitional():
    lower = self_loop_operad()
    ctx = extend_operad(lower, lower.over, 1)
    phi = unit_labelling(ctx, 1, unit_tree(1))
    assert make_node(ctx, 1, "g", phi) == "g"


# --- products that are cells ---------------------------------------------------


def loop_collection():
    """One 0-cell with one arrow from it to itself."""
    return make_collection(
        [["x"], ["l"]], [{}, {"l": "x"}], [{}, {"l": "x"}], [{"x": DOT}, {"l": chain(1)}]
    )


def arrow_collection():
    """Two 0-cells joined by one arrow."""
    return make_collection(
        [["x", "y"], ["f"]], [{}, {"f": "x"}], [{}, {"f": "y"}], [{"x": DOT, "y": DOT}, {"f": chain(1)}]
    )


CELL_PRODUCT_CASES = [
    ("empty", empty_collection, Bounds(2, 5, 0)),
    ("empty", empty_collection, Bounds(2, 5, 1)),
    ("empty", empty_collection, Bounds(2, 7, 1)),
    ("empty", empty_collection, Bounds(1, 3, 2)),
    ("one-cell", one_cell_collection, Bounds(2, 5, 1)),
    ("one-cell", one_cell_collection, Bounds(1, 5, 0)),
    ("loop", loop_collection, Bounds(2, 5, 1)),
    ("loop", loop_collection, Bounds(1, 5, 0)),
    ("arrow", arrow_collection, Bounds(1, 5, 1)),
    ("arrow", arrow_collection, Bounds(2, 5, 1)),
]


@pytest.mark.parametrize(
    "make, bounds",
    [case[1:] for case in CELL_PRODUCT_CASES],
    ids=[f"{name}-{b.max_dim}{b.max_arity_size}{b.max_term_size}" for name, _, b in CELL_PRODUCT_CASES],
)
def test_cell_products_are_the_cell_entries_of_the_table(make, bounds):
    st = free_owc(make(), bounds)
    table = mult_table(st.operad, bounds)
    want = [(k, v) for k, v in table.items() if st.collection.has_cell(k[0], v)]
    assert list(cell_products(st.operad, bounds).items()) == want
    # grafting adds term sizes: the size of a product is the size of the
    # operation plus the sizes of its top labels
    for (d, a, labels), r in table.items():
        shape = st.collection.arity_of(d, a)
        tops = sum(
            term_size(st.operad, d, lab) for x, lab in zip(all_cells(shape), labels) if x.dim == d
        )
        assert term_size(st.operad, d, r) == term_size(st.operad, d, a) + tops
