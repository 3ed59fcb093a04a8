"""``collection.configurations``, the one enumeration of composable
configurations, against the loops it replaced.

Five loops used to write the enumeration out, each on its own: ``tensor``,
``mult_table``, ``cell_products`` and both levels of ``check_operad_laws``.
The reference functions below are verbatim copies of them, with
``_composite_arity`` and the law check's ``compose_labellings`` (only the
imports are hoisted); ``reference_tensor`` builds its result with the
two-field ``Collection`` of its day, which an adapter above it supplies.
The tests check that the generator visits the same configurations, with the
same composite arities and the same split at the arity bound, in the same
order, and that the functions built on it give the same tables and reports.
``mult_table`` asks for the same multiplications in the same order; the law
check multiplies each first-level configuration once and reads it from then
on, so it is checked on the products it multiplies.  ``cell_products`` now
cuts each cell instead of enumerating configurations, so it is checked on
its result alone: the same keys, values and order as
``reference_cell_products``.
"""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from globop import pasting
from globop.collection import (
    Bounds,
    Overflow,
    PairCell,
    TensorResult,
    collection_labellings,
    configurations,
    make_collection,
    one_cell_collection,
    tensor,
    terminal_collection,
)
from globop.globset import glob_set
from globop.interleave import free_owc
from globop.operad import (
    NodeTerm,
    OperadStructure,
    _label_arities,
    _unit_argument,
    _unit_labels,
    cell_arity,
    cell_products,
    check_operad_laws,
    mult_table,
    term_size,
    terminal_operad,
)
from globop.pasting import (
    LabelledDiagram,
    PastingDiagram,
    all_cells,
    cells,
    chain,
    size,
    slicers,
    subst_arities,
)
from globop.report import Report
from globop.serialize import state_from_json
from globop.verify import cached_initial

from test_operad import CELL_PRODUCT_CASES, unit_labelling

FIXTURES = Path(__file__).parent / "fixtures"


# --- reference: the loops before the shared enumeration, verbatim -----------


def Collection(carrier, arity):
    """A collection from a globular set and an arity table: ``reference_tensor``
    builds its result this way, from when a collection wrapped its globular
    set in a ``carrier`` field."""
    return make_collection(carrier.cells, carrier.src, carrier.tgt, arity)


def reference_tensor(a: Collection, b: Collection, bounds: Bounds) -> TensorResult:
    """Bounded tensor product of collections.

    k-cells are pairs of a k-cell of ``a`` with a compatible labelling of its
    arity by cells of ``b``; the arity of a pair is the substitution of the
    labels' arities.  Pairs whose arity exceeds the bound are counted, not
    silently dropped.
    """
    top = min(a.max_dim, bounds.max_dim)
    cells, src, tgt, arity = [], [], [], []
    skipped: list[tuple[int, PairCell]] = []
    for k in range(top + 1):
        layer = []
        layer_src, layer_tgt, layer_arity = {}, {}, {}
        for left in a.cells_at(k):
            shape = a.arity_of(k, left)
            for phi in collection_labellings(shape, b):
                pair = PairCell(left, phi)
                composed = subst_arities(
                    shape, tuple(b.arity_of(x.dim, phi.label_of(x)) for x in all_cells(shape))
                )
                if size(composed) > bounds.max_arity_size:
                    skipped.append((k, pair))
                    continue
                layer.append(pair)
                layer_arity[pair] = composed
                if k >= 1:
                    layer_src[pair] = PairCell(
                        a.src_of(k, left), pasting.boundary_restrict(phi, 0)
                    )
                    layer_tgt[pair] = PairCell(
                        a.tgt_of(k, left), pasting.boundary_restrict(phi, 1)
                    )
        cells.append(tuple(layer))
        src.append(layer_src)
        tgt.append(layer_tgt)
        arity.append(layer_arity)
    overflows = ()
    if skipped:
        overflows = (
            Overflow(
                step="tensor",
                dim=-1,
                reason="arity",
                count=len(skipped),
                sample=tuple(repr(s) for s in skipped[:3]),
            ),
        )
    return TensorResult(Collection(glob_set(cells, src, tgt), tuple(arity)), overflows)


def reference_mult_table(op: OperadStructure, bounds: Bounds, dims=None) -> dict:
    """Materialized multiplication on all composable pairs within bounds.

    Keys are (dim, operation, label tuple); configurations whose composite
    arity exceeds the bound are left out.
    """
    table = {}
    for d in dims if dims is not None else range(op.up_to_dim + 1):
        for a in op.over.cells_at(d):
            shape = op.over.arity_of(d, a)
            for phi in collection_labellings(shape, op.over):
                if size(_composite_arity(op, shape, phi)) > bounds.max_arity_size:
                    continue
                table[(d, a, phi.labels)] = op.mult(d, a, phi)
    return table


def _composite_arity(op: OperadStructure, shape: PastingDiagram, phi: LabelledDiagram) -> PastingDiagram:
    """Arity of an operation of arity ``shape`` composed with ``phi``."""
    return subst_arities(
        shape,
        tuple(op.over.arity_of(x.dim, lab) for x, lab in zip(all_cells(shape), phi.labels)),
    )


def reference_cell_products(op: OperadStructure, bounds: Bounds, dims=None) -> dict:
    table = {}
    for d in dims if dims is not None else range(op.up_to_dim + 1):
        layer = op.over.cells_at(d)
        tsize = {c: term_size(op, d, c) for c in layer}
        cap = max(tsize.values(), default=0)
        for a in layer:
            room = cap - tsize[a]
            shape = op.over.arity_of(d, a)
            tops = cells(shape, d)
            fitting = [c for c in layer if tsize[c] <= room]
            overrides = {x: fitting for x in tops}
            for phi in collection_labellings(shape, op.over, overrides):
                if sum(tsize[phi.label_of(x)] for x in tops) > room:
                    continue
                if size(_composite_arity(op, shape, phi)) > bounds.max_arity_size:
                    continue
                r = op.mult(d, a, phi)
                if op.over.has_cell(d, r):
                    table[(d, a, phi.labels)] = r
    return table


def compose_labellings(op: OperadStructure, phi: LabelledDiagram, chi: LabelledDiagram) -> LabelledDiagram:
    """Compose every label of ``phi`` with its slice of ``chi``."""
    shape = phi.shape
    arities = _label_arities(op, shape, phi.labels)
    return LabelledDiagram(
        shape,
        tuple(
            op.mult(x.dim, lab, LabelledDiagram(alpha, take(chi.labels)))
            for x, lab, alpha, take in zip(
                all_cells(shape), phi.labels, arities, slicers(shape, arities)
            )
        ),
    )


def reference_check_operad_laws(op: OperadStructure, bounds: Bounds, dims=None) -> Report:
    """Unit laws and associativity on every composable configuration whose
    composite arities stay within the bounds."""
    memo: dict = {}

    def labellings(shape):
        if shape not in memo:
            memo[shape] = collection_labellings(shape, op.over)
        return memo[shape]

    rep = Report("operad-laws")
    for d in dims if dims is not None else range(op.up_to_dim + 1):
        unit = op.units[d]
        for t in op.over.cells_at(d):
            if op.mult(d, unit, _unit_argument(op, d, t)) != t:
                rep.add("left unit law fails", witness=(d, t))
        for a in op.over.cells_at(d):
            shape = op.over.arity_of(d, a)
            if op.mult(d, a, unit_labelling(op, d, shape)) != a:
                rep.add("right unit law fails", witness=(d, a))
            for phi in labellings(shape):
                mid_shape = _composite_arity(op, shape, phi)
                if size(mid_shape) > bounds.max_arity_size:
                    continue
                r = op.mult(d, a, phi)
                if cell_arity(op, d, r) != mid_shape:
                    rep.add("arity of composite differs from substitution", witness=(d, a, phi.labels))
                    continue
                for chi in labellings(mid_shape):
                    if size(_composite_arity(op, mid_shape, chi)) > bounds.max_arity_size:
                        continue
                    lhs = op.mult(d, r, chi)
                    rhs = op.mult(d, a, compose_labellings(op, phi, chi))
                    if lhs != rhs:
                        rep.add(
                            "associativity fails",
                            witness=(d, a, phi.labels, chi.labels),
                        )
    return rep


def reference_configurations(operations, b, max_arity_size):
    """The enumeration the loops above share, one operation at a time and
    without a memo: ``tensor``'s inline composite, split at the bound."""
    out = []
    for item, shape in operations:
        fits, over = [], []
        for phi in collection_labellings(shape, b):
            composed = subst_arities(
                shape, tuple(b.arity_of(x.dim, phi.label_of(x)) for x in all_cells(shape))
            )
            (over if size(composed) > max_arity_size else fits).append((phi, composed))
        out.append((item, tuple(fits), tuple(over)))
    return out


# --- inputs ------------------------------------------------------------------


def _initial(dim, arity, term):
    return cached_initial(Bounds(dim, arity, term))


def _one_atom():
    return free_owc(one_cell_collection(1), Bounds(2, 5, 1))


def _terminal():
    bounds = Bounds(2, 5, 2)
    return terminal_operad(bounds), bounds


CASES = {
    "initial-251": lambda: (_initial(2, 5, 1).operad, Bounds(2, 5, 1)),
    "initial-252": lambda: (_initial(2, 5, 2).operad, Bounds(2, 5, 2)),
    "initial-371": lambda: (_initial(3, 7, 1).operad, Bounds(3, 7, 1)),
    "one-atom-251": lambda: (_one_atom().operad, Bounds(2, 5, 1)),
    "terminal-252": _terminal,
}


def _operations(op, d):
    return [(a, op.over.arity_of(d, a)) for a in op.over.cells_at(d)]


# --- the generator -----------------------------------------------------------


# every labelling of each shape, as the ids say
@pytest.mark.parametrize("case", CASES, ids=[f"all-{case}" for case in CASES])
def test_configurations_match_the_reference(case):
    op, bounds = CASES[case]()
    for d in range(op.up_to_dim + 1):
        ops = _operations(op, d)
        got = list(configurations(iter(ops), op.over, bounds.max_arity_size))
        assert got == reference_configurations(ops, op.over, bounds.max_arity_size)
        # the composite is the one the operad loops computed
        for _, fits, over in got[:20]:
            for phi, composed in fits + over:
                assert composed == _composite_arity(op, phi.shape, phi)


@pytest.mark.parametrize("case", ["initial-251", "one-atom-251", "terminal-252"])
def test_composites_streamed_back_in_match_the_reference(case):
    """The law check's second level: each configuration within the bound is
    an operation of its composite arity."""
    op, bounds = CASES[case]()
    for d in range(op.up_to_dim + 1):
        first = configurations(_operations(op, d), op.over, bounds.max_arity_size)
        mids = [((a, phi), mid) for a, fits, _ in first for phi, mid in fits]
        streamed = ((x, mid) for x, mid in mids)
        got = list(configurations(streamed, op.over, bounds.max_arity_size))
        assert got == reference_configurations(mids, op.over, bounds.max_arity_size)


def test_operations_are_read_one_per_configuration():
    op, bounds = CASES["one-atom-251"]()
    read = []

    def operations():
        for item in _operations(op, 1):
            read.append(item[0])
            yield item

    for n, (a, _, _) in enumerate(configurations(operations(), op.over, bounds.max_arity_size), 1):
        assert read[-1] == a and len(read) == n


# --- the functions built on it -------------------------------------------------


def _recording(op):
    """A copy of ``op`` that logs every multiplication asked of it."""
    log = []
    rec = dataclasses.replace(op)

    def mult(d, a, phi):
        log.append((d, a, phi.labels))
        return OperadStructure.mult(rec, d, a, phi)

    rec.mult = mult
    return rec, log


def _same_calls(new, old, op, *args, **kwargs):
    rec_new, log_new = _recording(op)
    rec_old, log_old = _recording(op)
    out_new = new(rec_new, *args, **kwargs)
    out_old = old(rec_old, *args, **kwargs)
    assert log_new == log_old
    return out_new, out_old


@pytest.mark.parametrize("case", CASES)
def test_tables_match_the_reference(case):
    op, bounds = CASES[case]()
    if case != "terminal-252":
        # the reference prunes by term size, which substitution does not add:
        # see test_cell_products_fall_back_to_the_table in test_grafting.py
        assert list(cell_products(op, bounds).items()) == list(reference_cell_products(op, bounds).items())
    dims = [0, 1] if case == "initial-252" else None
    new, old = _same_calls(mult_table, reference_mult_table, op, bounds, dims=dims)
    assert list(new.items()) == list(old.items())


def _decoded(name, edit=None):
    data = json.loads((FIXTURES / name).read_text())
    if edit is not None:
        edit(data["cells"][1][21]["cell"]["node"], data)
        # the serialized table is not read here, and may no longer decode
        data["mult"] = []
    decoded = state_from_json(data)
    return decoded.state.operad, decoded.state.bounds


def _label_off_its_boundary(node, data):
    # the tgt label of the node, a 0-cell that is not the tgt of its top label
    node["labels"][1] = data["cells"][0][2]["cell"]


def _label_not_a_cell(node, data):
    # the top label of the node, a term over the term-size bound
    term = data["cells"][1][1]["cell"]
    for _ in range(3):
        term = {"node": {"dim": 1, "gen": node["gen"], "labels": [{"atom": "v"}, {"atom": "v"}, term]}}
    node["labels"][2] = term


# the operads the cuts are checked on besides ``CASES``: free structures on
# small collections, every state fixture, whose corruptions include cells
# whose generator has no arity, and ``valid_state.json`` with the labels of
# one node edited so that its cut by its generator is not a labelling by
# cells: the reference never enumerates it, and the cuts must drop it
CUT_CASES = {
    **{
        f"{name}-{b.max_dim}{b.max_arity_size}{b.max_term_size}": lambda make=make, b=b: (free_owc(make(), b).operad, b)
        for name, make, b in CELL_PRODUCT_CASES
    },
    **{p.name: lambda name=p.name: _decoded(name) for p in sorted(FIXTURES.glob("*state*.json"))},
    "label-off-its-boundary": lambda: _decoded("valid_state.json", _label_off_its_boundary),
    "label-not-a-cell": lambda: _decoded("valid_state.json", _label_not_a_cell),
}


@pytest.mark.parametrize("case", CUT_CASES)
def test_cell_products_match_the_reference(case):
    op, bounds = CUT_CASES[case]()
    if case == "corrupt_state_cells.json":
        with pytest.raises(KeyError) as old:
            reference_cell_products(op, bounds)
        with pytest.raises(KeyError) as new:
            cell_products(op, bounds)
        assert new.value.args == old.value.args
        return
    assert list(cell_products(op, bounds).items()) == list(reference_cell_products(op, bounds).items())


def test_cell_products_drop_a_cut_off_the_listed_arity():
    """A node listed with a wrong arity: its cut by itself has the labels of
    the arity grafting gives it, which do not cover the listed one.  The
    reference enumerates the listed arity and raises in ``term_mult``; the
    cuts drop that entry and keep the valid state's others."""

    def edit(node, data):
        data["arity"][1][21] = []

    op, bounds = _decoded("valid_state.json", edit)
    with pytest.raises(ValueError, match="labelling shape"):
        reference_cell_products(op, bounds)
    node = op.over.cells_at(1)[21]
    valid = cell_products(*_decoded("valid_state.json"))
    assert list(cell_products(op, bounds).items()) == [(k, r) for k, r in valid.items() if k[1] is not node]


def test_cell_products_multiply_about_what_they_keep(monkeypatch):
    """The enumeration multiplied 14,644 configurations at (3, 9, 1) to keep
    344 of them.  The cuts invert grafting: they neither enumerate
    labellings nor multiply to confirm a product."""
    from globop import collection, operad

    def enumerated(*args, **kwargs):
        raise AssertionError("collection_labellings called")

    for dims, entries in (((3, 9, 1), 344), ((2, 5, 2), 1107)):
        rec, log = _recording(_initial(*dims).operad)
        with monkeypatch.context() as m:
            m.setattr(collection, "collection_labellings", enumerated)
            m.setattr(operad, "collection_labellings", enumerated, raising=False)
            table = cell_products(rec, Bounds(*dims))
        assert len(table) == entries
        assert log == []


def _broken_terminal():
    base = terminal_operad(Bounds(1, 5, 2))

    def mult_fn(op, d, a, phi):
        out = base.mult(d, a, phi)
        if d == 1 and a == chain(2) and out == chain(2):
            return chain(1)
        if d == 1 and a == chain(1) and phi.labels[-1] == chain(3):
            return chain(4)
        return out

    return OperadStructure(base.over, dict(base.units), (mult_fn,) * 2), Bounds(1, 5, 2)


def _wrong_product():
    """The one-atom operad with one wrong dimension-1 entry in ``products``:
    the unit composed with the first 1-cell gives the fourth, of the same
    arity and another target.  Grafting at dimension 2 reads it for lower
    labels."""
    op, bounds = CASES["one-atom-251"]()
    layer = op.over.cells_at(1)
    unit = op.units[1]
    key = (1, unit, (*_unit_argument(op, 1, layer[0]).labels[:-1], layer[0]))
    assert op.mult(1, unit, LabelledDiagram(op.over.arity_of(1, unit), key[2])) is layer[0]
    assert op.over.arity_of(1, layer[3]) is op.over.arity_of(1, layer[0])
    return dataclasses.replace(op, products={key: layer[3]}), bounds


def _wrong_lower_product():
    """The one-atom operad with one wrong dimension-1 entry in ``products``
    that grafting reads inside a node: the first 1-cell that labels a 2-node
    and has a twin (another 1-cell of its arity, src and tgt), composed with
    the unit labelling, gives the twin.  Only the lookup of lower labels
    inside grafting carries the entry to the right unit law at dimension 2."""
    op, bounds = CASES["one-atom-251"]()
    over = op.over

    def ends(c):
        return over.arity_of(1, c), over.src_of(1, c), over.tgt_of(1, c)

    for node in over.cells_at(2):
        if not isinstance(node, NodeTerm):
            continue
        for x, lab in zip(all_cells(over.arity_of(2, node.gen)), node.labels):
            if x.dim != 1 or lab is op.units[1]:
                continue
            twins = [c for c in over.cells_at(1) if c is not lab and ends(c) == ends(lab)]
            if twins:
                key = (1, lab, _unit_labels(op, over.arity_of(1, lab)))
                return dataclasses.replace(op, products={key: twins[0]}), bounds
    raise AssertionError("no 1-cell label with a twin")


LAW_CASES = {
    "initial-251": (lambda: CASES["initial-251"](), None),
    "initial-371": (lambda: CASES["initial-371"](), [0, 1]),
    "one-atom-251": (lambda: CASES["one-atom-251"](), [0, 1]),
    "broken-terminal": (_broken_terminal, None),
    "wrong-product-251": (_wrong_product, None),
    "wrong-lower-product-251": (_wrong_lower_product, [2]),
}


def _logged(op, record):
    """``op`` with every multiplication function passing the key it was
    asked for and its product to ``record``.  Wrapped, ``term_mult`` is
    reached through a labelling for lower labels too."""

    def logging(mult):
        def logged(view, d, a, phi):
            r = mult(view, d, a, phi)
            record((d, a, phi.labels), r)
            return r

        return logged

    return dataclasses.replace(op, mults=tuple(logging(m) for m in op.mults))


@pytest.mark.parametrize("case", LAW_CASES)
def test_law_check_matches_the_reference(case):
    make, dims = LAW_CASES[case]
    op, bounds = make()
    reference = {}

    def reference_product(key, r):
        assert reference.setdefault(key, r) == r

    multiplied = Counter()

    def product(key, r):
        multiplied[key] += 1
        # the check multiplies only what the reference multiplies, to the
        # same product
        assert reference[key] == r

    old = reference_check_operad_laws(_logged(op, reference_product), bounds, dims=dims)
    new = check_operad_laws(_logged(op, product), bounds, dims=dims)
    assert new.violations == old.violations
    firsts = [
        (d, a, phi.labels)
        for d in (dims if dims is not None else range(op.up_to_dim + 1))
        for a, fits, _ in configurations(_operations(op, d), op.over, bounds.max_arity_size)
        for phi, _ in fits
    ]
    assert new.counts["first_level_configurations"] == len(firsts)
    # each first-level configuration is multiplied exactly once, unless
    # ``products`` has it
    assert [multiplied[key] for key in firsts] == [int(key not in op.products) for key in firsts]
    failures = {v.message for v in new.violations}
    if case == "broken-terminal":
        assert failures >= {"arity of composite differs from substitution", "associativity fails"}
    if case == "wrong-product-251":
        assert "associativity fails" in failures
        # found through grafting too: the entry is a lower label at dimension 2
        assert any(v.witness[0] == 2 for v in new.violations)


@pytest.mark.parametrize("case", LAW_CASES)
def test_law_check_on_plans_matches_the_reference(case):
    """Unwrapped, a dimension that grafts multiplies by ``term_mult`` itself,
    so the check runs the plans of its operations.  ``_logged`` above wraps
    every multiplication: its check multiplies through labellings and meets
    a plan only inside each wrapped ``term_mult``.  The violations are the
    reference's, in order, and the counts those of the wrapped run."""
    make, dims = LAW_CASES[case]
    op, bounds = make()
    new = check_operad_laws(op, bounds, dims=dims)
    assert new.violations == reference_check_operad_laws(op, bounds, dims=dims).violations
    wrapped = check_operad_laws(_logged(op, lambda key, r: None), bounds, dims=dims)
    assert new.counts == wrapped.counts
    if case == "wrong-lower-product-251":
        assert ("right unit law fails", 2) in {(v.message, v.witness[0]) for v in new.violations}


def _first_level_keys(op, bounds, d):
    return [
        (d, a, phi.labels)
        for a, fits, _ in configurations(_operations(op, d), op.over, bounds.max_arity_size)
        for phi, _ in fits
    ]


@st.composite
def _redirected(draw, op, bounds):
    """``products`` for the one-atom operad that send one first-level
    configuration at dimension 2, one at dimension 1, or both, to another
    cell of its layer."""
    products = {}
    for d in draw(st.sampled_from([(2,), (1,), (1, 2)])):
        key = draw(st.sampled_from(_first_level_keys(op, bounds, d)))
        right = op.mult(d, key[1], LabelledDiagram(op.over.arity_of(d, key[1]), key[2]))
        products[key] = draw(st.sampled_from([c for c in op.over.cells_at(d) if c is not right]))
    return products


def test_law_check_on_a_mutant_table_keeps_the_witness_order():
    """The check groups the cells of a layer by arity, so it meets the
    configurations in another order than the reference and sorts the
    violations back.  A wrong entry at dimension 1 reaches dimension 2
    through the lower labels of grafting, so the violations fall on cells
    of many arities.  Each example runs both checks on the whole operad, so
    a failure is reported as drawn, not shrunk."""
    op, bounds = CASES["one-atom-251"]()

    @settings(
        max_examples=3, derandomize=True, deadline=None, database=None,
        phases=(Phase.explicit, Phase.generate),
    )
    @given(_redirected(op, bounds))
    def check(products):
        mutant = dataclasses.replace(op, products=products)
        new = check_operad_laws(mutant, bounds)
        assert new.violations
        assert new.violations == reference_check_operad_laws(mutant, bounds).violations

    check()


def test_law_check_counts_what_it_covered():
    op, bounds = CASES["one-atom-251"]()
    counts = check_operad_laws(op, bounds).counts
    assert counts["first_level_configurations"] == 1424
    assert counts["associativity_configurations"] == 46384
    assert counts["configurations_over_bound"] == 15008
    assert counts["products_multiplied"] == 87460
    assert counts["products_read_from_table"] == 41036
    # the products asked for: both unit laws on every cell, each first-level
    # product, per associativity configuration the lhs and the rhs, and per
    # arity, labelling ``phi`` of it and ``chi`` one product per label of
    # ``phi``, shared by the cells of that arity; and the configurations
    # left out over the bound at both levels
    asked = over_bound = 0
    for d in range(op.up_to_dim + 1):
        layer = op.over.cells_at(d)
        asked += 2 * len(layer)
        arities = Counter(op.over.arity_of(d, a) for a in layer)
        operations = [(n, shape) for shape, n in arities.items()]
        for n, fits, over in configurations(operations, op.over, bounds.max_arity_size):
            asked += n * len(fits)
            over_bound += n * len(over)
            for phi, inner, inner_over in configurations(fits, op.over, bounds.max_arity_size):
                asked += len(inner) * (2 * n + len(phi.labels))
                over_bound += n * len(inner_over)
    assert counts["products_multiplied"] + counts["products_read_from_table"] == asked
    assert counts["configurations_over_bound"] == over_bound


def test_law_check_enumerates_each_shape_once(monkeypatch):
    """Both levels of the law check read one memo of labellings: each
    distinct shape, an arity of a cell or a composite arity, is enumerated
    once."""
    from globop import collection

    op, bounds = CASES["one-atom-251"]()
    expected = set()
    for d in range(op.up_to_dim + 1):
        expected.update(shape for _, shape in _operations(op, d))
        for _, fits, _ in configurations(_operations(op, d), op.over, bounds.max_arity_size):
            expected.update(mid for _, mid in fits)
    enumerated = Counter()
    labellings = collection.collection_labellings

    def counted(shape, b, overrides=None):
        enumerated[shape] += 1
        return labellings(shape, b, overrides)

    monkeypatch.setattr(collection, "collection_labellings", counted)
    check_operad_laws(op, bounds)
    assert enumerated == Counter(expected)


@pytest.mark.parametrize(
    "a_bounds, bounds",
    [
        (Bounds(1, 5, 2), Bounds(1, 3, 2)),
        (Bounds(2, 5, 2), Bounds(2, 5, 2)),
        (Bounds(2, 5, 2), Bounds(1, 7, 2)),
    ],
)
def test_tensor_matches_the_reference(a_bounds, bounds):
    t = terminal_collection(a_bounds)
    for a, b in ((t, t), (_one_atom().collection, t)):
        new, old = tensor(a, b, bounds), reference_tensor(a, b, bounds)
        assert new.overflows == old.overflows
        for k in range(new.collection.max_dim + 1):
            assert new.collection.cells_at(k) == old.collection.cells_at(k)
            for table in ("src", "tgt"):
                assert list(getattr(new.collection, table)[k].items()) == list(
                    getattr(old.collection, table)[k].items()
                )
            assert list(new.collection.arity[k].items()) == list(old.collection.arity[k].items())
