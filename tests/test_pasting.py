import re
from functools import lru_cache
from typing import Iterable, Mapping

import pytest
from hypothesis import assume, given, settings, strategies as st

from globop.collection import labelling_order
from globop.pasting import (
    DOT,
    CellAddr,
    LabelledDiagram,
    PastingDiagram,
    _tree_key,
    all_cells,
    boundary,
    boundary_inclusion,
    boundary_restrict,
    cell_ends,
    cell_src,
    cell_tgt,
    cells,
    chain,
    emb_map,
    enumerate_trees,
    inner_size,
    labelled,
    size,
    substitute,
    subst_arities,
    tree_from_json,
    tree_to_json,
    trees_with_boundary,
    unit_tree,
)
from globop.verify import tree_labellings

PD201 = PastingDiagram(2, (chain(2), chain(0), chain(1)))


def unit_labelled(shape):
    return labelled(shape, {a: unit_tree(a.dim) for a in all_cells(shape)})


def trees_up_to(max_dim, max_size):
    for k in range(max_dim + 1):
        yield from enumerate_trees(k, max_size)


# --- construction and invariants -------------------------------------------


def test_unit_trees():
    assert unit_tree(0) == DOT
    assert unit_tree(1) == PastingDiagram(1, (DOT,))
    assert unit_tree(2) == PastingDiagram(2, (chain(1),))


def test_dot_is_the_only_0_diagram():
    with pytest.raises(ValueError):
        PastingDiagram(0, (DOT,))
    with pytest.raises(ValueError):
        PastingDiagram(2, (DOT,))


def test_boundary_examples():
    assert boundary(chain(3)) == DOT
    for k in range(1, 4):
        assert boundary(unit_tree(k)) == unit_tree(k - 1)
    assert boundary(PD201) == chain(3)
    with pytest.raises(ValueError):
        boundary(DOT)


def test_size_examples():
    assert size(DOT) == 1
    for m in range(5):
        assert size(chain(m)) == 2 * m + 1
    assert size(PD201) == 13


def test_size_monotone_under_boundary():
    for t in trees_up_to(3, 11):
        if t.dim >= 1:
            assert size(boundary(t)) <= size(t)


# --- cells and addressing ----------------------------------------------------


def test_cells_examples():
    assert len(cells(DOT, 0)) == 1
    # the single-cell diagram still has two points and two parallel arrows
    # below its unique top cell, by the cell-count recursion
    assert [len(cells(unit_tree(2), j)) for j in (0, 1, 2)] == [2, 2, 1]
    assert len(cells(PD201, 1)) == 6
    with pytest.raises(ValueError):
        cells(chain(2), 2)


def test_cells_count_recursion():
    for t in trees_up_to(3, 9):
        assert len(cells(t, 0)) == len(t.children) + 1
        for j in range(1, t.dim + 1):
            assert len(cells(t, j)) == sum(
                len(cells(c, j - 1)) for c in t.children
            )


def test_cell_src_tgt_chain():
    arrows = cells(chain(3), 1)
    assert cell_src(chain(3), arrows[1]) == CellAddr(0, (1,))
    assert cell_tgt(chain(3), arrows[1]) == CellAddr(0, (2,))


def test_cell_src_tgt_unit2():
    top = cells(unit_tree(2), 2)[0]
    assert cell_src(unit_tree(2), top) == CellAddr(1, (1, 0))
    assert cell_tgt(unit_tree(2), top) == CellAddr(1, (1, 1))


def test_cell_src_tgt_2diagram():
    c = CellAddr(2, (1, 2, 0))  # second face in the first column
    assert cell_src(PD201, c) == CellAddr(1, (1, 1))
    assert cell_tgt(PD201, c) == CellAddr(1, (1, 2))


def test_globularity_inside_diagrams():
    # exhaustive for all trees up to size 13, dimensions up to 3
    for t in trees_up_to(3, 13):
        for j in range(2, t.dim + 1):
            for c in cells(t, j):
                s, g = cell_src(t, c), cell_tgt(t, c)
                assert cell_src(t, s) == cell_src(t, g)
                assert cell_tgt(t, s) == cell_tgt(t, g)


def test_invalid_address_rejected():
    with pytest.raises(ValueError):
        cell_src(chain(2), CellAddr(1, (3, 0)))


# --- substitution -------------------------------------------------------------


def test_substitute_chains_concatenate():
    sh = chain(2)
    lab = {a: DOT for a in cells(sh, 0)}
    lab[cells(sh, 1)[0]] = chain(3)
    lab[cells(sh, 1)[1]] = chain(0)
    assert substitute(labelled(sh, lab)) == chain(3)


def test_substitute_right_unit_exhaustive():
    for t in trees_up_to(2, 9):
        assert substitute(unit_labelled(t)) == t


def test_substitute_left_unit():
    for t in trees_up_to(2, 7):
        sh = unit_tree(t.dim)
        lab = {}
        for a in all_cells(sh):
            v = t
            for _ in range(t.dim - a.dim):
                v = boundary(v)
            lab[a] = v
        assert substitute(labelled(sh, lab)) == t


def test_substitute_two_columns_of_double():
    sh = PastingDiagram(2, (chain(1), chain(1)))
    beta = PastingDiagram(2, (chain(2),))
    lab = {}
    for a in all_cells(sh):
        lab[a] = {0: DOT, 1: chain(1), 2: beta}[a.dim]
    assert substitute(labelled(sh, lab)) == PastingDiagram(2, (chain(2), chain(2)))


def test_substitute_rejects_bad_labels():
    sh = chain(1)
    lab = {a: DOT for a in cells(sh, 0)}
    lab[cells(sh, 1)[0]] = PD201  # dimension mismatch
    with pytest.raises(ValueError):
        substitute(labelled(sh, lab))


@pytest.mark.parametrize("side", [0, 1])
def test_substitute_names_the_side_whose_label_differs(side):
    sh = unit_tree(2)
    top = cells(sh, 2)[0]
    lab = {a: unit_tree(a.dim) for a in all_cells(sh)}
    lab[(cell_src if side == 0 else cell_tgt)(sh, top)] = chain(2)
    message = f"label of {('src', 'tgt')[side]} of {top} differs from label boundary"
    with pytest.raises(ValueError, match=re.escape(message)):
        substitute(labelled(sh, lab))


# --- reference: the gluing the monoid-laws check used, verbatim -------------
#
# ``flatten`` is the inverse of slicing a labelling of a composite along
# ``emb_map``, which the check now does instead (``tests/test_verify.py``
# shows the two agree).  It reads ``subst_arities`` from this module, as it
# read it from ``pasting``, so a substitution patched into the reference law
# check in ``tests/test_verify.py`` does not reach it.


def flatten(shape: PastingDiagram, inner: Mapping[CellAddr, LabelledDiagram]) -> LabelledDiagram:
    """Collapse a diagram whose cells carry labelled diagrams into a single
    labelled diagram over the composed shape.

    Labels pushed onto a glued cell from different sources must agree; this is
    asserted, since it is exactly the boundary-compatibility condition.
    """
    arities = tuple(inner[a].shape for a in all_cells(shape))
    composite = subst_arities(shape, arities)
    out: dict[int, object] = {}
    for c, positions in zip(all_cells(shape), emb_map(shape, arities)):
        for p, lab in zip(positions, inner[c].labels):
            if out.setdefault(p, lab) != lab:
                raise ValueError(f"incompatible labels glued at {all_cells(composite)[p]}")
    return LabelledDiagram(composite, tuple(out[p] for p in range(len(out))))


def test_flatten_agrees_with_two_step_substitution():
    sh = chain(2)
    theta = {c: chain(2) if c.dim == 1 else DOT for c in all_cells(sh)}
    inner = {}
    for c in all_cells(sh):
        t = theta[c]
        inner[c] = labelled(
            t, {a: (chain(1) if a.dim == 1 else DOT) for a in all_cells(t)}
        )
    flat = flatten(sh, inner)
    assert flat.shape == chain(4)
    assert substitute(flat) == chain(4)


def test_boundary_restrict_naturality():
    sh = PastingDiagram(2, (chain(1), chain(1)))
    beta = PastingDiagram(2, (chain(2),))
    ld = labelled(
        sh, {a: {0: DOT, 1: chain(1), 2: beta}[a.dim] for a in all_cells(sh)}
    )
    out = substitute(ld)
    for side in (0, 1):
        assert substitute(boundary_restrict(ld, side)) == boundary(out)


def test_a_diagram_without_top_cells_is_its_boundary_cell_for_cell():
    """The free operad step reads a labelling of such an arity as the label
    tuple of its src side: both boundary inclusions keep every cell's
    position in ``all_cells``, and the cells' ends, dimensions and
    ``labelling_order`` are those of the boundary, so that ``cell_products``
    lists such labellings in enumeration order."""
    seen = 0
    for k in range(1, 5):
        for t in enumerate_trees(k, 13):
            if cells(t, k):
                continue
            seen += 1
            n = len(all_cells(t))
            assert len(all_cells(boundary(t))) == n
            for side in (0, 1):
                assert boundary_restrict(LabelledDiagram(t, tuple(range(n))), side).labels == tuple(range(n))
            assert cell_ends(t) == cell_ends(boundary(t))
            assert [x.dim for x in all_cells(t)] == [x.dim for x in all_cells(boundary(t))]
            assert labelling_order(t) == labelling_order(boundary(t))
    assert seen > 100



def test_label_cells_land_where_their_boundaries_do():
    """At dimension 3 the parts are glued at shifts 0, 1 and 2.  Where a
    cell's label meets the labels of its source and target, the cells must
    land on the same cells of the composite, and together the labels cover
    it."""
    count = 0
    for shape in enumerate_trees(3, 9):
        for ld in tree_labellings(shape, 7):
            count += 1
            lands = emb_map(shape, ld.labels)
            covered = {p for ps in lands for p in ps}
            assert covered == set(range(len(all_cells(substitute(ld)))))
            for p, *ends in cell_ends(shape):
                alpha = ld.labels[p]
                order = all_cells(alpha)
                for side, q in enumerate(ends):
                    incl = boundary_inclusion(alpha, side)
                    for i, b in enumerate(all_cells(boundary(alpha))):
                        assert lands[p][order.index(incl[b])] == lands[q][i], (ld, side)
    assert count == 1235


# --- enumeration ---------------------------------------------------------------


def test_enumerate_trees_examples():
    assert enumerate_trees(1, 5) == (chain(0), chain(1), chain(2))
    assert enumerate_trees(0, 1) == (DOT,)
    assert len(enumerate_trees(2, 7)) == 8


def test_enumerate_trees_no_duplicates_and_bounded():
    for k in range(3):
        ts = enumerate_trees(k, 9)
        assert len(set(ts)) == len(ts)
        assert all(t.dim == k and size(t) <= 9 for t in ts)


# --- reference: the tree enumeration by column counts, verbatim ---------------
# ``enumerate_trees`` now lifts each dimension's diagrams from the one below
# with ``trees_with_boundary``; the two functions below are the recursion it
# replaced, with only their names prefixed.


@lru_cache(maxsize=None)
def reference_enumerate_trees(k: int, max_size: int) -> tuple[PastingDiagram, ...]:
    """All diagrams of dimension exactly k with at most ``max_size`` cells,
    canonically ordered."""
    if max_size < 1:
        return ()
    if k == 0:
        return (DOT,)
    found = []
    for m in range(0, (max_size - 1) // 2 + 1):
        for combo in reference_child_combos(k - 1, m, max_size - m - 1):
            found.append(PastingDiagram(k, combo))
    return tuple(sorted(found, key=_tree_key))


def reference_child_combos(k: int, n: int, budget: int) -> Iterable[tuple[PastingDiagram, ...]]:
    if n == 0:
        yield ()
        return
    for first in reference_enumerate_trees(k, budget - (n - 1)):
        for rest in reference_child_combos(k, n - 1, budget - size(first)):
            yield (first,) + rest


def test_enumerate_trees_matches_the_reference():
    """The same diagrams in the same order, degenerate ones included."""
    for k in range(6):
        for n in range(-1, 14):
            assert enumerate_trees(k, n) == reference_enumerate_trees(k, n), (k, n)
    assert len(enumerate_trees(3, 13)) == 145


def test_enumerate_trees_in_a_high_dimension():
    # the lifts run in a loop, so the dimension is not bounded by the stack:
    # of size at most 3 there are the degenerate diagram and the one over it
    trees = enumerate_trees(3000, 3)
    assert trees == (PastingDiagram(3000, ()), PastingDiagram(3000, (PastingDiagram(2999, ()),)))


def is_bounded_tree(t, k, max_size):
    """Independent acceptance predicate for the enumeration."""
    if t.dim != k or size(t) > max_size:
        return False

    def well_formed(x):
        if x.dim == 0:
            return not x.children
        return all(c.dim == x.dim - 1 and well_formed(c) for c in x.children)

    return well_formed(t)


def test_enumeration_matches_acceptance_predicate():
    # completeness: every nested-list candidate accepted by the predicate is
    # enumerated, built from column counts directly
    def candidates(k, budget):
        if k == 0:
            yield DOT
            return
        for m in range(budget):
            for combo in _combos(k - 1, m, budget):
                yield PastingDiagram(k, combo)

    def _combos(k, n, budget):
        if n == 0:
            yield ()
            return
        for first in candidates(k, budget):
            for rest in _combos(k, n - 1, budget):
                yield (first,) + rest

    for k in range(3):
        enumerated = set(enumerate_trees(k, 7))
        accepted = {t for t in candidates(k, 7) if is_bounded_tree(t, k, 7)}
        assert enumerated == accepted


def test_trees_with_boundary():
    for beta in trees_up_to(1, 5):
        lifts = trees_with_boundary(beta, 9)
        assert all(boundary(t) == beta for t in lifts)
        direct = [t for t in enumerate_trees(beta.dim + 1, 9) if boundary(t) == beta]
        assert sorted(lifts, key=repr) == sorted(direct, key=repr)


# --- json -----------------------------------------------------------------------


def test_tree_json_roundtrip():
    assert tree_to_json(DOT) == []
    assert tree_to_json(chain(3)) == [[], [], []]
    assert tree_to_json(PD201) == [[[], []], [], [[]]]
    for t in trees_up_to(3, 9):
        assert tree_from_json(tree_to_json(t), t.dim) == t


@st.composite
def tree_strategy(draw, dim=2, budget=9):
    if dim == 0:
        return DOT
    n = draw(st.integers(min_value=0, max_value=max(0, (budget - 1) // 2)))
    children = tuple(
        draw(tree_strategy(dim=dim - 1, budget=max(1, budget // max(n, 1))))
        for _ in range(n)
    )
    return PastingDiagram(dim, children)


@settings(max_examples=80, deadline=None)
@given(tree_strategy(dim=2))
def test_boundary_idempotent_shape_properties(t):
    b = boundary(t)
    assert b.dim == t.dim - 1
    assert len(b.children) == len(t.children)
    assert size(b) <= size(t)
    assert substitute(unit_labelled(t)) == t


@settings(max_examples=60, deadline=None)
@given(tree_strategy(dim=3, budget=7))
def test_subst_arity_unit_identity_threedim(t):
    labels = tuple(unit_tree(a.dim) for a in all_cells(t))
    assert subst_arities(t, tuple(labels[i] if a.dim < t.dim else unit_tree(t.dim)
                                  for i, a in enumerate(all_cells(t)))) == t


# --- inner size ------------------------------------------------------------------


def test_inner_size_examples():
    assert [inner_size(unit_tree(k)) for k in range(5)] == [1] * 5
    # the arrows and the inner points; a degenerate chain glues its ends
    assert [inner_size(chain(m)) for m in range(4)] == [-1, 1, 3, 5]
    assert inner_size(PD201) == size(PD201) - 2 * size(boundary(PD201)) + 2
    assert inner_size(PastingDiagram(2, (chain(0),))) == -1


def _flipped_inner_size(depth):
    """``inner_size`` with the sign of its ``depth``-th boundary term flipped."""

    def flipped(pi):
        n, sign, k = size(pi), -2, 0
        while pi.dim:
            pi, k = boundary(pi), k + 1
            n += (-sign if k == depth else sign) * size(pi)
            sign = -sign
        return n

    return flipped


def _identity_fails(shape, labels, inner=inner_size):
    return size(subst_arities(shape, labels)) != sum(inner(a) for a in labels)


def test_inner_size_sums_to_the_size_of_the_substitution():
    """The identity the free operad step rejects by, on every labelling of a
    shape of dimension at most 3, degenerate labels included."""
    count = degenerate = 0
    for shape in trees_up_to(3, 9):
        for ld in tree_labellings(shape, 9):
            count += 1
            degenerate += any(a.dim and not a.children for a in ld.labels)
            assert not _identity_fails(shape, ld.labels), ld
    assert (count, degenerate) == (8316, 2780)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_a_flipped_sign_breaks_the_identity(depth):
    flipped = _flipped_inner_size(depth)
    assert any(
        _identity_fails(shape, ld.labels, flipped)
        for shape in trees_up_to(3, 9)
        for ld in tree_labellings(shape, 9)
    )


@st.composite
def globular_labelling(draw, max_dim=4, budget=11, max_label=9):
    """A shape and a labelling of it by diagrams of at most ``max_label``
    cells whose cells' src and tgt carry the boundary of their label, drawn
    top dimension first as ``enumerate_labellings`` assigns them."""
    shape = draw(tree_strategy(dim=draw(st.integers(0, max_dim)), budget=budget))
    addrs = all_cells(shape)
    ends = {p: (s, t) for p, s, t in cell_ends(shape)}
    labels = [None] * len(addrs)
    for p in labelling_order(shape):
        if labels[p] is None:
            forced = {labels[q] for q in ends.get(p, ())} - {None}
            assume(len(forced) <= 1)
            options = trees_with_boundary(forced.pop(), max_label) if forced else enumerate_trees(addrs[p].dim, max_label)
            labels[p] = draw(st.sampled_from(options))
        for q in ends.get(p, ()):
            b = boundary(labels[p])
            assume(labels[q] in (None, b))
            labels[q] = b
    return shape, tuple(labels)


@settings(max_examples=200, deadline=None)
@given(globular_labelling())
def test_inner_size_identity_on_random_labellings(drawn):
    shape, labels = drawn
    assert not _identity_fails(shape, labels)
