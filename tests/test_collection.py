import itertools
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from globop.collection import (
    Bounds,
    PairCell,
    add_cells,
    check_collection,
    collection_labellings,
    count_labellings,
    empty_collection,
    enumerate_labellings,
    labelling_order,
    make_collection,
    one_cell_collection,
    tensor,
    terminal_collection,
    truncate,
    unit_collection,
)
from globop import operad
from globop.globset import GlobularSet, check_globularity
from globop.interleave import free_owc, initial_owc
from globop.pasting import (
    DOT,
    LabelledDiagram,
    PastingDiagram,
    all_cells,
    boundary,
    cell_ends,
    cells,
    chain,
    degenerate,
    enumerate_trees,
    size,
    subst_arities,
    unit_tree,
)

B = Bounds(max_dim=2, max_arity_size=5, max_term_size=2)


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(-1, 0, 0)


def test_check_collection_examples():
    assert check_collection(empty_collection(2)).passed
    assert check_collection(one_cell_collection()).passed
    bad = make_collection(
        [["x"], ["f"]],
        [{}, {"f": "x"}],
        [{}, {"f": "x"}],
        [{"x": DOT}, {"f": chain(2)}],  # fine: boundary(chain 2) == DOT
    )
    assert check_collection(bad).passed
    worse = make_collection(
        [["x"], ["f"]],
        [{}, {"f": "x"}],
        [{}, {"f": "x"}],
        [{"x": DOT}, {"f": unit_tree(2)}],  # wrong dimension
    )
    assert not check_collection(worse).passed


def test_unit_collection():
    u = unit_collection(2)
    assert u.arity_of(0, ("u", 0)) == DOT
    assert u.arity_of(2, ("u", 2)) == unit_tree(2)
    assert check_globularity(u).passed
    assert check_collection(u).passed


def test_terminal_collection_valid():
    t = terminal_collection(B)
    assert check_globularity(t).passed
    assert check_collection(t).passed


def test_truncate():
    u = unit_collection(2)
    t = truncate(u, 1)
    assert t.max_dim == 1
    assert sum(len(t.cells_at(k)) for k in range(2)) == 2
    assert truncate(truncate(u, 1), 1) == truncate(u, 1)
    assert truncate(empty_collection(2), 1) == empty_collection(1)


def test_add_cells_extends_one_layer_and_shares_the_others():
    u = unit_collection(2)
    a = ("u", 0)
    new = add_cells(u, 1, ["f"], {"f": a}, {"f": a}, {"f": unit_tree(1)})
    assert new.cells_at(1) == (("u", 1), "f")
    assert (new.src_of(1, "f"), new.tgt_of(1, "f"), new.arity_of(1, "f")) == (a, a, unit_tree(1))
    assert check_collection(new).passed and check_globularity(new).passed
    # the extended layer is a copy, every other one is shared
    assert u.cells_at(1) == (("u", 1),) and "f" not in u.arity[1] and "f" not in u.src[1]
    for k in (0, 2):
        assert new.arity[k] is u.arity[k] and new.src[k] is u.src[k]
        assert new.tgt[k] is u.tgt[k]
    # dimension 0 has no src or tgt: only the arity is read
    point = add_cells(u, 0, ["w"], {}, {}, {"w": DOT})
    assert point.cells_at(0) == (a, "w") and point.arity_of(0, "w") == DOT
    assert point.src == u.src and point.tgt == u.tgt


def test_tensor_one_cell_square():
    one = one_cell_collection()
    res = tensor(one, one, B)
    assert len(res.collection.cells_at(0)) == 1
    assert check_collection(res.collection).passed


def test_tensor_left_unit_bijection():
    u = unit_collection(2)
    b = unit_collection(2)
    res = tensor(u, b, B)
    # (unit cell, labelling of the single-cell shape) <-> top label
    for k in range(3):
        pairs = res.collection.cells_at(k)
        tops = [p.labelling.label_of(all_cells(p.labelling.shape)[-1]) for p in pairs]
        assert sorted(tops) == sorted(b.cells_at(k))
        for p in pairs:
            assert res.collection.arity_of(k, p) == b.arity_of(k, tops[pairs.index(p)])


def test_tensor_right_unit_bijection():
    a = terminal_collection(Bounds(2, 5, 2))
    u = unit_collection(2)
    res = tensor(a, u, B)
    for k in range(3):
        pairs = res.collection.cells_at(k)
        # exactly one labelling per left cell, arity preserved
        assert [p.left for p in pairs] == list(a.cells_at(k))
        for p in pairs:
            assert res.collection.arity_of(k, p) == a.arity_of(k, p.left)


def test_tensor_reports_overflow():
    t = terminal_collection(Bounds(1, 5, 2))
    res = tensor(t, t, Bounds(1, 3, 2))
    assert res.overflows and res.overflows[0].reason == "arity"
    # the count and the first three pairs over the bound, as the per-cell
    # loop in tests/test_configurations.py (reference_tensor) gives them
    assert res.overflows[0].count == 7
    assert res.overflows[0].sample == (
        "(1, PairCell(left=PD(1, [[]]), labelling=LabelledDiagram(shape=PD(1, [[]]), "
        "labels=(PD(0, []), PD(0, []), PD(1, [[], []])))))",
        "(1, PairCell(left=PD(1, [[], []]), labelling=LabelledDiagram(shape=PD(1, [[], []]), "
        "labels=(PD(0, []), PD(0, []), PD(0, []), PD(1, []), PD(1, [[], []])))))",
        "(1, PairCell(left=PD(1, [[], []]), labelling=LabelledDiagram(shape=PD(1, [[], []]), "
        "labels=(PD(0, []), PD(0, []), PD(0, []), PD(1, [[]]), PD(1, [[]])))))",
    )


def test_tensor_associativity_small():
    """(A x B) x C and A x (B x C) match by the canonical re-association."""
    a = unit_collection(1)
    b = terminal_collection(Bounds(1, 3, 2))
    c = unit_collection(1)
    bounds = Bounds(1, 5, 2)
    left = tensor(tensor(a, b, bounds).collection, c, bounds).collection
    right = tensor(a, tensor(b, c, bounds).collection, bounds).collection
    for k in range(2):
        lefts = left.cells_at(k)
        rights = right.cells_at(k)
        assert len(lefts) == len(rights)
        remapped = set()
        for cell in lefts:
            inner_pair, psi = cell.left, cell.labelling
            shape = inner_pair.labelling.shape
            from globop.pasting import LabelledDiagram, slicers

            arities = tuple(
                b.arity_of(x.dim, inner_pair.labelling.label_of(x))
                for x in all_cells(shape)
            )
            pieces = {
                x: LabelledDiagram(alpha, take(psi.labels))
                for x, alpha, take in zip(all_cells(shape), arities, slicers(shape, arities))
            }
            chi = LabelledDiagram(
                shape,
                tuple(PairCell(lab, pieces[x]) for x, lab in zip(all_cells(shape), inner_pair.labelling.labels)),
            )
            remapped.add(PairCell(inner_pair.left, chi))
        assert remapped == set(rights)
        for cell in lefts:
            assert left.arity_of(k, cell) in {right.arity_of(k, r) for r in rights}


def test_labellings_are_globular_maps():
    t = terminal_collection(Bounds(2, 5, 2))
    shape = unit_tree(2)
    for ld in collection_labellings(shape, t):
        for addr in all_cells(shape):
            if addr.dim >= 1:
                from globop.pasting import cell_src, cell_tgt

                assert ld.label_of(cell_src(shape, addr)) == boundary(ld.label_of(addr))
                assert ld.label_of(cell_tgt(shape, addr)) == boundary(ld.label_of(addr))


def test_tensor_cells_satisfy_collection_invariant():
    t = terminal_collection(Bounds(2, 5, 2))
    res = tensor(t, t, Bounds(2, 5, 2))
    assert check_collection(res.collection).passed
    assert check_globularity(res.collection).passed


# --- the labelling enumerator against product-and-filter ---------------------


def reference_labellings(shape, candidates_by_dim, src_of, tgt_of, overrides=None) -> list:
    """Every choice of one candidate per cell, read in ``labelling_order``
    and tried in the order ``itertools.product`` gives, kept when each
    cell's src and tgt carry the src and tgt of its label.  ``overrides``
    narrows top cells only: they are never a boundary, so the enumerator
    never forces them."""
    addrs = all_cells(shape)
    order = labelling_order(shape)
    overrides = overrides or {}
    options = [overrides.get(addrs[p], candidates_by_dim(addrs[p].dim)) for p in order]
    out = []
    for combo in itertools.product(*options):
        labels = [None] * len(addrs)
        for p, lab in zip(order, combo):
            labels[p] = lab
        if all(
            labels[s] == src_of(addrs[p].dim, labels[p]) and labels[t] == tgt_of(addrs[p].dim, labels[p])
            for p, s, t in cell_ends(shape)
        ):
            out.append(LabelledDiagram(shape, tuple(labels)))
    return out


def _narrowed(shape, coll):
    # per top cell a different list, strided and reversed so that the
    # override's own order is the one followed
    tops = cells(shape, shape.dim)
    layer = coll.cells_at(shape.dim)
    return {x: layer[i % 2 :: 2][::-1] for i, x in enumerate(tops)}


# a built state's layers are larger, so its shapes stay smaller
@pytest.mark.parametrize(
    "make, max_size",
    [
        (lambda: terminal_collection(Bounds(3, 7, 1)), 7),
        (lambda: free_owc(empty_collection(), Bounds(3, 7, 1)).collection, 5),
    ],
    ids=["terminal-37", "initial-371"],
)
def test_enumerate_labellings_matches_product_and_filter(make, max_size):
    coll = make()
    args = (coll.cells_at, coll.src_of, coll.tgt_of)
    found = 0
    for k in range(4):
        for shape in enumerate_trees(k, max_size):
            for overrides in (None, _narrowed(shape, coll)):
                out = enumerate_labellings(shape, coll, overrides)
                assert isinstance(out, list)
                assert out == [phi.labels for phi in reference_labellings(shape, *args, overrides)]
                found += len(out)
    assert found > 100


# --- the weighed count against filtering the enumerated labellings -----------


@cache
def _weighed_collections() -> tuple:
    """Collections to count labellings by, each with the largest shape
    size drawn for it."""
    # the third has two 0-cells, so that a chain's arrows force different
    # points, and so leave different numbers of completions
    ends = [{}, {"f": "a", "g": "b", "e": "a"}, {"s": "f", "t": "e"}]
    two_points = make_collection(
        [["a", "b"], ["f", "g", "e"], ["s", "t"]],
        ends,
        [{}, {"f": "b", "g": "a", "e": "a"}, {"s": "f", "t": "e"}],
        [
            {"a": DOT, "b": DOT},
            {"f": chain(1), "g": chain(1), "e": chain(2)},
            {"s": unit_tree(2), "t": degenerate(chain(2), 1)},
        ],
    )
    # no symmetry reverses src and tgt here: one arrow goes from a to b and
    # none back, only the loop at a has a 2-cell, the name "a" is a 0-cell
    # and a 1-cell, and the 3-layer is empty, so only degenerate 3-shapes
    # have labellings
    asymmetric = make_collection(
        [["a", "b"], ["f", "h", "a"], ["s"], []],
        [{}, {"f": "a", "h": "a", "a": "b"}, {"s": "f"}, {}],
        [{}, {"f": "a", "h": "b", "a": "b"}, {"s": "f"}, {}],
        [
            {"a": DOT, "b": DOT},
            {"f": chain(1), "h": chain(2), "a": chain(0)},
            {"s": unit_tree(2)},
            {},
        ],
    )
    return (
        (terminal_collection(Bounds(2, 5, 1)), 5),
        (free_owc(empty_collection(), Bounds(2, 5, 1)).collection, 5),
        (two_points, 5),
        (asymmetric, 7),
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_count_labellings_splits_the_labellings_at_the_limit(data):
    """``count_labellings`` counts the labellings ``enumerate_labellings``
    finds whose weight is within the limit and those over it.  Weights can
    be negative, as the inner sizes of degenerate arities are, so a label's
    excess over the least weight of its dimension is what a branch adds.
    Every limit from below the lightest labelling to the heaviest is tried,
    and one far below, which leaves every labelling over it."""
    coll, max_size = data.draw(st.sampled_from(_weighed_collections()))
    shape = data.draw(st.sampled_from(enumerate_trees(data.draw(st.integers(0, coll.max_dim)), max_size)))
    weights = []
    for j in range(coll.max_dim + 1):
        layer = coll.cells_at(j)
        drawn = data.draw(st.lists(st.integers(-3, 4), min_size=len(layer), max_size=len(layer)))
        weights.append(dict(zip(layer, drawn)))
    addrs = all_cells(shape)
    found = enumerate_labellings(shape, coll)
    sums = [sum(weights[a.dim][lab] for a, lab in zip(addrs, labels)) for labels in found]
    for limit in (-100, *range(min(sums, default=0) - 1, max(sums, default=0) + 1)):
        over = sum(w > limit for w in sums)
        assert count_labellings(shape, coll, weights, limit) == (len(sums) - over, over)


# --- the column count against the forcing search it replaced -----------------

# ``count_labellings`` and the frame it read before the count became the
# recursion over columns, verbatim but for the name


def _labelling_frame(shape: PastingDiagram):
    # the cells of ``shape``, the order they are placed in, their dimensions
    # and, per cell with a boundary, the positions of its src and tgt
    addrs = all_cells(shape)
    ends = [None] * len(addrs)
    for p, s, t in cell_ends(shape):
        ends[p] = (s, t)
    return addrs, labelling_order(shape), [a.dim for a in addrs], ends


def reference_count_labellings(shape: PastingDiagram, family: GlobularSet, weights, limit) -> tuple[int, int]:
    """The numbers of the labellings ``enumerate_labellings`` finds, without
    overrides, of weight within ``limit`` and over it.  ``weights[j]`` maps
    every label that can sit on a cell of dimension j to its weight, which
    may be negative; a labelling weighs the sum over its cells.

    Cells are placed in the enumerator's order, with its forcing.  A branch
    returns its completions tallied by the excess of their labels over the
    least weight of each dimension, capped past the limit, so the tally
    depends only on the step and the forced labels of the cells not yet
    placed, and is memoized on them.
    """
    addrs, order, dims, ends = _labelling_frame(shape)
    least = {j: min(weights[j].values(), default=0) for j in set(dims)}
    excess = {j: {lab: w - m for lab, w in weights[j].items()} for j, m in least.items()}
    # a tally maps each excess below ``cap`` to its number of completions,
    # and ``cap`` to those past the limit less the least weights of the cells
    cap = max(limit - sum([least[j] for j in dims]) + 1, 0)
    free = object()
    forced = [free] * len(addrs)
    last = len(order)
    memo: dict = {}
    # a tally is read, never changed, once returned
    leaf = {0: 1}

    def place(i: int) -> dict[int, int]:
        if i == last:
            return leaf
        key = (i, *[forced[q] for q in order[i:]])
        if key in memo:
            return memo[key]
        tally: dict[int, int] = {}

        def add(more: dict[int, int], shift: int) -> None:
            for e, n in more.items():
                e += shift
                if e > cap:
                    e = cap
                tally[e] = tally.get(e, 0) + n

        p = order[i]
        dim = dims[p]
        fp = forced[p]
        # a forced label's excess was added when it was forced
        here = excess[dim] if fp is free else None
        options = family.cells[dim] if fp is free else (fp,)
        if ends[p] is None:
            for lab in options:
                add(place(i + 1), 0 if here is None else here[lab])
        else:
            s, t = ends[p]
            below = excess[dim - 1]
            src, tgt = family.src[dim], family.tgt[dim]
            for lab in options:
                fs = forced[s]
                vs = src[lab]
                if fs is not free and fs != vs:
                    continue
                ft = forced[t]
                vt = tgt[lab]
                if ft is not free and ft != vt:
                    continue
                shift = 0 if here is None else here[lab]
                if fs is free:
                    forced[s] = vs
                    shift += below[vs]
                if ft is free:
                    forced[t] = vt
                    shift += below[vt]
                add(place(i + 1), shift)
                if fs is free:
                    forced[s] = free
                if ft is free:
                    forced[t] = free
        memo[key] = tally
        return tally

    tally = place(0)
    over = tally.get(cap, 0)
    return sum(tally.values()) - over, over


@pytest.mark.parametrize(
    "build, calls",
    [
        (lambda: initial_owc(Bounds(3, 11, 1)), 36),
        (lambda: initial_owc(Bounds(4, 11, 1)), 92),
        # the initial ladder is symmetric under reversing src and tgt, so a
        # count that swaps the ends of its columns agrees with it; over the
        # asymmetric collection it does not
        (lambda: free_owc(_weighed_collections()[3][0], Bounds(3, 7, 1)), 12),
    ],
    ids=["initial-3-11-1", "initial-4-11-1", "asymmetric-3-7-1"],
)
def test_count_labellings_replays_the_reference_on_the_ladder(monkeypatch, build, calls):
    """Every count the free operad steps of a ladder make, on the family,
    weights and limit they pass, equals the reference's."""
    agreed = []
    real = operad.count_labellings

    def spy(shape, family, weights, limit):
        out = real(shape, family, weights, limit)
        agreed.append(out == reference_count_labellings(shape, family, weights, limit))
        return out

    monkeypatch.setattr(operad, "count_labellings", spy)
    build()
    assert agreed == [True] * calls
