import pytest

from globop.collection import Bounds, empty_collection, make_collection, terminal_collection
from globop.contraction import (
    ContractionStructure,
    CtrCell,
    admissible_triples,
    check_contraction,
    contraction_morphism_check,
    free_contraction_step,
    terminal_contraction,
)
from globop.globset import GlobMorphism
from globop.pasting import DOT, PastingDiagram, chain, size, unit_tree

from test_globset import identity_morphism

B = Bounds(max_dim=2, max_arity_size=5, max_term_size=2)


def one_point_state(max_dim=1):
    layers = max_dim + 1
    coll = make_collection(
        [["u"]] + [[] for _ in range(layers - 1)],
        [{} for _ in range(layers)],
        [{} for _ in range(layers)],
        [{"u": DOT}] + [{} for _ in range(layers - 1)],
    )
    return coll, ContractionStructure(0, {})


def test_step_on_one_point():
    coll, ctr = one_point_state()
    res = free_contraction_step(coll, ctr, Bounds(1, 5, 2))
    assert set(res.new_cells) == {CtrCell("u", "u", chain(m)) for m in range(3)}
    for cell in res.new_cells:
        assert res.collection.src_of(1, cell) == "u"
        assert res.collection.arity_of(1, cell) == cell.theta


def test_step_counts_follow_chain_law():
    coll, ctr = one_point_state()
    for m in range(7):
        res = free_contraction_step(coll, ctr, Bounds(1, 2 * m + 1, 1))
        assert len(res.new_cells) == m + 1


def test_step_is_idempotent_on_the_same_bound():
    coll, ctr = one_point_state()
    first = free_contraction_step(coll, ctr, Bounds(1, 5, 2))
    again = free_contraction_step(coll, ctr, Bounds(1, 5, 2))
    assert first.new_cells == again.new_cells
    assert first.contraction.gamma == again.contraction.gamma


def test_step_on_empty_adds_nothing():
    coll = empty_collection(1)
    res = free_contraction_step(coll, ContractionStructure(0, {}), Bounds(1, 5, 2))
    assert res.new_cells == ()


def test_step_only_adds_top_cells():
    coll, ctr = one_point_state(2)
    res = free_contraction_step(coll, ctr, B)
    assert res.collection.cells_at(0) == coll.cells_at(0)
    assert res.collection.cells_at(2) == ()


def test_triples_depend_only_on_lower_dimensions():
    coll, ctr = one_point_state(1)
    base = admissible_triples(coll, 1, Bounds(1, 5, 2))
    # add extra 1-cells: the dimension-1 triples must not move
    extra = make_collection(
        [["u"], ["junk"]],
        [{}, {"junk": "u"}],
        [{}, {"junk": "u"}],
        [{"u": DOT}, {"junk": chain(2)}],
    )
    assert admissible_triples(extra, 1, Bounds(1, 5, 2)) == base


def test_check_contraction_accepts_free_output():
    coll, ctr = one_point_state()
    res = free_contraction_step(coll, ctr, Bounds(1, 5, 2))
    assert check_contraction(res.collection, res.contraction, Bounds(1, 5, 2)).passed


def test_check_contraction_terminal():
    bounds = Bounds(2, 5, 1)
    coll = terminal_collection(bounds)
    term = terminal_contraction(coll, 2, bounds)
    assert check_contraction(coll, term, bounds).passed


def test_check_contraction_missing_entry():
    coll, ctr = one_point_state()
    res = free_contraction_step(coll, ctr, Bounds(1, 5, 2))
    gamma = dict(res.contraction.gamma)
    gamma.pop(("u", "u", chain(1)))
    broken = ContractionStructure(1, gamma)
    rep = check_contraction(res.collection, broken, Bounds(1, 5, 2))
    assert [v.message for v in rep.violations] == ["gamma undefined on an admissible triple"]


def test_parallel_and_boundary_constraints_enforced():
    # cells with distinct arities admit no triples together
    coll = make_collection(
        [["u"], ["f", "g"]],
        [{}, {"f": "u", "g": "u"}],
        [{}, {"f": "u", "g": "u"}],
        [{"u": DOT}, {"f": chain(1), "g": chain(2)}],
    )
    triples = admissible_triples(coll, 2, Bounds(2, 7, 1))
    assert all(a == b or {a, b} != {"f", "g"} for a, b, _ in triples)
    for a, b, theta in triples:
        assert coll.arity_of(1, a) == coll.arity_of(1, b)
        assert PastingDiagram(1, (DOT,) * len(theta.children)) == coll.arity_of(1, a)


def test_morphism_check_identity_and_terminal():
    coll, ctr = one_point_state()
    res = free_contraction_step(coll, ctr, Bounds(1, 5, 2))
    f = identity_morphism(res.collection)
    assert contraction_morphism_check(
        f, res.collection, res.contraction, res.contraction, Bounds(1, 5, 2), 1
    ).passed

    bounds = Bounds(1, 5, 2)
    term = terminal_contraction(terminal_collection(bounds), 1, bounds)
    arity_map = GlobMorphism(
        {
            k: {c: res.collection.arity_of(k, c) for c in res.collection.cells_at(k)}
            for k in range(2)
        }
    )
    assert contraction_morphism_check(arity_map, res.collection, res.contraction, term, bounds, 1).passed


def test_morphism_check_permutation_fails():
    coll, ctr = one_point_state()
    res = free_contraction_step(coll, ctr, Bounds(1, 5, 2))
    c0 = CtrCell("u", "u", chain(0))
    c1 = CtrCell("u", "u", chain(1))
    maps = {0: {"u": "u"}, 1: {c: c for c in res.collection.cells_at(1)}}
    maps[1][c0], maps[1][c1] = c1, c0
    rep = contraction_morphism_check(
        GlobMorphism(maps), res.collection, res.contraction, res.contraction, Bounds(1, 5, 2), 1
    )
    assert not rep.passed
