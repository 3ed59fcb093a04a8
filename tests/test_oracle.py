from operator import itemgetter

import pytest

from globop.collection import Bounds, empty_collection, make_collection, one_cell_collection
from globop.contraction import CtrCell, free_contraction_step
from globop.globset import check_globularity
from globop.interleave import free_owc, free_owc_trace, induced_morphism, initial_owc
from globop.operad import (
    NodeTerm,
    OperadStructure,
    UnitTerm,
    free_operad_dim0,
    free_operad_step,
)
from globop.oracle import (
    ExplicitDiagram2,
    explicit_from_tree,
    oracle_substitute2,
    oracle_terms,
    oracle_triples,
    oracle_trees,
    search_all_morphisms,
)
from globop.verify import cached_initial
from globop.pasting import (
    DOT,
    PastingDiagram,
    all_cells,
    cells,
    chain,
    enumerate_trees,
    labelled,
    unit_tree,
)


def test_explicit_diagrams_are_globular_and_bijective():
    for e in oracle_trees(2, 9):
        assert check_globularity(e.glob()).passed
        assert explicit_from_tree(e.to_tree()) == e


def test_oracle_tree_counts():
    assert len(oracle_trees(1, 5)) == 3
    assert len(oracle_trees(0, 1)) == 1
    assert len(oracle_trees(2, 7)) == 8


def test_trees_match_oracle_sets():
    for k in range(3):
        assert set(enumerate_trees(k, 9)) == {e.to_tree() for e in oracle_trees(k, 9)}


def test_substitute_matches_splicing_spots():
    sh = chain(2)
    lab = {a: DOT for a in cells(sh, 0)}
    lab[cells(sh, 1)[0]] = chain(2)
    lab[cells(sh, 1)[1]] = chain(3)
    ld = labelled(sh, lab)
    assert oracle_substitute2(ld) == ExplicitDiagram2(1, (5,))

    sh2 = PastingDiagram(2, (chain(1), chain(1)))
    beta = PastingDiagram(2, (chain(2),))
    ld2 = labelled(
        sh2, {a: {0: DOT, 1: chain(1), 2: beta}[a.dim] for a in all_cells(sh2)}
    )
    from globop.pasting import substitute

    assert oracle_substitute2(ld2) == ExplicitDiagram2(2, (2, 2))
    assert explicit_from_tree(substitute(ld2)) == oracle_substitute2(ld2)


def test_substitute_identity_on_units():
    for t in enumerate_trees(2, 9):
        ld = labelled(t, {a: unit_tree(a.dim) for a in all_cells(t)})
        assert oracle_substitute2(ld) == explicit_from_tree(t)


def test_oracle_terms_zero_generators():
    b = Bounds(0, 1, 3)
    assert oracle_terms(None, empty_collection(0), 0, b) == {UnitTerm(0)}


def test_oracle_terms_single_slot_chain():
    coll = make_collection(
        [["e"], ["g"]],
        [{}, {"g": "e"}],
        [{}, {"g": "e"}],
        [{"e": DOT}, {"g": unit_tree(1)}],
    )
    lower = OperadStructure(
        coll, {0: "e"}, (lambda op, d, a: itemgetter(0),)
    )
    got = oracle_terms(lower, coll, 1, Bounds(1, 3, 3))
    assert len(got) == 4
    assert got == set(free_operad_step(lower, Bounds(1, 3, 3)).operad.over.cells_at(1))


def test_oracle_terms_match_pipeline_over_contraction_generators():
    trace = dict(free_owc_trace(empty_collection(), Bounds(1, 5, 2)))
    h1 = trace["H1"]
    want = oracle_terms(h1.operad, h1.collection, 1, Bounds(1, 5, 2))
    assert set(trace["M1"].collection.cells_at(1)) == want


def test_oracle_triples_one_point():
    coll = make_collection([["u"]], [{}], [{}], [{"u": DOT}])
    got = oracle_triples(coll, 1, Bounds(1, 5, 1))
    assert got == {CtrCell("u", "u", chain(m)) for m in range(3)}


def test_oracle_triples_empty():
    assert oracle_triples(empty_collection(1), 1, Bounds(1, 5, 1)) == set()


def test_oracle_triples_exclude_non_parallel():
    coll = make_collection(
        [["x", "y"], ["f", "h"]],
        [{}, {"f": "x", "h": "y"}],
        [{}, {"f": "y", "h": "y"}],
        [{"x": DOT, "y": DOT}, {"f": chain(1), "h": chain(1)}],
    )
    got = oracle_triples(coll, 2, Bounds(2, 5, 1))
    assert all({a, b} != {"f", "h"} for a, b, _ in ((c.a, c.b, c.theta) for c in got))


def test_oracle_triples_match_pipeline_both_dims():
    trace = dict(free_owc_trace(empty_collection(), Bounds(2, 7, 1)))
    b = Bounds(2, 7, 1)
    step1 = free_contraction_step(trace["M0"].collection, trace["M0"].contraction, b)
    assert set(step1.new_cells) == oracle_triples(trace["M0"].collection, 1, b)
    step2 = free_contraction_step(trace["M1"].collection, trace["M1"].contraction, b)
    assert set(step2.new_cells) == oracle_triples(trace["M1"].collection, 2, b)


def test_search_finds_single_morphism():
    b = Bounds(1, 3, 2)
    s = initial_owc(b)
    t = free_owc(one_cell_collection(1), b)
    found = search_all_morphisms(s, t, up_to=1)
    assert len(found) == 1


@pytest.mark.parametrize("bounds", [Bounds(2, 5, 2), Bounds(3, 9, 1)])
def test_search_below_the_top_dimension_checks_only_what_it_maps(bounds):
    """A search up to dimension 1 defines its morphisms on dimensions 0 and
    1 only, so every check it runs on them stops there: the identity is
    the one morphism, the induced one cut to those dimensions."""
    s = cached_initial(bounds)
    found = search_all_morphisms(s, s, up_to=1)
    assert len(found) == 1
    induced = induced_morphism(s, s).morphism.maps
    assert found[0].maps == {k: induced[k] for k in (0, 1)}


def test_search_finds_none_into_broken_target():
    b = Bounds(1, 3, 2)
    s = initial_owc(b)
    t = free_owc(one_cell_collection(1), b)
    gamma = dict(t.contraction.gamma)
    gamma.pop((UnitTerm(0), UnitTerm(0), chain(0)))
    from globop.interleave import OwcState
    from globop.contraction import ContractionStructure

    broken = OwcState(
        operad=t.operad,
        contraction=ContractionStructure(1, gamma),
        bounds=t.bounds,
        provenance=t.provenance,
    )
    assert search_all_morphisms(s, broken, up_to=1) == []
