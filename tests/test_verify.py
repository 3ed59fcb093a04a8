import dataclasses
import json
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

import make_fixtures
from globop import collection, pasting, verify
from globop.collection import Bounds, add_cells, check_collection, empty_collection
from globop.globset import GlobularSet
from globop.pasting import (
    LabelledDiagram,
    PastingDiagram,
    all_cells,
    boundary,
    boundary_restrict,
    enumerate_trees,
    labelled,
    slicers,
    subst_arities,
    substitute,
    unit_tree,
)
from globop.report import Report
from globop.interleave import initial_owc, start_state
from globop.serialize import state_from_json, state_to_json
from globop.verify import (
    PROBE_BOUNDS,
    SUITE_NAMES,
    check_substitution_laws,
    run_suite,
    tree_labellings,
)

from test_pasting import flatten

FIXTURES = Path(__file__).parent / "fixtures"

SMALL = Bounds(max_dim=2, max_arity_size=5, max_term_size=1)

# which corrupted fixture makes each suite fail
NEGATIVE = {
    "globularity": "corrupt_globset.json",
    "monoid-laws": "corrupt_subst_vectors.json",
    "operad-laws": "corrupt_state_mult.json",
    "contraction-laws": "corrupt_state_gamma.json",
    "triangle-identities": "corrupt_state_mult.json",
    "stability-contraction": "corrupt_state_mult.json",
    "stability-operad": "corrupt_state_gamma.json",
    "ladder-coherence": "corrupt_state_cells.json",
    "oracle-equivalence": "corrupt_state_cells.json",
    "initiality-probe": "corrupt_state_gamma_missing.json",
}

STATE_SUITES = [name for name in SUITE_NAMES if NEGATIVE[name].startswith("corrupt_state")]


def test_make_fixtures_reproduces_every_fixture(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(make_fixtures, "FIXTURES", tmp_path)
    make_fixtures.main()
    names = sorted(p.name for p in FIXTURES.iterdir())
    assert len(names) == 8
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nonsense")


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suites_pass_on_fresh_builds(name):
    rep = run_suite(name, SMALL)
    assert rep.passed, [v.message for v in rep.violations[:3]]
    assert rep.to_json()["suite"] == name


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suites_fail_on_corrupted_fixture(name):
    rep = run_suite(name, SMALL, fixture=FIXTURES / NEGATIVE[name])
    assert not rep.passed
    assert rep.to_json()["pass"] is False


@pytest.mark.parametrize("name", STATE_SUITES)
def test_state_suites_pass_on_valid_fixture(name):
    rep = run_suite(name, SMALL, fixture=FIXTURES / "valid_state.json")
    assert rep.passed, [v.message for v in rep.violations[:3]]
    if name == "operad-laws":
        # the report says what it covered, not just that it passed
        counts = rep.to_json()["counts"]
        assert counts["first_level_configurations"] == 5065
        assert counts["associativity_configurations"] == 233143
        assert counts["configurations_over_bound"] == 0
        assert counts["products_multiplied"] == 442368
        assert counts["products_read_from_table"] == 44387
    if name == "stability-contraction":
        assert rep.counts == {"rebuilt_products": 316, "fixture_entries": 316}


def test_contraction_laws_count_the_triples_they_check():
    """A contraction-laws pass says how many admissible triples it checked,
    in all and at each dimension, so a pass that checked none shows: a fresh
    build checks some at every dimension, a state at stage (0, 0) none."""
    counts = run_suite("contraction-laws", SMALL).counts
    per_dim = [counts.pop(f"admissible_triples_dim_{k}") for k in (1, 2, 3)]
    assert min(per_dim) > 0 and counts == {"admissible_triples": sum(per_dim)}
    start = start_state(empty_collection(SMALL.max_dim), SMALL)
    assert start.stage == (0, 0)
    rep = run_suite("contraction-laws", SMALL, fixture=state_to_json(start))
    assert rep.passed and rep.counts == {"admissible_triples": 0}


def test_monoid_suite_accepts_valid_vectors():
    rep = run_suite("monoid-laws", SMALL, fixture=FIXTURES / "valid_subst_vectors.json")
    assert rep.passed


def test_monoid_laws_count_the_cases_of_a_fixture():
    """A fixture's pass says how many recorded cases it checked, so an empty
    list of cases shows."""
    rep = run_suite("monoid-laws", SMALL, fixture=FIXTURES / "valid_subst_vectors.json")
    assert rep.passed and rep.counts == {"cases": 2}
    rep = run_suite("monoid-laws", SMALL, fixture={"cases": []})
    assert rep.passed and rep.counts == {"cases": 0}


def test_triangle_identities_count_what_they_evaluate():
    """A pass says how many cells it evaluated the operad counit on and how
    many gamma entries it compared: all of them at the default bounds, and
    no gamma entry at stage (0, 0)."""
    rep = run_suite("triangle-identities")
    assert rep.passed and rep.counts == {"counit_cells": 378, "gamma_entries": 73}
    start = start_state(empty_collection(SMALL.max_dim), SMALL)
    rep = run_suite("triangle-identities", SMALL, fixture=state_to_json(start))
    assert rep.passed and rep.counts == {"counit_cells": len(start.collection.cells_at(0)), "gamma_entries": 0}


def test_globularity_counts_the_cells_it_checks():
    """A pass says how many cells it checked: at the default bounds those of
    the unit, terminal, initial and tensor collections it builds, on the
    corrupted fixture its five, and on a single empty layer none."""
    assert run_suite("globularity").counts == {"cells": 4 + 8 + 378 + 3}
    rep = run_suite("globularity", SMALL, fixture=FIXTURES / "corrupt_globset.json")
    assert rep.counts == {"cells": 5}
    rep = run_suite("globularity", SMALL, fixture={"dims": 0, "cells": [[]], "src": [], "tgt": []})
    assert rep.passed and rep.counts == {"cells": 0}


def test_ladder_coherence_counts_the_slices_it_compares():
    """A pass says how many dimensions it compared: one per pair of ladders
    fresh, and those up to j of a state at stage (i, j), so the least is one,
    at stage (0, 0)."""
    assert run_suite("ladder-coherence").counts == {"slices": 2}
    rep = run_suite("ladder-coherence", SMALL, fixture=FIXTURES / "valid_state.json")
    assert rep.passed and rep.counts == {"slices": 2}
    start = start_state(empty_collection(SMALL.max_dim), SMALL)
    rep = run_suite("ladder-coherence", SMALL, fixture=state_to_json(start))
    assert rep.passed and rep.counts == {"slices": 1}


def _dimension_0_build() -> dict:
    """The build at (0, 1, 0): one layer and no gamma entry."""
    return state_to_json(initial_owc(Bounds(0, 1, 0)))


def test_stability_suites_count_what_they_compare():
    """A fresh pass says how many steps it compared and what it compared
    across them: at (3, 7, 1), the union of the product tables' keys across
    H1 to H3, and the gamma entries and admissible triples across M1 to M3.
    On a fixture stability-operad counts the gamma keys it compared, none
    on a build at dimension 0."""
    assert run_suite("stability-contraction").counts == {"steps": 3, "products": 888}
    counts = run_suite("stability-operad").counts
    assert counts == {"steps": 3, "gamma_entries": 85, "admissible_triples": 85}
    rep = run_suite("stability-operad", SMALL, fixture=FIXTURES / "valid_state.json")
    assert rep.passed and rep.counts == {"gamma_entries": 18}
    rep = run_suite("stability-operad", SMALL, fixture=_dimension_0_build())
    assert rep.passed and rep.counts == {"gamma_entries": 0}
    assert run_suite("stability-contraction", SMALL, fixture=_dimension_0_build()).passed


def test_oracle_equivalence_counts_what_it_compares():
    """A fresh pass says how many trees, substitutions, term layers,
    contraction layers and count-law cases it compared with the oracle; on
    a fixture, the layers of cells and the gamma keys it compared with a
    fresh build, one layer and no gamma key on a build at dimension 0."""
    assert run_suite("oracle-equivalence").counts == {
        "trees": 1 + 5 + 16,
        "substitutions": 113,
        "term_layers": 4,
        "contraction_layers": 2,
        "count_law_cases": 7,
    }
    rep = run_suite("oracle-equivalence", SMALL, fixture=FIXTURES / "valid_state.json")
    assert rep.passed and rep.counts == {"layers": 2, "gamma_entries": 18}
    rep = run_suite("oracle-equivalence", SMALL, fixture=_dimension_0_build())
    assert rep.passed and rep.counts == {"layers": 1, "gamma_entries": 0}


def test_globularity_negative_names_witness():
    rep = run_suite("globularity", SMALL, fixture=FIXTURES / "corrupt_globset.json")
    assert len(rep.violations) == 1
    assert rep.violations[0].witness is not None


def test_substitution_laws_small_scale():
    rep = check_substitution_laws(5, 3)
    assert rep.passed


# --- the references below call ``enumerate_labellings`` with a candidate
# list per dimension and src and tgt callbacks, as it read its labels
# before it read a globular set: the adapter reads them as one, each
# table looking its entries up through its callback.


class _Ends:
    def __init__(self, end, j):
        self.end, self.j = end, j

    def __getitem__(self, lab):
        return self.end(self.j, lab)


def enumerate_labellings(shape, candidates_by_dim, src_of, tgt_of, overrides=None) -> list[tuple]:
    dims = range(shape.dim + 1)
    family = GlobularSet(
        tuple(tuple(candidates_by_dim(j)) for j in dims),
        tuple(_Ends(src_of, j) for j in dims),
        tuple(_Ends(tgt_of, j) for j in dims),
    )
    return collection.enumerate_labellings(shape, family, overrides)


# --- reference: ``tree_labellings`` before it read the terminal collection,
# verbatim but for the name.


@cache
def reference_tree_labellings(shape: PastingDiagram, max_label_size: int) -> list[LabelledDiagram]:
    found = enumerate_labellings(
        shape,
        lambda j: enumerate_trees(j, max_label_size),
        lambda j, t: boundary(t),
        lambda j, t: boundary(t),
    )
    return [LabelledDiagram(shape, labels) for labels in found]


@pytest.mark.parametrize(
    "max_shape_size, max_label_size", [(7, 5), (9, 3)], ids=["monoid-laws", "oracle-equivalence"]
)
def test_tree_labellings_are_the_labellings_by_the_terminal_collection(max_shape_size, max_label_size):
    """Over the ranges the monoid-laws and oracle-equivalence suites read,
    the labellings by the terminal collection are the labellings by trees
    and their boundaries, in the same order."""
    found = 0
    for d in range(3):
        for shape in enumerate_trees(d, max_shape_size):
            got = tree_labellings(shape, max_label_size)
            assert got == reference_tree_labellings(shape, max_label_size)
            found += len(got)
    assert found > 100


# --- reference: the monoid-laws check before it read both levels off
# ``tree_labellings``, verbatim but for the left-unit argument and the
# second-level enumeration, which are lifted into functions so that the
# tests below can compare them level by level.


def reference_unit_argument(d, t):
    arg = {}
    for a in all_cells(unit_tree(d)):
        v = t
        for _ in range(d - a.dim):
            v = boundary(v)
        arg[a] = v
    return labelled(unit_tree(d), arg)


def reference_second_level(shape, outer, max_label_size):
    # second-level labellings: the inner labelling of a boundary
    # cell is the boundary restriction of its neighbour's
    return enumerate_labellings(
        shape,
        lambda j: (),
        lambda j, phi: boundary_restrict(phi, 0),
        lambda j, phi: boundary_restrict(phi, 1),
        overrides={
            c: tree_labellings(outer.label_of(c), max_label_size)
            for c in all_cells(shape)
        },
    )


def reference_check_substitution_laws(max_shape_size: int, max_label_size: int, max_dim: int = 2) -> Report:
    """Unit laws, associativity and boundary naturality of substitution,
    exhaustively over the stated ranges."""
    rep = Report("monoid-laws")
    counts = dict.fromkeys(("unit_law_trees", "shapes", "labellings", "nested_labellings"), 0)
    for d in range(max_dim + 1):
        for t in enumerate_trees(d, max_label_size):
            counts["unit_law_trees"] += 1
            if substitute(reference_unit_argument(d, t)) != t:
                rep.add("left unit law fails", witness=repr(t))
        for shape in enumerate_trees(d, max_shape_size):
            counts["shapes"] += 1
            ru = labelled(shape, {a: unit_tree(a.dim) for a in all_cells(shape)})
            if substitute(ru) != shape:
                rep.add("right unit law fails", witness=repr(shape))
            for outer in tree_labellings(shape, max_label_size):
                counts["labellings"] += 1
                composed = substitute(outer)
                if d >= 1:
                    b = boundary(composed)
                    for side in (0, 1):
                        if substitute(boundary_restrict(outer, side)) != b:
                            rep.add(
                                "boundary of composite differs from composite of boundary",
                                witness=(repr(shape), side),
                            )
                second = reference_second_level(shape, outer, max_label_size)
                for nested in second:
                    counts["nested_labellings"] += 1
                    one = subst_arities(shape, tuple(map(substitute, nested)))
                    two = substitute(flatten(shape, dict(zip(all_cells(shape), nested))))
                    if one != two:
                        rep.add(
                            "associativity of substitution fails",
                            witness=(repr(shape), repr(outer.labels)),
                        )
    rep.counts = counts
    return rep


def _sliced(shape, outer, chi):
    """The labelling of each of ``outer``'s labels that ``chi``, a labelling
    of their composite, restricts to."""
    takes = slicers(shape, outer.labels)
    return tuple(LabelledDiagram(lab, take(chi.labels)) for lab, take in zip(outer.labels, takes))


def test_both_levels_of_the_monoid_laws_are_read_off_tree_labellings():
    """A labelling of the unit tree is the reference's unit argument, tree
    for tree and in order; slicing the labellings of a composite gives the
    reference's second-level labellings, each once, and gluing the slices
    back gives the labelling sliced."""
    families = 0
    for d in range(3):
        units = tree_labellings(unit_tree(d), 5)
        assert units == [reference_unit_argument(d, t) for t in enumerate_trees(d, 5)]
        for shape in enumerate_trees(d, 7):
            for outer in tree_labellings(shape, 5):
                sliced = []
                for chi in tree_labellings(substitute(outer), 5):
                    slices = _sliced(shape, outer, chi)
                    assert flatten(shape, dict(zip(all_cells(shape), slices))) == chi
                    sliced.append(slices)
                assert Counter(sliced) == Counter(reference_second_level(shape, outer, 5))
                families += len(sliced)
    assert families == 5247


def _columns_reversed(shape, arities):
    """A non-associative substitution: the columns of the composite of a
    2-dimensional shape with at least two columns come out reversed."""
    out = pasting.subst_arities(shape, arities)
    if shape.dim == 2 and len(shape.children) >= 2:
        return PastingDiagram(2, out.children[::-1])
    return out


def test_a_non_associative_substitution_fails_as_the_reference(monkeypatch):
    monkeypatch.setattr(verify, "subst_arities", _columns_reversed)
    rep = check_substitution_laws(7, 5)
    monkeypatch.setitem(globals(), "subst_arities", _columns_reversed)
    want = reference_check_substitution_laws(7, 5)
    assert [v.message for v in rep.violations] == ["associativity of substitution fails"] * 20
    assert rep.violations == want.violations
    assert rep.counts == want.counts


def test_oracle_suite_fails_on_a_perturbed_layer_of_free_2_terms(monkeypatch):
    """``oracle-equivalence`` compares the M2 layer over one 0-cell at
    (2,5,1) with ``oracle_terms``: one cell too many there makes it fail."""
    ladder = verify.free_owc_trace

    def perturbed(a, bounds):
        trace = ladder(a, bounds)
        if a.cells_at(0) != ("v",):
            return trace
        label, m2 = trace[-1]
        coll = m2.collection
        c = coll.cells_at(2)[0]
        more = add_cells(
            coll, 2, ["extra"], {"extra": coll.src_of(2, c)}, {"extra": coll.tgt_of(2, c)}, {"extra": coll.arity_of(2, c)}
        )
        return trace[:-1] + [(label, dataclasses.replace(m2, operad=dataclasses.replace(m2.operad, over=more)))]

    monkeypatch.setattr(verify, "free_owc_trace", perturbed)
    rep = run_suite("oracle-equivalence", SMALL)
    assert [v.message for v in rep.violations] == ["free 2-terms differ from the oracle"]


def test_reports_are_deterministic():
    a = run_suite("oracle-equivalence", SMALL).to_json()
    b = run_suite("oracle-equivalence", SMALL).to_json()
    a.pop("ms"), b.pop("ms")
    assert a == b


# why the initiality probe passes or fails on each state fixture: it checks
# that the codomain is an operad-with-contraction before counting morphisms
PROBE_VERDICTS = {
    "valid_state.json": None,
    "corrupt_state_gamma_missing.json": "gamma undefined on an admissible triple",
    "corrupt_state_gamma.json": "arity of the lift differs from theta",
    "corrupt_state_mult.json": "serialized multiplication entry differs from the operad",
    "corrupt_state_cells.json": "serialized multiplication entry cannot be evaluated",
}


@pytest.mark.parametrize("fixture", sorted(PROBE_VERDICTS))
def test_initiality_probe_validates_codomain(fixture):
    rep = run_suite("initiality-probe", SMALL, fixture=FIXTURES / fixture)
    messages = {v.message for v in rep.violations}
    want = PROBE_VERDICTS[fixture]
    if want is None:
        assert rep.passed, sorted(messages)
    else:
        assert not rep.passed
        assert want in messages, sorted(messages)
        assert "structure-preserving morphism count differs from one" not in messages


def test_initiality_probe_rejects_a_missing_mult_entry():
    data = json.loads((FIXTURES / "valid_state.json").read_text())
    data["mult"] = data["mult"][1:]
    rep = run_suite("initiality-probe", SMALL, fixture=data)
    assert not rep.passed
    assert "serialized multiplication table is missing an entry" in {
        v.message for v in rep.violations
    }


def test_initiality_probe_reports_an_unenumerable_table():
    # with no listed entry to evaluate, the completeness check itself meets
    # the node whose generator lost its arity
    data = json.loads((FIXTURES / "corrupt_state_cells.json").read_text())
    data["mult"] = []
    rep = run_suite("initiality-probe", SMALL, fixture=data)
    assert "multiplication table cannot be enumerated" in {v.message for v in rep.violations}


@pytest.mark.parametrize(
    "fixture, passed",
    [("valid_state.json", True), ("corrupt_state_cells.json", False)],
)
def test_check_collection_ties_contraction_cells_to_their_data(fixture, passed):
    state = state_from_json(json.loads((FIXTURES / fixture).read_text())).state
    rep = check_collection(state.collection)
    assert rep.passed is passed
    if not passed:
        assert "arity of a contraction cell differs from its theta" in {
            v.message for v in rep.violations
        }
