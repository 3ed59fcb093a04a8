import json
from pathlib import Path

import pytest

import make_fixtures
from globop.collection import Bounds, check_collection
from globop.serialize import state_from_json
from globop.verify import (
    PROBE_BOUNDS,
    SUITE_NAMES,
    check_substitution_laws,
    run_suite,
)

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
        assert counts["products_read_from_table"] == 727496
    if name == "stability-contraction":
        assert rep.counts == {"rebuilt_products": 316, "fixture_entries": 316}


def test_monoid_suite_accepts_valid_vectors():
    rep = run_suite("monoid-laws", SMALL, fixture=FIXTURES / "valid_subst_vectors.json")
    assert rep.passed


def test_globularity_negative_names_witness():
    rep = run_suite("globularity", SMALL, fixture=FIXTURES / "corrupt_globset.json")
    assert len(rep.violations) == 1
    assert rep.violations[0].witness is not None


def test_substitution_laws_small_scale():
    rep = check_substitution_laws(5, 3)
    assert rep.passed


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
