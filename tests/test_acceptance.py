"""Acceptance gate: one test per criterion, at the stated scale and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import time
from operator import itemgetter

from globop.collection import Bounds, empty_collection, make_collection, one_cell_collection
from globop.contraction import CtrCell, admissible_triples, free_contraction_step
from globop.interleave import free_owc, free_owc_trace, induced_morphism, initial_owc
from globop.operad import (
    OperadStructure,
    UnitTerm,
    counit_eval,
    free_operad_dim0,
    free_operad_step,
    mult_table,
)
from globop.oracle import oracle_terms, oracle_trees, oracle_triples, search_all_morphisms
from globop.pasting import DOT, PastingDiagram, chain, enumerate_trees, unit_tree
from globop.serialize import slice_json
from globop.util import canonical_json
from globop.verify import DEFAULT_BOUNDS, check_substitution_laws
from globop.cli import main as cli_main


def report(n, label, started):
    print(f"criterion {n} ({label}): PASS in {time.perf_counter() - started:.1f}s")


def test_criterion_1_substitution_monoid_laws():
    started = time.perf_counter()
    rep = check_substitution_laws(max_shape_size=9, max_label_size=5, max_dim=2)
    assert rep.passed, [v.message for v in rep.violations[:3]]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, "substitution monoid laws", started)


def test_criterion_2_tree_oracle_equivalence():
    started = time.perf_counter()
    for k in range(3):
        assert set(enumerate_trees(k, 9)) == {e.to_tree() for e in oracle_trees(k, 9)}
    report(2, "tree enumeration vs oracle", started)


def _loop_with_three_generators():
    coll = make_collection(
        [["e"], ["g0", "g1", "g2"]],
        [{}, {"g0": "e", "g1": "e", "g2": "e"}],
        [{}, {"g0": "e", "g1": "e", "g2": "e"}],
        [{"e": DOT}, {"g0": chain(0), "g1": chain(1), "g2": chain(2)}],
    )
    return OperadStructure(
        coll, {0: "e"}, (lambda op, d, a: itemgetter(0),)
    )


def _hand_two_dimensional_input():
    two = lambda *cols: PastingDiagram(2, tuple(chain(n) for n in cols))
    coll = make_collection(
        [["w"], ["i", "f"], ["al", "be", "de"]],
        [{}, {"i": "w", "f": "w"}, {"al": "f", "be": "f", "de": "i"}],
        [{}, {"i": "w", "f": "w"}, {"al": "f", "be": "f", "de": "f"}],
        [
            {"w": DOT},
            {"i": unit_tree(1), "f": unit_tree(1)},
            {"al": two(0), "be": two(1), "de": two(1)},
        ],
    )

    def mult_fn(op, d, a):
        if d == 0:
            return itemgetter(0)
        # every 1-cell has one arrow as its arity, and the arrow comes last
        return lambda labels: labels[-1] if a == "i" else "f"

    return OperadStructure(coll, {0: "w", 1: "i"}, (mult_fn,) * 2)


def test_criterion_3_free_operad_oracle_equivalence():
    started = time.perf_counter()
    b0 = Bounds(0, 1, 3)
    assert set(free_operad_dim0(empty_collection(0), b0).operad.over.cells_at(0)) == oracle_terms(
        None, empty_collection(0), 0, b0
    )
    assert set(
        free_operad_dim0(one_cell_collection(), b0).operad.over.cells_at(0)
    ) == oracle_terms(None, one_cell_collection(), 0, b0)

    one = _loop_with_three_generators()
    b1 = Bounds(1, 7, 3)
    assert set(free_operad_step(one, b1).operad.over.cells_at(1)) == oracle_terms(
        one, one.over, 1, b1
    )

    two = _hand_two_dimensional_input()
    b2 = Bounds(2, 7, 3)
    got = set(free_operad_step(two, b2).operad.over.cells_at(2))
    want = oracle_terms(two, two.over, 2, b2)
    assert got == want
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s"
    report(3, "free operad vs oracle", started)


def test_criterion_4_free_contraction_oracle_equivalence():
    started = time.perf_counter()
    b = Bounds(2, 7, 1)
    trace = dict(free_owc_trace(empty_collection(), b))
    step1 = free_contraction_step(trace["M0"].collection, trace["M0"].contraction, b)
    assert set(step1.new_cells) == oracle_triples(trace["M0"].collection, 1, b)
    step2 = free_contraction_step(trace["M1"].collection, trace["M1"].contraction, b)
    assert set(step2.new_cells) == oracle_triples(trace["M1"].collection, 2, b)
    for m in range(7):
        bound = Bounds(1, 2 * m + 1, 1)
        assert len(admissible_triples(trace["M0"].collection, 1, bound)) == m + 1
    report(4, "free contraction vs oracle", started)


def test_criterion_5_stability_of_tables():
    started = time.perf_counter()
    b = Bounds(3, 7, 1)
    trace = free_owc_trace(empty_collection(), b)
    for (_, before), (label, after) in zip(trace, trace[1:]):
        dims = range(before.operad.up_to_dim + 1)
        tb = mult_table(before.operad, b, dims=dims)
        ta = mult_table(after.operad, b, dims=dims)
        assert tb == ta, f"multiplication drifted across {label}"
        gb = before.contraction.gamma
        ga = after.contraction.gamma
        assert {k: ga.get(k) for k in gb} == gb, f"gamma drifted across {label}"
        if label.startswith("M"):
            assert ga == gb, f"operad step touched gamma at {label}"
    report(5, "stability of mult and gamma tables", started)


def test_criterion_6_ladder_coherence():
    started = time.perf_counter()
    pairs = {0: (Bounds(0, 5, 2), Bounds(2, 5, 2)), 1: (Bounds(1, 7, 1), Bounds(3, 7, 1))}
    for k, (small, large) in pairs.items():
        a = canonical_json(slice_json(initial_owc(small), k))
        b = canonical_json(slice_json(initial_owc(large), k))
        assert a == b, f"dimension {k} data changed with the horizon"
    report(6, "ladder coherence", started)


def test_criterion_7_triangle_identities():
    started = time.perf_counter()
    state = initial_owc(DEFAULT_BOUNDS)
    bad = 0
    for d in range(state.stage[1] + 1):
        for t in state.collection.cells_at(d):
            if counit_eval(state.operad, d, t) != t:
                bad += 1
    for (a, b, theta), lift in state.contraction.gamma.items():
        if lift != CtrCell(a, b, theta):
            bad += 1
    assert bad == 0
    report(7, "triangle identities", started)


def test_criterion_8_initiality_probe():
    started = time.perf_counter()
    b = Bounds(1, 3, 2)
    s = initial_owc(b)
    t = free_owc(one_cell_collection(1), b)
    result = induced_morphism(s, t)
    assert result.receptive
    assert all(r.passed for r in result.reports), [
        v.message for r in result.reports for v in r.violations[:2]
    ]
    found = search_all_morphisms(s, t, up_to=1)
    assert len(found) == 1
    assert found[0].maps == result.morphism.maps
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.1f}s"
    report(8, "initiality probe", started)


def test_criterion_9_build_determinism(tmp_path, capsys):
    started = time.perf_counter()
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code = cli_main(
            [
                "build-initial",
                "--dim", "1",
                "--max-arity-size", "5",
                "--max-term-size", "2",
                "--out", str(path),
            ]
        )
        assert code == 0
        outs.append(path.read_bytes() + capsys.readouterr().out.encode())
    assert outs[0] == outs[1]
    report(9, "byte-identical builds", started)
