"""Named verification suites producing machine-readable reports.

Each suite asserts the invariants of its home module at desk scale.  A suite
given a fixture validates the fixture instead of freshly built objects, so a
corrupted fixture demonstrates that the suite can fail.
"""

from __future__ import annotations

import dataclasses
import json
import time
from functools import cache, cached_property
from pathlib import Path

from .collection import (
    Bounds,
    check_collection,
    collection_labellings,
    empty_collection,
    make_collection,
    one_cell_collection,
    tensor,
    unit_collection,
    terminal_collection,
)
from .contraction import (
    CtrCell,
    admissible_triples,
    check_contraction,
    free_contraction_step,
    terminal_contraction,
)
from .globset import check_globularity
from .interleave import (
    OwcState,
    Provenance,
    free_owc,
    free_owc_trace,
    induced_morphism,
)
from .operad import (
    cell_products,
    check_operad_laws,
    counit_eval,
    free_operad_dim0,
    mult_table,
    terminal_operad,
)
from .oracle import (
    explicit_from_tree,
    oracle_substitute2,
    oracle_terms,
    oracle_triples,
    oracle_trees,
    search_all_morphisms,
)
from .pasting import (
    LabelledDiagram,
    PastingDiagram,
    all_cells,
    boundary,
    boundary_restrict,
    enumerate_trees,
    slicers,
    subst_arities,
    substitute,
    tree_from_json,
    unit_tree,
)
from .report import Report
from .serialize import (
    DecodedState,
    globset_from_json,
    slice_json,
    slice_of_data,
    state_from_json,
    state_to_json,
)
from .util import canonical_json

DEFAULT_BOUNDS = Bounds(max_dim=2, max_arity_size=5, max_term_size=2)
STABILITY_BOUNDS = Bounds(max_dim=3, max_arity_size=7, max_term_size=1)
PROBE_BOUNDS = Bounds(max_dim=1, max_arity_size=3, max_term_size=2)
LADDER_PAIRS = {
    0: (Bounds(0, 5, 2), Bounds(2, 5, 2)),
    1: (Bounds(1, 7, 1), Bounds(3, 7, 1)),
}


def cached_initial(bounds: Bounds) -> OwcState:
    return cached_trace(bounds)[-1][1]


@cache
def cached_trace(bounds: Bounds) -> list:
    return free_owc_trace(empty_collection(), bounds)


class Fixture:
    """A fixture file's parsed JSON.  A state's decoding and its ladder
    rebuilt from its input cells are made on first use and kept, so every
    suite given this object reads one decode and one rebuild."""

    def __init__(self, data) -> None:
        self.data = data

    @cached_property
    def decoded(self) -> DecodedState:
        return state_from_json(self.data)

    @cached_property
    def rebuilt(self) -> OwcState:
        """The free structure over the state's input cells, at its bounds."""
        state = self.decoded.state
        coll = state.collection
        keep = [
            [c for c in coll.cells_at(k) if state.provenance.get((k, c), Provenance("input")).step == "input"]
            for k in range(coll.max_dim + 1)
        ]
        # src and tgt start at dimension 1; a cell missing from a table is a KeyError
        src, tgt, arity = (
            [{c: table[k][c] for c in keep[k]} if k >= low else {} for k in range(len(keep))]
            for table, low in ((coll.src, 1), (coll.tgt, 1), (coll.arity, 0))
        )
        return free_owc(make_collection(keep, src, tgt, arity), state.bounds)


# ---------------------------------------------------------------------------
# substitution laws (the monoid-laws engine)

@cache
def tree_labellings(shape: PastingDiagram, max_label_size: int) -> list[LabelledDiagram]:
    return collection_labellings(shape, terminal_collection(Bounds(shape.dim, max_label_size, 0)))


def check_substitution_laws(max_shape_size: int, max_label_size: int, max_dim: int = 2) -> Report:
    """Unit laws, associativity and boundary naturality of substitution,
    exhaustively over the stated ranges.  Both levels are read off
    ``tree_labellings``: a labelling of a composite, sliced along the labels
    composed, is a compatible family of labellings of those labels."""
    rep = Report("monoid-laws")
    counts = dict.fromkeys(("unit_law_trees", "shapes", "labellings", "nested_labellings"), 0)
    for d in range(max_dim + 1):
        for u in tree_labellings(unit_tree(d), max_label_size):
            counts["unit_law_trees"] += 1
            if substitute(u) != u.labels[-1]:
                rep.add("left unit law fails", witness=repr(u.labels[-1]))
        for shape in enumerate_trees(d, max_shape_size):
            counts["shapes"] += 1
            ru = LabelledDiagram(shape, tuple(unit_tree(a.dim) for a in all_cells(shape)))
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
                takes = slicers(shape, outer.labels)
                for chi in tree_labellings(composed, max_label_size):
                    counts["nested_labellings"] += 1
                    inner = tuple(subst_arities(lab, take(chi.labels)) for lab, take in zip(outer.labels, takes))
                    if subst_arities(shape, inner) != substitute(chi):
                        rep.add(
                            "associativity of substitution fails",
                            witness=(repr(shape), repr(outer.labels)),
                        )
    rep.counts = counts
    return rep


# ---------------------------------------------------------------------------
# suites


def _suite_globularity(bounds: Bounds, fixture) -> Report:
    rep = Report("globularity")
    if fixture is not None and isinstance(fixture.data, dict) and "stage" in fixture.data:
        # a state: its collection is a globular set with arities
        coll = fixture.decoded.state.collection
        rep.extend(check_globularity(coll))
        rep.extend(check_collection(coll))
        return rep
    if fixture is not None:
        rep.extend(check_globularity(globset_from_json(fixture.data)))
        return rep
    rep.extend(check_globularity(unit_collection(3)))
    rep.extend(check_globularity(terminal_collection(bounds)))
    state = cached_initial(bounds)
    rep.extend(check_globularity(state.collection))
    rep.extend(check_collection(state.collection))
    square = tensor(unit_collection(2), unit_collection(2), bounds)
    rep.extend(check_globularity(square.collection))
    rep.extend(check_collection(square.collection))
    return rep


def _suite_monoid_laws(bounds: Bounds, fixture) -> Report:
    if fixture is None:
        return check_substitution_laws(7, 5)
    rep = Report("monoid-laws")
    for case in fixture.data["cases"]:
        d = case["dim"]
        shape = tree_from_json(case["shape"], d)
        labels = tuple(
            tree_from_json(raw, a.dim)
            for a, raw in zip(all_cells(shape), case["labels"])
        )
        expected = tree_from_json(case["expected"], d)
        if substitute(LabelledDiagram(shape, labels)) != expected:
            rep.add("substitution differs from recorded value", witness=case)
    rep.counts["cases"] = len(fixture.data["cases"])
    return rep


def _suite_operad_laws(bounds: Bounds, fixture) -> Report:
    rep = Report("operad-laws")
    if fixture is not None:
        decoded = fixture.decoded
        op = dataclasses.replace(decoded.state.operad, products=decoded.mult_entries)
        rep.extend(check_operad_laws(op, decoded.state.bounds))
        return rep
    rep.extend(check_operad_laws(terminal_operad(Bounds(2, 9, 2)), Bounds(2, 9, 2)))
    small = cached_initial(Bounds(2, 5, 1))
    rep.extend(check_operad_laws(small.operad, small.bounds))
    return rep


def _suite_contraction_laws(bounds: Bounds, fixture) -> Report:
    rep = Report("contraction-laws")
    if fixture is not None:
        state = fixture.decoded.state
        rep.extend(check_contraction(state.collection, state.contraction, state.bounds))
        return rep
    state = cached_initial(STABILITY_BOUNDS)
    rep.extend(check_contraction(state.collection, state.contraction, state.bounds))
    term_bounds = Bounds(2, 5, 1)
    term_coll = terminal_collection(term_bounds)
    term = terminal_contraction(term_coll, 2, term_bounds)
    rep.extend(check_contraction(term_coll, term, term_bounds))
    return rep


def _suite_triangle(bounds: Bounds, fixture) -> Report:
    rep = Report("triangle-identities")
    if fixture is not None:
        decoded = fixture.decoded
        state = decoded.state
        op = dataclasses.replace(state.operad, products=decoded.mult_entries)
    else:
        state = cached_initial(bounds)
        op = state.operad
    dims = range(state.stage[1] + 1)
    for d in dims:
        for t in state.collection.cells_at(d):
            if counit_eval(op, d, t) != t:
                rep.add("operad counit of the unit embedding is not the identity", witness=(d, repr(t)))
    for (a, b, theta), lift in state.contraction.gamma.items():
        if lift != CtrCell(a, b, theta):
            rep.add(
                "contraction counit of the unit embedding is not the identity",
                witness=repr((a, b, theta)),
            )
    rep.counts.update(
        counit_cells=sum(len(state.collection.cells_at(d)) for d in dims),
        gamma_entries=len(state.contraction.gamma),
    )
    return rep


def _table_diffs(before, after) -> list:
    keys = set(before) | set(after)
    return [k for k in sorted(keys, key=repr) if before.get(k) != after.get(k)]


def _suite_stability_contraction(bounds: Bounds, fixture) -> Report:
    rep = Report("stability-contraction")
    if fixture is not None:
        decoded, rebuilt = fixture.decoded, fixture.rebuilt
        want = cell_products(rebuilt.operad, rebuilt.bounds)
        for key in _table_diffs(want, decoded.mult_entries):
            rep.add("fixture multiplication table differs from a fresh build", witness=repr(key))
        rep.counts.update(rebuilt_products=len(want), fixture_entries=len(decoded.mult_entries))
        return rep
    trace = cached_trace(STABILITY_BOUNDS)
    rep.counts.update(steps=0, products=0)
    for (label_before, before), (label_after, after) in zip(trace, trace[1:]):
        if not label_after.startswith("H"):
            continue
        dims = range(before.operad.up_to_dim + 1)
        tb = mult_table(before.operad, STABILITY_BOUNDS, dims=dims)
        ta = mult_table(after.operad, STABILITY_BOUNDS, dims=dims)
        rep.counts["steps"] += 1
        rep.counts["products"] += len(tb.keys() | ta.keys())
        for key in _table_diffs(tb, ta):
            rep.add(
                f"multiplication changed across {label_after}",
                witness=repr(key),
            )
    return rep


def _suite_stability_operad(bounds: Bounds, fixture) -> Report:
    rep = Report("stability-operad")
    if fixture is not None:
        want, got = fixture.rebuilt.contraction.gamma, fixture.decoded.state.contraction.gamma
        for key in _table_diffs(want, got):
            rep.add("fixture gamma table differs from a fresh build", witness=repr(key))
        rep.counts["gamma_entries"] = len(want.keys() | got.keys())
        return rep
    trace = cached_trace(STABILITY_BOUNDS)
    rep.counts.update(steps=0, gamma_entries=0, admissible_triples=0)
    for (label_before, before), (label_after, after) in zip(trace, trace[1:]):
        if not label_after.startswith("M") or label_after == "M0":
            continue
        rep.counts["steps"] += 1
        rep.counts["gamma_entries"] += len(before.contraction.gamma)
        if before.contraction.gamma != after.contraction.gamma:
            rep.add(f"gamma table changed across {label_after}")
        for k in range(1, before.contraction.up_to_dim + 1):
            triples = admissible_triples(before.collection, k, STABILITY_BOUNDS)
            rep.counts["admissible_triples"] += len(triples)
            if triples != admissible_triples(after.collection, k, STABILITY_BOUNDS):
                rep.add(f"admissible triples changed across {label_after}", witness=k)
    return rep


def _suite_ladder(bounds: Bounds, fixture) -> Report:
    rep = Report("ladder-coherence")
    if fixture is not None:
        data, stage = state_to_json(fixture.rebuilt), fixture.decoded.state.stage
        for k in range(stage[1] + 1):
            if canonical_json(slice_of_data(fixture.data, k)) != canonical_json(
                slice_of_data(data, k)
            ):
                rep.add("fixture slice differs from a fresh build", witness=k)
        rep.counts["slices"] = stage[1] + 1
        return rep
    rep.counts["slices"] = len(LADDER_PAIRS)
    for k, (small, large) in LADDER_PAIRS.items():
        a = slice_json(cached_initial(small), k)
        b = slice_json(cached_initial(large), k)
        if canonical_json(a) != canonical_json(b):
            rep.add(
                f"dimension-{k} data differs between max_dim={small.max_dim} and {large.max_dim}"
            )
    return rep


def _suite_oracle(bounds: Bounds, fixture) -> Report:
    rep = Report("oracle-equivalence")
    if fixture is not None:
        state, rebuilt = fixture.decoded.state, fixture.rebuilt
        for k in range(state.collection.max_dim + 1):
            if set(state.collection.cells_at(k)) != set(rebuilt.collection.cells_at(k)):
                rep.add("fixture cells differ from a fresh build", witness=k)
        if state.contraction.gamma != rebuilt.contraction.gamma:
            rep.add("fixture gamma differs from a fresh build")
        rep.counts.update(
            layers=state.collection.max_dim + 1,
            gamma_entries=len(state.contraction.gamma.keys() | rebuilt.contraction.gamma.keys()),
        )
        return rep
    kinds = ("trees", "substitutions", "term_layers", "contraction_layers", "count_law_cases")
    rep.counts.update(dict.fromkeys(kinds, 0))

    def differs(layers: str, cells, want: set) -> bool:
        rep.counts[layers] += 1
        return set(cells) != want

    # trees
    for k in range(3):
        mine = set(enumerate_trees(k, 9))
        rep.counts["trees"] += len(mine)
        theirs = {e.to_tree() for e in oracle_trees(k, 9)}
        if mine != theirs:
            rep.add("tree enumeration differs from the oracle", witness=k)

    # substitution against explicit column splicing
    for d in range(3):
        for shape in enumerate_trees(d, 9):
            for ld in tree_labellings(shape, 3):
                rep.counts["substitutions"] += 1
                if explicit_from_tree(substitute(ld)) != oracle_substitute2(ld):
                    rep.add("substitution differs from column splicing", witness=repr(shape))

    # free operad terms
    term_bounds = Bounds(2, 7, 3)
    inputs = {"the empty collection": empty_collection(0), "one generator": one_cell_collection()}
    for over, coll in inputs.items():
        got = free_operad_dim0(coll, term_bounds).operad.over.cells_at(0)
        if differs("term_layers", got, oracle_terms(None, coll, 0, term_bounds)):
            rep.add(f"free 0-terms over {over} differ from the oracle")
    ladders = (cached_trace(Bounds(1, 5, 2)), free_owc_trace(one_cell_collection(2), Bounds(2, 5, 1)))
    for k, trace in enumerate(ladders, 1):
        h, m = dict(trace)[f"H{k}"], dict(trace)[f"M{k}"]
        want = oracle_terms(h.operad, h.collection, k, h.bounds)
        if differs("term_layers", m.collection.cells_at(k), want):
            rep.add(f"free {k}-terms differ from the oracle")

    # contraction triples
    ctr_bounds = Bounds(2, 7, 1)
    t0 = dict(cached_trace(ctr_bounds))
    for k, state in enumerate((t0["M0"], t0["M1"]), 1):
        step = free_contraction_step(state.collection, state.contraction, ctr_bounds)
        want = oracle_triples(state.collection, k, ctr_bounds)
        if differs("contraction_layers", step.new_cells, want):
            rep.add(f"contraction {k}-cells differ from the oracle")
    for m in range(7):
        rep.counts["count_law_cases"] += 1
        triples = admissible_triples(t0["M0"].collection, 1, Bounds(1, 2 * m + 1, 1))
        if len(triples) != m + 1:
            rep.add("contraction count law fails", witness=m)
    return rep


def _check_serialized_mult(rep: Report, decoded: DecodedState) -> None:
    """Every serialized multiplication entry must agree with the state's
    operad; an entry that cannot be evaluated is a violation, not an error.
    When every entry evaluates, every product that is a cell must be listed."""
    state = decoded.state
    evaluated = True
    for (d, a, labels), result in decoded.mult_entries.items():
        try:
            phi = LabelledDiagram(state.collection.arity_of(d, a), labels)
            value = state.operad.mult(d, a, phi)
        except (KeyError, ValueError) as exc:
            rep.add(
                "serialized multiplication entry cannot be evaluated",
                witness=(repr((d, a, labels)), str(exc)),
            )
            evaluated = False
            continue
        if value != result:
            rep.add(
                "serialized multiplication entry differs from the operad",
                witness=repr((d, a, labels)),
            )
    if not evaluated:
        return
    try:
        products = cell_products(state.operad, state.bounds)
    except (KeyError, ValueError) as exc:
        rep.add("multiplication table cannot be enumerated", witness=str(exc))
        return
    for key in products:
        if key not in decoded.mult_entries:
            rep.add("serialized multiplication table is missing an entry", witness=repr(key))


def _suite_initiality(bounds: Bounds, fixture) -> Report:
    """Initiality is a statement about operads-with-contraction, so the probe
    first validates its codomain within its bounds (collection globularity,
    totality and shape of gamma, and for a fixture the serialized
    multiplication table) and reports any failure without counting
    morphisms.  On a valid codomain the induced morphism out of the initial
    object at its bounds must be the only structure-preserving one."""
    rep = Report("initiality-probe")
    decoded = None if fixture is None else fixture.decoded
    t = free_owc(one_cell_collection(PROBE_BOUNDS.max_dim), PROBE_BOUNDS) if decoded is None else decoded.state
    rep.extend(check_collection(t.collection))
    rep.extend(check_contraction(t.collection, t.contraction, t.bounds))
    if decoded is not None:
        _check_serialized_mult(rep, decoded)
    if not rep.passed:
        return rep
    s = cached_initial(t.bounds)
    result = induced_morphism(s, t)
    if not result.receptive:
        rep.add("codomain is not receptive", witness=result.missing[:3])
        return rep
    for sub in result.reports:
        rep.extend(sub)
    # the search covers the dimensions up to 1, the induced morphism all
    dims = range(min(1, t.bounds.max_dim) + 1)
    found = search_all_morphisms(s, t, up_to=1)
    if len(found) != 1:
        rep.add("structure-preserving morphism count differs from one", witness=len(found))
    elif any(found[0].maps[k] != result.morphism.maps[k] for k in dims):
        rep.add("search result differs from the induced morphism")
    return rep


_SUITES = {
    "globularity": _suite_globularity,
    "monoid-laws": _suite_monoid_laws,
    "operad-laws": _suite_operad_laws,
    "contraction-laws": _suite_contraction_laws,
    "triangle-identities": _suite_triangle,
    "stability-contraction": _suite_stability_contraction,
    "stability-operad": _suite_stability_operad,
    "ladder-coherence": _suite_ladder,
    "oracle-equivalence": _suite_oracle,
    "initiality-probe": _suite_initiality,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, bounds: Bounds | None = None, fixture=None) -> Report:
    """Run one named suite.  ``fixture`` may be a ``Fixture``, or a path or
    parsed JSON, which is read into a new one."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}")
    if isinstance(fixture, (str, Path)):
        fixture = Fixture(json.loads(Path(fixture).read_text()))
    elif fixture is not None and not isinstance(fixture, Fixture):
        fixture = Fixture(fixture)
    start = time.perf_counter()
    rep = _SUITES[name](bounds or DEFAULT_BOUNDS, fixture)
    rep.suite = name
    rep.ms = (time.perf_counter() - start) * 1000.0
    return rep
