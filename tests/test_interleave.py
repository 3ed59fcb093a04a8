import dataclasses
import json
from pathlib import Path

import pytest

from globop import interleave
from globop.collection import (
    Bounds,
    add_cells,
    empty_collection,
    make_collection,
    one_cell_collection,
    terminal_collection,
    unit_collection,
)
from globop.contraction import ContractionStructure, CtrCell, free_contraction_step, terminal_contraction
from globop.interleave import (
    OwcState,
    free_owc,
    free_owc_trace,
    induced_morphism,
    initial_owc,
    start_state,
    step_contraction,
    step_operad,
)
from globop.operad import NodeTerm, UnitTerm, free_operad_step, mult_table, terminal_operad
from globop.pasting import DOT, PastingDiagram, chain, unit_tree
from globop.serialize import slice_json, state_text
from globop.util import canonical_json

PB = Bounds(max_dim=1, max_arity_size=3, max_term_size=2)


def test_initial_dim0():
    st = initial_owc(Bounds(0, 1, 2))
    assert st.collection.cells_at(0) == (UnitTerm(0),)
    assert st.stage == (0, 0)


def test_initial_dim1_counts():
    st = initial_owc(Bounds(1, 5, 1))
    assert len(st.collection.cells_at(1)) == 4
    got = {c for c in st.collection.cells_at(1) if isinstance(c, CtrCell)}
    assert got == {CtrCell(UnitTerm(0), UnitTerm(0), chain(m)) for m in range(3)}


def test_stage_errors():
    st = initial_owc(Bounds(1, 5, 1))
    with pytest.raises(ValueError):
        step_operad(st)  # already at (1, 1)
    trace = dict(free_owc_trace(empty_collection(), Bounds(1, 5, 1)))
    with pytest.raises(ValueError):
        step_contraction(trace["H1"])  # at (1, 0), needs (k, k)


def test_trace_stages():
    trace = free_owc_trace(empty_collection(), Bounds(2, 5, 1))
    assert [label for label, _ in trace] == ["M0", "H1", "M1", "H2", "M2"]
    assert [s.stage for _, s in trace] == [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]


def test_ladder_coherence_lower_dims_frozen():
    small = initial_owc(Bounds(1, 7, 1))
    large = initial_owc(Bounds(3, 7, 1))
    for k in (0, 1):
        assert canonical_json(slice_json(small, k)) == canonical_json(slice_json(large, k))


def test_gamma_and_mult_survive_later_steps():
    trace = free_owc_trace(empty_collection(), Bounds(2, 5, 1))
    states = dict(trace)
    h1, m1, h2, m2 = states["H1"], states["M1"], states["H2"], states["M2"]
    b = Bounds(2, 5, 1)
    assert mult_table(h1.operad, b) == mult_table(states["M0"].operad, b)
    for key, value in h1.contraction.gamma.items():
        assert m2.contraction.gamma[key] == value
    t0 = mult_table(m1.operad, b, dims=[0, 1])
    t1 = mult_table(m2.operad, b, dims=[0, 1])
    assert t0 == t1


def test_each_step_keeps_the_other_structure():
    """An operad step replaces only the operad and a contraction step keeps
    the operad's units and multiplications: the contraction lives on no
    collection of its own, so neither step rebuilds the other structure."""
    trace = free_owc_trace(empty_collection(), Bounds(3, 7, 1))
    assert [label for label, _ in trace] == ["M0", "H1", "M1", "H2", "M2", "H3", "M3"]
    for (_, before), (label, after) in zip(trace, trace[1:]):
        if label.startswith("M"):
            assert after.contraction is before.contraction
        else:
            assert after.operad.units is before.operad.units
            assert after.operad.mults is before.operad.mults


def _tampered_contraction_step(tamper):
    """A free contraction step that hands back a tampered collection."""

    def step(coll, ctr, bounds):
        res = free_contraction_step(coll, ctr, bounds)
        return dataclasses.replace(res, collection=tamper(res.collection))

    return step


def _change_one_arity(coll):
    arity = list(coll.arity)
    layer = dict(arity[1])
    cell = coll.cells_at(1)[-1]
    layer[cell] = PastingDiagram(1, (DOT,) * (len(layer[cell].children) + 1))
    arity[1] = layer
    return dataclasses.replace(coll, arity=tuple(arity))


def _reorder_one_cell(coll):
    cells = list(coll.cells)
    layer = list(cells[1])
    layer[0], layer[1] = layer[1], layer[0]
    cells[1] = tuple(layer)
    return dataclasses.replace(coll, cells=tuple(cells))


def _stray_point(coll, d=None):
    return add_cells(coll, 0, ["stray"], {}, {}, {"stray": DOT})


@pytest.mark.parametrize("tamper", [_change_one_arity, _reorder_one_cell, _stray_point])
def test_contraction_step_asserts_lower_layers_unchanged(monkeypatch, tamper):
    m1 = dict(free_owc_trace(empty_collection(), Bounds(2, 5, 1)))["M1"]
    assert step_contraction(m1).stage == (2, 1)
    monkeypatch.setattr(interleave, "free_contraction_step", _tampered_contraction_step(tamper))
    with pytest.raises(AssertionError, match="contraction step disturbed the operad multiplication"):
        step_contraction(m1)


def _tampered_operad_step(tamper):
    """A free operad step that hands back a tampered collection; ``tamper``
    also reads the dimension the step built."""

    def step(x, bounds):
        res = free_operad_step(x, bounds)
        coll = tamper(res.operad.over, res.new_dim)
        return dataclasses.replace(res, operad=dataclasses.replace(res.operad, over=coll))

    return step


def _drop_one_lift(coll, d):
    lift = next(c for c in coll.cells_at(d) if isinstance(c, CtrCell))
    cells = list(coll.cells)
    cells[d] = tuple(c for c in cells[d] if c is not lift)
    arity = list(coll.arity)
    arity[d] = {c: a for c, a in arity[d].items() if c is not lift}
    return dataclasses.replace(coll, cells=tuple(cells), arity=tuple(arity))


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_stray_point, "operad step changed the admissible triples below it"),
        (_drop_one_lift, "operad step removed a contraction cell"),
    ],
    ids=["stray-point", "dropped-lift"],
)
def test_operad_step_asserts_what_it_must_keep(monkeypatch, tamper, message):
    h2 = dict(free_owc_trace(empty_collection(), Bounds(2, 5, 2)))["H2"]
    assert step_operad(h2).stage == (2, 2)
    monkeypatch.setattr(interleave, "free_operad_step", _tampered_operad_step(tamper))
    with pytest.raises(AssertionError, match=message):
        step_operad(h2)


def _snapshot(state: OwcState) -> list:
    # per layer: the cells in order, and the src, tgt and arity entries in order
    coll = state.collection
    tables = (coll.src, coll.tgt, coll.arity)
    return [
        (coll.cells_at(k), *(list(table[k].items()) for table in tables))
        for k in range(coll.max_dim + 1)
    ]


def test_a_step_leaves_the_earlier_states_as_they_were():
    """A step shares every layer it does not extend with the state before
    it, so no step may change a layer in place."""
    state = start_state(empty_collection(), Bounds(2, 5, 2))
    states, snapshots = [state], [_snapshot(state)]
    for step in (step_contraction, step_operad) * 2:
        state = step(state)
        before = states[-1].collection
        assert any(a is b for a, b in zip(state.collection.arity, before.arity))
        for earlier, snapshot in zip(states, snapshots):
            assert _snapshot(earlier) == snapshot
        states.append(state)
        snapshots.append(_snapshot(state))
    assert [s.stage for s in states] == [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]


def test_golden_valid_state_fixture():
    fixture = Path(__file__).parent / "fixtures" / "valid_state.json"
    state = free_owc(one_cell_collection(1), Bounds(1, 3, 2))
    assert state_text(state) == fixture.read_text()


def test_one_name_in_two_dimensions():
    # "x" names both the 0-cell and the arrow; the build must not mix them up
    def arrow_named(f):
        return make_collection(
            [["x"], [f]], [{}, {f: "x"}], [{}, {f: "x"}], [{"x": DOT}, {f: chain(1)}]
        )

    bounds = Bounds(2, 5, 1)
    shared = free_owc(arrow_named("x"), bounds)
    apart = free_owc(arrow_named("f"), bounds)
    assert [len(shared.collection.cells_at(k)) for k in range(3)] == [
        len(apart.collection.cells_at(k)) for k in range(3)
    ]


def test_provenance_complete_and_unique():
    st = initial_owc(Bounds(2, 5, 1))
    for k in range(3):
        for c in st.collection.cells_at(k):
            assert (k, c) in st.provenance
    steps = {p.step for p in st.provenance.values()}
    assert steps == {"operad-0", "contraction-1", "operad-1", "contraction-2", "operad-2"}


def test_free_owc_keeps_input_cells():
    st = free_owc(unit_collection(1), Bounds(1, 5, 2))
    for k in range(2):
        assert ("u", k) in st.collection.cells_at(k)
        assert st.provenance[(k, ("u", k))].step == "input"


def test_determinism_bitwise():
    a = state_text(initial_owc(Bounds(2, 5, 1)))
    b = state_text(initial_owc(Bounds(2, 5, 1)))
    assert a == b


def test_dim2_arities_bound_their_ends():
    from globop.pasting import boundary

    st = initial_owc(Bounds(2, 5, 1))
    for c in st.collection.cells_at(2):
        theta = st.collection.arity_of(2, c)
        s = st.collection.src_of(2, c)
        t = st.collection.tgt_of(2, c)
        assert st.collection.arity_of(1, s) == boundary(theta)
        assert st.collection.arity_of(1, t) == boundary(theta)


# --- induced morphisms ---------------------------------------------------------


def terminal_state(bounds):
    coll = terminal_collection(bounds)
    return OwcState(
        operad=terminal_operad(bounds),
        contraction=terminal_contraction(coll, bounds.max_dim, bounds),
        bounds=bounds,
        provenance={},
    )


def test_induced_into_terminal_is_arity():
    s = initial_owc(PB)
    t = terminal_state(PB)
    result = induced_morphism(s, t)
    assert result.receptive
    assert result.passed, [r.violations[:2] for r in result.reports]
    for k in range(2):
        for c in s.collection.cells_at(k):
            assert result.morphism.apply(k, c) == s.collection.arity_of(k, c)


def test_induced_into_free_over_one_cell():
    s = initial_owc(PB)
    t = free_owc(one_cell_collection(PB.max_dim), PB)
    result = induced_morphism(s, t)
    assert result.receptive
    assert result.passed, [r.violations[:2] for r in result.reports]
    # units map to units, contraction cells to contraction cells
    assert result.morphism.apply(0, UnitTerm(0)) == UnitTerm(0)
    c = CtrCell(UnitTerm(0), UnitTerm(0), chain(0))
    assert result.morphism.apply(1, c) == c


def test_induced_reports_non_receptive():
    s = initial_owc(PB)
    t = free_owc(one_cell_collection(PB.max_dim), PB)
    gamma = dict(t.contraction.gamma)
    gamma.pop((UnitTerm(0), UnitTerm(0), chain(0)))
    broken = OwcState(
        operad=t.operad,
        contraction=ContractionStructure(1, gamma),
        bounds=t.bounds,
        provenance=t.provenance,
    )
    result = induced_morphism(s, broken)
    assert not result.receptive
    assert any(kind == "gamma" for kind, *_ in result.missing)


def test_seed_required_for_input_cells():
    s = free_owc(one_cell_collection(PB.max_dim), PB)
    t = terminal_state(PB)
    bare = induced_morphism(s, t)
    assert not bare.receptive
    seeded = induced_morphism(s, t, seed={(0, "v"): DOT})
    assert seeded.receptive and seeded.passed
