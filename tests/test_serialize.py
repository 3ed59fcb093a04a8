import json
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from globop.collection import Bounds, empty_collection, make_collection, one_cell_collection
from globop.contraction import CtrCell
from globop.interleave import OwcState, Provenance, free_owc, free_owc_trace, initial_owc
from globop.operad import NodeTerm, UnitTerm, cell_products
from globop.pasting import DOT, PastingDiagram, all_cells, chain, tree_to_json
from globop.serialize import (
    _atom_to_json,
    cell_from_json,
    cell_to_json,
    globset_from_json,
    slice_json,
    state_from_json,
    state_text,
    state_to_json,
)
from globop.globset import glob_set
from globop.util import canonical_json


# --- reference: the dict encoder that state_text replaced, verbatim ----------
# (its recursive call and its helper ``_term_json`` carry the reference_ prefix)


def reference_cell_to_json(c) -> dict:
    if isinstance(c, UnitTerm):
        return {"unit": c.dim}
    if isinstance(c, NodeTerm):
        return {
            "node": {
                "dim": c.dim,
                "gen": reference_cell_to_json(c.gen),
                "labels": [reference_cell_to_json(l) for l in c.labels],
            }
        }
    if isinstance(c, CtrCell):
        # degenerate arity trees do not determine their dimension, so it is
        # stored explicitly
        return {
            "ctr": {
                "dim": c.theta.dim,
                "a": reference_cell_to_json(c.a),
                "b": reference_cell_to_json(c.b),
                "theta": tree_to_json(c.theta),
            }
        }
    return {"atom": _atom_to_json(c)}


def reference_term_json(c, is_term_dim: bool) -> dict:
    enc = reference_cell_to_json(c)
    if is_term_dim and not isinstance(c, (UnitTerm, NodeTerm)):
        return {"gen": enc}
    return enc


def reference_state_to_json(s: OwcState) -> dict:
    coll = s.collection
    index = [
        {c: i for i, c in enumerate(coll.cells_at(k))} for k in range(coll.max_dim + 1)
    ]
    cells = []
    for k in range(coll.max_dim + 1):
        layer = []
        for c in coll.cells_at(k):
            prov = s.provenance.get((k, c), Provenance("input"))
            # a shallow copy of the fields: asdict deep-copies each one, 18 times the cost
            layer.append({"cell": reference_term_json(c, k <= s.operad.up_to_dim), "provenance": dict(vars(prov))})
        cells.append(layer)
    src, tgt = (
        [[index[k - 1][table[k][c]] for c in coll.cells_at(k)] for k in range(1, coll.max_dim + 1)]
        for table in (coll.src, coll.tgt)
    )
    arity = [
        [tree_to_json(coll.arity_of(k, c)) for c in coll.cells_at(k)]
        for k in range(coll.max_dim + 1)
    ]
    mult = []
    for (d, a, labels), r in cell_products(s.operad, s.bounds).items():
        shape = coll.arity_of(d, a)
        mult.append(
            {
                "dim": d,
                "op": index[d][a],
                "labels": [
                    [x.dim, index[x.dim][lab]]
                    for x, lab in zip(all_cells(shape), labels)
                ],
                "result": index[d][r],
            }
        )
    gamma = [
        {
            "dim": theta.dim,
            "a": index[theta.dim - 1][a],
            "b": index[theta.dim - 1][b],
            "theta": tree_to_json(theta),
            "cell": index[theta.dim][lift],
        }
        for (a, b, theta), lift in sorted(
            s.contraction.gamma.items(),
            key=lambda kv: (
                kv[0][2].dim,
                index[kv[0][2].dim - 1][kv[0][0]],
                index[kv[0][2].dim - 1][kv[0][1]],
                tree_to_json(kv[0][2]),
            ),
        )
    ]
    return {
        "stage": list(s.stage),
        "bounds": asdict(s.bounds),
        "cells": cells,
        "src": src,
        "tgt": tgt,
        "arity": arity,
        "mult": mult,
        "gamma": gamma,
        "overflows": [dict(vars(o)) for o in s.overflows],
    }


# -----------------------------------------------------------------------------


def globset_to_json(g) -> dict:
    index = [{c: i for i, c in enumerate(g.cells_at(k))} for k in range(g.max_dim + 1)]
    return {
        "dims": g.max_dim,
        "cells": [[_atom_to_json(c) for c in g.cells_at(k)] for k in range(g.max_dim + 1)],
        "src": [
            [index[k - 1][g.src_of(k, c)] for c in g.cells_at(k)]
            for k in range(1, g.max_dim + 1)
        ],
        "tgt": [
            [index[k - 1][g.tgt_of(k, c)] for c in g.cells_at(k)]
            for k in range(1, g.max_dim + 1)
        ],
    }


def test_cell_roundtrip():
    samples = [
        UnitTerm(2),
        "v",
        ("u", 3),
        CtrCell(UnitTerm(0), UnitTerm(0), chain(2)),
        CtrCell("a", "b", PastingDiagram(2, (chain(0),))),
        NodeTerm(0, "v", ("v",)),
        NodeTerm(1, CtrCell(UnitTerm(0), UnitTerm(0), chain(1)), (UnitTerm(0), UnitTerm(0), UnitTerm(1))),
    ]
    for c in samples:
        assert cell_from_json(cell_to_json(c)) == c


def test_degenerate_theta_keeps_dimension():
    c = CtrCell("a", "b", PastingDiagram(2, ()))
    assert cell_from_json(cell_to_json(c)) == c


def test_gen_wrapper_accepted():
    assert cell_from_json({"gen": {"atom": "v"}}) == "v"


def test_state_roundtrip_and_gen_wrapping():
    st = free_owc(one_cell_collection(1), Bounds(1, 3, 2))
    data = state_to_json(st)
    # bare generators at operad dimensions are written in the term grammar
    kinds = {next(iter(entry["cell"])) for entry in data["cells"][1]}
    assert kinds <= {"unit", "gen", "node"}
    decoded = state_from_json(json.loads(state_text(st)))
    assert decoded.state.collection == st.collection
    assert decoded.state.contraction.gamma == st.contraction.gamma
    assert decoded.state.stage == st.stage
    assert state_text(decoded.state) == state_text(st)


@pytest.mark.parametrize(
    "make, bounds",
    [
        (empty_collection, Bounds(2, 5, 1)),
        (empty_collection, Bounds(3, 7, 1)),
        (lambda: one_cell_collection(2), Bounds(2, 5, 1)),
    ],
    ids=["empty-251", "empty-371", "one-cell-251"],
)
def test_every_state_of_a_ladder_roundtrips(make, bounds):
    """The decoder reads the stage off the operad and the contraction it
    builds: every state of a ladder, at the stages (k + 1, k) as at (k, k),
    decodes to its stage and collection and encodes to the same text."""
    for label, st in free_owc_trace(make(), bounds):
        text = state_text(st)
        decoded = state_from_json(json.loads(text)).state
        assert (decoded.stage, decoded.collection) == (st.stage, st.collection), label
        assert state_text(decoded) == text, label


def test_mult_entries_recovered():
    st = initial_owc(Bounds(1, 5, 1))
    decoded = state_from_json(state_to_json(st))
    key = (0, UnitTerm(0), (UnitTerm(0),))
    assert decoded.mult_entries[key] == UnitTerm(0)


def test_slice_json_shape():
    st = initial_owc(Bounds(1, 5, 1))
    s0 = slice_json(st, 0)
    assert len(s0["cells"]) == 1 and s0["gamma"] == []
    s1 = slice_json(st, 1)
    assert len(s1["cells"]) == 4 and len(s1["gamma"]) == 3


def test_globset_roundtrip():
    g = glob_set(
        [["x", "y"], ["f"]],
        [{}, {"f": "x"}],
        [{}, {"f": "y"}],
    )
    assert globset_from_json(globset_to_json(g)) == g


@pytest.mark.parametrize("values", [(True, 5, 2), (1, 5.0, 2), (1, 5, "2")])
def test_bounds_reject_fields_that_are_not_ints(values):
    with pytest.raises(ValueError, match="bounds must be ints"):
        Bounds(*values)


FIXTURES = Path(__file__).parent / "fixtures"

# one case per field the decoders read an index from: each value picks a cell
# only by Python's list indexing (-1 from the end, True as 1) or, for mult
# labels, does not fit the arity of the entry's operation
MALFORMED = {
    "src": ("valid_state.json", ("src", 0, 0), -1),
    "tgt": ("valid_state.json", ("tgt", 0, 5), True),
    "gamma-a": ("valid_state.json", ("gamma", 0, "a"), -1),
    "gamma-b": ("valid_state.json", ("gamma", 0, "b"), True),
    "gamma-cell": ("valid_state.json", ("gamma", 0, "cell"), -1),
    "mult-op": ("valid_state.json", ("mult", 0, "op"), -1),
    "mult-label": ("valid_state.json", ("mult", 315, "labels", 2, 1), -1),
    "mult-label-dim": ("valid_state.json", ("mult", 315, "labels", 2), [0, 1]),
    "mult-labels-cover": ("valid_state.json", ("mult", 0, "labels"), []),
    "mult-result": ("valid_state.json", ("mult", 0, "result"), True),
    "globset-src": ("corrupt_globset.json", ("src", 0, 0), -1),
    "globset-tgt": ("corrupt_globset.json", ("tgt", 1, 0), True),
}


def malformed(case):
    name, path, value = MALFORMED[case]
    data = json.loads((FIXTURES / name).read_text())
    at = data
    for key in path[:-1]:
        at = at[key]
    at[path[-1]] = value
    return name, data


@pytest.mark.parametrize("case", MALFORMED)
def test_decoders_reject_indices_the_format_does_not_have(case):
    name, data = malformed(case)
    decode = globset_from_json if name == "corrupt_globset.json" else state_from_json
    with pytest.raises(ValueError):
        decode(data)


# --- one writer: state_text is the reference encoding's canonical text --------


def first_difference(a: str, b: str):
    """None if ``a == b``, else the first offset where they differ and the
    text around it in each: pytest's own diff of two long texts takes
    minutes."""
    if a == b:
        return None
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return i, a[max(0, i - 40) : i + 40], b[max(0, i - 40) : i + 40]


def assert_written_as_reference(state, label=None):
    text = state_text(state)
    assert first_difference(text, canonical_json(reference_state_to_json(state)) + "\n") is None, label
    assert state_to_json(state) == json.loads(text), label


@pytest.mark.parametrize("bounds", [Bounds(2, 5, 2), Bounds(3, 7, 1), Bounds(1, 7, 4)], ids=["252", "371", "174"])
def test_every_state_of_a_ladder_is_written_as_the_reference_writes_it(bounds):
    """At the stages (k + 1, k) the top layer is not yet a layer of terms,
    so its generators are written without the {"gen"} wrapper."""
    trace = free_owc_trace(empty_collection(), bounds)
    assert any(state.stage[0] == state.stage[1] + 1 for _, state in trace)
    for label, state in trace:
        assert_written_as_reference(state, label)


def test_a_free_state_over_an_atom_is_written_as_the_reference_writes_it():
    assert_written_as_reference(free_owc(one_cell_collection(2), Bounds(2, 5, 1)))


STATE_FIXTURES = sorted(p.name for p in FIXTURES.glob("*state*.json"))


@pytest.mark.parametrize("name", STATE_FIXTURES)
def test_every_state_fixture_is_written_as_the_reference_writes_it(name):
    state = state_from_json(json.loads((FIXTURES / name).read_text())).state
    if name == "corrupt_state_cells.json":
        # its contraction cell's theta was changed, so the nodes over that
        # cell name one no layer holds, and neither writer finds its arity
        with pytest.raises(KeyError):
            reference_state_to_json(state)
        with pytest.raises(KeyError):
            state_text(state)
        return
    assert_written_as_reference(state)


# atom names JSON must escape: quotes, backslashes, control characters and
# text beyond ASCII (one character beyond the BMP, written as a surrogate
# pair); overflow samples are reprs of nodes over these atoms
_chars = st.sampled_from(['"', "\\", "'", "\n", "\x00", "\x1f", "\x7f", "a", "é", "☃", "\U0001f600"])
_atoms = st.recursive(
    st.one_of(st.text(_chars, max_size=4), st.integers(-3, 3)),
    lambda inner: st.lists(inner, max_size=2).map(tuple),
    max_leaves=3,
)
_BUILD_BOUNDS = (Bounds(1, 3, 1), Bounds(1, 3, 2), Bounds(2, 5, 1))


def _small_collection(bounds, points, arrows, ends, length):
    """0-cells ``points`` and 1-cells ``arrows`` with ``ends``, each of arity
    the chain of ``length`` arrows, padded with empty layers to
    ``bounds.max_dim``."""
    pad = [{} for _ in range(bounds.max_dim - 1)]
    return make_collection(
        [points, arrows] + [[] for _ in pad],
        [{}, {f: s for f, (s, _) in zip(arrows, ends)}] + pad,
        [{}, {f: t for f, (_, t) in zip(arrows, ends)}] + pad,
        [{p: DOT for p in points}, {f: chain(length) for f in arrows}] + pad,
    )


@st.composite
def small_collections(draw):
    """One or two 0-cells and at most one 1-cell, which may share its name
    with a 0-cell, and the bounds to build the free structure at."""
    bounds = draw(st.sampled_from(_BUILD_BOUNDS))
    points = draw(st.lists(_atoms, min_size=1, max_size=2, unique=True))
    arrows = draw(st.lists(st.one_of(_atoms, st.sampled_from(points)), max_size=1))
    ends = [(draw(st.sampled_from(points)), draw(st.sampled_from(points))) for _ in arrows]
    length = draw(st.integers(0, (bounds.max_arity_size - 1) // 2))
    return _small_collection(bounds, points, arrows, ends, length), bounds


HOSTILE_NAME = 'q"\\\n\x01é☃\U0001f600'


@settings(max_examples=20, derandomize=True, deadline=None)
@given(small_collections())
@example((_small_collection(Bounds(1, 3, 2), [HOSTILE_NAME, ("n", (1,))], [HOSTILE_NAME], [(HOSTILE_NAME, ("n", (1,)))], 1), Bounds(1, 3, 2)))
def test_free_states_over_names_that_need_escaping_are_written_as_the_reference_writes_them(case):
    coll, bounds = case
    state = free_owc(coll, bounds)
    assert state.overflows
    assert_written_as_reference(state)
