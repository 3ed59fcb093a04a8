import json
from pathlib import Path

import pytest

from globop.collection import Bounds, empty_collection, one_cell_collection
from globop.contraction import CtrCell
from globop.interleave import free_owc, free_owc_trace, initial_owc
from globop.operad import NodeTerm, UnitTerm
from globop.pasting import DOT, PastingDiagram, chain
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
