"""Seeded inputs of the verify-laws workload.

    python3 perfbench/inputs.py SEED STATE.json CORRUPT.json

STATE.json is the free operad-with-contraction at bounds (2, 5, 1) on a
collection with one 0-cell.  The seed picks the atom's name and the order in
which the cells of every dimension are listed; it cannot change what the
state is, so the per-dimension cell counts, the table sizes and the work of
checking them are the same for every seed.  (With one 0-cell there is no
wiring left for the seed to choose, but a second 0-cell, or even a loop on
the one, makes operad-laws on the state take two minutes or more than half
as long again.)

CORRUPT.json is a copy with one unit-style multiplication entry pointed at
another cell and the first gamma entry dropped, following the recipes of
``tests/make_fixtures.py``; ``stability-contraction`` and
``contraction-laws`` must report FAIL on it.
"""

from __future__ import annotations

import copy
import random
import string
import sys

from globop.collection import Bounds, make_collection
from globop.interleave import free_owc
from globop.pasting import DOT
from globop.serialize import state_to_json
from globop.util import canonical_json

BOUNDS = Bounds(2, 5, 1)
# cells per dimension, multiplication entries and gamma entries of the state
SHAPE = {"cells": [2, 14, 40], "mult": 125, "gamma": 37}


def _relist(data: dict, rng: random.Random) -> dict:
    """The same state with each dimension's cells listed in a shuffled
    order; every index into the cell lists is renumbered."""
    dims = len(data["cells"])
    order = [rng.sample(range(len(layer)), len(layer)) for layer in data["cells"]]
    new_index = [{old: new for new, old in enumerate(o)} for o in order]
    out = dict(data)
    out["cells"] = [[data["cells"][k][i] for i in order[k]] for k in range(dims)]
    out["arity"] = [[data["arity"][k][i] for i in order[k]] for k in range(dims)]
    for side in ("src", "tgt"):
        out[side] = [
            [new_index[k - 1][data[side][k - 1][i]] for i in order[k]]
            for k in range(1, dims)
        ]
    out["mult"] = [
        {
            "dim": e["dim"],
            "op": new_index[e["dim"]][e["op"]],
            "labels": [[j, new_index[j][i]] for j, i in e["labels"]],
            "result": new_index[e["dim"]][e["result"]],
        }
        for e in data["mult"]
    ]
    out["gamma"] = [
        {
            **e,
            "a": new_index[e["dim"] - 1][e["a"]],
            "b": new_index[e["dim"] - 1][e["b"]],
            "cell": new_index[e["dim"]][e["cell"]],
        }
        for e in data["gamma"]
    ]
    return out


def _corrupt(data: dict) -> dict:
    out = copy.deepcopy(data)
    n = len(out["cells"][1])
    for entry in out["mult"]:
        if entry["dim"] == 1 and entry["op"] == entry["result"]:
            entry["result"] = (entry["result"] + 1) % n
            break
    else:
        raise AssertionError("no unit-style multiplication entry")
    out["gamma"] = out["gamma"][1:]
    return out


def make(seed: int) -> tuple[str, str]:
    rng = random.Random(seed)
    x = "".join(rng.choices(string.ascii_lowercase, k=6))
    coll = make_collection([[x], [], []], [{}, {}, {}], [{}, {}, {}], [{x: DOT}, {}, {}])
    data = state_to_json(free_owc(coll, BOUNDS))
    shape = {
        "cells": [len(layer) for layer in data["cells"]],
        "mult": len(data["mult"]),
        "gamma": len(data["gamma"]),
    }
    if shape != SHAPE:
        raise AssertionError(f"generated state has shape {shape}, expected {SHAPE}")
    data = _relist(data, rng)
    return canonical_json(data) + "\n", canonical_json(_corrupt(data)) + "\n"


if __name__ == "__main__":
    state, corrupt = make(int(sys.argv[1]))
    with open(sys.argv[2], "w") as fh:
        fh.write(state)
    with open(sys.argv[3], "w") as fh:
        fh.write(corrupt)
