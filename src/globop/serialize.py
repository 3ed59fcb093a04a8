"""JSON encoding of cells, collections and interleaving states.

Cell values are tagged: {"unit": k}, {"node": {...}}, {"ctr": {...}} and
{"atom": v}.  Where a cell is listed as a term of the free operad structure,
a bare generator is wrapped as {"gen": <cell>}; the wrapper is accepted
anywhere on decode.  In-table references are indices into the per-dimension
cell lists, and all output is canonical single-line JSON.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .collection import Bounds, Overflow, make_collection
from .contraction import ContractionStructure, CtrCell
from .interleave import OwcState, Provenance
from .operad import NodeTerm, UnitTerm, cell_products, extend_operad
from .pasting import all_cells, tree_from_json, tree_to_json
from .util import canonical_json


def _atom_to_json(v):
    if isinstance(v, tuple):
        return [_atom_to_json(x) for x in v]
    if isinstance(v, (str, int)):
        return v
    raise TypeError(f"cannot encode atom {v!r}")


def _atom_from_json(v):
    """An atom as ``_atom_to_json`` writes it: a string, an int or a list of them."""
    if isinstance(v, list):
        return tuple(_atom_from_json(x) for x in v)
    if isinstance(v, (str, int)):
        return v
    raise ValueError(f"atom {v!r} is not a string, an int or a list of them")


def cell_to_json(c) -> dict:
    if isinstance(c, UnitTerm):
        return {"unit": c.dim}
    if isinstance(c, NodeTerm):
        return {
            "node": {
                "dim": c.dim,
                "gen": cell_to_json(c.gen),
                "labels": [cell_to_json(l) for l in c.labels],
            }
        }
    if isinstance(c, CtrCell):
        # degenerate arity trees do not determine their dimension, so it is
        # stored explicitly
        return {
            "ctr": {
                "dim": c.theta.dim,
                "a": cell_to_json(c.a),
                "b": cell_to_json(c.b),
                "theta": tree_to_json(c.theta),
            }
        }
    return {"atom": _atom_to_json(c)}


def cell_from_json(data):
    if "gen" in data:
        return cell_from_json(data["gen"])
    if "unit" in data:
        return UnitTerm(_dim(data["unit"]))
    if "node" in data:
        node = data["node"]
        d = _dim(node["dim"])
        labels = tuple(cell_from_json(l) for l in node["labels"])
        return NodeTerm(d, cell_from_json(node["gen"]), labels)
    if "ctr" in data:
        ctr = data["ctr"]
        theta = tree_from_json(ctr["theta"], _dim(ctr["dim"]))
        return CtrCell(cell_from_json(ctr["a"]), cell_from_json(ctr["b"]), theta)
    if "atom" in data:
        return _atom_from_json(data["atom"])
    raise ValueError(f"unrecognized cell encoding: {data!r}")


def _dim(v) -> int:
    """A dimension as the format writes it: an int, not a bool, float or string."""
    if type(v) is not int:
        raise ValueError(f"dimension {v!r} is not an int")
    return v


def _at(table, i, what: str):
    """``table[i]`` for an index the format has: a non-bool int in range."""
    if type(i) is not int or not 0 <= i < len(table):
        raise ValueError(f"{what} {i!r} is not an index into {len(table)} entries")
    return table[i]


def _distinct(layer: list, k: int) -> tuple:
    """``layer`` as a tuple, checked to list no cell twice: the tables are
    keyed by cell, so a second listing would overwrite the first's entries."""
    if len(set(layer)) != len(layer):
        raise ValueError(f"layer {k} lists a cell twice")
    return tuple(layer)


def _check_nodes(cells_by_dim: list, arity: list) -> None:
    """Raise ``ValueError`` unless every node listed or among the labels of
    one is a normal form, as grafting builds it and ``cell_products``
    inverts it: of its layer's dimension, over a generator that is not a
    term, with a label per cell of the generator's arity, not all units.  A
    generator without an arity is left to the suites."""
    seen = set()

    def check(k: int, c) -> None:
        if not isinstance(c, NodeTerm) or (k, c) in seen:
            return
        seen.add((k, c))
        if c.dim != k or isinstance(c.gen, (UnitTerm, NodeTerm)):
            raise ValueError(f"node {c!r} is not a term of dimension {k} over a generator")
        shape = arity[k].get(c.gen)
        if shape is None:
            return
        addrs = all_cells(shape)
        if len(c.labels) != len(addrs) or c.labels == tuple(UnitTerm(x.dim) for x in addrs):
            raise ValueError(f"node {c!r} is not in normal form over the arity of its generator")
        for x, lab in zip(addrs, c.labels):
            check(x.dim, lab)

    for k, layer in enumerate(cells_by_dim):
        for c in layer:
            check(k, c)


def _term_json(c, is_term_dim: bool) -> dict:
    enc = cell_to_json(c)
    if is_term_dim and not isinstance(c, (UnitTerm, NodeTerm)):
        return {"gen": enc}
    return enc


# ---------------------------------------------------------------------------
# globular sets


def _layers(data: dict, key: str) -> list:
    """``data[key]``, checked to be a list of lists: iterating an object
    would read its keys as layers and their characters as cells."""
    layers = data[key]
    if not isinstance(layers, list) or not all(isinstance(layer, list) for layer in layers):
        raise ValueError(f"{key} is not a list of layers")
    return layers


def _ends(data: dict, cells: list) -> tuple[list, list]:
    """The src and tgt tables of ``cells``, read from the index layers
    ``data["src"]`` and ``data["tgt"]``."""
    src_layers, tgt_layers = _layers(data, "src"), _layers(data, "tgt")
    src = [{} for _ in cells]
    tgt = [{} for _ in cells]
    for k in range(1, len(cells)):
        for i, c in enumerate(cells[k]):
            src[k][c] = _at(cells[k - 1], src_layers[k - 1][i], "src")
            tgt[k][c] = _at(cells[k - 1], tgt_layers[k - 1][i], "tgt")
    return src, tgt


def globset_from_json(data: dict):
    from .globset import glob_set

    layers = enumerate(_layers(data, "cells"))
    cells = [_distinct([_atom_from_json(c) for c in layer], k) for k, layer in layers]
    return glob_set(cells, *_ends(data, cells))


# ---------------------------------------------------------------------------
# states


@dataclass
class DecodedState:
    state: OwcState
    mult_entries: dict  # (dim, op, labels) -> result, as serialized


def state_to_json(s: OwcState) -> dict:
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
            layer.append({"cell": _term_json(c, k <= s.operad.up_to_dim), "provenance": dict(vars(prov))})
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


def state_text(s: OwcState) -> str:
    return canonical_json(state_to_json(s)) + "\n"


def state_from_json(data: dict) -> DecodedState:
    bounds = Bounds(**data["bounds"])
    layers = _layers(data, "cells")
    if bounds.max_dim >= len(layers):
        # a ladder pads its input to max_dim, so every dimension has a layer
        raise ValueError(f"max_dim {bounds.max_dim} is beyond the {len(layers)} layers of cells")
    stage = tuple(data["stage"])
    if not (
        len(stage) == 2
        and all(type(x) is int for x in stage)
        and stage[0] - stage[1] in (0, 1)
        and 0 <= stage[1] <= stage[0] <= bounds.max_dim
        and stage[0] < len(layers)
    ):
        raise ValueError(
            f"stage {list(stage)!r} is not (k, k) or (k + 1, k) within max_dim and the layers"
        )
    cells_by_dim = []
    provenance = {}
    for k, layer in enumerate(layers):
        decoded = []
        for entry in layer:
            c = cell_from_json(entry["cell"])
            decoded.append(c)
            p = entry.get("provenance", {})
            if not isinstance(p, dict):
                raise ValueError(f"provenance {p!r} is not an object")
            step, stratum = p.get("step", "input"), p.get("stratum")
            if not isinstance(step, str) or not (stratum is None or type(stratum) is int):
                raise ValueError(f"provenance {p!r} is not a step name with an int or null stratum")
            provenance[(k, c)] = Provenance(step, stratum)
        cells_by_dim.append(_distinct(decoded, k))
    src, tgt = _ends(data, cells_by_dim)
    arity = [
        {
            c: tree_from_json(data["arity"][k][i], k)
            for i, c in enumerate(cells_by_dim[k])
        }
        for k in range(len(cells_by_dim))
    ]
    _check_nodes(cells_by_dim, arity)
    coll = make_collection(cells_by_dim, src, tgt, arity)
    operad = None
    for d in range(stage[1] + 1):
        operad = extend_operad(operad, coll, d)
    gamma = {}
    for entry in data["gamma"]:
        k = entry["dim"]
        layer = _at(cells_by_dim, k, "gamma dim")
        below = _at(cells_by_dim, k - 1, "gamma dim minus one")
        gamma[
            (
                _at(below, entry["a"], "gamma a"),
                _at(below, entry["b"], "gamma b"),
                tree_from_json(entry["theta"], k),
            )
        ] = _at(layer, entry["cell"], "gamma cell")
    contraction = ContractionStructure(stage[0], gamma)
    mult_entries = {}
    for entry in data["mult"]:
        d = entry["dim"]
        layer = _at(cells_by_dim, d, "mult dim")
        a = _at(layer, entry["op"], "mult op")
        addrs = all_cells(arity[d][a])
        if len(entry["labels"]) != len(addrs):
            raise ValueError("mult labels do not cover the arity of the operation")
        labels = []
        for x, (j, i) in zip(addrs, entry["labels"]):
            if type(j) is not int or j != x.dim:
                raise ValueError(f"mult label dim {j!r} differs from its cell's {x.dim}")
            labels.append(_at(cells_by_dim[j], i, "mult label"))
        mult_entries[(d, a, tuple(labels))] = _at(layer, entry["result"], "mult result")
    overflows = []
    for o in data.get("overflows", []):
        step, dim, reason, count, sample = (o[key] for key in ("step", "dim", "reason", "count", "sample"))
        if not (
            isinstance(sample, list)
            and all(isinstance(v, str) for v in (step, reason, *sample))
            and type(dim) is int
            and type(count) is int
        ):
            raise ValueError(f"overflow {o!r} is not two strings, two ints and a list of strings")
        overflows.append(Overflow(step, dim, reason, count, tuple(sample)))
    return DecodedState(OwcState(operad, contraction, bounds, provenance, tuple(overflows)), mult_entries)


def slice_of_data(data: dict, k: int) -> dict:
    """The dimension-k part of a serialized state."""
    max_dim = len(data["cells"]) - 1
    return {
        "cells": data["cells"][k] if k <= max_dim else [],
        "src": data["src"][k - 1] if 1 <= k <= max_dim else [],
        "tgt": data["tgt"][k - 1] if 1 <= k <= max_dim else [],
        "arity": data["arity"][k] if k <= max_dim else [],
        "mult": [e for e in data["mult"] if e["dim"] == k],
        "gamma": [e for e in data["gamma"] if e["dim"] == k],
    }


def slice_json(s: OwcState, k: int) -> dict:
    """The dimension-k part of a state, for stability comparisons."""
    return slice_of_data(state_to_json(s), k)
