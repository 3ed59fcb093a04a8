"""Cell identity: canonical order, the hash contract of the cell types and
interning.

``_sort_key_`` returns raw fields and ``canonical_key`` keeps each object's
key on it.  Earlier, ``_sort_key_`` returned keys of its fields, which
``canonical_key`` then walked again.  The reference copy below keeps those
nested formulas, and the tests check that both give the same order on real
layers.
"""

import copy
import dataclasses
import gc
import json
import pickle
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from globop import interleave
from globop.collection import (
    Bounds,
    PairCell,
    check_collection,
    make_collection,
    one_cell_collection,
    tensor,
    terminal_collection,
)
from globop.contraction import CtrCell
from globop.interleave import free_owc, initial_owc
from globop import operad
from globop.operad import NodeTerm, UnitTerm, check_operad_laws
from globop.pasting import (
    DOT,
    CellAddr,
    LabelledDiagram,
    PastingDiagram,
    chain,
    enumerate_trees,
    size,
    tree_from_json,
    unit_tree,
)
from globop.serialize import state_from_json, state_text
from globop.util import canonical_key
from globop.verify import cached_initial

from test_configurations import reference_check_operad_laws
from test_free_step import _checked_ladder


# --- reference: the nested formulas, verbatim ------------------------------
# (memoized, which changes no value: the tests would otherwise spend seconds
# re-walking the nested keys)


@lru_cache(maxsize=None)
def reference_key(x):
    if isinstance(x, bool):
        return (0, int(x))
    if isinstance(x, int):
        return (0, x)
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, tuple):
        return (2, tuple(reference_key(v) for v in x))
    sk = _reference_sort_key(x)
    return (3, type(x).__name__, reference_key(sk))


def _reference_sort_key(x):
    if isinstance(x, PastingDiagram):
        return (size(x), x.dim, x.children)
    if isinstance(x, CellAddr):
        return (x.dim, x.path)
    if isinstance(x, LabelledDiagram):
        return (x.shape, x.labels)
    if isinstance(x, UnitTerm):
        return (x.dim,)
    if isinstance(x, NodeTerm):
        return (x.dim, reference_key(x.gen), reference_key(x.labels))
    if isinstance(x, CtrCell):
        return (reference_key(x.a), reference_key(x.b), x.theta)
    if isinstance(x, PairCell):
        return (reference_key(x.left), reference_key(x.labelling))
    raise TypeError(f"no canonical order for {type(x).__name__}")


def _assert_same_order(items, seeds=range(5)):
    for seed in seeds:
        shuffled = list(items)
        random.Random(seed).shuffle(shuffled)
        assert sorted(shuffled, key=canonical_key) == sorted(shuffled, key=reference_key)


def _layers(coll):
    for k in range(coll.max_dim + 1):
        cells = coll.cells_at(k)
        yield cells
        yield tuple(set(coll.arity_of(k, c) for c in cells))


@pytest.mark.parametrize("bounds", [Bounds(2, 5, 1), Bounds(2, 5, 2), Bounds(3, 7, 1)])
def test_initial_layers_sort_as_with_nested_keys(bounds):
    for items in _layers(cached_initial(bounds).collection):
        _assert_same_order(items)


def test_free_layers_over_an_atom_sort_as_with_nested_keys():
    bounds = Bounds(2, 5, 1)
    for items in _layers(free_owc(one_cell_collection(2), bounds).collection):
        _assert_same_order(items)


def test_tensor_layers_sort_as_with_nested_keys():
    bounds = Bounds(1, 5, 2)
    t = terminal_collection(bounds)
    res = tensor(free_owc(one_cell_collection(1), bounds).collection, t, bounds)
    assert any(res.collection.cells_at(k) for k in range(2))
    for items in _layers(res.collection):
        _assert_same_order(items)


_diagrams = st.sampled_from(
    enumerate_trees(0, 1) + enumerate_trees(1, 5) + enumerate_trees(2, 7)
)
_leaves = st.one_of(st.booleans(), st.integers(-3, 3), st.text("ab", max_size=2), _diagrams)
_values = st.recursive(
    _leaves, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_values, min_size=2, max_size=6))
def test_key_of_key_sorts_like_key(xs):
    keys = [canonical_key(x) for x in xs]
    keys_of_keys = [canonical_key(k) for k in keys]
    for i in range(len(xs)):
        for j in range(len(xs)):
            assert (keys[i] < keys[j]) == (keys_of_keys[i] < keys_of_keys[j])
            assert (keys[i] == keys[j]) == (keys_of_keys[i] == keys_of_keys[j])


# --- the hash contract of the slotted cell types ----------------------------

# interned, so compared by identity; LabelledDiagram and PairCell compare
# field by field
INTERNED = (PastingDiagram, CellAddr, UnitTerm, NodeTerm, CtrCell)


def _twins():
    """Pairs of equal, separately built instances of each cell type."""

    def build():
        shape = tree_from_json([[[]], []], 2)
        return [
            shape,
            CellAddr(2, (1, 1, 0)),
            LabelledDiagram(chain(1), ("x", "y", "f")),
            UnitTerm(1),
            NodeTerm(1, "g", (UnitTerm(0), ("u", 0), UnitTerm(1))),
            CtrCell("x", "y", tree_from_json([[], []], 1)),
            PairCell("a", LabelledDiagram(DOT, ("b",))),
        ]

    return list(zip(build(), build()))


@pytest.mark.parametrize("a,b", _twins(), ids=lambda x: type(x).__name__)
def test_equal_instances_hash_equal_and_find_each_other(a, b):
    if isinstance(a, INTERNED):
        assert a is b
    else:
        assert a is not b
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    if not isinstance(a, INTERNED):
        fields = tuple(getattr(a, f.name) for f in dataclasses.fields(a))
        assert hash(a) == hash(fields)  # the value the dataclass __hash__ gives
    assert not hasattr(a, "__dict__")
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and (twin is a) == isinstance(a, INTERNED)


@pytest.mark.parametrize("a,b", _twins(), ids=lambda x: type(x).__name__)
def test_cache_slots_stay_out_of_repr_and_eq(a, b):
    canonical_key(a)  # fills a's key slot
    assert repr(a) == repr(b)
    assert "_hash" not in repr(a) and "_key" not in repr(a)
    assert a == b
    assert "_hash" not in {f.name for f in dataclasses.fields(a)}
    # no cell stores its hash: interned cells hash by identity, structural
    # ones by the dataclass's hash of their fields, computed when asked for
    assert not any("_hash" in getattr(k, "__slots__", ()) for k in type(a).__mro__)
    if isinstance(a, INTERNED):
        return
    object.__setattr__(b, "_key", (0, 0))
    assert a == b


@pytest.mark.parametrize("a,b", _twins(), ids=lambda x: type(x).__name__)
def test_cells_stay_frozen(a, b):
    h = hash(a)
    for f in dataclasses.fields(a):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, f.name, getattr(b, f.name))
    # the generated __setattr__ of a frozen slotted dataclass raises
    # TypeError, not FrozenInstanceError, for a name that is not a field
    with pytest.raises((TypeError, dataclasses.FrozenInstanceError)):
        a._hash = 0
    assert hash(a) == h


# --- interning ---------------------------------------------------------------


def test_a_diagram_is_interned_whatever_the_default_arguments():
    assert PastingDiagram(1) is PastingDiagram(1, ())
    assert PastingDiagram(0) is DOT
    assert unit_tree(2) is PastingDiagram(2, (PastingDiagram(1, (DOT,)),))
    assert chain(2) is tree_from_json([[], []], 1)


def test_decoded_cells_are_the_built_cells():
    state = cached_initial(Bounds(2, 5, 1))
    decoded = state_from_json(json.loads(state_text(state))).state
    seen = set()
    for k in range(state.collection.max_dim + 1):
        built, back = state.collection.cells_at(k), decoded.collection.cells_at(k)
        assert len(built) == len(back)
        for c, e in zip(built, back):
            assert e is c
            assert decoded.collection.arity_of(k, e) is state.collection.arity_of(k, c)
            seen.add(type(c))
    assert seen == {UnitTerm, NodeTerm, CtrCell}
    for key, lift in decoded.contraction.gamma.items():
        assert state.contraction.gamma[key] is lift


_tree_data = st.recursive(st.just([]), lambda inner: st.lists(inner, max_size=3), max_leaves=6)


def _depth(data):
    return 1 + max(map(_depth, data)) if data else 0


def _tree_by_hand(data, dim):
    if dim == 0:
        return PastingDiagram(0)
    return PastingDiagram(dim, tuple(_tree_by_hand(c, dim - 1) for c in data))


_term_recipes = st.recursive(
    st.one_of(st.sampled_from(["f", "g"]), st.integers(0, 2).map(lambda d: ("unit", d))),
    lambda inner: st.tuples(
        st.just("node"), st.sampled_from(["f", "g"]), st.lists(inner, max_size=3).map(tuple)
    ),
    max_leaves=8,
)


def _term(recipe):
    if isinstance(recipe, str):
        return recipe
    if recipe[0] == "unit":
        return UnitTerm(recipe[1])
    _, gen, labels = recipe
    return NodeTerm(1, gen, tuple(_term(r) for r in labels))


@settings(max_examples=200, deadline=None)
@given(_tree_data, st.integers(0, 2), _term_recipes, _term_recipes)
def test_cells_built_twice_are_one_object(data, extra, r, s):
    dim = _depth(data) + extra
    assert tree_from_json(data, dim) is _tree_by_hand(data, dim)
    assert tree_from_json(data, dim) is tree_from_json(json.loads(json.dumps(data)), dim)
    assert _term(r) is _term(r)
    # equal recipes and only they give one object
    assert (_term(r) is _term(s)) == (r == s)


def test_transient_nodes_leave_the_table():
    state = free_owc(one_cell_collection(2), Bounds(2, 5, 1))
    gc.collect()
    live = len(operad._nodes)
    rep = check_operad_laws(state.operad, state.bounds)
    assert rep.passed
    del rep
    gc.collect()
    assert len(operad._nodes) <= live
    assert all(ref() is not None for ref in operad._nodes.values())


# --- only a term that is kept is interned ------------------------------------


def count_new_nodes(monkeypatch) -> list:
    """Count every ``NodeTerm`` made from now on, in the one entry of the
    list returned: a miss of ``NodeTerm``'s table, not a lookup that
    finds a live node."""
    made = [0]
    real = operad.new_cell

    def new_cell(cls, values):
        made[0] += cls is NodeTerm
        return real(cls, values)

    monkeypatch.setattr(operad, "new_cell", new_cell)
    return made


def test_the_law_check_interns_only_its_first_level_products(monkeypatch):
    """Grafting returns the live node of a term or a transient, and only the
    first-level products, which the check keeps in its table, become
    nodes: the products of both sides of associativity and of the unit
    laws are compared as they come.  Interning every product made 826,855
    54,312 nodes here."""
    state = free_owc(one_cell_collection(2), Bounds(2, 5, 1))
    gc.collect()
    made = count_new_nodes(monkeypatch)
    rep = check_operad_laws(state.operad, state.bounds)
    assert rep.passed
    assert rep.counts["first_level_configurations"] == 1424
    # 125 first-level products are cells of the state, and a state built by
    # an earlier test (cached_initial) can hold some of the others
    assert made[0] <= 1299


def test_the_free_step_interns_only_what_it_keeps_or_samples(monkeypatch):
    """The boundary check of the free step tests the products it grafts
    against the lower layer without interning them, so each operad step
    makes at most a node per cell it keeps and per sample it records.
    Interning every boundary product made 357 nodes at dimension 2 and
    7,664 at dimension 3."""
    made = count_new_nodes(monkeypatch)
    steps = []

    def counted(step):
        def run(*args):
            before = made[0]
            res = step(*args)
            kept = len(res.strata) - 1  # the unit is no node
            samples = sum(len(o.sample) for o in res.overflows)
            steps.append((made[0] - before, kept, samples))
            return res

        return run

    monkeypatch.setattr(interleave, "free_operad_dim0", counted(interleave.free_operad_dim0))
    monkeypatch.setattr(interleave, "free_operad_step", counted(interleave.free_operad_step))
    initial_owc(Bounds(3, 9, 1))
    # a node built by an earlier test may still be live, so ``made`` can be
    # smaller than what is kept and sampled, never larger
    assert all(n <= kept + samples for n, kept, samples in steps)
    assert [(kept, samples) for _, kept, samples in steps] == [(0, 0), (0, 0), (5, 6), (38, 6)]


# cells that are tuples: ``X2`` is the tuple a grafted 0-node ``x(x)`` would
# be without a tag, and ``X4`` a 4-tuple, the length of a transient
X2 = (0, "x", ("x",))
X4 = ("x", 0, "x", ("x",))
G = (1, "x", ())


def tuple_atoms():
    """0-cells ``x``, ``X2`` and ``X4``; 1-cells ``G``, a top-less 1-cell
    from ``x`` to ``x``, and ``f``, an arrow from ``x`` to ``X2``.  At term
    size 1, ``x(x)`` is no 0-cell, so ``G`` labelled by ``x`` has the
    boundary ``x(x)``, which is no cell either: the free step rejects it,
    and in the law check ``x∘(x)`` differs from ``X2``."""
    cells = [["x", X2, X4], [G, "f"]]
    src = [{}, {G: "x", "f": "x"}]
    tgt = [{}, {G: "x", "f": X2}]
    arity = [{"x": DOT, X2: DOT, X4: DOT}, {G: PastingDiagram(1, ()), "f": chain(1)}]
    coll = make_collection(cells, src, tgt, arity)
    assert check_collection(coll).passed
    return coll


def test_a_transient_is_never_taken_for_a_cell(monkeypatch):
    bounds = Bounds(1, 3, 1)
    rejected = _checked_ladder(monkeypatch, tuple_atoms(), bounds)
    assert ("boundary", f"NodeTerm(dim=1, gen={G!r}, labels=('x',))") in [
        (o.reason, o.sample[0]) for step in rejected for o in step
    ]
    state = free_owc(tuple_atoms(), bounds)
    rep = check_operad_laws(state.operad, bounds)
    assert rep.counts["associativity_configurations"] > 0
    assert rep.violations == reference_check_operad_laws(state.operad, bounds).violations
