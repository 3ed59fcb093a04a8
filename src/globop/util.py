"""Small shared helpers: cell base classes, canonical ordering and canonical
JSON text."""

from __future__ import annotations

import json


class Keyed:
    """Base of the frozen slotted cell dataclasses.

    The ``_key`` slot holds an instance's canonical key, which
    ``canonical_key`` stores on first use.  It is not a dataclass field, so
    it stays out of ``__init__``, ``repr`` and ``dataclasses.replace``.

    ``PastingDiagram``, ``CellAddr``, ``UnitTerm``, ``NodeTerm`` and
    ``CtrCell`` are interned (hash-consed, after Filliâtre & Conchon,
    *Type-safe modular hash-consing*, 2006).  Their ``__new__`` looks the
    tuple of fields up in a per-class table and returns the stored instance
    on a hit, so two live equal cells are the same object.  Their ``__eq__``
    and ``__hash__`` are ``object``'s identity slots (``eq=False``), and
    checks on the fields run once, on a miss.  ``NodeTerm``'s table holds
    weak references (hence the ``__weakref__`` slot): grafting interns only
    the terms it keeps, but a strong table would keep every one alive.  The
    other four tables are plain dicts: their cells are few, and shapes,
    addresses and layers hold them anyway.  Identity never decides an
    order: sorting goes through ``canonical_key``.

    ``LabelledDiagram`` and ``PairCell`` stay structural: they compare field
    by field, and their hash is the dataclass's, computed only when asked
    for.  Most labellings are built for a single product and read only by
    position.

    ``_sort_key_`` defaults to the fields in order; only ``PastingDiagram``
    overrides it, to put its size first.
    """

    __slots__ = ("_key", "__weakref__")

    def _sort_key_(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, so a copy of an
        # interned cell is the cell itself: pass the fields, not the
        # diagram's size-first sort key
        return (type(self), Keyed._sort_key_(self))


def new_cell(cls, values: tuple):
    """A new instance of the frozen slotted dataclass ``cls`` with the
    fields ``values``, in field order; the interning ``__new__`` of ``cls``
    calls it on a miss."""
    cell = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(cell, name, value)
    return cell


def canonical_key(x):
    """Total deterministic sort key over the heterogeneous cell values we use.

    Handles bools, ints, strings, tuples and ``Keyed`` objects.  A ``Keyed``
    object's key is built from its ``_sort_key_()`` once and kept on it.
    ``_sort_key_`` returns raw fields, never keys: ``canonical_key`` walks
    the fields itself, so a nested key would be walked again at every level.

    The order is unchanged by that walk.  On its own outputs
    ``canonical_key`` preserves order: the leading tag decides between
    different kinds, and equal tags give payloads of the same kind, so
    sorting by the key of a key is sorting by the key.
    """
    if isinstance(x, Keyed):
        try:
            return x._key
        except AttributeError:
            key = (3, type(x).__name__, canonical_key(x._sort_key_()))
            object.__setattr__(x, "_key", key)
            return key
    if isinstance(x, bool):
        return (0, int(x))
    if isinstance(x, int):
        return (0, x)
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, tuple):
        return (2, tuple(canonical_key(v) for v in x))
    raise TypeError(f"no canonical order for {type(x).__name__}")


def canonical_json(data) -> str:
    """Stable single-line JSON used everywhere bytes must be reproducible."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
