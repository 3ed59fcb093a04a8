"""Small shared helpers: canonical ordering and canonical JSON text."""

from __future__ import annotations

import json


class Keyed:
    """Base of the frozen slotted cell dataclasses.

    Two private slots hold an instance's hash and canonical key.  Each
    subclass's ``__post_init__`` stores the hash once, with the value the
    dataclass decorator's ``__hash__`` would give (the hash of the tuple of
    fields); ``canonical_key`` stores the key on first use.  Neither slot
    is a dataclass field, so both stay out of ``__init__``, ``__eq__``,
    ``repr`` and ``dataclasses.replace``.  A subclass sets
    ``__hash__ = Keyed.__hash__`` in its body, since the dataclass decorator
    would otherwise generate one that rehashes the fields.
    """

    __slots__ = ("_hash", "_key")

    def __hash__(self):
        return self._hash


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
