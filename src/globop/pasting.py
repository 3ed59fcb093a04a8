"""Globular pasting diagrams as rooted plane trees.

A diagram of dimension k is a tree whose root has an ordered list of
children, each a diagram of dimension k-1.  The children of a k-diagram are
its columns read left to right; a childless diagram of positive dimension is
degenerate (it has no top-dimensional cells).  The unique 0-dimensional
diagram is the atom ``DOT``.

Cells of a diagram are addressed by paths: a 0-cell of a diagram with m
columns is one of the m+1 boundary points, and a j-cell (j >= 1) is a column
index together with a (j-1)-cell address inside that column.  Substitution
composes a diagram whose every cell is labelled by a diagram of the same
dimension, gluing labels along shared boundaries; ``emb_map`` gives, for each
cell, the positions in the composite where the cells of its label land.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Mapping

from .util import Keyed, canonical_json, new_cell


_diagrams: dict = {}
_addrs: dict = {}


@dataclass(frozen=True, slots=True, eq=False, init=False)
class PastingDiagram(Keyed):
    """Interned: see ``util.Keyed``."""

    dim: int
    children: tuple["PastingDiagram", ...] = ()

    def __new__(cls, dim: int, children: tuple = ()):
        key = (dim, children)
        try:
            return _diagrams[key]
        except KeyError:
            pass
        if dim < 0:
            raise ValueError("dimension must be non-negative")
        if dim == 0 and children:
            raise ValueError("the 0-dimensional diagram has no columns")
        for child in children:
            if child.dim != dim - 1:
                raise ValueError(
                    f"column of a {dim}-diagram must have dimension {dim - 1}"
                )
        self = _diagrams[key] = new_cell(cls, key)
        return self

    def _sort_key_(self):
        return (size(self), self.dim, self.children)

    def __repr__(self):
        return f"PD({self.dim}, {tree_to_json(self)})"


DOT = PastingDiagram(0, ())


@dataclass(frozen=True, slots=True, eq=False, init=False)
class CellAddr(Keyed):
    """Address of a cell inside an ambient diagram; interned.

    ``path`` has length ``dim + 1``: the first ``dim`` entries are 1-based
    column indices, the last is a 0-based boundary-point index.
    """

    dim: int
    path: tuple[int, ...]

    def __new__(cls, dim: int, path: tuple):
        key = (dim, path)
        try:
            return _addrs[key]
        except KeyError:
            pass
        if len(path) != dim + 1:
            raise ValueError("path length must be dim + 1")
        self = _addrs[key] = new_cell(cls, key)
        return self


# ---------------------------------------------------------------------------
# basic tree operations


@lru_cache(maxsize=None)
def unit_tree(k: int) -> PastingDiagram:
    """The k-diagram with a single cell in every dimension up to k."""
    if k == 0:
        return DOT
    return PastingDiagram(k, (unit_tree(k - 1),))


def chain(m: int) -> PastingDiagram:
    """The 1-diagram made of m composable arrows (m = 0 is degenerate)."""
    return PastingDiagram(1, (DOT,) * m)


def boundary(pi: PastingDiagram) -> PastingDiagram:
    """Source (equivalently target) of ``pi`` as a shape, one dimension down."""
    if pi.dim < 1:
        raise ValueError("the 0-dimensional diagram has no boundary")
    if pi.dim == 1:
        return DOT
    return PastingDiagram(pi.dim - 1, tuple(boundary(c) for c in pi.children))


@lru_cache(maxsize=None)
def size(pi: PastingDiagram) -> int:
    """Total number of cells of ``pi`` over all dimensions."""
    return len(pi.children) + 1 + sum(size(c) for c in pi.children)


def inner_size(pi: PastingDiagram) -> int:
    """``|pi| - 2|∂pi| + 2|∂²pi| - …``, signs alternating down to dimension 0.

    For a globular labelling ``A`` of ``shape`` (a cell's src and tgt carry
    the boundary of its label), ``size(subst_arities(shape, A)) ==
    Σ inner_size(A_x)`` over the cells x of ``shape``: a label's cells off
    its boundary are new in the composite, the rest are glued onto lower
    labels, and a degenerate label glues its src onto its tgt.  Off that
    precondition the sum means nothing.
    """
    n, sign = size(pi), -2
    while pi.dim:
        pi = boundary(pi)
        n += sign * size(pi)
        sign = -sign
    return n


@lru_cache(maxsize=None)
def cells(pi: PastingDiagram, j: int) -> tuple[CellAddr, ...]:
    """All j-cell addresses of ``pi`` in lexicographic path order."""
    if j > pi.dim:
        raise ValueError(f"no {j}-cells in a {pi.dim}-diagram")
    if j == 0:
        return tuple(CellAddr(0, (p,)) for p in range(len(pi.children) + 1))
    out = []
    for i, child in enumerate(pi.children, start=1):
        for inner in cells(child, j - 1):
            out.append(CellAddr(j, (i,) + inner.path))
    return tuple(out)


@lru_cache(maxsize=None)
def all_cells(pi: PastingDiagram) -> tuple[CellAddr, ...]:
    """All cell addresses, dimensions ascending, lexicographic within each."""
    out: list[CellAddr] = []
    for j in range(pi.dim + 1):
        out.extend(cells(pi, j))
    return tuple(out)


@lru_cache(maxsize=None)
def _addr_index(pi: PastingDiagram) -> dict[CellAddr, int]:
    return {addr: i for i, addr in enumerate(all_cells(pi))}


@lru_cache(maxsize=None)
def cell_ends(pi: PastingDiagram) -> tuple[tuple[int, int, int], ...]:
    """``(p, s, t)`` for each cell of positive dimension: its position in
    ``all_cells(pi)`` and the positions of its source and target."""
    index = _addr_index(pi)
    return tuple(
        (p, index[cell_src(pi, c)], index[cell_tgt(pi, c)])
        for p, c in enumerate(all_cells(pi))
        if c.dim >= 1
    )


def _check_addr(pi: PastingDiagram, c: CellAddr) -> None:
    if c not in _addr_index(pi):
        raise ValueError(f"address {c} is not a cell of {pi!r}")


def cell_src(pi: PastingDiagram, c: CellAddr) -> CellAddr:
    """Source (j-1)-cell of the j-cell ``c`` inside ``pi``."""
    _check_addr(pi, c)
    if c.dim < 1:
        raise ValueError("0-cells have no source")
    return _cell_side(pi, c, 0)


def cell_tgt(pi: PastingDiagram, c: CellAddr) -> CellAddr:
    _check_addr(pi, c)
    if c.dim < 1:
        raise ValueError("0-cells have no target")
    return _cell_side(pi, c, 1)


def _cell_side(pi: PastingDiagram, c: CellAddr, side: int) -> CellAddr:
    i = c.path[0]
    if c.dim == 1:
        return CellAddr(0, (i - 1 + side,))
    inner = _cell_side(pi.children[i - 1], CellAddr(c.dim - 1, c.path[1:]), side)
    return CellAddr(c.dim - 1, (i,) + inner.path)


@lru_cache(maxsize=None)
def boundary_inclusion(pi: PastingDiagram, side: int) -> dict[CellAddr, CellAddr]:
    """Embedding of the cells of ``boundary(pi)`` into the cells of ``pi``.

    ``side`` 0 picks the source copy of the boundary, 1 the target copy.
    """
    if pi.dim < 1:
        raise ValueError("no boundary inclusion at dimension 0")
    if pi.dim == 1:
        p = 0 if side == 0 else len(pi.children)
        return {CellAddr(0, (0,)): CellAddr(0, (p,))}
    out: dict[CellAddr, CellAddr] = {}
    b = boundary(pi)
    for p in range(len(pi.children) + 1):
        out[CellAddr(0, (p,))] = CellAddr(0, (p,))
    for i, child in enumerate(pi.children, start=1):
        inner = boundary_inclusion(child, side)
        for src_addr, dst_addr in inner.items():
            out[CellAddr(src_addr.dim + 1, (i,) + src_addr.path)] = CellAddr(
                dst_addr.dim + 1, (i,) + dst_addr.path
            )
    assert set(out) == set(all_cells(b))
    return out


def degenerate(alpha: PastingDiagram, extra: int) -> PastingDiagram:
    """``alpha`` viewed as a diagram of dimension ``alpha.dim + extra`` with no
    cells above its own dimension."""
    if extra == 0:
        return alpha
    if alpha.dim == 0:
        return PastingDiagram(extra, ())
    return PastingDiagram(
        alpha.dim + extra, tuple(degenerate(c, extra) for c in alpha.children)
    )


# ---------------------------------------------------------------------------
# labelled diagrams

# Labels are stored as a tuple aligned with all_cells(shape), so labelled
# diagrams are hashable and their serialisation order is canonical.


@dataclass(frozen=True, slots=True)
class LabelledDiagram(Keyed):
    shape: PastingDiagram
    labels: tuple

    def __post_init__(self):
        if len(self.labels) != len(all_cells(self.shape)):
            raise ValueError("labelling must cover every cell of the shape")

    def label_of(self, addr: CellAddr):
        return self.labels[_addr_index(self.shape)[addr]]


def labelled(shape: PastingDiagram, mapping: Mapping[CellAddr, object]) -> LabelledDiagram:
    try:
        labels = tuple(mapping[a] for a in all_cells(shape))
    except KeyError as exc:
        raise ValueError(f"labelling is missing cell {exc.args[0]}") from exc
    return LabelledDiagram(shape, labels)


@lru_cache(maxsize=None)
def boundary_slicer(pi: PastingDiagram, side: int):
    """The function taking the labels of a labelling of ``pi`` to the labels
    of its restriction along the source (0) or target (1) boundary."""
    index = _addr_index(pi)
    incl = boundary_inclusion(pi, side)
    return _getter([index[incl[a]] for a in all_cells(boundary(pi))])


def boundary_restrict(ld: LabelledDiagram, side: int) -> LabelledDiagram:
    """Restrict a labelling along the source (0) or target (1) boundary."""
    return LabelledDiagram(boundary(ld.shape), boundary_slicer(ld.shape, side)(ld.labels))


# ---------------------------------------------------------------------------
# substitution

# substitute() composes a diagram of diagrams.  A k-diagram labelled at shift
# s has its j-cells labelled by (j+s)-diagrams.  The columns of the shape
# compose to parts that share their boundary s levels down, and gluing them
# concatenates the children of their depth-s nodes.  So a cell of a part moves
# only at index s of its path, by the children that the earlier parts have
# under the same depth-s node; a point label's top cells land at that same
# running offset, and its lower cells where they are.


@lru_cache(maxsize=None)
def _paths(pi: PastingDiagram) -> tuple[tuple[int, ...], ...]:
    return tuple(a.path for a in all_cells(pi))


def _getter(ps):
    """The function taking a tuple to the tuple of its items at ``ps``."""
    return itemgetter(*ps) if len(ps) > 1 else itemgetter(slice(ps[0], ps[0] + 1))


@lru_cache(maxsize=None)
def _columns(e: PastingDiagram) -> tuple:
    """For each column of ``e``: the column, the positions in ``all_cells(e)``
    of its cells, and a getter of the labels at those positions."""
    positions = [[] for _ in e.children]
    p = len(e.children) + 1  # the points of e come first
    for j in range(e.dim):
        for ps, child in zip(positions, e.children):
            n = len(cells(child, j))
            ps.extend(range(p, p + n))
            p += n
    return tuple((child, tuple(ps), _getter(ps)) for child, ps in zip(e.children, positions))


def _glue(parts: list, s: int, prefix: tuple, offsets: list) -> PastingDiagram:
    """Glue ``parts`` along their shared boundary ``s`` levels down; record in
    ``offsets[q][x]`` (q >= 1) how many children the first q parts have under
    the depth-s node at path prefix x."""
    if s == 0:
        run = 0
        for off, part in zip(offsets[1:], parts):
            run += len(part.children)
            off[prefix] = run
        return PastingDiagram(parts[0].dim, sum((p.children for p in parts), ()))
    columns = zip(*(p.children for p in parts), strict=True)
    return PastingDiagram(
        parts[0].dim,
        tuple(_glue(cs, s - 1, prefix + (i,), offsets) for i, cs in enumerate(columns, start=1)),
    )


def _shift(paths, s: int, off):
    """``paths`` moved by ``off`` at index s; ``None`` is no move."""
    if off is None:
        return paths
    return [x if len(x) <= s else (y := x[:s]) + (x[s] + off[y],) + x[s + 1 :] for x in paths]


def _compose(e: PastingDiagram, labels: tuple, s: int):
    """The composite of ``e`` labelled at shift ``s`` (``labels`` aligned with
    ``all_cells(e)``), and a function giving, for each cell of ``e``, the
    paths in the composite where the cells of its label land.  Most callers
    want only the composite, so the paths are moved only when asked for."""
    if not e.children:
        alpha = labels[0]
        return degenerate(alpha, e.dim), lambda: (_paths(alpha),)
    parts = [(ps, *_compose(child, take(labels), s + 1)) for child, ps, take in _columns(e)]
    offsets = [None] + [{} for _ in parts]
    composite = _glue([part for _, part, _ in parts], s, (), offsets)

    def lands():
        out = [None] * len(labels)
        for q, off in enumerate(offsets):
            out[q] = _shift(_paths(labels[q]), s, off)
        for off, (ps, _, sub) in zip(offsets, parts):
            for p, paths in zip(ps, sub()):
                out[p] = _shift(paths, s, off)
        return out

    return composite, lands


def _checked_compose(shape: PastingDiagram, arities: tuple):
    addrs = all_cells(shape)
    if len(arities) != len(addrs):
        raise ValueError("labelling must cover every cell of the shape")
    for addr, lab in zip(addrs, arities):
        if not isinstance(lab, PastingDiagram) or lab.dim != addr.dim:
            raise ValueError(f"cell {addr} must carry a {addr.dim}-diagram label")
    for p, s, t in cell_ends(shape):
        b = boundary(arities[p])
        if arities[s] is not b or arities[t] is not b:
            side = "src" if arities[s] is not b else "tgt"
            raise ValueError(f"label of {side} of {addrs[p]} differs from label boundary")
    return _compose(shape, arities, 0)


def substitute(ld: LabelledDiagram) -> PastingDiagram:
    """Compose a diagram whose cells are labelled by diagrams."""
    return _substitute_cached(ld.shape, ld.labels)


def subst_arities(shape: PastingDiagram, arities: tuple) -> PastingDiagram:
    """``substitute`` applied to a labelling given as an aligned arity tuple."""
    return _substitute_cached(shape, arities)


@lru_cache(maxsize=None)
def _substitute_cached(shape: PastingDiagram, arities: tuple) -> PastingDiagram:
    return _checked_compose(shape, arities)[0]


@lru_cache(maxsize=None)
def emb_map(shape: PastingDiagram, arities: tuple) -> tuple[tuple[int, ...], ...]:
    """For each cell c of ``shape``, in ``all_cells`` order, the positions in
    ``all_cells(subst_arities(shape, arities))`` where the cells of c's arity
    land, in ``all_cells`` order of the arity."""
    composite, lands = _checked_compose(shape, arities)
    index = {path: i for i, path in enumerate(_paths(composite))}
    out = tuple(tuple(index[x] for x in paths) for paths in lands())
    assert len({p for ps in out for p in ps}) == len(index)
    return out


@lru_cache(maxsize=None)
def slicers(shape: PastingDiagram, arities: tuple) -> tuple:
    """For each cell c of ``shape``, in ``all_cells`` order, a function that
    takes the labels of a labelling of ``subst_arities(shape, arities)`` to
    the tuple of labels over c's arity."""
    return tuple(_getter(ps) for ps in emb_map(shape, arities))


# ---------------------------------------------------------------------------
# enumeration


def _tree_key(t: PastingDiagram):
    return (size(t), canonical_json(tree_to_json(t)))


@lru_cache(maxsize=None)
def enumerate_trees(k: int, max_size: int) -> tuple[PastingDiagram, ...]:
    """All diagrams of dimension exactly k with at most ``max_size`` cells,
    canonically ordered.  A diagram is no smaller than its boundary, so each
    dimension's diagrams are the lifts of the one below; a loop, not a
    recursion, so that k is not bounded by the stack."""
    if max_size < 1:
        return ()
    layer = (DOT,)
    for _ in range(k):
        layer = tuple(t for beta in layer for t in trees_with_boundary(beta, max_size))
    return tuple(sorted(layer, key=_tree_key))


@lru_cache(maxsize=None)
def trees_with_boundary(beta: PastingDiagram, max_size: int) -> tuple[PastingDiagram, ...]:
    """All (beta.dim + 1)-diagrams theta with boundary(theta) == beta and
    size(theta) <= max_size."""
    if beta.dim == 0:
        return tuple(
            chain(m) for m in range(0, (max_size - 1) // 2 + 1) if 2 * m + 1 <= max_size
        )
    m = len(beta.children)
    out = []
    for combo in _boundary_combos(beta.children, max_size - m - 1):
        out.append(PastingDiagram(beta.dim + 1, combo))
    return tuple(sorted(out, key=_tree_key))


def _boundary_combos(betas: tuple[PastingDiagram, ...], budget: int):
    if not betas:
        yield ()
        return
    min_rest = sum(size(b) for b in betas[1:])  # a lift is at least as big as its boundary
    for first in trees_with_boundary(betas[0], budget - min_rest):
        for rest in _boundary_combos(betas[1:], budget - size(first)):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# JSON


def tree_to_json(pi: PastingDiagram) -> list:
    return [tree_to_json(c) for c in pi.children]


def tree_from_json(data, dim: int) -> PastingDiagram:
    # a diagram with top cells nests ``dim`` lists deep, and JSON is parsed
    # no deeper than the recursion limit; loops over the dimensions of a
    # degenerate diagram of a higher one would not end in reasonable time
    if type(dim) is not int or not 0 <= dim <= sys.getrecursionlimit():
        raise ValueError(f"dimension {dim!r} is not an int from 0 to the recursion limit")
    if not isinstance(data, list):
        raise ValueError("a pasting diagram is encoded as nested arrays")
    if dim == 0:
        if data:
            raise ValueError("a 0-diagram has no columns")
        return DOT
    return PastingDiagram(dim, tuple(tree_from_json(c, dim - 1) for c in data))
