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
dimension, gluing labels along shared boundaries; ``emb_map`` records where
each cell of each label lands inside the composite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Mapping

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

    def _sort_key_(self):
        return (self.dim, self.path)


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


def is_valid_addr(pi: PastingDiagram, c: CellAddr) -> bool:
    return c in _addr_index(pi)


def _check_addr(pi: PastingDiagram, c: CellAddr) -> None:
    if not is_valid_addr(pi, c):
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

    def as_dict(self) -> dict[CellAddr, object]:
        return dict(zip(all_cells(self.shape), self.labels))

    def map_labels(self, fn) -> "LabelledDiagram":
        return LabelledDiagram(self.shape, tuple(fn(a, l) for a, l in zip(all_cells(self.shape), self.labels)))

    def _sort_key_(self):
        return (self.shape, self.labels)


def labelled(shape: PastingDiagram, mapping: Mapping[CellAddr, object]) -> LabelledDiagram:
    try:
        labels = tuple(mapping[a] for a in all_cells(shape))
    except KeyError as exc:
        raise ValueError(f"labelling is missing cell {exc.args[0]}") from exc
    return LabelledDiagram(shape, labels)


def boundary_restrict(ld: LabelledDiagram, side: int) -> LabelledDiagram:
    """Restrict a labelling along the source (0) or target (1) boundary."""
    incl = boundary_inclusion(ld.shape, side)
    b = boundary(ld.shape)
    return labelled(b, {a: ld.label_of(incl[a]) for a in all_cells(b)})


# ---------------------------------------------------------------------------
# substitution

# substitute() composes a diagram of diagrams.  The recursion generalises the
# two visible cases: at shift 0 the columns of the result are concatenated
# horizontally, at shift s >= 1 the per-column composites are glued along the
# shared boundary s levels down.


def _compose_at(u: PastingDiagram, v: PastingDiagram, s: int) -> PastingDiagram:
    if s == 0:
        return PastingDiagram(u.dim, u.children + v.children)
    if len(u.children) != len(v.children):
        raise ValueError("gluing mismatch: incompatible boundaries")
    return PastingDiagram(
        u.dim,
        tuple(_compose_at(a, b, s - 1) for a, b in zip(u.children, v.children)),
    )


def _column_labels(labels: dict[CellAddr, object], child: PastingDiagram, i: int):
    out = {}
    for inner in all_cells(child):
        out[inner] = labels[CellAddr(inner.dim + 1, (i,) + inner.path)]
    return out


def _gamma(e: PastingDiagram, labels: dict[CellAddr, PastingDiagram], s: int) -> PastingDiagram:
    if e.dim == 0:
        return labels[CellAddr(0, (0,))]
    if not e.children:
        return degenerate(labels[CellAddr(0, (0,))], e.dim)
    parts = [
        _gamma(child, _column_labels(labels, child, i), s + 1)
        for i, child in enumerate(e.children, start=1)
    ]
    acc = parts[0]
    for part in parts[1:]:
        acc = _compose_at(acc, part, s)
    return acc


def check_label_dims(ld: LabelledDiagram) -> None:
    for addr, lab in zip(all_cells(ld.shape), ld.labels):
        if not isinstance(lab, PastingDiagram) or lab.dim != addr.dim:
            raise ValueError(f"cell {addr} must carry a {addr.dim}-diagram label")


def check_label_boundaries(ld: LabelledDiagram) -> None:
    labels = ld.labels
    for p, s, t in cell_ends(ld.shape):
        b = boundary(labels[p])
        if labels[s] is not b or labels[t] is not b:
            side = "src" if labels[s] is not b else "tgt"
            addr = all_cells(ld.shape)[p]
            raise ValueError(f"label of {side} of {addr} differs from label boundary")


def substitute(ld: LabelledDiagram) -> PastingDiagram:
    """Compose a diagram whose cells are labelled by diagrams."""
    check_label_dims(ld)
    check_label_boundaries(ld)
    return _gamma(ld.shape, ld.as_dict(), 0)


def subst_arities(shape: PastingDiagram, arities: tuple) -> PastingDiagram:
    """``substitute`` applied to a labelling given as an aligned arity tuple."""
    return _substitute_cached(shape, arities)


@lru_cache(maxsize=None)
def _substitute_cached(shape: PastingDiagram, arities: tuple) -> PastingDiagram:
    return substitute(LabelledDiagram(shape, arities))


# --- the same recursion, tracking where each label cell lands ---------------


def _compose_at_emb(u, v, s):
    tree = _compose_at(u, v, s)
    inc_u: dict[CellAddr, CellAddr] = {}
    inc_v: dict[CellAddr, CellAddr] = {}
    if s == 0:
        m = len(u.children)
        for a in all_cells(u):
            inc_u[a] = a
        for a in all_cells(v):
            if a.dim == 0:
                inc_v[a] = CellAddr(0, (a.path[0] + m,))
            else:
                inc_v[a] = CellAddr(a.dim, (a.path[0] + m,) + a.path[1:])
    else:
        cols = [
            _compose_at_emb(a, b, s - 1) for a, b in zip(u.children, v.children)
        ]
        for p in range(len(tree.children) + 1):
            inc_u[CellAddr(0, (p,))] = CellAddr(0, (p,))
            inc_v[CellAddr(0, (p,))] = CellAddr(0, (p,))
        for i, (_, col_u, col_v) in enumerate(cols, start=1):
            for a, b in col_u.items():
                inc_u[CellAddr(a.dim + 1, (i,) + a.path)] = CellAddr(b.dim + 1, (i,) + b.path)
            for a, b in col_v.items():
                inc_v[CellAddr(a.dim + 1, (i,) + a.path)] = CellAddr(b.dim + 1, (i,) + b.path)
    return tree, inc_u, inc_v


def _iterated_boundary_inclusion(w: PastingDiagram, side: int, times: int):
    """Embedding of cells of the ``times``-fold boundary of ``w`` into ``w``."""
    mapping = {a: a for a in all_cells(w)}
    cur = w
    for _ in range(times):
        incl = boundary_inclusion(cur, side)
        mapping = {a: mapping[b] for a, b in incl.items()}
        cur = boundary(cur)
    return cur, mapping


def _gamma_emb(e: PastingDiagram, labels: dict[CellAddr, PastingDiagram], s: int):
    """Returns (composite, emb) with emb[(cell of e, cell of its label)] a cell
    of the composite."""
    if e.dim == 0:
        pt = CellAddr(0, (0,))
        tree = labels[pt]
        return tree, {(pt, x): x for x in all_cells(tree)}
    if not e.children:
        pt = CellAddr(0, (0,))
        alpha = labels[pt]
        tree = degenerate(alpha, e.dim)
        return tree, {(pt, x): x for x in all_cells(alpha)}

    parts = []
    for i, child in enumerate(e.children, start=1):
        sub_tree, sub_emb = _gamma_emb(child, _column_labels(labels, child, i), s + 1)
        parts.append((i, child, sub_tree, sub_emb))

    acc = parts[0][2]
    # inclusion of each part into the running composite
    incs: list[dict[CellAddr, CellAddr]] = [{a: a for a in all_cells(acc)}]
    for _, _, part_tree, _ in parts[1:]:
        acc, inc_old, inc_new = _compose_at_emb(acc, part_tree, s)
        incs = [{a: inc_old[b] for a, b in m.items()} for m in incs]
        incs.append(inc_new)

    emb: dict[tuple[CellAddr, CellAddr], CellAddr] = {}
    for (i, child, part_tree, sub_emb), inc in zip(parts, incs):
        for (cell_of_child, cell_of_label), target in sub_emb.items():
            outer = CellAddr(cell_of_child.dim + 1, (i,) + cell_of_child.path)
            emb[(outer, cell_of_label)] = inc[target]
    # 0-cells of e: their labels land on the glued boundaries of the parts
    m = len(e.children)
    for q in range(m + 1):
        pt = CellAddr(0, (q,))
        alpha = labels[pt]
        part_idx = 0 if q == 0 else q - 1
        side = 0 if q == 0 else 1
        part_tree = parts[part_idx][2]
        bnd, route = _iterated_boundary_inclusion(part_tree, side, e.dim)
        if bnd != alpha:
            raise ValueError("boundary of a column composite differs from the point label")
        inc = incs[part_idx]
        for x in all_cells(alpha):
            emb[(pt, x)] = inc[route[x]]
    return acc, emb


@lru_cache(maxsize=None)
def emb_map(shape: PastingDiagram, arities: tuple):
    """For each (cell c of shape, cell e of its arity label) the cell of the
    composite ``subst_arities(shape, arities)`` where e lands."""
    ld = LabelledDiagram(shape, arities)
    check_label_dims(ld)
    check_label_boundaries(ld)
    tree, emb = _gamma_emb(shape, ld.as_dict(), 0)
    assert tree == subst_arities(shape, arities)
    assert set(emb.values()) == set(all_cells(tree))
    return emb


def flatten(shape: PastingDiagram, inner: Mapping[CellAddr, LabelledDiagram]) -> LabelledDiagram:
    """Collapse a diagram whose cells carry labelled diagrams into a single
    labelled diagram over the composed shape.

    Labels pushed onto a glued cell from different sources must agree; this is
    asserted, since it is exactly the boundary-compatibility condition.
    """
    arities = tuple(inner[a].shape for a in all_cells(shape))
    composite = subst_arities(shape, arities)
    emb = emb_map(shape, arities)
    out: dict[CellAddr, object] = {}
    for (c, e), target in emb.items():
        lab = inner[c].label_of(e)
        if target in out and out[target] != lab:
            raise ValueError(f"incompatible labels glued at {target}")
        out[target] = lab
    return labelled(composite, out)


def _slice_positions(shape: PastingDiagram, arities: tuple) -> tuple[tuple[int, ...], ...]:
    """For each cell c of ``shape``, in ``all_cells`` order, the positions in
    the labels of ``subst_arities(shape, arities)`` where the cells of c's
    arity land."""
    emb = emb_map(shape, arities)
    index = _addr_index(subst_arities(shape, arities))
    return tuple(
        tuple(index[emb[(c, e)]] for e in all_cells(alpha))
        for c, alpha in zip(all_cells(shape), arities)
    )


@lru_cache(maxsize=None)
def slicers(shape: PastingDiagram, arities: tuple) -> tuple:
    """For each cell c of ``shape``, in ``all_cells`` order, a function that
    takes the labels of a labelling of ``subst_arities(shape, arities)`` to
    the tuple of labels over c's arity."""
    return tuple(
        itemgetter(*ps) if len(ps) > 1 else itemgetter(slice(ps[0], ps[0] + 1))
        for ps in _slice_positions(shape, arities)
    )


# ---------------------------------------------------------------------------
# enumeration


def _tree_key(t: PastingDiagram):
    return (size(t), canonical_json(tree_to_json(t)))


@lru_cache(maxsize=None)
def enumerate_trees(k: int, max_size: int) -> tuple[PastingDiagram, ...]:
    """All diagrams of dimension exactly k with at most ``max_size`` cells,
    canonically ordered."""
    if max_size < 1:
        return ()
    if k == 0:
        return (DOT,)
    found = []
    for m in range(0, (max_size - 1) // 2 + 1):
        for combo in _child_combos(k - 1, m, max_size - m - 1):
            found.append(PastingDiagram(k, combo))
    return tuple(sorted(found, key=_tree_key))


def _child_combos(k: int, n: int, budget: int) -> Iterable[tuple[PastingDiagram, ...]]:
    if n == 0:
        yield ()
        return
    for first in enumerate_trees(k, budget - (n - 1)):
        for rest in _child_combos(k, n - 1, budget - size(first)):
            yield (first,) + rest


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
    if not isinstance(data, list):
        raise ValueError("a pasting diagram is encoded as nested arrays")
    if dim == 0:
        if data:
            raise ValueError("a 0-diagram has no columns")
        return DOT
    return PastingDiagram(dim, tuple(tree_from_json(c, dim - 1) for c in data))
