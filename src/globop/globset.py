"""Finite graded cell tables with globular source/target maps."""

from __future__ import annotations

from dataclasses import dataclass, field

from .report import Report


@dataclass(frozen=True, eq=True)
class GlobularSet:
    """Cells per dimension plus total src/tgt tables for dimensions >= 1.

    ``src[k]`` and ``tgt[k]`` map k-cells to (k-1)-cells; index 0 is unused.
    Cell identifiers are opaque hashable values with a stable stored order.
    """

    cells: tuple[tuple, ...]
    src: tuple[dict, ...]
    tgt: tuple[dict, ...]

    def __post_init__(self):
        if not (len(self.cells) == len(self.src) == len(self.tgt)):
            raise ValueError("cells, src and tgt must cover the same dimensions")

    @property
    def max_dim(self) -> int:
        return len(self.cells) - 1

    def cells_at(self, k: int) -> tuple:
        if 0 <= k <= self.max_dim:
            return self.cells[k]
        return ()

    def src_of(self, k: int, c):
        return self.src[k][c]

    def tgt_of(self, k: int, c):
        return self.tgt[k][c]


def glob_set(cells_by_dim, src, tgt) -> GlobularSet:
    """Build a GlobularSet from per-dimension sequences and dict tables."""
    dims = len(cells_by_dim)
    return GlobularSet(
        tuple(tuple(layer) for layer in cells_by_dim),
        tuple(dict(src[k]) if k >= 1 else {} for k in range(dims)),
        tuple(dict(tgt[k]) if k >= 1 else {} for k in range(dims)),
    )


def parallel(a_set: GlobularSet, k: int, a, b) -> bool:
    """Whether the k-cells ``a`` and ``b`` are parallel: all 0-cells are,
    higher cells must share source and target.  The dimension is passed in
    because one identifier may name cells of several dimensions."""
    if k == 0:
        return True
    return a_set.src_of(k, a) == a_set.src_of(k, b) and a_set.tgt_of(k, a) == a_set.tgt_of(k, b)


def check_globularity(a_set: GlobularSet) -> Report:
    """Every cell of dimension >= 2 must satisfy ss = st and ts = tt; the
    tables must be total and land in the next dimension down.  ``counts``
    gives the cells looked at."""
    rep = Report("globularity")
    rep.counts["cells"] = sum(map(len, a_set.cells))
    for k in range(1, a_set.max_dim + 1):
        lower = set(a_set.cells_at(k - 1))
        for c in a_set.cells_at(k):
            for name, table in (("src", a_set.src[k]), ("tgt", a_set.tgt[k])):
                if c not in table:
                    rep.add(f"{name} undefined for a {k}-cell", witness=(k, c))
                elif table[c] not in lower:
                    rep.add(f"{name} of a {k}-cell is not a {k - 1}-cell", witness=(k, c))
    for k in range(2, a_set.max_dim + 1):
        for c in a_set.cells_at(k):
            try:
                s, t = a_set.src_of(k, c), a_set.tgt_of(k, c)
                ss, st = a_set.src_of(k - 1, s), a_set.src_of(k - 1, t)
                ts, tt = a_set.tgt_of(k - 1, s), a_set.tgt_of(k - 1, t)
            except KeyError:
                continue
            if ss != st:
                rep.add("src(src) differs from src(tgt)", witness=(k, c))
            if ts != tt:
                rep.add("tgt(src) differs from tgt(tgt)", witness=(k, c))
    return rep


@dataclass
class GlobMorphism:
    """Per-dimension cell maps; lives over whatever structures it relates."""

    maps: dict[int, dict] = field(default_factory=dict)

    def apply(self, k: int, c):
        return self.maps[k][c]


def check_glob_morphism(f: GlobMorphism, dom: GlobularSet, cod: GlobularSet) -> Report:
    rep = Report("glob-morphism")
    for k in range(dom.max_dim + 1):
        layer = f.maps.get(k, {})
        cod_cells = set(cod.cells_at(k))
        for c in dom.cells_at(k):
            if c not in layer:
                rep.add("morphism undefined on a cell", witness=(k, c))
                continue
            if layer[c] not in cod_cells:
                rep.add("morphism image is not a cell of the codomain", witness=(k, c))
                continue
            if k >= 1:
                if f.apply(k - 1, dom.src_of(k, c)) != cod.src_of(k, layer[c]):
                    rep.add("morphism does not commute with src", witness=(k, c))
                if f.apply(k - 1, dom.tgt_of(k, c)) != cod.tgt_of(k, layer[c]):
                    rep.add("morphism does not commute with tgt", witness=(k, c))
    return rep
