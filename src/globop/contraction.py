"""Contraction structures and the dimensionwise free contraction step.

A contraction assigns, to every pair of parallel (k-1)-cells with a common
arity and every k-diagram bounding that arity, a lift cell whose arity is the
chosen diagram.  The free step adds one fresh cell per admissible triple; the
triple is its own lift, so the extended assignment is tautological.
"""

from __future__ import annotations

from dataclasses import dataclass

from .collection import Bounds, Collection, add_cells
from .globset import GlobMorphism, parallel
from .pasting import PastingDiagram, trees_with_boundary
from .report import Report
from .util import Keyed, canonical_key, new_cell


_ctr_cells: dict = {}


@dataclass(frozen=True, slots=True, eq=False, init=False)
class CtrCell(Keyed):
    """A freely added contraction cell: source, target and chosen arity.

    Interned (see ``util.Keyed``).
    """

    a: object
    b: object
    theta: PastingDiagram

    def __new__(cls, a, b, theta: PastingDiagram):
        key = (a, b, theta)
        try:
            return _ctr_cells[key]
        except KeyError:
            pass
        if theta.dim < 1:
            raise ValueError("a contraction cell lives one dimension above its ends")
        self = _ctr_cells[key] = new_cell(cls, key)
        return self


@dataclass
class ContractionStructure:
    """gamma maps the admissible triples (a, b, theta) of a collection, at
    dimensions <= up_to_dim, to their lift cells."""

    up_to_dim: int
    gamma: dict[tuple[object, object, PastingDiagram], object]


def admissible_triples(coll: Collection, k: int, bounds: Bounds) -> list[tuple]:
    """All (a, b, theta) requiring a contraction k-cell: a, b parallel
    (k-1)-cells with equal arity, theta a k-diagram bounding that arity with
    size within the bound.  Depends only on the cells below dimension k."""
    if k < 1:
        raise ValueError("contraction cells start at dimension 1")
    out = []
    lower = coll.cells_at(k - 1)
    for a in lower:
        for b in lower:
            if k - 1 >= 1 and not parallel(coll, k - 1, a, b):
                continue
            ar = coll.arity_of(k - 1, a)
            if ar != coll.arity_of(k - 1, b):
                continue
            for theta in trees_with_boundary(ar, bounds.max_arity_size):
                out.append((a, b, theta))
    return out


@dataclass
class FreeContractionResult:
    collection: Collection
    contraction: ContractionStructure
    new_cells: tuple


def free_contraction_step(
    coll: Collection, ctr: ContractionStructure, bounds: Bounds
) -> FreeContractionResult:
    """Extend a contraction up to dimension k to one up to k+1 by adjoining a
    fresh cell for every admissible triple.  Only (k+1)-cells are added."""
    k = ctr.up_to_dim
    d = k + 1
    if d > bounds.max_dim or d > coll.max_dim:
        raise ValueError(f"dimension {d} is outside the bounds")
    triples = admissible_triples(coll, d, bounds)
    new_cells = []
    gamma = dict(ctr.gamma)
    existing = set(coll.cells_at(d))
    for a, b, theta in triples:
        cell = CtrCell(a, b, theta)
        if cell in existing:
            raise ValueError(f"freshly minted contraction cell {cell!r} already present")
        new_cells.append(cell)
        gamma[(a, b, theta)] = cell
    new_cells = sorted(new_cells, key=canonical_key)
    new_coll = add_cells(
        coll,
        d,
        new_cells,
        {c: c.a for c in new_cells},
        {c: c.b for c in new_cells},
        {c: c.theta for c in new_cells},
    )
    return FreeContractionResult(
        collection=new_coll,
        contraction=ContractionStructure(d, gamma),
        new_cells=tuple(new_cells),
    )


def check_contraction(coll: Collection, s: ContractionStructure, bounds: Bounds) -> Report:
    """gamma must be total on the admissible triples within bounds and every
    lift must have the stated arity, source and target.  ``counts`` gives
    the triples checked per dimension and in all, which is 0 if none was."""
    rep = Report("contraction-laws")
    for k in range(1, s.up_to_dim + 1):
        triples = admissible_triples(coll, k, bounds)
        rep.counts[f"admissible_triples_dim_{k}"] = len(triples)
        for a, b, theta in triples:
            lift = s.gamma.get((a, b, theta))
            if lift is None:
                rep.add("gamma undefined on an admissible triple", witness=(k, a, b, theta))
                continue
            if not coll.has_cell(k, lift):
                rep.add("gamma lands outside the collection", witness=(k, a, b, theta))
                continue
            if coll.arity_of(k, lift) != theta:
                rep.add("arity of the lift differs from theta", witness=(k, a, b, theta))
            if coll.src_of(k, lift) != a:
                rep.add("src of the lift is not a", witness=(k, a, b, theta))
            if coll.tgt_of(k, lift) != b:
                rep.add("tgt of the lift is not b", witness=(k, a, b, theta))
    rep.counts["admissible_triples"] = sum(rep.counts.values())
    return rep


def contraction_morphism_check(
    f: GlobMorphism, coll: Collection, s: ContractionStructure, s2: ContractionStructure, bounds: Bounds, up_to: int
) -> Report:
    """Verify f(gamma(a, b, theta)) == gamma'(fa, fb, theta) on all admissible
    triples of the domain ``coll`` within bounds, of dimension up to ``up_to``."""
    rep = Report("contraction-morphism")
    for k in range(1, min(up_to, s.up_to_dim, s2.up_to_dim) + 1):
        for a, b, theta in admissible_triples(coll, k, bounds):
            lift = s.gamma.get((a, b, theta))
            if lift is None:
                rep.add("domain gamma undefined", witness=(k, a, b, theta))
                continue
            image = (f.apply(k - 1, a), f.apply(k - 1, b), theta)
            expected = s2.gamma.get(image)
            if expected is None:
                rep.add("codomain gamma undefined on the image triple", witness=(k, a, b, theta))
                continue
            if f.apply(k, lift) != expected:
                rep.add("contraction cell not preserved", witness=(k, a, b, theta))
    return rep


def terminal_contraction(coll: Collection, up_to: int, bounds: Bounds) -> ContractionStructure:
    """On the diagram collection every theta is its own lift."""
    gamma = {}
    for k in range(1, up_to + 1):
        for a, b, theta in admissible_triples(coll, k, bounds):
            gamma[(a, b, theta)] = theta
    return ContractionStructure(up_to, gamma)
