"""The dimensionwise interleaving of free operad and free contraction steps.

A state is an operad structure up to dimension j and a contraction
structure up to dimension i on one collection, at the stage (i, j) with i
equal to j or j + 1: after the initial 0-dimensional operad step the ladder
alternates a contraction step (i, i) -> (i + 1, i) with an operad step
(i + 1, i) -> (i + 1, i + 1).  A contraction step only adds cells one
dimension above the operad structure, and an operad step only rebuilds the
dimension the contraction just filled, so each step leaves the other
structure's tables untouched; the steps assert this.

Applying the ladder to the empty collection yields the bounded truncation of
the initial operad-with-contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .collection import (
    Bounds,
    Collection,
    Overflow,
    check_collection,
    empty_collection,
    truncate,
)
from .contraction import (
    ContractionStructure,
    CtrCell,
    contraction_morphism_check,
    free_contraction_step,
)
from .globset import GlobMorphism, check_glob_morphism
from .operad import (
    NodeTerm,
    OperadStructure,
    UnitTerm,
    cell_products,
    free_operad_dim0,
    free_operad_step,
)
from .pasting import LabelledDiagram, all_cells
from .report import Report


@dataclass(frozen=True)
class Provenance:
    step: str
    stratum: int | None = None


@dataclass
class OwcState:
    """An operad structure up to j and a contraction up to i on one
    collection; the collection and the stage (i, j) are read off them."""

    operad: OperadStructure
    contraction: ContractionStructure
    bounds: Bounds
    provenance: dict
    overflows: tuple[Overflow, ...] = ()

    @property
    def collection(self) -> Collection:
        return self.operad.over

    @property
    def stage(self) -> tuple[int, int]:
        return (self.contraction.up_to_dim, self.operad.up_to_dim)


def _pad_collection(a: Collection, max_dim: int) -> Collection:
    if a.max_dim >= max_dim:
        return a
    extra = max_dim - a.max_dim
    return Collection(
        a.cells + ((),) * extra, a.src + ({},) * extra, a.tgt + ({},) * extra, a.arity + ({},) * extra
    )


def start_state(a: Collection, bounds: Bounds) -> OwcState:
    """Free 0-dimensional operad structure on a collection: stage (0, 0)."""
    rep = check_collection(a)
    if not rep.passed:
        raise ValueError(f"input is not a collection: {rep.violations[0].message}")
    padded = _pad_collection(a, bounds.max_dim)
    provenance = {
        (k, c): Provenance("input")
        for k in range(padded.max_dim + 1)
        for c in padded.cells_at(k)
    }
    res = free_operad_dim0(padded, bounds)
    for cell, stratum in res.strata.items():
        provenance[(0, cell)] = Provenance("operad-0", stratum)
    return OwcState(res.operad, ContractionStructure(0, {}), bounds, provenance, res.overflows)


def step_contraction(s: OwcState) -> OwcState:
    """The lifted free contraction step (k, k) -> (k + 1, k).  Asserts the
    layers of dimension <= k are unchanged: cells in order, src, tgt and
    arity.  The new operad keeps the old multiplications; each reads only
    the layers <= k of the collection it is called with, so the
    multiplication table stays bit-identical."""
    i, j = s.stage
    if i != j:
        raise ValueError(f"contraction step needs stage (k, k), got {s.stage}")
    res = free_contraction_step(s.collection, s.contraction, s.bounds)
    if truncate(res.collection, j) != truncate(s.collection, j):
        raise AssertionError("contraction step disturbed the operad multiplication")
    new_operad = OperadStructure(res.collection, s.operad.units, s.operad.mults)
    provenance = dict(s.provenance)
    for cell in res.new_cells:
        provenance[(j + 1, cell)] = Provenance(f"contraction-{j + 1}")
    return replace(s, operad=new_operad, contraction=res.contraction, provenance=provenance)


def step_operad(s: OwcState) -> OwcState:
    """The lifted free operad step (k + 1, k) -> (k + 1, k + 1).  Asserts the
    layers of dimension <= k are unchanged, as ``step_contraction`` does: the
    admissible triples of every dimension <= k + 1 read only those layers,
    so they are unchanged too.  Asserts every (k + 1)-contraction cell
    survives."""
    i, j = s.stage
    if i != j + 1:
        raise ValueError(f"operad step needs stage (k + 1, k), got {s.stage}")
    res = free_operad_step(s.operad, s.bounds)
    new_coll = res.operad.over
    if truncate(new_coll, j) != truncate(s.collection, j):
        raise AssertionError("operad step changed the admissible triples below it")
    for (a, b, theta), lift in s.contraction.gamma.items():
        if not new_coll.has_cell(theta.dim, lift):
            raise AssertionError("operad step removed a contraction cell")
    provenance = dict(s.provenance)
    for cell, stratum in res.strata.items():
        provenance.setdefault((res.new_dim, cell), Provenance(f"operad-{res.new_dim}", stratum))
    return replace(s, operad=res.operad, provenance=provenance, overflows=s.overflows + res.overflows)


def free_owc_trace(a: Collection, bounds: Bounds) -> list[tuple[str, OwcState]]:
    """The whole ladder, one labelled state per step."""
    state = start_state(a, bounds)
    trace = [("M0", state)]
    for k in range(bounds.max_dim):
        state = step_contraction(state)
        trace.append((f"H{k + 1}", state))
        state = step_operad(state)
        trace.append((f"M{k + 1}", state))
    return trace


def free_owc(a: Collection, bounds: Bounds) -> OwcState:
    """Free operad-with-contraction on a collection, truncated by the bounds."""
    return free_owc_trace(a, bounds)[-1][1]


def initial_owc(bounds: Bounds) -> OwcState:
    """The bounded truncation of the initial operad-with-contraction."""
    return free_owc(empty_collection(), bounds)


# ---------------------------------------------------------------------------
# the induced morphism out of an initial state


@dataclass
class InducedMorphismResult:
    morphism: GlobMorphism | None
    missing: list
    reports: list[Report]

    @property
    def receptive(self) -> bool:
        return not self.missing

    @property
    def passed(self) -> bool:
        return self.receptive and all(r.passed for r in self.reports)


def induced_morphism(s: OwcState, t: OwcState, seed: dict | None = None) -> InducedMorphismResult:
    """The structure-forced map from a freely built state into any other
    state over the same bounds: units to units, contraction cells through the
    codomain's gamma, grafted terms through the codomain's multiplication.
    Input cells need images supplied by ``seed``.

    A missing gamma or multiplication value in the codomain is reported as
    non-receptivity rather than raised.
    """
    maps: dict[int, dict] = {k: {} for k in range(s.collection.max_dim + 1)}
    missing: list = []

    def image(k, c):
        if c in maps[k]:
            return maps[k][c]
        val = None
        if isinstance(c, UnitTerm):
            val = t.operad.units.get(k)
            if val is None:
                missing.append(("unit", k, c))
        elif isinstance(c, CtrCell):
            ia, ib = image(k - 1, c.a), image(k - 1, c.b)
            if ia is not None and ib is not None:
                val = t.contraction.gamma.get((ia, ib, c.theta))
                if val is None:
                    missing.append(("gamma", k, c))
        elif isinstance(c, NodeTerm):
            shape = s.collection.arity_of(k, c.gen)
            ig = image(k, c.gen)
            images = [image(a.dim, lab) for a, lab in zip(all_cells(shape), c.labels)]
            if ig is not None and all(v is not None for v in images):
                val = t.operad.mult(k, ig, LabelledDiagram(shape, tuple(images)))
                if not t.collection.has_cell(k, val):
                    missing.append(("mult", k, c))
                    val = None
        else:
            if seed and (k, c) in seed:
                val = seed[(k, c)]
            else:
                missing.append(("seed", k, c))
        maps[k][c] = val
        return val

    for k in range(s.collection.max_dim + 1):
        for c in s.collection.cells_at(k):
            image(k, c)
    if missing:
        return InducedMorphismResult(None, missing, [])
    f = GlobMorphism({k: dict(m) for k, m in maps.items()})
    return InducedMorphismResult(f, [], morphism_reports(f, s, t, up_to=s.collection.max_dim))


def operad_morphism_check(
    f: GlobMorphism, s_op: OperadStructure, t_op: OperadStructure, bounds: Bounds, up_to: int
) -> Report:
    rep = Report("operad-morphism")
    dims = range(min(up_to, s_op.up_to_dim) + 1)
    for d in dims:
        if f.apply(d, s_op.units[d]) != t_op.units[d]:
            rep.add("unit not preserved", witness=d)
    for (d, a, labels), r in cell_products(s_op, bounds, dims=dims).items():
        shape = s_op.over.arity_of(d, a)
        mapped = LabelledDiagram(shape, tuple([f.apply(x.dim, lab) for x, lab in zip(all_cells(shape), labels)]))
        if t_op.mult(d, f.apply(d, a), mapped) != f.apply(d, r):
            rep.add("multiplication not preserved", witness=(d, a))
    return rep


def arity_morphism_check(f: GlobMorphism, s: Collection, t: Collection, up_to: int) -> Report:
    rep = Report("collection-morphism")
    rep.extend(check_glob_morphism(f, truncate(s, up_to), truncate(t, up_to)))
    for k in range(up_to + 1):
        for c in s.cells_at(k):
            try:
                if t.arity_of(k, f.apply(k, c)) != s.arity_of(k, c):
                    rep.add("arity not preserved", witness=(k, c))
            except KeyError:
                rep.add("image has no arity", witness=(k, c))
    return rep


def morphism_reports(f: GlobMorphism, s: OwcState, t: OwcState, up_to: int) -> list[Report]:
    """Collection, operad and contraction morphism checks within bounds, on
    the dimensions up to ``up_to``, the last one ``f`` is defined on."""
    return [
        arity_morphism_check(f, s.collection, t.collection, up_to),
        operad_morphism_check(f, s.operad, t.operad, s.bounds, up_to),
        contraction_morphism_check(f, s.collection, s.contraction, t.contraction, s.bounds, up_to),
    ]
