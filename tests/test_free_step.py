"""The free operad step's candidate loop against the one it replaced.

``_free_at`` used to build every candidate as a ``NodeTerm`` (``make_node``)
and then reject it by ``term_size``, ``cell_arity`` and the boundary
evaluated by ``term_src``/``term_tgt``.  ``reference_free_at`` below is a
verbatim copy of that loop, with the ``is_term`` it called (only the name
is prefixed and the imports hoisted); the ``enumerate_labellings`` it calls
tabulates the loop's candidates and their src and tgt as the globular set
the enumerator now reads, and wraps each label tuple it returns in a
``LabelledDiagram``, as the loop read them; ``reference`` hands it the
collection as a ``_Carried``, which answers the ``carrier`` it reads.  The
tests run both at every operad step of a ladder, or of the free operad
steps alone, and check that the new layer, its order, the strata, the
src/tgt/arity tables, the stabilization depth and the overflow records
(reason, count and samples) are the same.
"""

import sys
from dataclasses import replace
from operator import itemgetter

import pytest

from globop import collection, interleave, operad
from globop.collection import (
    Bounds,
    Collection,
    Overflow,
    add_cells,
    empty_collection,
    make_collection,
    one_cell_collection,
    unit_collection,
)
from globop.globset import GlobularSet
from globop.interleave import free_owc, initial_owc
from globop.operad import (
    FreeOperadResult,
    NodeTerm,
    OperadStructure,
    UnitTerm,
    _free_at,
    cell_arity,
    extend_operad,
    free_operad_step,
    term_size,
)
from globop.pasting import DOT, LabelledDiagram, all_cells, cells, chain, degenerate, size, unit_tree
from globop.util import canonical_key

from test_operad import make_node, self_loop_operad, term_src, term_tgt


# --- reference: the candidate loop before the rewrite, verbatim ---------------


def enumerate_labellings(shape, candidates, src_of, tgt_of, overrides=None) -> list[LabelledDiagram]:
    """``collection.enumerate_labellings`` as the reference loop read it:
    the candidates of each dimension up to the shape's, with their src and
    tgt tabulated, as the globular set the enumerator reads, and each label
    tuple wrapped in a ``LabelledDiagram``."""
    layers = [tuple(candidates(j)) for j in range(shape.dim + 1)]
    src, tgt = (
        tuple({lab: end(j, lab) for lab in layer} if j else {} for j, layer in enumerate(layers))
        for end in (src_of, tgt_of)
    )
    found = collection.enumerate_labellings(shape, GlobularSet(tuple(layers), src, tgt), overrides)
    return [LabelledDiagram(shape, labels) for labels in found]


def is_term(c) -> bool:
    return isinstance(c, (UnitTerm, NodeTerm))


def reference_free_at(coll: Collection, lower: OperadStructure | None, d: int, bounds: Bounds) -> FreeOperadResult:
    if d > coll.max_dim:
        raise ValueError("collection has no layer at the requested dimension")
    bounds.check_unit(d)
    ctx = extend_operad(lower, coll, d)
    gens = list(coll.cells_at(d))
    unit = UnitTerm(d)

    nsrc: dict = {}
    ntgt: dict = {}
    narity: dict = {unit: unit_tree(d)}
    tsize: dict = {unit: 0}
    for g in gens:
        tsize[g] = 1
    if d >= 1:
        nsrc[unit] = ctx.units[d - 1]
        ntgt[unit] = ctx.units[d - 1]
    lower_cells = set(coll.cells_at(d - 1)) if d >= 1 else set()

    def fits(terms):
        # a node is at least one bigger than any of its top labels
        return [t for t in terms if tsize[t] <= bounds.max_term_size - 1]

    def candidates(j):
        if j == d:
            return fits(current)
        return coll.cells_at(j)

    def src_of(j, lab):
        return nsrc[lab] if j == d and is_term(lab) else coll.src_of(j, lab)

    def tgt_of(j, lab):
        return ntgt[lab] if j == d and is_term(lab) else coll.tgt_of(j, lab)

    strata: dict = {}
    # per reason, the number of rejected candidates and the first three,
    # which are all the state records of them
    rejected = dict.fromkeys(("term", "arity", "boundary"), 0)
    samples: dict[str, list] = {reason: [] for reason in rejected}

    def reject(reason, cell):
        rejected[reason] += 1
        if len(samples[reason]) < 3:
            samples[reason].append(cell)

    old: list = []
    current: list = [unit]
    frontier: list = [unit]
    depth = 0
    n = 0
    while frontier:
        n += 1
        additions = []
        for g in gens:
            shape = coll.arity_of(d, g)
            tops = cells(shape, d)
            labellings: list[LabelledDiagram] = []
            if not tops:
                if n == 1:
                    labellings = enumerate_labellings(shape, candidates, src_of, tgt_of)
            else:
                for pos in range(len(tops)):
                    overrides = {tops[i]: fits(old) for i in range(pos)}
                    overrides[tops[pos]] = fits(frontier)
                    labellings.extend(
                        enumerate_labellings(shape, candidates, src_of, tgt_of, overrides)
                    )
            for phi in labellings:
                cell = make_node(ctx, d, g, phi)
                if not isinstance(cell, NodeTerm) or cell in strata:
                    continue
                ts = term_size(ctx, d, cell)
                if ts > bounds.max_term_size:
                    reject("term", cell)
                    continue
                ar = cell_arity(ctx, d, cell)
                if size(ar) > bounds.max_arity_size:
                    reject("arity", cell)
                    continue
                if d >= 1:
                    s = term_src(ctx, d, cell)
                    t = term_tgt(ctx, d, cell)
                    if s not in lower_cells or t not in lower_cells:
                        reject("boundary", cell)
                        continue
                    nsrc[cell], ntgt[cell] = s, t
                narity[cell] = ar
                tsize[cell] = ts
                strata[cell] = n
                additions.append(cell)
        additions.sort(key=canonical_key)
        if additions or (n == 1 and gens):
            depth = n
        if n == 1:
            frontier = gens + additions
        else:
            frontier = additions
        old = current
        current = current + frontier

    nodes = sorted((c for c in strata), key=canonical_key)
    new_layer = tuple(gens) + (unit,) + tuple(nodes)
    cells_by_dim = [
        new_layer if k == d else coll.cells_at(k) for k in range(coll.max_dim + 1)
    ]
    src = [dict(coll.carrier.src[k]) for k in range(coll.max_dim + 1)]
    tgt = [dict(coll.carrier.tgt[k]) for k in range(coll.max_dim + 1)]
    arity = [dict(coll.arity[k]) for k in range(coll.max_dim + 1)]
    if d >= 1:
        src[d].update({c: nsrc[c] for c in (unit, *nodes)})
        tgt[d].update({c: ntgt[c] for c in (unit, *nodes)})
    arity[d].update({c: narity[c] for c in (unit, *nodes)})
    new_coll = make_collection(cells_by_dim, src, tgt, arity)

    overflows = tuple(
        Overflow(
            step=f"operad-{d}",
            dim=d,
            reason=reason,
            count=count,
            sample=tuple(repr(c) for c in samples[reason]),
        )
        for reason, count in rejected.items()
        if count
    )
    strata[unit] = 0
    return FreeOperadResult(
        operad=extend_operad(lower, new_coll, d),
        new_dim=d,
        stabilization_depth=depth,
        overflows=overflows,
        strata=strata,
    )


# --- comparison ----------------------------------------------------------------


class _Carried(Collection):
    """A collection that answers ``carrier`` with itself: ``reference_free_at``
    reads src and tgt through it, as it did when a collection wrapped its
    globular set in that field."""

    @property
    def carrier(self):
        return self


def reference(coll: Collection, lower: OperadStructure | None, d: int, bounds: Bounds) -> FreeOperadResult:
    return reference_free_at(_Carried(coll.cells, coll.src, coll.tgt, coll.arity), lower, d, bounds)


def _assert_same_step(new: FreeOperadResult, old: FreeOperadResult) -> None:
    d = old.new_dim
    assert new.new_dim == d
    a, b = new.operad.over, old.operad.over
    assert a.cells_at(d) == b.cells_at(d)
    assert list(new.strata.items()) == list(old.strata.items())
    for table_a, table_b in ((a.src, b.src), (a.tgt, b.tgt), (a.arity, b.arity)):
        assert list(table_a[d].items()) == list(table_b[d].items())
    assert new.stabilization_depth == old.stabilization_depth
    assert new.overflows == old.overflows


def _checked_ladder(monkeypatch, coll: Collection, bounds: Bounds) -> list:
    """Build the ladder on ``coll``, running the reference beside every
    operad step; returns what each step rejected."""
    seen = []

    def dim0(a, b):
        new, old = _free_at(a, None, 0, b), reference(a, None, 0, b)
        _assert_same_step(new, old)
        seen.append(new.overflows)
        return new

    def step(x, b):
        d = x.up_to_dim + 1
        new, old = _free_at(x.over, x, d, b), reference(x.over, x, d, b)
        _assert_same_step(new, old)
        seen.append(new.overflows)
        return new

    monkeypatch.setattr(interleave, "free_operad_dim0", dim0)
    monkeypatch.setattr(interleave, "free_operad_step", step)
    free_owc(coll, bounds)
    assert len(seen) == bounds.max_dim + 1
    return seen


def degenerate_over_bound() -> Collection:
    """Two top-less 2-cells: ``y``, over ``g`` of arity ``chain(2)``, then
    ``z``, over ``h`` of arity ``chain(3)``.  At ``Bounds(2, 5, 1)`` the
    labellings of ``y`` fill the arity and boundary samples, so those of
    ``z`` are only counted; ``z``'s arity, of size 7, is over the bound, so
    its unit labelling is counted over the bound, not within it, and must
    be taken off that side."""
    cells = [["x"], ["f", "g", "h"], ["y", "z"]]
    ends = [{}, {"f": "x", "g": "x", "h": "x"}, {"y": "g", "z": "h"}]
    arity = [
        {"x": DOT},
        {"f": chain(1), "g": chain(2), "h": chain(3)},
        {"y": degenerate(chain(2), 1), "z": degenerate(chain(3), 1)},
    ]
    return make_collection(cells, ends, ends, arity)


CASES = {
    "empty-152": (empty_collection, Bounds(1, 5, 2)),
    "empty-252": (empty_collection, Bounds(2, 5, 2)),
    "empty-271": (empty_collection, Bounds(2, 7, 1)),
    "empty-391": (empty_collection, Bounds(3, 9, 1)),
    "one-cell-251": (lambda: one_cell_collection(2), Bounds(2, 5, 1)),
    "unit-251": (lambda: unit_collection(2), Bounds(2, 5, 1)),
    # no term fits, so every candidate of a top-less generator is rejected
    # as "term", and none is only counted
    "one-cell-250": (lambda: one_cell_collection(2), Bounds(2, 5, 0)),
    "degenerate-over-bound-251": (degenerate_over_bound, Bounds(2, 5, 1)),
    # the lower multiplication is not grafting, so the boundary is
    # evaluated through a labelling
    "self-loop-174": (None, Bounds(1, 7, 4)),
}


def top_less_over_inputs() -> Collection:
    """Top-less 2-cells over input 1-cells: ``p`` on ``h`` of arity
    ``chain(3)``, then ``y`` and ``z`` on ``f`` of arity ``chain(1)``.  At
    ``Bounds(2, 7, 2)`` the labellings of ``p`` and ``y`` fill the arity and
    boundary samples, so ``z``'s cells are found by inverting grafting on
    the lower layer: ``z`` with the labels ``f`` and ``h``, whose grafting
    with ``f`` has term size 2.  ``h`` is listed first, so the enumeration
    finds them in the other order than the nodes ``f(f)`` and ``f(h)`` that
    they are the quotients of."""
    cells = [["x"], ["h", "f"], ["p", "y", "z"]]
    ends = [{}, {"f": "x", "h": "x"}, {"p": "h", "y": "f", "z": "f"}]
    arity = [
        {"x": DOT},
        {"f": chain(1), "h": chain(3)},
        {"p": degenerate(chain(3), 1), "y": degenerate(chain(1), 1), "z": degenerate(chain(1), 1)},
    ]
    return make_collection(cells, ends, ends, arity)


def _read_first_label(op, d, a):
    # ``self_loop_operad``'s multiplication: the label of the first point
    return itemgetter(0)


def _checked_steps(monkeypatch, coll: Collection, lower: OperadStructure | None, bounds: Bounds) -> tuple[list, list]:
    """The free operad steps alone, from ``coll`` and ``lower`` (None to
    start at dimension 0) up to ``bounds.max_dim``, each against the
    reference: a ladder on these collections would add more contraction
    cells than the reference can try in a test.  Returns the results and,
    per step, whether labellings were only counted, as they are once cells
    are found by inversion."""
    counted = []
    real = operad.count_labellings

    def spy(*args):
        counted[-1] = True
        return real(*args)

    monkeypatch.setattr(operad, "count_labellings", spy)
    steps = []
    for d in range(0 if lower is None else lower.up_to_dim + 1, bounds.max_dim + 1):
        counted.append(False)
        new, old = _free_at(coll, lower, d, bounds), reference(coll, lower, d, bounds)
        _assert_same_step(new, old)
        steps.append(new)
        coll, lower = new.operad.over, new.operad
    return steps, counted


def test_free_step_inverts_grafting_over_input_generators(monkeypatch):
    """The step at dimension 2 finds ``z``'s cells by inversion, after more
    than three boundary rejections, and matches the reference."""
    steps, counted = _checked_steps(monkeypatch, top_less_over_inputs(), None, Bounds(2, 7, 2))
    assert counted == [False, False, True]
    top = steps[-1]
    assert [(o.reason, o.count) for o in top.overflows] == [("arity", 14), ("boundary", 6)]
    layer = top.operad.over.cells_at(2)
    assert [c.labels for c in layer if isinstance(c, NodeTerm) and c.gen == "z"] == [("x", "x", "f"), ("x", "x", "h")]


def test_free_step_inverts_only_to_labellings_by_cells(monkeypatch):
    """A lower layer that grafting did not build can hold a node whose labels
    are not globular, or hold a term that is no cell.  Their quotients by
    ``f`` are no labellings, so the inversion keeps neither: the step
    matches the reference, which enumerates labellings only."""
    bounds = Bounds(2, 7, 2)
    steps, counted = _checked_steps(monkeypatch, top_less_over_inputs(), None, bounds)
    lower = steps[1].operad
    no_cell = NodeTerm(1, "h", ("x",) * 4 + ("f",) * 3)  # of term size 4
    bad = (NodeTerm(1, "f", ("x", UnitTerm(0), "f")), NodeTerm(1, "f", ("x", "x", no_cell)))
    ends = dict.fromkeys(bad, "x")
    coll = add_cells(lower.over, 1, bad, ends, ends, dict.fromkeys(bad, chain(1)))
    lower = replace(lower, over=coll)
    counted.append(False)
    _assert_same_step(_free_at(coll, lower, 2, bounds), reference(coll, lower, 2, bounds))
    assert counted[-1]


def test_free_step_counts_over_a_lower_dimension_that_is_not_grafting(monkeypatch):
    """Where a dimension below multiplies otherwise than by grafting, the
    cuts do not invert it, and ``cell_products`` reads the lower products
    that are cells from ``mult_table``: the step still counts, once the
    samples are full, and matches the reference.  Dimension 0 multiplies as
    ``self_loop_operad``'s does."""
    coll = top_less_over_inputs()
    steps, counted = _checked_steps(monkeypatch, coll, OperadStructure(coll, {0: "x"}, (_read_first_label,)), Bounds(2, 7, 2))
    assert counted == [False, True]
    assert any(o.reason == "boundary" and o.count > 3 for o in steps[-1].overflows)


@pytest.mark.parametrize("case", CASES)
def test_free_step_matches_the_reference(monkeypatch, case):
    make, bounds = CASES[case]
    if make is None:
        lower = self_loop_operad()
        new = free_operad_step(lower, bounds)
        _assert_same_step(new, reference(lower.over, lower, 1, bounds))
        overflows = [new.overflows]
    else:
        overflows = _checked_ladder(monkeypatch, make(), bounds)
    if case in ("empty-252", "empty-391", "one-cell-250", "degenerate-over-bound-251"):
        # rejections past the three samples kept are compared too
        assert any(o.count > 3 for step in overflows for o in step)


def test_free_step_builds_no_composite_it_rejects(monkeypatch):
    """A candidate is rejected by arity from the inner sizes of its labels'
    arities, so every substitution made in the build is of a size within the
    bound, while the rejections it counts stay pinned.  The labellings of
    the generators without top cells are only counted, by
    ``count_labellings``, once the samples are full, and their cells are
    found by inverting grafting on the lower layer, so the enumerations
    return at most 600 labellings (589; 7,737 when those within the bound
    were enumerated, 25,205 when all of them were)."""
    bounds = Bounds(3, 9, 1)
    built = []
    enumerated = []

    def subst_arities(shape, arities):
        out = real(shape, arities)
        built.append(size(out))
        return out

    def enumerate_labellings(*args, **kwargs):
        out = real_labellings(*args, **kwargs)
        enumerated.append(len(out))
        return out

    real = operad.subst_arities
    real_labellings = operad.enumerate_labellings
    monkeypatch.setattr(operad, "subst_arities", subst_arities)
    monkeypatch.setattr(operad, "enumerate_labellings", enumerate_labellings)
    state = initial_owc(bounds)
    assert built and max(built) <= bounds.max_arity_size
    assert sum(enumerated) <= 600
    assert [(o.step, o.reason, o.count) for o in state.overflows] == [
        ("operad-2", "arity", 1339),
        ("operad-2", "boundary", 346),
        ("operad-3", "arity", 16346),
        ("operad-3", "boundary", 7028),
    ]


@pytest.mark.parametrize(
    "bounds, calls",
    [
        (Bounds(3, 9, 1), [([0], 1), ([1], 11), ([2], 72)]),
        (Bounds(4, 11, 1), [([0], 1), ([1], 13), ([2], 113), ([3], 452)]),
    ],
    ids=["391", "4111"],
)
def test_free_step_reads_the_lower_products_once_per_step(monkeypatch, bounds, calls):
    """The boundary check and the candidates of the generators without top
    cells read the entries of ``cell_products`` on the layer below, made
    once per step: one call per step from dimension 1 up, with the
    dimension below and the number of its entries."""
    seen = []
    real = operad.cell_products

    def spy(op, bounds, dims):
        out = real(op, bounds, dims)
        seen.append((list(dims), len(out)))
        return out

    monkeypatch.setattr(operad, "cell_products", spy)
    initial_owc(bounds)
    assert seen == calls


def test_free_step_refuses_a_generator_whose_src_arity_is_not_its_boundary():
    """``y`` runs from ``f`` to ``f``, of arity ``chain(1)``, but its own
    arity has the boundary ``chain(2)``: no labelling of it has a src side
    that ``f`` can be grafted with, and the step says so before its loop."""
    cells = [["x"], ["f"], ["y"]]
    ends = [{}, {"f": "x"}, {"y": "f"}]
    arity = [{"x": DOT}, {"f": chain(1)}, {"y": degenerate(chain(2), 1)}]
    coll = make_collection(cells, ends, ends, arity)
    bounds = Bounds(2, 7, 1)
    lower = _free_at(coll, None, 0, bounds).operad
    lower = free_operad_step(lower, bounds).operad
    with pytest.raises(ValueError, match="differs from the arity of the operation"):
        free_operad_step(lower, bounds)


def _stratum_steps(monkeypatch, coll: Collection, bounds: Bounds) -> list:
    """Build the ladder on ``coll``; per operad step, its generators, its
    result and the number of substitutions ``_free_at`` made itself, one for
    each node it built."""
    steps, built = [], []
    real = operad.subst_arities

    def subst_arities(shape, arities):
        if sys._getframe(1).f_code is _free_at.__code__:
            built[-1] += 1
        return real(shape, arities)

    def step(over, lower, d, b):
        built.append(0)
        steps.append((over.cells_at(d), _free_at(over, lower, d, b)))
        return steps[-1][1]

    monkeypatch.setattr(operad, "subst_arities", subst_arities)
    monkeypatch.setattr(interleave, "free_operad_dim0", lambda a, b: step(a, None, 0, b))
    monkeypatch.setattr(interleave, "free_operad_step", lambda x, b: step(x.over, x, x.up_to_dim + 1, b))
    free_owc(coll, bounds)
    return [(gens, res, n) for (gens, res), n in zip(steps, built)]


@pytest.mark.parametrize(
    "make, bounds, depth",
    [(empty_collection, Bounds(1, 7, 3), 3), (lambda: one_cell_collection(1), Bounds(1, 5, 2), 2)],
    ids=["empty-173", "one-cell-152"],
)
def test_free_step_builds_each_node_once_in_the_stratum_after_its_top_labels(monkeypatch, make, bounds, depth):
    """The stratum rule the loop rests on: a node is built once, in the
    stratum after the latest stratum of its top labels (the unit's is 0, a
    generator's 1), no layer lists a cell twice, and the stabilization
    depth is the last stratum that added a term, or 1 if only generators
    did.  ``depth`` is the deepest step's, so the rule is seen across
    strata."""
    steps = _stratum_steps(monkeypatch, make(), bounds)
    assert len(steps) == bounds.max_dim + 1
    for gens, res, built in steps:
        d, over = res.new_dim, res.operad.over
        stratum = {**dict.fromkeys(gens, 1), **res.strata}
        nodes = [c for c in res.strata if isinstance(c, NodeTerm)]
        assert built == len(nodes)
        for c in nodes:
            tops = [lab for x, lab in zip(all_cells(over.arity_of(d, c.gen)), c.labels) if x.dim == d]
            assert stratum[c] == 1 + max([stratum[lab] for lab in tops], default=0)
        for k in range(over.max_dim + 1):
            assert len(set(over.cells_at(k))) == len(over.cells_at(k))
        assert res.stabilization_depth == max(stratum.values())
    assert max(res.stabilization_depth for _, res, _ in steps) == depth
