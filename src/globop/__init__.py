"""Globular pasting diagrams, free globular operads and contractions, and
their dimensionwise interleaving."""

from .collection import (
    Bounds,
    Collection,
    Overflow,
    check_collection,
    empty_collection,
    one_cell_collection,
    tensor,
    terminal_collection,
    truncate,
    unit_collection,
)
from .contraction import (
    ContractionStructure,
    CtrCell,
    admissible_triples,
    check_contraction,
    contraction_morphism_check,
    free_contraction_step,
    terminal_contraction,
)
from .globset import GlobMorphism, GlobularSet, check_globularity, parallel
from .interleave import (
    OwcState,
    Provenance,
    free_owc,
    free_owc_trace,
    induced_morphism,
    initial_owc,
    step_contraction,
    step_operad,
)
from .operad import (
    NodeTerm,
    OperadStructure,
    UnitTerm,
    check_operad_laws,
    counit_eval,
    free_operad_dim0,
    free_operad_step,
    terminal_operad,
)
from .pasting import (
    DOT,
    CellAddr,
    LabelledDiagram,
    PastingDiagram,
    boundary,
    cell_src,
    cell_tgt,
    cells,
    chain,
    enumerate_trees,
    size,
    substitute,
    unit_tree,
)
from .report import Report, Violation
from .verify import DEFAULT_BOUNDS, SUITE_NAMES, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
