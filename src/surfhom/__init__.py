"""Combinatorial surfaces, homology bases and successive minima.

The package builds oriented surfaces from gluing words or rotation
systems, computes their first homology with the intersection form using
exact integer arithmetic, enumerates shortest cycles over exact
rational lengths, runs the two successive-minima selection procedures,
and verifies a small catalog of bundled example constructions end to
end (see ``surfhom.catalog`` and the ``surfhom`` command line).

All values are immutable after construction and every operation is a
pure function, so everything here is safe to share across threads.
"""

from .catalog import EXAMPLE_NAMES, ExampleBundle, candidate_pool, load_example
from .homology import (
    ChainComplex,
    HomologyClass,
    ReferenceBasis,
    algebraic_intersection,
    chain_complex,
    class_of_walk,
    class_vector,
    complete_system_cotree,
    cotree_basis,
    homology,
    reference_basis_from_table,
    standard_symplectic,
    symplectic_basis,
)
from .hyperbolic import (
    AssemblyStats,
    CrownParams,
    PentagonParams,
    build_crown,
    crown_limit_length,
    example3_assembly,
    pentagon_opposite,
    solve_arm_parameter,
    trirectangle_width,
)
from .minima import (
    MinimaTrace,
    WeightedCycle,
    WeightedGraph,
    compare_bases,
    enumerate_cycles,
    is_globally_minimal,
    is_straight_cycle,
    make_cycle,
    successive_minima_I,
    successive_minima_II,
    verify_lemma_procI_minimal,
)
from .ribbon import (
    RibbonGraph,
    SurfaceInvariants,
    ValidationError,
    complement_components,
    parse_gluing_word,
    ribbon_from_dict,
    ribbon_to_dict,
    schema_to_ribbon,
    surface_invariants,
    trace_faces,
    validate_walk,
)
from .zlattice import (
    complete_to_unimodular,
    det_int,
    in_span,
    is_partial_basis,
    subgroup_index,
)

__version__ = "0.1.0"
