"""Combinatorial surfaces, homology bases and successive minima.

The package builds oriented surfaces from gluing words or rotation
systems, computes their first homology with the intersection form using
exact integer arithmetic, enumerates shortest cycles over exact
rational lengths, runs the two successive-minima selection procedures,
and verifies a small catalog of bundled example constructions end to
end (see ``surfhom.catalog`` and the ``surfhom`` command line).

All values are immutable after construction and every operation is a
pure function, so everything here is safe to share across threads.

The names below are exported lazily (PEP 562): ``surfhom.det_int`` or
``from surfhom import det_int`` imports the layer module that defines
the name on first use, and ``import surfhom.<layer>`` loads only that
layer and the layers it imports.  So a command that never touches
example 3 never loads ``surfhom.hyperbolic``.
"""

import sys
from importlib import import_module
from types import ModuleType

# exported name -> the layer module that defines it
_MODULE_OF = {
    name: module
    for module, names in {
        "catalog": ("EXAMPLE_NAMES", "ExampleBundle", "candidate_pool", "load_example"),
        "homology": (
            "ChainComplex", "HomologyClass", "ReferenceBasis", "algebraic_intersection",
            "chain_complex", "class_of_walk", "class_vector", "complete_system_cotree",
            "cotree_basis", "homology", "reference_basis_from_table", "standard_symplectic",
            "symplectic_basis",
        ),
        "hyperbolic": (
            "AssemblyStats", "CrownParams", "PentagonParams", "build_crown",
            "crown_limit_length", "example3_assembly", "pentagon_opposite",
            "solve_arm_parameter", "trirectangle_width",
        ),
        "minima": (
            "MinimaTrace", "WeightedCycle", "WeightedGraph", "compare_bases",
            "enumerate_cycles", "is_globally_minimal", "is_straight_cycle", "make_cycle",
            "successive_minima_I", "successive_minima_II", "verify_lemma_procI_minimal",
        ),
        "ribbon": (
            "RibbonGraph", "SurfaceInvariants", "ValidationError", "complement_components",
            "parse_gluing_word", "ribbon_from_dict", "ribbon_to_dict", "schema_to_ribbon",
            "surface_invariants", "trace_faces", "validate_walk",
        ),
        "zlattice": (
            "complete_to_unimodular", "det_int", "in_span", "is_partial_basis",
            "subgroup_index",
        ),
    }.items()
    for name in names
}

# layers that ``surfhom.<layer>`` reaches with no import statement, as when
# the package loaded them all
_LAYERS = ("catalog", "homology", "hyperbolic", "minima", "ribbon", "zlattice")

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    # not cached here: the name always resolves to what its layer holds now
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(import_module(f"{__name__}.{module}"), name)
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    # Loading a layer binds it as an attribute of the package.  The
    # layer ``homology`` shares its name with its entry point, which the
    # package exports, so that binding is skipped: ``surfhom.homology``
    # stays the function, whatever has been imported before.
    def __setattr__(self, name, value):
        if not (name in _MODULE_OF and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
