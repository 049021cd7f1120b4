"""The package surface: lazy exports, the import graph, the value records.

The import-graph tests start fresh interpreters, so what they see is
what a command or an ``import surfhom.<layer>`` loads on its own; a
command loads nothing but the standard library and surfhom.  The
record tests hold each NamedTuple record against a frozen dataclass
with the same fields, which is what the records were before: repr, hash
and equality must not tell them apart.
"""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
import sysconfig
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import surfhom
from surfhom.catalog import candidate_pool, load_example
from surfhom.cli import run_checks
from surfhom.homology import chain_complex, class_of_walk
from surfhom.hyperbolic import (
    PentagonParams,
    build_crown,
    example3_assembly,
    pentagon_opposite,
    solve_arm_parameter,
)
from surfhom.minima import enumerate_cycles, successive_minima_I
from surfhom.ribbon import schema_to_ribbon, surface_invariants

SRC = Path(surfhom.__file__).resolve().parent.parent

# the package's exports, by the layer that defines them
EXPORTS = {
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
}


# ---------------------------------------------------------------------------
# the import graph, in fresh interpreters

def loaded_modules(statement, *argv):
    """The modules that ``statement`` loads in a fresh interpreter, past
    those its start-up loaded, each mapped to its file (None for a module
    without one); ``argv`` follows ``-c`` on its command line."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "loaded = {m: getattr(sys.modules[m], '__file__', None) for m in set(sys.modules) - before}\n"
        "sys.stderr.write('\\nLOADED ' + repr(loaded) + '\\n')\n"
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("LOADED ")
    return ast.literal_eval(last[len("LOADED "):])


# runs the command as ``python -m surfhom.cli`` runs it, in-process
CLI = (
    "import runpy\n"
    "try:\n"
    "    runpy.run_module('surfhom.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as e:\n"
    "    assert not e.code, e.code\n"
)


def test_a_lattice_import_loads_no_catalog_hyperbolic_or_dataclasses():
    loaded = loaded_modules("import surfhom.zlattice")
    assert "surfhom.zlattice" in loaded
    assert not loaded.keys() & {"surfhom.catalog", "surfhom.hyperbolic", "dataclasses"}


@pytest.mark.parametrize("argv", [
    ("minima", "example4", "--procedure", "II", "--bound", "13/12"),
    ("minima", "example4", "--procedure", "I", "--modulus", "2", "--bound", "2"),
    ("minima", "remark45G", "--procedure", "I", "--bound", "4"),
    ("export", "example4", "--format", "dot"),
], ids=" ".join)
def test_commands_off_example3_load_no_hyperbolic(argv):
    loaded = loaded_modules(CLI, *argv)
    assert "surfhom.catalog" in loaded
    assert "surfhom.hyperbolic" not in loaded


_PATHS = sysconfig.get_paths()
# site-packages lies inside the standard library's directory
STDLIB = {Path(_PATHS[k]).resolve() for k in ("stdlib", "platstdlib")}
SITE = {Path(_PATHS[k]).resolve() for k in ("purelib", "platlib")}


def standard_or_surfhom(name, file):
    """Whether a loaded module is built into the interpreter, or has its
    file in the standard library (not site-packages) or in surfhom."""
    if file is None:
        return name in sys.builtin_module_names
    path = Path(file).resolve()
    if path.is_relative_to(SRC / "surfhom"):
        return True
    return (any(path.is_relative_to(p) for p in STDLIB)
            and not any(path.is_relative_to(p) for p in SITE))


@pytest.mark.parametrize("argv", [
    ("verify", "all"),
    ("minima", "example4", "--procedure", "II", "--bound", "13/12"),
    ("export", "example3"),
], ids=" ".join)
def test_commands_load_only_the_standard_library_and_surfhom(argv):
    loaded = loaded_modules(CLI, *argv)
    assert "surfhom.catalog" in loaded and "json" in loaded
    assert {m: f for m, f in loaded.items() if not standard_or_surfhom(m, f)} == {}
    # the rule refuses what an installed package would load
    assert not standard_or_surfhom("pytest", pytest.__file__)
    assert not standard_or_surfhom("surfhom_missing", None)


def test_example3_export_loads_hyperbolic():
    # the probe's positive control
    assert "surfhom.hyperbolic" in loaded_modules(CLI, "export", "example3", "--format", "json")


# ---------------------------------------------------------------------------
# lazy exports

def test_every_export_resolves_to_what_its_layer_holds():
    assert sorted(surfhom.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert len(set(surfhom.__all__)) == 53
    listed = dir(surfhom)
    for module, names in EXPORTS.items():
        layer = importlib.import_module(f"surfhom.{module}")
        for name in names:
            assert getattr(surfhom, name) is getattr(layer, name), name
            assert name in listed, name
    # the layer homology is loaded, and the package's name is its function
    assert surfhom.homology is importlib.import_module("surfhom.homology").homology
    from surfhom import homology
    assert callable(homology)


def test_layers_are_attributes_of_the_package():
    for module in EXPORTS:
        layer = importlib.import_module(f"surfhom.{module}")
        if module != "homology":
            assert getattr(surfhom, module) is layer


def test_an_unknown_name_is_refused():
    for name in ("smith_normal_form", "no_such_name", "cli_main"):
        with pytest.raises(AttributeError, match=name):
            getattr(surfhom, name)
        assert not hasattr(surfhom, name)
    with pytest.raises(ImportError):
        exec("from surfhom import no_such_name", {})


# ---------------------------------------------------------------------------
# dead definitions

def unreferenced_definitions(modules, texts):
    """(module, line, name) of each function, class, method or property
    defined in ``modules`` (name -> source) whose name occurs as a word
    in ``texts`` no more often than it is defined there."""
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    defined = Counter()
    sites = []
    for module, source in modules.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] += 1
                sites.append((module, node.lineno, node.name))
    return [site for site in sites if words[site[2]] <= defined[site[2]]]


def test_every_definition_in_src_is_referenced():
    # a name in src/ that nothing in src/, tests/ or perfbench/ names
    # again is dead code; dunders and the lazy exports are exempt
    root = Path(__file__).resolve().parent.parent
    modules = {p.name: p.read_text() for p in sorted((root / "src" / "surfhom").glob("*.py"))}
    others = [p.read_text() for p in (*(root / "tests").glob("*.py"),
                                      *(root / "perfbench").glob("*.py"))]
    assert "minima.py" in modules and others
    dead = [
        site for site in unreferenced_definitions(modules, [*modules.values(), *others])
        if not (site[2].startswith("__") and site[2].endswith("__"))
        and site[2] not in surfhom.__all__
    ]
    assert dead == []
    # the rule's control: a function named only where it is defined is
    # found, and so is a name defined twice and named nowhere else
    control = (
        "def used(): pass\n"
        "def idle(): return used()\n"
        "class Twice:\n"
        "    def twice(self): pass\n"
        "def twice(): return Twice\n"
    )
    found = sorted(unreferenced_definitions({"m.py": control}, [control]))
    assert found == [("m.py", 2, "idle"), ("m.py", 4, "twice"), ("m.py", 5, "twice")]
    found = sorted(unreferenced_definitions({"m.py": control}, [control, "idle()"]))
    assert found == [("m.py", 4, "twice"), ("m.py", 5, "twice")]


# ---------------------------------------------------------------------------
# the NamedTuple records against frozen-dataclass oracles

WORD = "a b c a' b' c'"


def _example2G_trace():
    b = load_example("example2G")
    return successive_minima_I(candidate_pool(b, Fraction(2)), 0, 4)


def _homology_class():
    b = load_example("example2G")
    return class_of_walk(b.closed, b.curves["alpha"], b.reference, 2)


def _pentagon():
    s = solve_arm_parameter()
    return PentagonParams(s, pentagon_opposite(s))


# name -> (a real record, its fields in order, the defaults)
RECORDS = {
    "SurfaceInvariants": (
        lambda: surface_invariants(schema_to_ribbon(WORD)),
        ("vertices", "edges", "faces", "euler_char", "genus", "orientable",
         "boundary_count"),
        {},
    ),
    "ChainComplex": (lambda: chain_complex(schema_to_ribbon(WORD)), ("d1", "d2"), {}),
    "HomologyClass": (_homology_class, ("coords", "basis", "modulus"), {"modulus": 0}),
    "WeightedCycle": (
        lambda: enumerate_cycles(load_example("example4").weights, Fraction(2))[0],
        ("darts", "length", "key", "cls", "name"),
        {"cls": None, "name": None},
    ),
    "TraceEvent": (
        lambda: _example2G_trace().events[0],
        ("cycle", "decision", "reason", "tie_break"),
        {"tie_break": False},
    ),
    "ExampleBundle": (
        lambda: load_example("example2G"),
        ("name", "ribbon", "closed", "curves", "curve_order", "declared", "reference",
         "weights", "expected"),
        {},
    ),
    "Check": (
        lambda: run_checks("example2G").checks[-1],
        ("label", "computed", "expected", "passed", "modulus"),
        {"modulus": None},
    ),
    "VerificationReport": (
        lambda: run_checks("remark45G"), ("example", "checks", "elapsed"), {}
    ),
    "PentagonParams": (_pentagon, ("s", "t"), {}),
    "CrownParams": (
        lambda: build_crown(5, 8.0),
        ("handles", "sides", "theta", "tau", "width", "geodesic_len", "boundary_len"),
        {},
    ),
    "AssemblyStats": (
        example3_assembly,
        ("tilde_genus", "tilde_boundaries", "crown_genus", "closed_genus", "curve_len",
         "boundary_len", "collar_ok", "arm", "crown"),
        {},
    ),
}


def _hash(x):
    try:
        return hash(x)
    except TypeError as e:  # a record with an unhashable field
        return type(e)


@pytest.mark.parametrize("name", RECORDS)
def test_record_matches_a_frozen_dataclass(name):
    make, names, defaults = RECORDS[name]
    record = make()
    cls = type(record)
    assert cls.__name__ == name and issubclass(cls, tuple)
    assert cls._fields == names
    assert cls._field_defaults == defaults
    oracle = dataclasses.make_dataclass(
        name,
        [(f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object)
         for f in names],
        frozen=True,
    )
    values = tuple(getattr(record, f) for f in names)
    other = values[:-1] + (object(),)
    pairs = [(record, oracle(*values)), (cls(*values), oracle(*values)),
             (cls(*other), oracle(*other))]
    required = len(names) - len(defaults)
    pairs.append((cls(*values[:required]), oracle(*values[:required])))
    for rec, orc in pairs:
        assert repr(rec) == repr(orc)
        assert _hash(rec) == _hash(orc)
    assert (record == cls(*values)) is (oracle(*values) == oracle(*values)) is True
    assert (record == cls(*other)) is (oracle(*values) == oracle(*other)) is False
    assert (record != cls(*other)) is (oracle(*values) != oracle(*other)) is True
    for f in names:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
        with pytest.raises(AttributeError):
            setattr(oracle(*values), f, None)
