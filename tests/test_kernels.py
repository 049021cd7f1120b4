"""The zero-skipping lattice kernels, the closed-form symplectic inverse
and the Miller-Rabin modulus check.

``vec_mat``, ``matmul`` and ``det_int`` are compared with the dense
versions kept in ``reference_zlattice``; the symplectic inverse with
that module's Smith-form ``int_inverse``, so the comparison stays
independent of the library's Hermite solve; ``_is_prime`` with trial
division; the unit test of a packed int, and the class table's reads,
with the unpacked row, at every digit width.  The library has no Smith form left, and a guard
pins that neither ``surfhom`` nor ``surfhom.zlattice`` offers one.  The
count guards pin that the homology path inverts no matrix, that
building a surface's homology runs no symplectic reduction, that each
symplectic basis runs it once, takes no determinant and takes its
inverse from that reduction, that a canonical word's reduction
multiplies no row by the form, that it and the word's cotree and
symplectic bases unpack nothing, that the basis loops' classes are the
rows of the identity and no class reader tests for a unit vector, that
nothing reading classes alone
builds the intersection form and its first reader builds it once, that
a pool of enumerated cycles validates no walk, and that a procedure or
a public Z oracle validates a fixed number of matrices however long its
pool: counts that repeat exactly on any machine.  One guard pins the
memory that the homology of a surface of 6,400 edges keeps.
"""

import importlib
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfhom
from surfhom.catalog import EXAMPLE_NAMES, candidate_pool, load_example
from surfhom.homology import (
    algebraic_intersection,
    class_vector,
    complete_system_cotree,
    cotree_basis,
    homology,
    reference_basis_from_table,
    symplectic_basis,
)
from surfhom.minima import (
    WeightedGraph,
    enumerate_cycles,
    is_globally_minimal,
    successive_minima_I,
    successive_minima_II,
    verify_lemma_procI_minimal,
)
from surfhom.ribbon import (
    RibbonGraph,
    schema_to_ribbon,
    surface_invariants,
    trace_faces,
    validate_walk,
)
from surfhom.zlattice import (
    _MR_LIMIT,
    LatticeError,
    _is_prime,
    det_int,
    identity,
    in_span,
    is_partial_basis,
    matmul,
    vec_mat,
)

from . import reference_zlattice as ref
from .util import canonical_word, random_ribbon_graph

# the package re-exports the function ``homology``, which hides the module
homology_module = importlib.import_module("surfhom.homology")
zlattice = importlib.import_module("surfhom.zlattice")
minima_module = importlib.import_module("surfhom.minima")

# mostly zeros, like fundamental-cycle vectors and one-vertex transforms
sparse_entries = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-3, 3))
dense_entries = st.integers(-50, 50)
entries = st.one_of(sparse_entries, dense_entries)


def matrices(rows, cols, elements=entries):
    return st.lists(
        st.lists(elements, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda M: tuple(map(tuple, M)))


shapes = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 6))
    M = [list(r) for r in draw(matrices(n, n, draw(st.sampled_from((sparse_entries, dense_entries)))))]
    shape = draw(st.sampled_from(("plain", "zero row", "repeated row", "zero pivot")))
    if shape == "zero row":
        M[draw(st.integers(0, n - 1))] = [0] * n
    elif shape == "repeated row" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        M[i] = list(M[j])
    elif shape == "zero pivot":
        # a zero on the diagonal with a nonzero below it forces a row swap
        k = draw(st.integers(0, n - 1))
        M[k][k] = 0
        if k + 1 < n:
            M[draw(st.integers(k + 1, n - 1))][k] = draw(st.integers(1, 9))
    return tuple(map(tuple, M))


# ---------------------------------------------------------------------------
# differential: the row kernels against the dense reference

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_vec_mat_matches_reference(data):
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6))
    A = data.draw(matrices(rows, cols))
    v = data.draw(st.lists(entries, min_size=rows, max_size=rows).map(tuple))
    assert vec_mat(v, A) == ref.vec_mat(v, A)


@settings(max_examples=200, deadline=None)
@given(shapes.flatmap(lambda s: st.tuples(matrices(s[0], s[1]), matrices(s[1], s[2]))))
def test_matmul_matches_reference(pair):
    A, B = pair
    assert matmul(A, B) == ref.matmul(A, B)


@settings(max_examples=250, deadline=None)
@given(square_matrices())
def test_det_matches_reference(A):
    assert det_int(A) == ref.det_int(A)


def test_det_pivot_swaps_and_singular():
    swap = ((0, 1, 2), (3, 0, 1), (1, 1, 0))
    assert det_int(swap) == ref.det_int(swap) == 7
    late_swap = ((1, 2, 3), (2, 4, 1), (3, 5, 0))
    assert det_int(late_swap) == ref.det_int(late_swap) == -5
    assert det_int(((0, 0), (0, 5))) == ref.det_int(((0, 0), (0, 5))) == 0
    assert det_int(((2, 4), (1, 2))) == ref.det_int(((2, 4), (1, 2))) == 0
    assert det_int(((-7,),)) == -7
    # rows with a zero pivot-column entry must still be rescaled when the
    # pivot differs from the previous one
    sign_flip = ((1, 0, 0), (0, -1, 0), (0, 0, 3))
    assert det_int(sign_flip) == ref.det_int(sign_flip) == -3
    scaled = ((2, 0, 0), (0, 1, 0), (0, 0, 5))
    assert det_int(scaled) == ref.det_int(scaled) == 10


def test_width_mismatches_raise():
    A = ((1, 2, 3), (4, 5, 6))
    for mul in (matmul, ref.matmul):
        with pytest.raises(LatticeError):
            mul(A, A)
    for v in ((1,), (1, 2, 3)):
        with pytest.raises(LatticeError):
            vec_mat(v, A)
    for det in (det_int, ref.det_int):
        with pytest.raises(LatticeError):
            det(A)


def test_empty_operands():
    assert matmul((), ((1, 2),)) == ref.matmul((), ((1, 2),)) == ()
    assert matmul(((), ()), ()) == ref.matmul(((), ()), ()) == ((), ())
    assert vec_mat((), ()) == ()
    assert vec_mat((0, 0), ((1, 2), (3, 4))) == (0, 0)


def test_identity():
    for n in range(7):
        assert identity(n) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# closed-form inverse of a symplectic basis

def random_closed_surfaces(n, seed=20231018):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        R = random_ribbon_graph(rng, max_edges=12, min_edges=3)
        if surface_invariants(R).genus:
            out.append(R)
    return out


@pytest.mark.parametrize("R", random_closed_surfaces(30))
def test_symplectic_inverse_matches_int_inverse(R):
    S = symplectic_basis(R)
    assert S.inverse == ref.int_inverse(S.matrix)
    assert matmul(S.matrix, S.inverse) == identity(len(S.matrix))


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_catalog_inverses_match_int_inverse(name):
    b = load_example(name)
    assert b.reference.inverse == ref.int_inverse(b.reference.matrix)
    S = symplectic_basis(b.closed)
    assert S.inverse == ref.int_inverse(S.matrix)


# ---------------------------------------------------------------------------
# the library offers no Smith form

def test_library_has_no_smith_form():
    for module in (surfhom, zlattice):
        for name in ("smith_normal_form", "SmithForm"):
            assert not hasattr(module, name), (module.__name__, name)


# ---------------------------------------------------------------------------
# count guard: no matrix inverse on the homology path

def count_lattice_calls(monkeypatch, R):
    """int_inverse calls made by homology, the symplectic basis (closed
    surfaces only) and the cotree classes of a fresh copy of R, whose
    homology is not yet built."""
    counts = {"int_inverse": 0}

    def counted(name):
        fn = getattr(zlattice, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in counts:
        wrapper = counted(name)
        for module in (zlattice, homology_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    R = RibbonGraph(R.rotation, R.twin, R.boundary_faces, R.edge_labels)
    if not R.boundary_faces:
        symplectic_basis(R)
    H = homology(R)
    classes = [H.class_of_walk(w) for w, _ in cotree_basis(R)]
    assert len(classes) == len(H.fundamental_edges)
    return counts


def test_one_vertex_surface_needs_no_smith_form(monkeypatch):
    R = schema_to_ribbon(canonical_word(20))
    assert count_lattice_calls(monkeypatch, R) == {"int_inverse": 0}


def test_multi_vertex_surface_needs_no_smith_form(monkeypatch):
    # two or more faces: the cotree, not a Smith form, removes the face relations
    R = next(R for R in random_closed_surfaces(30)
             if surface_invariants(R).vertices > 1 and surface_invariants(R).faces > 1)
    assert count_lattice_calls(monkeypatch, R) == {"int_inverse": 0}


def test_bordered_surface_needs_no_smith_form(monkeypatch):
    R = next(R for R in random_closed_surfaces(30)
             if surface_invariants(R).vertices > 1 and surface_invariants(R).faces > 2)
    bordered = RibbonGraph(R.rotation, R.twin, {f[0] for f in trace_faces(R)[:2]})
    assert homology(bordered).rank == homology(R).rank + 1
    assert count_lattice_calls(monkeypatch, bordered) == {"int_inverse": 0}


def count_reductions(monkeypatch):
    """Calls of ``_det``, ``det_int`` and ``_reduce_word`` from now on,
    counted wherever ``zlattice`` or ``homology`` looks them up."""
    counts = {"_det": 0, "det_int": 0, "_reduce_word": 0}
    for name in counts:
        fn = getattr(zlattice, name, None) or getattr(homology_module, name)

        def wrapper(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in (zlattice, homology_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return counts


def test_homology_build_runs_no_symplectic_reduction(monkeypatch):
    # the build computes H1 only, on every
    # closed surface of the catalog and on a random one with 1,600 edges
    surfaces = [load_example(name).closed for name in EXAMPLE_NAMES]
    surfaces.append(random_ribbon_graph(random.Random(3), max_edges=1600, min_edges=1600,
                                        vertices=800))
    counts = count_reductions(monkeypatch)
    for R in surfaces:
        assert not R.boundary_faces
        H = homology(RibbonGraph(R.rotation, R.twin))
        assert H.rank == 2 * surface_invariants(R).genus
    assert counts == {"_det": 0, "det_int": 0, "_reduce_word": 0}


def test_each_symplectic_basis_reduces_once_and_takes_no_determinant(monkeypatch):
    # symplectic_basis runs the reduction it reads on every call and
    # keeps nothing of it on the surface's homology
    surfaces = [RibbonGraph(R.rotation, R.twin)
                for R in (schema_to_ribbon(canonical_word(20)), random_closed_surfaces(30)[0])]
    counts = count_reductions(monkeypatch)
    for R in surfaces:
        H = homology(R)
        kept = set(vars(H))
        first, second = symplectic_basis(R), symplectic_basis(R)
        assert first == second and first.matrix is not second.matrix
        assert set(vars(H)) == kept
    assert counts == {"_det": 0, "det_int": 0, "_reduce_word": 4}


def test_symplectic_basis_reads_its_inverse_off_the_reduction(monkeypatch):
    # the word reduction reads the form rows P @ G off the chord word, so
    # P^-1 = (P @ G)^T @ S takes no product
    calls = []
    monkeypatch.setattr(homology_module, "matmul", lambda A, B: calls.append(A))
    for R in (schema_to_ribbon(canonical_word(20)), *random_closed_surfaces(30)[:10]):
        B = symplectic_basis(RibbonGraph(R.rotation, R.twin))
        assert matmul(B.matrix, B.inverse) == identity(len(B.matrix))
    assert calls == []


def test_canonical_word_reduction_multiplies_no_row_by_the_form(monkeypatch):
    # the reduction reads the chord word, so no form is built for it and
    # no row is multiplied by one
    calls = []
    monkeypatch.setattr(homology_module, "matmul", lambda A, B: calls.append(A))
    built = count_form_builds(monkeypatch)
    for g in (1, 5, 20):
        assert symplectic_basis(schema_to_ribbon(canonical_word(g))).matrix
    assert calls == built == []


def test_canonical_word_reduction_unpacks_no_row(monkeypatch):
    # no step changes a row of a canonical word's basis, so every row
    # settles as a unit vector, sliced from a template and not unpacked;
    # and every fundamental cycle of a one-vertex word is a basis loop,
    # whose class is a unit vector too, so neither the cotree basis nor
    # the symplectic basis unpacks anything, from the build on
    calls = []
    for name in ("unpack", "unpack_one"):
        fn = getattr(homology_module._Packing, name)
        monkeypatch.setattr(homology_module._Packing, name,
                            lambda self, s, _name=name, _fn=fn: calls.append(_name) or _fn(self, s))
    for g in (1, 5, 20, 30):
        R = schema_to_ribbon(canonical_word(g))
        P, inverse, units = homology_module._reduce_word(homology(R)._chord_word())
        assert len(P) == len(inverse) == 2 * g and all(units)
        basis = cotree_basis(R)
        assert all(sum(map(abs, cls)) == 1 for _, cls in basis)
        assert len(basis) == len(symplectic_basis(R).matrix) == 2 * g
    assert calls == []


def test_basis_loop_classes_are_identity_rows_and_no_reader_tests_a_unit(monkeypatch):
    # the i-th basis loop's class is e_i by construction: cotree_basis
    # puts the rows of the identity in the class table, where a class
    # read before keeps its object, and neither it, nor the enumeration,
    # nor class_of_walk tests a class for being a unit vector
    calls = []
    unit = homology_module._unit
    monkeypatch.setattr(homology_module, "_unit", lambda p, bits: calls.append(p) or unit(p, bits))
    words = [schema_to_ribbon(canonical_word(g)) for g in (1, 2, 5)]
    for R in words + random_closed_surfaces(30):
        H = homology(R)
        e = H.basis_edges[-1]
        early = H.fundamental_class(e)
        for c in enumerate_cycles(WeightedGraph(R, [1] * R.n_edges), 3):
            assert H.class_of_walk(c.darts) is c.cls
            assert H.class_of_walk(list(c.darts)) == c.cls
        basis = dict(zip(H.fundamental_edges, cotree_basis(R)))
        assert [basis[f][1] for f in H.basis_edges] == list(identity(H.rank))
        assert basis[e][1] is early and H.fundamental_class(e) is early
        for walk, cls in basis.values():
            assert H.class_of_walk(walk) is cls
            assert H.class_of_walk(list(walk)) == cls
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 4, 8, 16]), st.integers(1, 40))
def test_unit_vectors_are_found_by_unit_and_unpacked_by_the_table(size, count):
    # s * e_c, packed as s * 2^(bits * c), is found by _unit at every
    # digit width (16 bytes has no struct code), and no other sum is.
    # The table unpacks every sum it has not seen, a unit vector or not,
    # into the unpacked row, and a second read returns the same object
    packing = homology_module._Packing(size, count)
    table = homology_module._Unpacked(packing)
    unpacked = []
    table.unpack = lambda s: unpacked.append(s) or packing.unpack_one(s)
    bits = 8 * size
    units = []
    for c in range(count):
        for s in (1, -1):
            units.append(s << (bits * c))
            assert homology_module._unit(units[-1], bits) == (c, s)
    others = [0, 2 << (bits * (count - 1)), -3]
    if count > 1:
        others += [(1 << bits) + 1, (1 << bits) - 1]
    for p in others:
        assert homology_module._unit(p, bits) is None
    for p in units + others:
        cls = table[p]
        assert type(cls) is tuple and cls == packing.unpack_one(p)
        assert table[p] is cls
    assert unpacked == units + others


# ---------------------------------------------------------------------------
# count guards: the intersection form is built on its first read, once

def count_form_builds(monkeypatch):
    """The homologies whose intersection form is built from now on, one
    entry per build (``SurfaceHomology._build_form``)."""
    built = []
    build = homology_module.SurfaceHomology._build_form

    def counted(self):
        built.append(self)
        return build(self)

    monkeypatch.setattr(homology_module.SurfaceHomology, "_build_form", counted)
    return built


def test_classes_alone_build_no_form(monkeypatch):
    # the enumeration, walk classes, the cotree basis and its completion,
    # both procedures and both certificates read classes and nothing else:
    # on one-vertex and multi-vertex closed surfaces and a bordered one
    surfaces = [schema_to_ribbon(canonical_word(g)) for g in (1, 2, 3)]
    surfaces += [RibbonGraph(R.rotation, R.twin) for R in random_closed_surfaces(30)[:6]]
    R = next(R for R in random_closed_surfaces(30) if len(trace_faces(R)) > 1)
    surfaces.append(RibbonGraph(R.rotation, R.twin, {trace_faces(R)[0][0]}))
    built = count_form_builds(monkeypatch)
    certified = 0
    for R in surfaces:
        H = homology(R)
        pool = enumerate_cycles(WeightedGraph(R, (Fraction(1),) * R.n_edges), Fraction(3))
        assert [H.class_of_walk(c.darts) for c in pool] == [c.cls for c in pool]
        walks = [w for w, _ in cotree_basis(R)]
        assert [class_vector(R, w) for w in walks] == [c for _, c in cotree_basis(R)]
        complete_system_cotree(R, walks[:1])
        first, second = successive_minima_I(pool), successive_minima_II(pool)
        if len(second.selected) == H.rank:
            # procedure II's trace is a Z-basis, which the lemma's check needs
            is_globally_minimal(second.selected, pool)
            verify_lemma_procI_minimal(second, pool)
            certified += 1
    assert certified >= 3 and first.selected
    assert built == []



def test_symplectic_basis_builds_no_form(monkeypatch):
    # the basis is reduced from the chord word: on fresh one-vertex,
    # multi-vertex and canonical-word surfaces the form is never built,
    # and the homology keeps none
    surfaces = [schema_to_ribbon(canonical_word(g)) for g in (1, 4, 20)]
    surfaces += [RibbonGraph(R.rotation, R.twin) for R in random_closed_surfaces(30)[:10]]
    built = count_form_builds(monkeypatch)
    for R in surfaces:
        B = symplectic_basis(R)
        assert matmul(B.matrix, B.inverse) == identity(len(B.matrix))
        assert homology(R)._form is None
    assert built == []

def one_vertex_surfaces():
    """Fresh one-vertex closed surfaces: canonical words and random
    rotations, each loop its own fundamental walk, so any two of those
    walks share no edge."""
    rng = random.Random(5)
    surfaces = [schema_to_ribbon(canonical_word(g)) for g in (1, 4)]
    while len(surfaces) < 6:
        R = random_ribbon_graph(rng, max_edges=8, min_edges=3, vertices=1)
        if surface_invariants(R).genus:
            surfaces.append(R)
    return surfaces


def form_readers(R):
    """Each reader of the intersection form of R's homology, by name, as
    a call of no arguments.  The declared table that
    ``reference_basis_from_table`` reads is the symplectic basis of a
    copy of R, so setting it up builds no form of R's own homology."""
    H = homology(R)
    walks = [w for w, _ in cotree_basis(R)]
    B = symplectic_basis(RibbonGraph(R.rotation, R.twin))
    table = [B.express(H.class_of_walk(w)) for w in walks]
    return {
        "pairing_matrix": lambda: H.pairing_matrix,
        "pair": lambda: H.pair(H.class_of_walk(walks[0]), H.class_of_walk(walks[1])),
        "symplectic_basis": lambda: symplectic_basis(R),
        "reference_basis_from_table": lambda: reference_basis_from_table(
            R, "table", B.names, table, walks),
        "algebraic_intersection": lambda: algebraic_intersection(R, walks[0], walks[1]),
    }


FORM_READERS = ("algebraic_intersection", "pair", "pairing_matrix",
                "reference_basis_from_table", "symplectic_basis")


@pytest.mark.parametrize("first", FORM_READERS)
def test_each_homology_builds_its_form_once(monkeypatch, first):
    # whichever reader comes first builds the form; every later read of
    # any reader, however often, returns the kept form
    surfaces = one_vertex_surfaces()
    readers = [form_readers(R) for R in surfaces]
    built = count_form_builds(monkeypatch)
    for R, read in zip(surfaces, readers):
        for name in (first, *FORM_READERS, *FORM_READERS):
            read[name]()
        assert built[-1] is homology(R)
        assert homology(R).pairing_matrix is homology(R).pairing_matrix
    assert built == [homology(R) for R in surfaces]


def test_homology_of_6400_edges_keeps_under_30_mb_and_builds_no_form(monkeypatch):
    # without its intersection form, a closed surface of 6,400 edges and
    # 3,200 vertices keeps its packed dart classes and tree and little
    # else: the unpacked form alone kept about 80 MB
    R = random_ribbon_graph(random.Random(3), max_edges=6400, min_edges=6400, vertices=3200)
    built = count_form_builds(monkeypatch)
    tracemalloc.start()
    try:
        H = homology(R)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert H.rank == 2 * surface_invariants(R).genus > 0
    assert kept <= 30_000_000, kept
    assert built == []


# ---------------------------------------------------------------------------
# count guard: enumerated cycles carry their classes

def test_pool_of_enumerated_cycles_needs_no_validation(monkeypatch):
    # the small-batch benchmark's pool: every cycle comes back as itself,
    # its class read from the enumeration's table, no walk validated
    calls = []

    def counted(*args):
        calls.append(args)
        return validate_walk(*args)

    monkeypatch.setattr(homology_module, "validate_walk", counted)
    R = RibbonGraph(((0, 2, 4, 1, 6, 3, 8, 5, 7, 9),), tuple(d ^ 1 for d in range(10)))
    G = WeightedGraph(R, [Fraction(k, 8) for k in (3, 5, 7, 11, 13)])
    cycles = enumerate_cycles(G, 2 * sum(G.edge_length))
    H = homology(R)
    pool = [c.with_class(H.class_of_walk(c.darts)) for c in cycles]
    assert len(pool) > 100 and all(p is c for p, c in zip(pool, cycles))
    assert calls == []


# ---------------------------------------------------------------------------
# count guard: the procedures' oracles and the public Z oracles

def count_oracle_calls(monkeypatch, run):
    """``as_int_matrix`` calls made by ``run()``."""
    counts = {"as_int_matrix": 0}

    def counted(name):
        fn = getattr(zlattice, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in counts:
        wrapper = counted(name)
        for module in (zlattice, minima_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    run()
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("modulus", (0, 2))
def test_procedures_need_no_smith_form_and_validate_once(monkeypatch, modulus):
    b = load_example("example4")
    short, long = candidate_pool(b, Fraction(13, 12)), candidate_pool(b, Fraction(3))
    assert len(long) > 2 * len(short)
    per_pool = []
    for pool in (short, long):
        for proc in (successive_minima_I, successive_minima_II):
            counts = count_oracle_calls(monkeypatch, lambda: proc(pool, modulus, 8))
            per_pool.append(counts["as_int_matrix"])
    # a fixed number per call, not one per candidate
    assert per_pool[:2] == per_pool[2:] and max(per_pool) <= 2


def test_public_z_oracles_need_no_smith_form(monkeypatch):
    M = ((2, 0, 1), (0, 3, 1), (1, 1, 1))

    def run():
        flag, witness = in_span(M, (3, 4, 3), 0)
        assert flag and matmul((witness,), M) == ((3, 4, 3),)
        assert not in_span(M[:2], (1, 0, 0), 0)[0]
        assert is_partial_basis(M[1:], 0)
        assert not is_partial_basis(((2, 0, 0),), 0)

    # each call validates each of its arguments once and nothing more
    assert count_oracle_calls(monkeypatch, run) == {"as_int_matrix": 6}


# ---------------------------------------------------------------------------
# primality of a modulus

def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20000) if _is_prime(n)] == [
        n for n in range(20000) if trial_division(n)
    ]


def test_is_prime_pseudoprimes_and_large_moduli():
    assert not _is_prime(561)  # Carmichael number
    assert not _is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert _is_prime(2 ** 61 - 1)
    assert not _is_prime(2 ** 61 + 1)
    with pytest.raises(LatticeError):
        _is_prime(_MR_LIMIT)
