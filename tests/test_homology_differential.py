"""Differential tests against ``reference_homology``, on seeded random
closed, bordered and one-vertex surfaces.

The tree-cotree ``SurfaceHomology`` and the Smith-form one choose
different bases of H1, so they must agree up to one unimodular change of
basis A, read off as the old classes of the new basis loops: every old
class is the new class times A, and A carries the old pairing to the
new one.

``symplectic_basis`` runs its own reduction on each call, with one
rank-2 step per row at a unit pivot; the reference reduces by
full row and column operations, with a Euclid pass where a pivot is not
a unit.  A surface's form always has a unit pivot, so on every surface
their bases must be equal field by field, and so must the reductions of
forms Q S Q^T with Q lower unitriangular, whose basis rows run far past
machine words.  Forms U S U^T whose first row has no unit entry are
unimodular but not a surface's: the reference reduces them, and the
library refuses them.  The reduction moves no column and reads its
inverse off the form rows P @ G; that inverse must equal the
reference's product G @ P^T @ (-S).

The intersection form is read off prefix sums over the contracted ring;
it must equal the form built entry by entry from one indicator list per
basis loop, on tiny, seeded random and one-vertex surfaces.  The faces a
surface keeps and the fundamental walks read off kept root paths must
equal those traced anew and walked up to the root.

``algebraic_intersection`` reads the form on the two walks' classes;
on every edge-disjoint pair of walks it must equal the strand rule it
replaced, which counts the crossings at the shared vertices: on tiny
surfaces, for their enumerated cycles and fundamental walks, and on
seeded closed and bordered surfaces, for their fundamental walks.
"""

import importlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from surfhom.homology import (
    SurfaceHomology,
    _inverse_from_form_rows,
    _RowTimes,
    _symplectic_reduction,
    algebraic_intersection,
    cotree_basis,
    homology,
    standard_symplectic,
    symplectic_basis,
)
from surfhom.minima import enumerate_cycles
from surfhom.ribbon import (
    RibbonGraph,
    ValidationError,
    edge_of_dart,
    schema_to_ribbon,
    trace_faces,
    validate_walk,
)
from surfhom.zlattice import det_int, identity, int_inverse, matmul, transpose, vec_mat

from . import reference_homology as ref
from . import reference_ribbon
from .util import canonical_word, random_ribbon_graph, tiny_weighted_graphs

PER_KIND = 300

homology_module = importlib.import_module("surfhom.homology")


def one_vertex(rng):
    """A random rotation of 2..7 loops at a single vertex."""
    E = rng.randrange(2, 8)
    darts = list(range(2 * E))
    rng.shuffle(darts)
    return RibbonGraph((tuple(darts),), tuple(d ^ 1 for d in range(2 * E)))


def gluing_word(rng):
    """The polygon glued by a random orientable word of 2..6 labels."""
    n = rng.randrange(2, 7)
    sides = [(str(i), False) for i in range(n)] + [(str(i), True) for i in range(n)]
    rng.shuffle(sides)
    return schema_to_ribbon(tuple(sides))


def bordered(rng):
    """A random graph with a random nonempty set of faces marked as
    boundary walks (possibly all of them)."""
    R = random_ribbon_graph(rng, max_edges=9)
    faces = [f[0] for f in trace_faces(R)]
    marked = rng.sample(faces, rng.randrange(1, len(faces) + 1))
    return RibbonGraph(R.rotation, R.twin, marked)


KINDS = {
    "closed": lambda rng: random_ribbon_graph(rng, max_edges=10),
    "bordered": bordered,
    "one-vertex": one_vertex,
    "gluing-word": gluing_word,
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_tree_cotree_matches_smith_form_homology(kind):
    rng = random.Random(f"homology-{kind}")
    for _ in range(PER_KIND):
        R = KINDS[kind](rng)
        new, old = SurfaceHomology(R), ref.SurfaceHomology(R)
        assert new.rank == old.rank, R
        assert new.fundamental_edges == old.fundamental_edges, R
        # built from the spanning tree, never re-validated by the library
        for e in new.fundamental_edges:
            assert validate_walk(R, new.fundamental_walk(e)) == old.fundamental_walk(e), R
        if not new.rank:
            continue
        A = tuple(old.class_of_walk(new.fundamental_walk(e)) for e in new.basis_edges)
        assert abs(det_int(A)) == 1, R
        for e in new.fundamental_edges:
            assert vec_mat(new.fundamental_class(e), A) == old.fundamental_class(e), R
        assert matmul(matmul(A, old.pairing_matrix), transpose(A)) == new.pairing_matrix, R


def test_fundamental_walk_refuses_a_tree_dart():
    R = random_ribbon_graph(random.Random(3), max_edges=8, min_edges=6)
    H = SurfaceHomology(R)
    tree = [d for d in range(R.n_darts) if d not in H.fundamental_edges
            and R.twin[d] not in H.fundamental_edges]
    assert tree
    for d in tree + [R.n_darts, 0.5, None]:
        with pytest.raises(ValidationError, match="not on a non-tree edge"):
            H.fundamental_walk(d)


def assert_same_basis(R):
    new, old = symplectic_basis(R), ref.symplectic_basis(R)
    assert new.matrix == old.matrix, R
    assert new.inverse == old.inverse, R
    assert new.pairing == old.pairing, R
    assert new.names == old.names, R
    assert new.walks == old.walks, R
    assert new == old


@pytest.mark.parametrize("kind", ["closed", "gluing-word", "one-vertex"])
def test_symplectic_basis_matches_reference(kind):
    rng = random.Random(f"homology-{kind}")
    for _ in range(PER_KIND):
        assert_same_basis(KINDS[kind](rng))


@pytest.mark.parametrize("genus", [10, 20, 40])
def test_symplectic_basis_of_a_canonical_word_matches_reference(genus):
    assert_same_basis(schema_to_ribbon(canonical_word(genus)))


def test_symplectic_basis_of_larger_random_surfaces_matches_reference():
    rng = random.Random("symplectic-large")
    for _ in range(20):
        assert_same_basis(random_ribbon_graph(rng, max_edges=40, min_edges=20,
                                              vertices=rng.randrange(2, 12)))


def test_symplectic_basis_of_a_400_edge_surface_matches_reference():
    # the size of a genus-99 surface on 200 vertices, where each packed
    # basis row holds 198 entries
    R = random_ribbon_graph(random.Random("symplectic-E400"), max_edges=400, min_edges=400,
                            vertices=200)
    H = homology(R)
    assert R.n_edges == 400 and H.rank >= 190
    G = H.pairing_matrix
    assert _symplectic_reduction(G)[0] == ref.symplectic_reduction(G)[0]
    assert_same_basis(R)


def unimodular(rng, n, multipliers=(-3, -2, -1, 1, 2, 3)):
    """A random integer matrix of determinant +-1: the identity under
    random row additions, swaps and negations."""
    U = [list(r) for r in identity(n)]
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.choice(multipliers)
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
        if rng.random() < 0.3:
            U[i], U[j] = U[j], U[i]
        if rng.random() < 0.3:
            U[i] = [-a for a in U[i]]
    return tuple(map(tuple, U))


def non_unit_forms(seed, count):
    """Forms U S U^T with no +-1 entry in the first row."""
    rng = random.Random(seed)
    while count:
        n = rng.choice((4, 6, 8))
        U = unimodular(rng, n)
        form = matmul(matmul(U, standard_symplectic(n // 2)), transpose(U))
        if 1 in form[0] or -1 in form[0]:
            continue
        yield form
        count -= 1


def test_reduction_refuses_unimodular_forms_without_a_unit_pivot():
    # only a Euclid pass reduces these, and no surface's form needs one
    for form in non_unit_forms(20261018, 60):
        assert ref.symplectic_reduction(form)[1] == standard_symplectic(len(form) // 2)
        with pytest.raises(AssertionError, match="must be unimodular"):
            _symplectic_reduction(form)


def unitriangular(rng, n, entries=(-10 ** 9, -10 ** 6, 10 ** 6, 10 ** 9)):
    """A lower unitriangular matrix with every entry below the diagonal
    drawn from ``entries``."""
    return tuple(tuple(rng.choice(entries) if j < i else int(i == j) for j in range(n))
                 for i in range(n))


def huge_entry_forms():
    """Forms Q S Q^T with Q lower unitriangular, n = 2, 4, ..., 10: each
    pivot is a unit, and from n = 6 on the basis rows P pass 64 bits."""
    rng = random.Random(7)
    for n in (2, 4, 6, 8, 10):
        Q = unitriangular(rng, n)
        yield matmul(matmul(Q, standard_symplectic(n // 2)), transpose(Q))


def test_reduction_of_forms_with_huge_entries_matches_reference():
    # unit pivots alone, at basis entries far beyond machine words
    for form in huge_entry_forms():
        P = _symplectic_reduction(form)[0]
        assert max(abs(x) for r in P for x in r) > 2 ** 64 or len(form) < 6
        assert P == ref.symplectic_reduction(form)[0]


@pytest.mark.parametrize("form", [
    ((0, 2), (-2, 0)),
    ((0, 0), (0, 0)),
    ((0, 1, 0), (-1, 0, 0), (0, 0, 0)),
    ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 3), (0, 0, -3, 0)),
    ((0, 2, 4, 0), (-2, 0, 0, 1), (-4, 0, 0, 1), (0, -1, -1, 0)),
])
def test_reduction_refuses_a_form_that_is_not_unimodular(form):
    with pytest.raises(AssertionError, match="must be unimodular"):
        _symplectic_reduction(form)


def random_surfaces(seed, count, min_edges=20, max_edges=40):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_ribbon_graph(rng, max_edges=max_edges, min_edges=min_edges,
                                  vertices=rng.randrange(2, 12))


def random_surface_forms(seed, count, min_edges=20, max_edges=40):
    for R in random_surfaces(seed, count, min_edges, max_edges):
        yield homology(R).pairing_matrix


@pytest.mark.parametrize("start", [1, 2])
def test_reduction_at_a_small_starting_width_matches_reference(monkeypatch, start):
    # packed from one or two bytes per entry, the basis rows pass the
    # digit width again and again: either the reset bounds fit, as they
    # do for surfaces, whose rows keep small entries (at two bytes only
    # the larger ones pass the width), or the width doubles, up to digits
    # wider than any struct code
    monkeypatch.setattr(homology_module, "_START_BYTES", start)
    made, formed, resets = [], [], []

    class Spy(homology_module._Packing):
        __slots__ = ()

        def __init__(self, size, count):
            made.append(self)
            super().__init__(size, count)

        def pack(self, rows):  # the packing of G's rows, for the form rows P @ G
            if rows is form:
                formed.append(self)
            return super().pack(rows)

        def unpack(self, packed):  # the reduction unpacks all rows only to reset bounds
            if len(packed) > 1:
                resets.append(self.size)
            return super().unpack(packed)

    forms = [*random_surface_forms(5, 20), *random_surface_forms(6, 5, 60, 80), *huge_entry_forms()]
    monkeypatch.setattr(homology_module, "_Packing", Spy)
    reset_only = widened = widest = 0
    for form in forms:
        del made[:], formed[:], resets[:]
        assert _symplectic_reduction(form)[0] == ref.symplectic_reduction(form)[0], form
        widths = [p.size for p in made if p not in formed]
        assert widths[0] == start
        widened += len(widths) > 1
        reset_only += len(widths) == 1 and bool(resets)
        widest = max(widest, *widths)
    assert widened and reset_only
    assert widest > 8


def test_inverse_of_a_basis_with_entries_past_machine_words_matches_reference():
    rng = random.Random(11)
    for n in (2, 4, 6, 8, 10):
        P = unimodular(rng, n, multipliers=(-10 ** 6, -7, 5, 10 ** 9))
        assert max(abs(x) for r in P for x in r) > 2 ** 63 or n == 2
        # the form in which P is a canonical basis: P^-1 S P^-T
        Q = int_inverse(P)
        G = matmul(matmul(Q, standard_symplectic(n // 2)), transpose(Q))
        F = matmul(P, G)
        inverse = _inverse_from_form_rows(F)
        assert inverse == ref._symplectic_inverse(P, G) == Q
        assert matmul(P, inverse) == identity(n)
        # the reduction's product of one row with the form, at entries
        # past machine words
        assert max(abs(x) for r in F for x in r) > 2 ** 63 or n == 2
        times = _RowTimes(G)
        assert [times(row) for row in P] == list(F)


def test_inverse_read_off_the_reduction_matches_reference():
    # the inverse that symplectic_basis returns is read off the form rows
    # P @ G of the reduction; the reference multiplies G @ P^T @ (-S)
    for R in [*random_surfaces(5, 20), *(schema_to_ribbon(canonical_word(g)) for g in (1, 2, 10, 20))]:
        B, G = symplectic_basis(R), homology(R).pairing_matrix
        assert B.inverse == ref._symplectic_inverse(B.matrix, G), R
        assert matmul(B.matrix, B.inverse) == identity(len(G)), R
    # forms with huge entries: the reduction's rows are P @ G, and the
    # inverse read off them
    for form in huge_entry_forms():
        P, F = _symplectic_reduction(form)
        assert F == matmul(P, form), form
        inverse = _inverse_from_form_rows(F)
        assert inverse == ref._symplectic_inverse(P, form), form
        assert matmul(P, inverse) == identity(len(form)), form


# ---------------------------------------------------------------------------
# a surface's form always has a unit pivot: the reduction without a Euclid
# pass succeeds, and its basis is the reference's, which keeps that pass

def assert_reduced_as_the_reference_does(R):
    G = homology(R).pairing_matrix
    assert _symplectic_reduction(G)[0] == ref.symplectic_reduction(G)[0], R
    assert_same_basis(R)


@settings(max_examples=200, deadline=None)
@given(tiny_weighted_graphs())
def test_tiny_surfaces_reduce_by_unit_pivots_as_the_reference_does(case):
    assert_reduced_as_the_reference_does(case[0].ribbon)


def test_random_surfaces_reduce_by_unit_pivots_as_the_reference_does():
    rng = random.Random("unit-pivots")
    for _ in range(150):
        V = rng.randrange(1, 12)
        assert_reduced_as_the_reference_does(
            random_ribbon_graph(rng, max_edges=rng.randrange(max(V, 2), 60), vertices=V))


def one_vertex_word(rng, genus):
    """A random orientable gluing word of 2 * genus labels whose polygon
    glues to a single vertex, so the surface has that genus."""
    while True:
        sides = [(str(i), inverse) for i in range(2 * genus) for inverse in (False, True)]
        rng.shuffle(sides)
        R = schema_to_ribbon(tuple(sides))
        if len(R.rotation) == 1:
            return R


def test_one_vertex_words_reduce_by_unit_pivots_as_the_reference_does():
    rng = random.Random("unit-pivot-words")
    for genus in range(1, 25):
        for _ in range(2):
            R = one_vertex_word(rng, genus)
            assert homology(R).rank == 2 * genus
            assert_reduced_as_the_reference_does(R)


# ---------------------------------------------------------------------------
# the form from prefix sums against the indicator lists it replaced, and
# the kept faces and tree walks against the routines before them

SEEDED = 300


def seeded_surface(rng):
    """A random rotation system of 1..12 vertices and up to 30 edges;
    about one in four has a random nonempty set of faces marked as
    boundary walks."""
    V = rng.randrange(1, 13)
    E = rng.randrange(max(V - 1, 1), 31)
    R = random_ribbon_graph(rng, max_edges=E, min_edges=E, vertices=V)
    if rng.random() < 0.25:
        faces = [f[0] for f in trace_faces(R)]
        R = RibbonGraph(R.rotation, R.twin, rng.sample(faces, rng.randrange(1, len(faces) + 1)))
    return R


def assert_form_as_before(R):
    H = SurfaceHomology(R)
    assert H.pairing_matrix == ref.interlace_form(R, H), R


@settings(max_examples=200, deadline=None)
@given(tiny_weighted_graphs())
def test_form_of_tiny_surfaces_matches_indicator_lists(case):
    assert_form_as_before(case[0].ribbon)


def test_form_of_seeded_random_surfaces_matches_indicator_lists():
    rng = random.Random("prefix-sums")
    kinds = set()
    for _ in range(SEEDED):
        R = seeded_surface(rng)
        kinds.add((len(R.rotation) == 1, bool(R.boundary_faces)))
        assert_form_as_before(R)
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("genus", range(1, 41))
def test_form_of_canonical_words_matches_indicator_lists(genus):
    assert_form_as_before(schema_to_ribbon(canonical_word(genus)))


def test_kept_faces_and_tree_walks_match_the_routines_before_them():
    rng = random.Random("prefix-sums")
    for _ in range(SEEDED):
        R = seeded_surface(rng)
        assert trace_faces(R) == reference_ribbon.trace_faces(R), R
        H, old = homology(R), ref.SurfaceHomology(R)
        walks = [w for w, _ in cotree_basis(R)]
        assert walks == [H.fundamental_walk(e) for e in H.fundamental_edges], R
        assert walks == [old.fundamental_walk(e) for e in old.fundamental_edges], R


# ---------------------------------------------------------------------------
# intersection numbers read off the form against the strand rule

def strand_rule_agreement(R, walks):
    """Assert that the form and the strand rule give each edge-disjoint
    ordered pair of the walks the same intersection number; return the
    numbers, counted by value."""
    edge_sets = [{edge_of_dart(R, d) for d in w} for w in walks]
    seen = Counter()
    for w1, e1 in zip(walks, edge_sets):
        for w2, e2 in zip(walks, edge_sets):
            if not e1 & e2:
                number = algebraic_intersection(R, w1, w2)
                assert number == ref.algebraic_intersection(R, w1, w2), (R, w1, w2)
                seen[number] += 1
    return seen


@settings(max_examples=200, deadline=None)
@given(tiny_weighted_graphs())
def test_intersection_numbers_of_tiny_surfaces_match_the_strand_rule(case):
    G, bound = case
    walks = [c.darts for c in enumerate_cycles(G, bound)] + [w for w, _ in cotree_basis(G.ribbon)]
    strand_rule_agreement(G.ribbon, walks)


def test_intersection_numbers_of_seeded_surfaces_match_the_strand_rule():
    rng = random.Random("strand-rule")
    seen = {False: Counter(), True: Counter()}
    for _ in range(SEEDED):
        R = seeded_surface(rng)
        seen[bool(R.boundary_faces)] += strand_rule_agreement(R, [w for w, _ in cotree_basis(R)])
    # closed and bordered surfaces both occur, each with crossing pairs
    for numbers in seen.values():
        assert numbers[0] and numbers[1] and numbers[-1]


def test_intersection_of_walks_that_share_an_edge_is_refused_as_the_strand_rule_does():
    R = schema_to_ribbon("a b a' b'")
    for rule in (algebraic_intersection, ref.algebraic_intersection):
        with pytest.raises(ValidationError, match="walks share an edge"):
            rule(R, (0,), (0, 1))
        with pytest.raises(ValidationError, match="immediate reversal"):
            rule(R, (0, 2), (1,))
