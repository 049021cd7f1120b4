import gc
import importlib
import random
import weakref

import pytest
from hypothesis import given, settings

from surfhom import ribbon
from surfhom.homology import (
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
from surfhom.minima import WeightedGraph, enumerate_cycles
from surfhom.ribbon import (
    RibbonGraph,
    ValidationError,
    complement_components,
    schema_to_ribbon,
    surface_invariants,
    trace_faces,
)
from surfhom.zlattice import (
    LatticeError,
    _rank_mod_p,
    as_int_matrix,
    det_int,
    identity,
    is_partial_basis,
    matmul,
    transpose,
)

from . import reference_homology as ref
from .reference_zlattice import smith_normal_form
from .util import random_ribbon_graph, tiny_weighted_graphs

WORD20 = "1 2 1' 3 4 5 2' 5' 6 3' 7 8 7' 9 6' 10 8' 10' 4' 9'"

homology_module = importlib.import_module("surfhom.homology")


def pairs_canonically(R, B):
    """Whether the basis rows B.matrix pair as the standard form S under
    the intersection form of R's homology."""
    M = B.matrix
    S = standard_symplectic(len(M) // 2)
    return matmul(matmul(M, homology(R).pairing_matrix), transpose(M)) == S


def rank_of(M):
    M = as_int_matrix(M)
    if not M or not M[0]:
        return 0
    return smith_normal_form(M).rank


def test_chain_complex_torus():
    R = schema_to_ribbon("a b a' b'")
    cc = chain_complex(R)
    assert matmul(cc.d1, cc.d2) == ((0,), ((0,),)[0]) or all(
        x == 0 for row in matmul(cc.d1, cc.d2) for x in row
    )
    # rank H1 = dim ker d1 - rank d2
    E = len(cc.d1[0])
    assert E - rank_of(cc.d1) - rank_of(cc.d2) == 2
    assert homology(R).rank == 2


def test_chain_complex_genus3():
    R = schema_to_ribbon(WORD20)
    cc = chain_complex(R)
    assert all(x == 0 for row in matmul(cc.d1, cc.d2) for x in row)
    assert homology(R).rank == 6


def test_torus_intersection_convention():
    # rotation a b a' b' around the single vertex: <a, b> = +1
    R = schema_to_ribbon("a b a' b'")
    H = homology(R)
    a = H.class_of_walk((0,))
    b = H.class_of_walk((1,))
    assert H.pair(a, b) == 1
    assert algebraic_intersection(R, (0,), (1,)) == 1
    assert algebraic_intersection(R, (1,), (0,)) == -1


@pytest.mark.parametrize("c1, c2", [
    ((1,), (0, 1)),           # short: was read as (1, 0)
    ((1, 0, 5), (0, 1, 0)),   # long: was an IndexError
    ((1, 0), (0, 1, 0)),
    ([1, 0], (0, 1)),         # a list is not a class
    ((True, 0), (0, 1)),      # True equals 1 but is not an int
    ((1, 0), (0, 1.0)),
    ((1, 0), None),
], ids=repr)
def test_pair_refuses_classes_that_are_not_rank_tuples_of_ints(c1, c2):
    H = homology(schema_to_ribbon("a b a' b'"))
    assert H.pair((1, 0), (0, 1)) == 1
    with pytest.raises(ValidationError, match="is not a tuple of 2 ints"):
        H.pair(c1, c2)


def test_cotree_basis_torus():
    R = schema_to_ribbon("a b a' b'")
    basis = cotree_basis(R)
    assert len(basis) == 2
    M = as_int_matrix([c for _, c in basis])
    assert abs(det_int(M)) == 1


def test_cotree_generates_closed_surface():
    R = schema_to_ribbon(WORD20)
    M = as_int_matrix([c for _, c in cotree_basis(R)])
    snf = smith_normal_form(M)
    assert snf.rank == 6
    assert all(d == 1 for d in snf.invariant_factors[:6])


def test_face_boundary_is_null_homologous():
    R = schema_to_ribbon(WORD20)
    H = homology(R)
    for f in trace_faces(R):
        # face walks may repeat edges, so go through the chain class
        cls = H.class_of_chain(f)
        assert all(x == 0 for x in cls)
        for e in H.fundamental_edges:
            assert H.pair(cls, H.fundamental_class(e)) == 0
    with pytest.raises(ValidationError):
        H.class_of_chain((R.n_darts,))


def test_fundamental_class_of_tree_darts_and_of_darts_not_in_the_graph():
    R = schema_to_ribbon(WORD20)
    H = homology(R)
    non_tree = set(H.fundamental_edges) | {R.twin[e] for e in H.fundamental_edges}
    tree = [d for d in range(R.n_darts) if d not in non_tree]
    assert tree and all(H.fundamental_class(d) is None for d in tree)
    for e in H.fundamental_edges:
        assert H.fundamental_class(R.twin[e]) == tuple(-x for x in H.fundamental_class(e))
    assert H.fundamental_class(1) is not None  # so True is refused for its type
    for d in (99, R.n_darts, -1, 0.5, "0", None, 1.0, True, False):
        with pytest.raises(ValidationError) as err:
            H.fundamental_class(d)
        assert str(err.value) == f"dart {d!r} not in graph"
        with pytest.raises(ValidationError, match="not on a non-tree edge"):
            H.fundamental_walk(d)


@pytest.mark.parametrize(
    "dart", [99, -1, 0.5, "0", None, [0], {0: 1}, (0, [1]), 1.0, True, False]
)
def test_class_of_chain_names_a_dart_not_in_graph(dart):
    # unhashable darts are refused like the others, not with a TypeError;
    # 1.0, True and False equal darts 1 and 0 but are not ints
    H = homology(schema_to_ribbon(WORD20))
    for chain in ([dart], [0, dart, 1], iter([0, dart])):
        with pytest.raises(ValidationError) as err:
            H.class_of_chain(chain)
        assert str(err.value) == f"dart {dart!r} not in graph"


def test_class_of_a_chain_past_the_digit_width_is_exact():
    # with fewer than 128 edges the packed dart rows hold one byte per
    # coordinate; a walk run 200 times still gets 200 times its class
    R = schema_to_ribbon(WORD20)
    H = homology(R)
    assert R.n_edges < 128
    pairs = cotree_basis(R)
    assert any(1 in cls for _, cls in pairs)
    for walk, cls in pairs:
        assert H.class_of_chain(walk * 200) == tuple(200 * x for x in cls)


def test_homology_is_kept_on_the_graph_and_freed_with_it():
    R = schema_to_ribbon(WORD20)
    H = homology(R)
    assert homology(R) is H
    assert homology(schema_to_ribbon(WORD20)) is not H
    ref = weakref.ref(R)
    del R, H
    gc.collect()
    assert ref() is None


def test_faces_are_traced_once_per_surface(monkeypatch):
    # the surface keeps its faces: its invariants and its homology share
    # one tracing, and every call returns the same tuple
    calls = []

    def counted(rotation, twin):
        calls.append(1)
        return raw(rotation, twin)

    raw = ribbon._trace_faces_raw
    monkeypatch.setattr(ribbon, "_trace_faces_raw", counted)
    for R in (schema_to_ribbon(WORD20), random_ribbon_graph(random.Random(8), max_edges=9)):
        calls.clear()
        surface_invariants(R)
        homology(R)
        cotree_basis(R)
        assert trace_faces(R) is trace_faces(R)
        assert len(calls) == 1
    # a bordered surface traces its faces to validate its boundary walks,
    # and keeps them
    calls.clear()
    R = RibbonGraph(R.rotation, R.twin, {trace_faces(R)[0][0]})
    assert len(calls) == 1
    surface_invariants(R)
    homology(R)
    assert len(calls) == 1


def test_vertices_are_searched_once_per_surface(monkeypatch):
    # validation's BFS tree of the vertices is the spanning tree of the
    # homology: building R, its homology and its cotree basis searches
    # the vertices once (the cotree's search runs over the faces)
    vertex_searches = []

    def counted(darts_of, root):
        if isinstance(darts_of, list):  # the faces are searched through a dict
            vertex_searches.append(root)
        return search(darts_of, root)

    rng = random.Random(8)
    surfaces = [schema_to_ribbon(WORD20)] + [random_ribbon_graph(rng, max_edges=9) for _ in range(5)]
    search = ribbon._spanning_tree
    monkeypatch.setattr(ribbon, "_spanning_tree", counted)
    monkeypatch.setattr(homology_module, "_spanning_tree", counted)
    for S in surfaces:
        vertex_searches.clear()
        R = RibbonGraph(S.rotation, S.twin, S.boundary_faces)
        homology(R)
        cotree_basis(R)
        assert vertex_searches == [0]


def test_graph_and_homology_are_freed_without_the_cycle_collector():
    # the homology keeps the dart tables it reads, not R, so no
    # reference cycle holds R once the caller drops it
    gc.disable()
    try:
        R = schema_to_ribbon(WORD20)
        H = homology(R)
        basis, reversal = cotree_basis(R), (0, R.twin[0])
        ref = weakref.ref(R)
        del R
        assert ref() is None
        # H outlives R, and still validates the walks it is given
        assert [H.class_of_walk(w) for w, _ in basis] == [c for _, c in basis]
        with pytest.raises(ValidationError, match="immediate reversal"):
            H.class_of_walk(reversal)

        R = random_ribbon_graph(random.Random(5), max_edges=6)
        cycles = enumerate_cycles(WeightedGraph(R, [1] * R.n_edges), R.n_edges)
        assert cycles
        ref = weakref.ref(R)
        del R
        assert ref() is None
    finally:
        gc.enable()


def test_symplectic_basis_torus_and_word20():
    for word, g in (("a b a' b'", 1), (WORD20, 3)):
        R = schema_to_ribbon(word)
        B = symplectic_basis(R)
        assert len(B.matrix) == 2 * g and pairs_canonically(R, B)
        assert abs(det_int(B.matrix)) == 1


@pytest.mark.parametrize("bad, message", [
    ((1.5, 0), "class entry 1.5 is not an int"),      # was (1.5, 0.0)
    ((1, 0.0), "class entry 0.0 is not an int"),
    ((True, 0), "class entry True is not an int"),    # True equals 1 but is not an int
    ("ab", "class entry 'a' is not an int"),          # was a raw TypeError
    (None, "class None is not an iterable of ints"),  # was a raw TypeError
    (5, "class 5 is not an iterable of ints"),
], ids=repr)
def test_express_refuses_what_is_not_a_class_of_ints(bad, message):
    R = schema_to_ribbon(WORD20)
    B = symplectic_basis(R)
    walk = cotree_basis(R)[0][0]
    cls = homology(R).class_of_walk(walk)
    assert B.express(list(cls)) == B.express(iter(cls)) == B.express(cls)
    assert class_of_walk(R, walk, B, 2).coords == B.express(cls, 2)
    for modulus in (0, 2):
        with pytest.raises(ValidationError) as err:
            B.express(bad, modulus)
        assert str(err.value) == message
    with pytest.raises(LatticeError, match="length does not match"):
        B.express(cls[:-1])


@pytest.mark.parametrize("chain", [None, 5, 0.5])
def test_class_of_chain_refuses_a_chain_that_is_not_iterable(chain):
    H = homology(schema_to_ribbon(WORD20))
    with pytest.raises(ValidationError) as err:
        H.class_of_chain(chain)
    assert str(err.value) == f"chain {chain!r} is not an iterable of darts"


def test_symplectic_basis_random():
    rng = random.Random(11)
    done = 0
    while done < 20:
        R = random_ribbon_graph(rng, max_edges=7)
        if surface_invariants(R).genus == 0:
            continue
        B = symplectic_basis(R)
        assert pairs_canonically(R, B)
        assert abs(det_int(B.matrix)) == 1
        done += 1


@settings(max_examples=200, deadline=None)
@given(tiny_weighted_graphs())
def test_tiny_surfaces_reduce_to_the_standard_form(case):
    R = case[0].ribbon
    H = homology(R)
    G = H.pairing_matrix
    assert G == tuple(tuple(-x for x in col) for col in zip(*G))
    B = symplectic_basis(R)
    assert B.matrix == ref.unit_pivot_reduction(G)[0]
    assert matmul(matmul(B.matrix, G), transpose(B.matrix)) == standard_symplectic(H.rank // 2)
    assert matmul(B.matrix, B.inverse) == identity(H.rank)


@pytest.mark.parametrize("genus", [True, -1, 1.5])
def test_standard_form_refuses_a_genus_that_is_not_a_natural_int(genus):
    # True would equal 1 and -1 would give the empty form
    with pytest.raises(ValidationError):
        standard_symplectic(genus)


@settings(max_examples=200, deadline=None)
@given(tiny_weighted_graphs())
def test_tiny_surfaces_faces_genus_and_face_chains(case):
    R = case[0].ribbon
    faces = trace_faces(R)
    # every dart lies on exactly one face
    assert sorted(d for f in faces for d in f) == list(range(R.n_darts))
    H = homology(R)
    inv = surface_invariants(R)
    assert inv.faces == len(faces)
    assert inv.genus == H.rank / 2
    # a face boundary is null-homologous
    for f in faces:
        assert H.class_of_chain(f) == (0,) * H.rank


def test_intersection_two_routes_agree():
    # the strand rule (the oracle's corner count at shared vertices) and
    # the homological pairing are independent computations; they must
    # agree on edge-disjoint walk pairs
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        R = random_ribbon_graph(rng, max_edges=7)
        H = homology(R)
        walks = [w for w, _ in cotree_basis(R)]
        for i in range(len(walks)):
            for j in range(len(walks)):
                w1, w2 = walks[i], walks[j]
                e1 = {min(d, R.twin[d]) for d in w1}
                e2 = {min(d, R.twin[d]) for d in w2}
                if e1 & e2:
                    continue
                local = ref.algebraic_intersection(R, w1, w2)
                homological = H.pair(H.class_of_walk(w1), H.class_of_walk(w2))
                assert local == homological
                checked += 1


def test_intersection_errors_on_shared_edge():
    R = schema_to_ribbon("a b a' b'")
    with pytest.raises(ValidationError):
        algebraic_intersection(R, (0,), (0, 1))


def test_intersection_antisymmetry_random():
    rng = random.Random(5)
    pairs = 0
    while pairs < 30:
        R = random_ribbon_graph(rng, max_edges=7)
        walks = [w for w, _ in cotree_basis(R)]
        for i in range(len(walks)):
            for j in range(i + 1, len(walks)):
                e1 = {min(d, R.twin[d]) for d in walks[i]}
                e2 = {min(d, R.twin[d]) for d in walks[j]}
                if e1 & e2:
                    continue
                assert algebraic_intersection(R, walks[i], walks[j]) == -algebraic_intersection(
                    R, walks[j], walks[i]
                )
                pairs += 1


def test_single_walk_separation_matches_class():
    # a simple cycle separates exactly when its class vanishes
    rng = random.Random(31)
    done = 0
    while done < 30:
        R = random_ribbon_graph(rng, max_edges=7)
        H = homology(R)
        for walk, cls in cotree_basis(R):
            verts = [walk[0]]
            from surfhom.ribbon import walk_vertices

            vs = walk_vertices(R, walk)
            if len(set(vs)) != len(vs):
                continue  # not an embedded circle
            comp = complement_components(R, [walk])
            if all(x == 0 for x in cls):
                assert comp == 2
            else:
                assert comp == 1
            done += 1


def test_complete_system_cotree_on_word20():
    R = schema_to_ribbon(WORD20)
    from surfhom.ribbon import dart_of_label, walk_from_edge_set

    curves = [
        walk_from_edge_set(R, [dart_of_label(R, l) for l in labels])
        for labels in [("2",), ("8",), ("4", "6"), ("3", "9"), ("1", "5", "7", "10")]
    ]
    assert complement_components(R, curves) == 1
    completed = complete_system_cotree(R, curves)
    assert len(completed) == 6
    M = as_int_matrix([c for _, c in completed])
    assert abs(det_int(M)) == 1


@pytest.mark.parametrize("p", (2, 3))
def test_complete_system_cotree_mod_p(p):
    from surfhom.catalog import load_example
    from surfhom.ribbon import dart_of_label, walk_from_edge_set

    R = schema_to_ribbon(WORD20)
    word20 = [
        walk_from_edge_set(R, [dart_of_label(R, l) for l in labels])
        for labels in [("2",), ("8",), ("4", "6"), ("3", "9"), ("1", "5", "7", "10")]
    ]
    b = load_example("example1")
    five = [b.curves[c] for c in b.expected["five_curves"]]
    for surface, system in ((R, word20), (b.closed, five)):
        H = homology(surface)
        completed = complete_system_cotree(surface, system, p)
        assert [w for w, _ in completed[:len(system)]] == system
        assert len(completed) == H.rank
        assert _rank_mod_p([c for _, c in completed], p) == H.rank


def test_reference_basis_from_table_torus():
    R = schema_to_ribbon("a b a' b'")
    basis = reference_basis_from_table(
        R,
        "canonical",
        ("a1", "b1"),
        ((1, 0), (0, 1)),
        [(0,), (1,)],
        basis_walks={"a1": (0,), "b1": (1,)},
    )
    got = class_of_walk(R, (0, 1), basis)
    assert got.coords == (1, 1)
    assert pairs_canonically(R, basis)


def test_reference_basis_that_does_not_pair_canonically_is_refused():
    # (b, a) is a basis of the torus's H1, but it pairs as -S
    R = schema_to_ribbon("a b a' b'")
    B = reference_basis_from_table(R, "x", ("a1", "b1"), ((1, 0), (0, 1)), [(0,), (1,)])
    with pytest.raises(LatticeError, match="does not pair as a canonical basis"):
        reference_basis_from_table(R, "x", ("a1", "b1"), ((0, 1), (1, 0)), [(0,), (1,)])
    assert matmul(B.matrix, B.inverse) == identity(2)


def test_reference_basis_from_an_empty_table_is_refused():
    R = schema_to_ribbon("a b a' b'")
    with pytest.raises(LatticeError, match="empty"):
        reference_basis_from_table(R, "x", (), (), ())
    # a width-0 table on a sphere, one loop at one vertex
    sphere = RibbonGraph(((0, 1),), (1, 0))
    assert homology(sphere).rank == 0
    with pytest.raises(LatticeError, match="empty"):
        reference_basis_from_table(sphere, "x", (), ((),), [(0,)])


def test_reference_basis_from_rows_that_do_not_span_is_refused():
    R = schema_to_ribbon("a b a' b'")
    with pytest.raises(LatticeError):
        reference_basis_from_table(R, "x", ("a1", "b1"), ((1, 1), (2, 2)), [(0,), (1,)])


@pytest.mark.parametrize("names", [("a",), ("a", "b", "c")])
def test_reference_basis_with_a_name_count_other_than_the_rank_is_refused(names):
    # one name was kept for two rows, and three were accepted
    R = schema_to_ribbon("a b a' b'")
    with pytest.raises(LatticeError) as err:
        reference_basis_from_table(R, "x", names, ((1, 0), (0, 1)), [(0,), (1,)])
    assert str(err.value) == f"{len(names)} basis names for homology rank 2"


@pytest.mark.parametrize("walks", [[(0,)], [(0,), (1,), (0,)]])
def test_reference_basis_with_a_walk_count_other_than_the_rows_is_refused(walks):
    # zip cut the longer side short, so one walk was refused as rows
    # that do not span and three as an encoding that does not reproduce
    # the table
    R = schema_to_ribbon("a b a' b'")
    with pytest.raises(LatticeError) as err:
        reference_basis_from_table(R, "x", ("a1", "b1"), ((1, 0), (0, 1)), walks)
    assert str(err.value) == f"{len(walks)} walks for 2 declared rows"


@pytest.mark.parametrize("system", [None, 5])
def test_complete_system_cotree_refuses_a_system_that_is_not_iterable(system):
    R = schema_to_ribbon("a b a' b'")
    with pytest.raises(ValidationError) as err:
        complete_system_cotree(R, system)
    assert str(err.value) == f"system {system!r} is not an iterable of walks"
