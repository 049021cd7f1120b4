from fractions import Fraction

import pytest

from surfhom.catalog import (
    EXAMPLE_NAMES,
    all_examples,
    build_curve_graph,
    candidate_pool,
    load_example,
)
from surfhom.homology import (
    algebraic_intersection,
    class_of_walk,
    complete_system_cotree,
    homology,
    standard_symplectic,
    symplectic_basis,
)
from surfhom.ribbon import (
    complement_components,
    edges,
    format_gluing_word,
    parse_gluing_word,
    surface_invariants,
    walk_edge_labels,
    walk_vertices,
)
from surfhom.zlattice import (
    LatticeError,
    as_int_matrix,
    det_int,
    is_partial_basis,
    matmul,
    subgroup_index,
)

DECLARED_WORD = "1 2 1' 3 4 5 2' 5' 6 3' 7 8 7' 9 6' 10 8' 10' 4' 9'"


def test_unknown_name():
    with pytest.raises(KeyError):
        load_example("example9")


def test_all_bundles_load():
    assert len(all_examples()) == len(EXAMPLE_NAMES)


def test_polygon_word_is_the_declared_one():
    from surfhom.catalog import POLYGON_WORD

    assert format_gluing_word(parse_gluing_word(POLYGON_WORD)) == DECLARED_WORD


def test_bundle_invariants():
    expect = {
        "example1": (3, 0),
        "example2G": (2, 2),
        "example2H": (2, 2),
        "example3": (2, 2),
        "example4": (4, 0),
        "remark45G": (2, 2),
        "remark45H": (2, 2),
    }
    for name, (genus, boundaries) in expect.items():
        b = load_example(name)
        inv = surface_invariants(b.ribbon)
        assert (inv.genus, inv.boundary_count) == (genus, boundaries), name


def test_homology_ranks():
    assert homology(load_example("example1").closed).rank == 6
    assert homology(load_example("example2G").closed).rank == 4
    assert homology(load_example("example4").closed).rank == 8


def test_coordinate_fidelity():
    for name in EXAMPLE_NAMES:
        b = load_example(name)
        for i, curve in enumerate(b.curve_order):
            cls = class_of_walk(b.closed, b.curves[curve], b.reference)
            assert cls.coords == b.declared[i], (name, curve)


@pytest.mark.parametrize("modulus", [4, 1, -3])
def test_coordinates_refuse_a_modulus_that_is_not_prime(modulus):
    # a composite, a unit or a negative modulus gives no field, and -3
    # would give negative residues
    b = load_example("example2G")
    walk = b.curves["alpha"]
    with pytest.raises(LatticeError, match="modulus must be 0 or a prime"):
        class_of_walk(b.closed, walk, b.reference, modulus)
    with pytest.raises(LatticeError, match="modulus must be 0 or a prime"):
        b.reference.express(homology(b.closed).class_of_walk(walk), modulus)
    residues = class_of_walk(b.closed, walk, b.reference, 3).coords
    assert residues == tuple(x % 3 for x in class_of_walk(b.closed, walk, b.reference).coords)


def test_reference_bases_are_canonical():
    for name in EXAMPLE_NAMES:
        b = load_example(name)
        g = len(b.reference.names) // 2
        assert b.reference.pairing == standard_symplectic(g)
        assert abs(det_int(b.reference.matrix)) == 1


def test_example2_curve_structure():
    g = load_example("example2G")
    h = load_example("example2H")
    for b in (g, h):
        for c in ("alpha", "beta", "gamma", "delta"):
            assert len(b.curves[c]) == 2
    # the dummy vertex splits beta in the second soul only
    hverts = walk_vertices(h.closed, h.curves["beta"])
    assert any(len(h.closed.rotation[v]) == 2 for v in hverts)
    gverts = walk_vertices(g.closed, g.curves["beta"])
    assert all(len(g.closed.rotation[v]) == 4 for v in gverts)
    assert len(g.curves["eta"]) == 4 and len(h.curves["eta"]) == 3


def test_example2_intersection_tables():
    # the triple of pairwise single crossings exists on the second
    # surface (alpha, beta, delta) and nowhere on the first
    from itertools import combinations

    for name, want in (("example2G", False), ("example2H", True)):
        b = load_example(name)
        found = False
        for triple in combinations(("alpha", "beta", "gamma", "delta"), 3):
            vals = [
                abs(algebraic_intersection(b.closed, b.curves[x], b.curves[y]))
                for x, y in combinations(triple, 2)
            ]
            if all(v == 1 for v in vals):
                found = True
        assert found == want, name


def test_example4_weights_exact():
    b = load_example("example4")
    labels = [b.closed.edge_labels[i] for i in range(b.closed.n_edges)]
    for k in range(1, 11):
        name = f"u{k:02d}"
        total = sum(
            b.weights.length_of_dart(d) for d in b.curves[name]
        )
        assert total == Fraction(200 + k, 200), name
        m = len(b.curves[name])
        assert m in (2, 3, 4)
        for d in b.curves[name]:
            assert b.weights.length_of_dart(d) == Fraction(200 + k, 200) / m


def test_example4_dets_and_index():
    b = load_example("example4")
    rows = b.declared
    assert det_int(rows[:7] + (rows[7],)) == 2
    assert det_int(rows[:7] + (rows[8],)) == -3
    assert det_int(rows[:7] + (rows[9],)) == -1
    assert det_int(rows[1:9]) == 1
    assert subgroup_index(rows) == 1  # the ten classes span everything


def test_example1_complements():
    b = load_example("example1")
    five = [b.curves[c] for c in b.expected["five_curves"]]
    assert complement_components(b.closed, five) == 1
    assert complement_components(b.closed, five + [b.curves["alpha1"]]) == 2
    assert complement_components(b.closed, []) == 1


def test_example1_lemma_completion():
    b = load_example("example1")
    five = [b.curves[c] for c in b.expected["five_curves"]]
    completed = complete_system_cotree(b.closed, five)
    assert len(completed) == 6
    assert abs(det_int(as_int_matrix([c for _, c in completed]))) == 1


def test_subsystems_are_partial_bases():
    # every sub-system with connected complement extends to a basis
    from itertools import combinations

    b = load_example("example2G")
    H = homology(b.closed)
    curves = [b.curves[c] for c in ("alpha", "beta", "gamma", "delta")]
    for r in range(0, 4):
        for subset in combinations(curves, r):
            if complement_components(b.closed, subset) == 1:
                M = as_int_matrix([H.class_of_walk(w) for w in subset]) if subset else ()
                assert is_partial_basis(M, 0)


def test_cotree_span_matches_curve_span_plus_boundaries():
    # the soul graph's cycles map onto the full homology of the capped
    # surface, and the four curves span an index-2 sublattice of it
    from surfhom.homology import cotree_basis
    from .reference_zlattice import smith_normal_form

    b = load_example("example2G")
    M = as_int_matrix([cls for _, cls in cotree_basis(b.closed)])
    snf = smith_normal_form(M)
    assert snf.rank == 4 and all(d == 1 for d in snf.invariant_factors[:4])
    curves = as_int_matrix(
        [homology(b.closed).class_of_walk(b.curves[c]) for c in ("alpha", "beta", "gamma", "delta")]
    )
    assert subgroup_index(curves) == 2


def test_symplectic_basis_transition_unimodular():
    for name in ("example2G", "example4"):
        b = load_example(name)
        B = symplectic_basis(b.closed)
        g = homology(b.closed).rank // 2
        assert B.pairing == standard_symplectic(g)
        # transition from the derived basis to the catalog basis
        from surfhom.zlattice import int_inverse

        T = matmul(B.matrix, int_inverse(b.reference.matrix))
        assert abs(det_int(T)) == 1


def test_genus12_model_index():
    b = load_example("example3")
    model = b.expected["model"]
    assert len(model) == 24 and len(model[0]) == 24
    assert subgroup_index(model) == 2


def test_candidate_pool_names_and_classes():
    b = load_example("example2G")
    pool = candidate_pool(b, Fraction(4))
    named = {c.name for c in pool if c.name}
    assert named == {"alpha", "beta", "gamma", "delta", "eta"}
    for c in pool:
        assert c.cls is not None


def test_builder_rejects_bad_strands():
    with pytest.raises(ValueError):
        build_curve_graph(
            {"a": ("u", "v")},
            {"u": (("a", "in"), ("a", "out")), "w": (("a", "in"), ("a", "out"))},
        )
