"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-4 and 7 pin the catalog surfaces to their declared values
with exact integer/rational arithmetic (float tolerances only where a
declared decimal is compared).  Criteria 5, 6 and 8 are randomized
property suites with fixed seeds.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from surfhom import hyperbolic
from surfhom.catalog import candidate_pool, load_example
from surfhom.homology import (
    algebraic_intersection,
    chain_complex,
    class_of_walk,
    complete_system_cotree,
    cotree_basis,
    homology,
    standard_symplectic,
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
    complement_components,
    schema_to_ribbon,
    surface_invariants,
    trace_faces,
    walk_vertices,
)
from surfhom.zlattice import (
    _rank_mod_p,
    as_int_matrix,
    det_int,
    identity,
    int_inverse,
    is_partial_basis,
    matmul,
    subgroup_index,
)

from .reference_zlattice import smith_normal_form
from .util import random_ribbon_graph


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_polygon_surface():
    """20-gon word: genus 3, one face; complements 1 and 2; det +-1."""
    b = load_example("example1")
    base = schema_to_ribbon(
        "1 2 1' 3 4 5 2' 5' 6 3' 7 8 7' 9 6' 10 8' 10' 4' 9'"
    )
    inv = surface_invariants(base)
    assert inv.genus == 3
    assert inv.faces == 1
    five = [b.curves[c] for c in ("beta1", "beta2", "beta3", "gamma", "delta")]
    assert complement_components(b.closed, five) == 1
    assert complement_components(b.closed, five + [b.curves["alpha1"]]) == 2
    assert abs(det_int(b.declared)) == 1
    # the same determinant through the catalog walks' computed classes
    computed = tuple(
        class_of_walk(b.closed, b.curves[c], b.reference).coords
        for c in b.curve_order
    )
    assert abs(det_int(computed)) == 1
    report(1, "genus-3 word surface, separation counts and unimodular completion")


def test_criterion_2_genus2_ribbon_graphs():
    """Declared coordinates, index 2, procedure-I behaviour over Z and Z2."""
    for name, delta_row in (("example2G", (-1, 0, 2, 1)), ("example2H", (-1, 1, 2, 1))):
        b = load_example(name)
        for i, curve in enumerate(b.curve_order):
            got = class_of_walk(b.closed, b.curves[curve], b.reference).coords
            assert got == b.declared[i]
        assert b.declared[b.curve_order.index("delta")] == delta_row
        rows = tuple(b.declared[b.curve_order.index(c)]
                     for c in ("alpha", "beta", "gamma", "delta"))
        assert subgroup_index(rows) == 2
        pool = candidate_pool(b, Fraction(4))
        tr = successive_minima_I(pool, 0, 4)
        assert sorted(c.name for c in tr.selected) == ["alpha", "beta", "delta", "gamma"]
        assert subgroup_index([c.cls for c in tr.selected]) == 2  # not a basis
        # over the two-element field the run of the same procedure does
        # complete to a basis (the four systoles alone cannot: their sum
        # of classes is divisible by 2)
        tr2 = successive_minima_I(pool, 2, 4)
        assert len(tr2.selected) == 4
        assert _rank_mod_p([c.cls for c in tr2.selected], 2) == 4
        assert _rank_mod_p(rows, 2) == 3
    report(2, "index-2 systole spans over Z, completed bases over Z2")


def test_criterion_3_hyperbolic_numerics():
    """Expected decimals to 1e-3 (5e-4 for the arm), residuals to 1e-9."""
    s = hyperbolic.solve_arm_parameter()
    t = hyperbolic.pentagon_opposite(s)
    crown = hyperbolic.build_crown(5, 8.0 * t)
    assert abs(s - 1.061) <= 5e-4
    assert abs(crown.width - 2.234) <= 1e-3
    assert abs(crown.geodesic_len - 2.656) <= 1e-3
    assert abs(hyperbolic.crown_limit_length() - 2.633) <= 1e-3
    assert crown.width > 2.0 * t
    for row in hyperbolic.identity_report():
        assert row["residual"] <= 1e-9
    stats = hyperbolic.example3_assembly()
    assert stats.closed_genus == 12
    assert stats.collar_ok
    model = load_example("example3").expected["model"]
    assert subgroup_index(model) == 2
    report(3, "octagon/crown numerics, genus 12 assembly, index-2 model")


def test_criterion_4_genus4_weighted_graph():
    """Determinant table, exact spectrum, procedure II, witness basis."""
    b = load_example("example4")
    rows = b.declared
    assert det_int(rows[:7] + (rows[7],)) == 2
    assert det_int(rows[:7] + (rows[8],)) == -3
    assert det_int(rows[:7] + (rows[9],)) == -1
    assert det_int(rows[1:9]) == 1
    pool = candidate_pool(b, Fraction(13, 12))
    assert tuple(c.name for c in pool) == tuple(f"u{k:02d}" for k in range(1, 11))
    assert tuple(c.length for c in pool) == tuple(
        Fraction(200 + k, 200) for k in range(1, 11)
    )
    tr = successive_minima_II(pool)
    assert tuple(c.name for c in tr.selected) == (
        "u01", "u02", "u03", "u04", "u05", "u06", "u07", "u10"
    )
    assert tuple(e.cycle.name for e in tr.events if e.decision == "rejected") == (
        "u08", "u09"
    )
    ok, witness = is_globally_minimal(tr.selected, pool)
    assert not ok
    assert tuple(sorted(c.name for c in witness)) == tuple(
        f"u{k:02d}" for k in range(2, 10)
    )
    la = sorted(c.length for c in tr.selected)
    lb = sorted(c.length for c in witness)
    assert lb[-1] < la[-1]  # the ninth curve beats the tenth
    assert all(a <= bb for a, bb in zip(la[:-1], lb[:-1]))
    report(4, "determinants (2,-3,-1,1), exact spectrum, witness u2..u9")


def _random_disjoint_system(rng, R):
    """A random system of pairwise edge-disjoint embedded cycles."""
    G = WeightedGraph(R, (Fraction(1),) * R.n_edges)
    # embedded cycles visit each vertex at most once, so their length is
    # bounded by the vertex count
    cycles = [
        c.darts
        for c in enumerate_cycles(G, Fraction(len(R.rotation)))
        if len(set(walk_vertices(R, c.darts))) == len(c.darts)
    ]
    rng.shuffle(cycles)
    system = []
    used = set()
    for darts in cycles:
        edges_of = {min(d, R.twin[d]) for d in darts}
        if edges_of & used:
            continue
        if rng.random() < 0.6:
            system.append(darts)
            used |= edges_of
    return system


def test_criterion_5_lemma_completion_suite():
    """200 random ribbon graphs: systems with connected complement are
    partial bases and complete through the cotree to 2g classes."""
    rng = random.Random(2025)
    done = 0
    while done < 200:
        R = random_ribbon_graph(rng, max_edges=8)
        H = homology(R)
        g2 = H.rank
        system = _random_disjoint_system(rng, R)
        while system and complement_components(R, system) != 1:
            system.pop()
        completed = complete_system_cotree(R, system)
        assert len(completed) == g2
        assert len(system) <= g2
        M = as_int_matrix([cls for _, cls in completed])
        if g2:
            assert abs(det_int(M)) == 1
        # every sub-system inherits the connected complement and stays
        # extendable
        for r in range(len(system) + 1):
            for subset in combinations(system, r):
                assert complement_components(R, subset) == 1
                rows = as_int_matrix(
                    [H.class_of_walk(w) for w in subset]
                ) if subset else ()
                assert is_partial_basis(rows, 0)
        done += 1
    report(5, "200 randomized cotree completions, all unimodular")


def test_criterion_6_procedure_I_minimality_suite():
    """100 random weighted instances where procedure I reaches a basis:
    the lemma inequality holds and the basis is globally minimal."""
    rng = random.Random(46)
    done = 0
    while done < 100:
        R = random_ribbon_graph(rng, max_edges=6)
        inv = surface_invariants(R)
        if inv.genus == 0:
            continue
        G = WeightedGraph(
            R, tuple(Fraction(rng.randrange(2, 25), 8) for _ in range(R.n_edges))
        )
        bound = sum(G.edge_length, Fraction(0)) * 2
        cycles = enumerate_cycles(G, bound)
        if len(cycles) > 12:
            continue
        H = homology(R)
        cands = [c.with_class(H.class_of_walk(c.darts)) for c in cycles]
        tr = successive_minima_I(cands, 0, 2 * inv.genus)
        M = [c.cls for c in tr.selected]
        if len(M) < 2 * inv.genus or abs(det_int(as_int_matrix(M))) != 1:
            continue
        assert verify_lemma_procI_minimal(tr, cands)
        ok, _ = is_globally_minimal(tr.selected, cands)
        assert ok
        done += 1
    report(6, "100 randomized procedure-I bases, all globally minimal")


def test_criterion_7_perturbed_global_minimum():
    """The perturbed soul: alpha,beta,gamma,eta is globally minimal but
    procedure I still selects delta as its fourth element."""
    b = load_example("remark45G")
    pool = candidate_pool(b, Fraction(4))
    first = pool[:5]
    assert tuple(c.name for c in first) == ("alpha", "beta", "gamma", "delta", "eta")
    lengths = [c.length for c in first]
    assert all(a < bb for a, bb in zip(lengths, lengths[1:]))
    tr = successive_minima_I(pool, 0, 4)
    assert tr.selected[3].name == "delta"
    basis = [b.cycle(n) for n in ("alpha", "beta", "gamma", "eta")]
    ok, witness = is_globally_minimal(basis, pool)
    assert ok and witness is None
    # the brute-force optimum is exactly what procedure II returns
    tr2 = successive_minima_II(pool)
    assert sorted(c.name for c in tr2.selected) == ["alpha", "beta", "eta", "gamma"]
    assert sorted(c.name for c in tr.selected) != sorted(c.name for c in tr2.selected)
    report(7, "global minimum exists but procedure I misses it")


def test_criterion_8_cross_cutting_invariants():
    """500 randomized cases per invariant family, zero failures."""
    rng = random.Random(512)

    # boundary-of-boundary vanishes
    for _ in range(500):
        R = random_ribbon_graph(rng, max_edges=6)
        cc = chain_complex(R)
        prod = matmul(cc.d1, cc.d2)
        assert all(x == 0 for row in prod for x in row)

    # Smith round trips with unimodular transforms and divisibility
    for _ in range(500):
        rows_n = rng.randrange(1, 5)
        cols_n = rng.randrange(1, 5)
        A = as_int_matrix(
            [[rng.randrange(-9, 10) for _ in range(cols_n)] for _ in range(rows_n)]
        )
        snf = smith_normal_form(A)
        assert matmul(matmul(snf.U, A), snf.V) == snf.D
        assert abs(det_int(snf.U)) == 1 and abs(det_int(snf.V)) == 1
        assert matmul(snf.V, snf.V_inv) == identity(cols_n)
        assert int_inverse(snf.V) == snf.V_inv
        facs = [d for d in snf.invariant_factors if d]
        assert all(b % a == 0 for a, b in zip(facs, facs[1:]))

    # intersection form: antisymmetry of the local rule and invariance
    # of the chain-level pairing under adding face boundaries
    done = 0
    while done < 500:
        R = random_ribbon_graph(rng, max_edges=6)
        H = homology(R)
        walks = [w for w, _ in cotree_basis(R)]
        faces = trace_faces(R)
        for w1 in walks:
            for w2 in walks:
                e1 = {min(d, R.twin[d]) for d in w1}
                e2 = {min(d, R.twin[d]) for d in w2}
                if e1 & e2:
                    continue
                a = algebraic_intersection(R, w1, w2)
                assert a == -algebraic_intersection(R, w2, w1)
                assert a == H.pair(H.class_of_walk(w1), H.class_of_walk(w2))
                done += 1
        # face boundaries are null-homologous and pair trivially
        # against every cycle
        for f in faces:
            rho = H.class_of_chain(f)
            assert all(x == 0 for x in rho)
            for e in H.fundamental_edges:
                assert H.pair(rho, H.fundamental_class(e)) == 0

    # symplectic reduction reaches the standard block form
    done = 0
    while done < 500:
        R = random_ribbon_graph(rng, max_edges=6)
        if surface_invariants(R).genus == 0:
            continue
        B = symplectic_basis(R)
        g = homology(R).rank // 2
        assert B.pairing == standard_symplectic(g)
        assert abs(det_int(B.matrix)) == 1
        done += 1

    report(8, "chain, Smith, intersection and symplectic invariants x500")
