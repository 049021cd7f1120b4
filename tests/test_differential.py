"""Differential tests: the shared greedy loop, subset search and mod-p
elimination against the separate implementations in
``reference_minima``, on seeded random weighted ribbon graphs."""

import random
from fractions import Fraction

import pytest

from surfhom import minima
from surfhom.homology import homology
from surfhom.minima import MinimaTrace, WeightedGraph, enumerate_cycles
from surfhom.ribbon import ValidationError, surface_invariants
from surfhom.zlattice import _rank_mod_p, in_span

from . import reference_minima as ref
from .util import random_ribbon_graph

MODULI = (0, 2, 3)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError:
        return "not a basis"


def random_pools(n_graphs, pool_size=10):
    rng = random.Random(20230426)
    made = 0
    while made < n_graphs:
        R = random_ribbon_graph(rng, max_edges=5, min_edges=4, vertices=rng.choice((1, 2)))
        g = surface_invariants(R).genus
        if g == 0:
            continue
        G = WeightedGraph(R, [Fraction(rng.randint(2, 24), 8) for _ in range(R.n_edges)])
        H = homology(R)
        cycles = enumerate_cycles(G, sum(G.edge_length))[:pool_size]
        made += 1
        yield g, tuple(c.with_class(H.class_of_walk(c.darts)) for c in cycles)


POOLS = list(random_pools(40))


def searched_bases(g, pool, modulus):
    """Both procedures' selections, the 2g shortest and the 2g longest
    candidates: the last is rarely globally minimal."""
    return (
        minima.successive_minima_I(pool, modulus, 2 * g).selected,
        minima.successive_minima_II(pool, modulus).selected,
        pool[: 2 * g],
        pool[-2 * g:],
    )


@pytest.mark.parametrize("modulus", MODULI)
def test_pools_reach_every_branch(modulus):
    # the search comparisons below are only informative if the random
    # pools give bases that are and are not globally minimal
    verdicts = set()
    for g, pool in POOLS:
        for basis in searched_bases(g, pool, modulus):
            res = outcome(minima.is_globally_minimal, basis, pool, modulus)
            verdicts.add(res if isinstance(res, str) else res[0])
    assert verdicts == {"not a basis", True, False}


@pytest.mark.parametrize("modulus", MODULI)
def test_procedure_traces_match_reference(modulus):
    for g, pool in POOLS:
        for count in (None, 2 * g, g):
            assert minima.successive_minima_I(pool, modulus, count) == \
                ref.successive_minima_I(pool, modulus, count)
        for target in (None, g):
            assert minima.successive_minima_II(pool, modulus, target) == \
                ref.successive_minima_II(pool, modulus, target)


@pytest.mark.parametrize("modulus", MODULI)
def test_subset_searches_match_reference(modulus):
    for g, pool in POOLS:
        for basis in searched_bases(g, pool, modulus):
            assert outcome(minima.is_globally_minimal, basis, pool, modulus) == \
                outcome(ref.is_globally_minimal, basis, pool, modulus)
        # the lemma holds for procedure I's own basis; the other bases
        # reach its failing branch
        for basis in searched_bases(g, pool, modulus):
            tr = MinimaTrace((), basis, "reached-count", modulus)
            for lemma_modulus in MODULI:
                assert outcome(minima.verify_lemma_procI_minimal, tr, pool, lemma_modulus) == \
                    outcome(ref.verify_lemma_procI_minimal, tr, pool, lemma_modulus)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_mod_p_elimination_matches_reference(p):
    rng = random.Random(p)
    for _ in range(400):
        rows, cols = rng.randrange(0, 6), rng.randrange(1, 6)
        M = tuple(tuple(rng.randint(-3, 3) for _ in range(cols)) for _ in range(rows))
        if rows and rng.random() < 0.5:
            coeffs = [rng.randint(-2, 2) for _ in range(rows)]
            v = tuple(sum(c * r[j] for c, r in zip(coeffs, M)) for j in range(cols))
        else:
            v = tuple(rng.randint(-3, 3) for _ in range(cols))
        assert in_span(M, v, p) == ref.in_span(M, v, p)
        assert _rank_mod_p(M, p) == ref.rank_mod_p(M, p)
