"""Cycle enumeration on integer lengths.

``enumerate_cycles`` is compared with the ``Fraction`` enumeration kept
in ``reference_minima`` on seeded random graphs, one-vertex bouquets and
example4, at bounds that fall on a cycle length, between lengths and
off the common denominator of the lengths; and, on tiny graphs drawn by
Hypothesis, with a brute force over every oriented dart sequence.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings

from surfhom.catalog import load_example
from surfhom.minima import WeightedGraph, enumerate_cycles
from surfhom.ribbon import ValidationError, canonical_walk, validate_walk

from . import reference_minima as ref
from .util import random_ribbon_graph, tiny_weighted_graphs

DENOMINATORS = (1, 7, 8, 12)


def summary(cycles):
    for c in cycles:
        assert type(c.length) is Fraction
    return [(c.darts, c.length, c.key) for c in cycles]


def assert_matches_reference(G, bound):
    new = enumerate_cycles(G, bound)
    assert summary(new) == summary(ref.enumerate_cycles(G, bound))
    return new


def weighted_graphs(seed, n, vertices=None):
    """``n`` random closed graphs with up to 6 edges whose lengths mix
    sevenths, eighths, twelfths and integers."""
    rng = random.Random(seed)
    for _ in range(n):
        R = random_ribbon_graph(rng, max_edges=6, min_edges=1, vertices=vertices)
        lengths = [Fraction(rng.randint(1, 24), rng.choice(DENOMINATORS)) for _ in range(R.n_edges)]
        yield rng, WeightedGraph(R, lengths)


def test_random_graphs_match_reference():
    denominators = set()
    emitted = 0
    for rng, G in weighted_graphs(20261018, 300):
        denominators.update(l.denominator for l in G.edge_length)
        bound = sum(G.edge_length) * Fraction(rng.randint(1, 12), 8)
        emitted += len(assert_matches_reference(G, bound))
    assert {1, 7, 8, 12} <= denominators and emitted > 1000


def cycle_lengths(G):
    """The distinct lengths of all cycles of G, in increasing order."""
    return sorted({c.length for c in ref.enumerate_cycles(G, sum(G.edge_length))})


def test_bound_on_a_cycle_length_is_inclusive():
    for rng, G in weighted_graphs(7, 60):
        lengths = cycle_lengths(G)
        for bound in rng.sample(lengths, min(3, len(lengths))):
            cycles = assert_matches_reference(G, bound)
            assert cycles[-1].length == bound


def test_bound_off_the_common_denominator():
    tested = 0
    for rng, G in weighted_graphs(8, 60):
        lengths = cycle_lengths(G)
        if not lengths:
            continue
        length = rng.choice(lengths)
        # 13 divides no denominator of the lengths, so neither bound is
        # a multiple of 1/D: one lies just above the length, one just below
        eps = Fraction(1, 13 * lcm(*DENOMINATORS))
        above = assert_matches_reference(G, length + eps)
        below = assert_matches_reference(G, length - eps)
        assert above[-1].length == length and all(c.length < length for c in below)
        tested += 1
    assert tested > 40


def test_one_vertex_bouquets_match_reference():
    for rng, G in weighted_graphs(9, 60, vertices=1):
        assert len(G.ribbon.rotation) == 1
        assert_matches_reference(G, sum(G.edge_length) * Fraction(rng.randint(1, 8), 8))


@pytest.mark.parametrize("bound", [Fraction(13, 12), Fraction(2), Fraction(3)])
def test_example4_matches_reference(bound):
    assert_matches_reference(load_example("example4").weights, bound)


# ---------------------------------------------------------------------------
# tiny graphs against a brute force

def brute_force(G, bound):
    """Canonical key -> length of every closed walk of length <= bound
    that passes ``validate_walk``, found among all dart sequences."""
    R = G.ribbon
    found = {}
    for k in range(1, R.n_edges + 1):
        for walk in permutations(range(R.n_darts), k):
            try:
                validate_walk(R, walk)
            except ValidationError:
                continue
            length = G.walk_length(walk)
            if length <= bound:
                found[canonical_walk(walk, R.twin)] = length
    return found


@settings(max_examples=200, deadline=None)
@given(tiny_weighted_graphs())
def test_tiny_graphs_match_brute_force(case):
    G, bound = case
    twin = G.ribbon.twin
    cycles = enumerate_cycles(G, bound)
    assert {c.key: c.length for c in cycles} == brute_force(G, bound)
    for c in cycles:
        assert c.key == canonical_walk(c.darts, twin) == c.darts
        assert c.length == G.walk_length(c.darts)
    order = [(c.length, c.key) for c in cycles]
    assert all(a < b for a, b in zip(order, order[1:]))
