"""Cycle enumeration on integer lengths.

``enumerate_cycles`` is compared with the ``Fraction`` enumeration kept
in ``reference_minima`` on seeded random graphs, one-vertex bouquets,
bordered surfaces and example4, at bounds that fall on a cycle length,
between lengths and off the common denominator of the lengths; on
graphs whose edges all have one length and on graphs whose vertices
meet their darts by length in reverse dart order, at and just below
every cycle length, which pins the order of equal-length cycles; on
graphs of 6-10 vertices and 20-30 edges at bounds growing from the
shortest cycle length, where the cut by the distances back to a walk's
start must keep every cycle; and, on tiny graphs drawn by Hypothesis,
with a brute force over every oriented dart sequence.  The distances
are built once per start vertex of a graph and never at twice its
total length or more.  There the search of its own that lists every
cycle is compared with the reference at twice the total length, just
above it and at three times it, on seeded bouquets of 1-6 loops,
multi-vertex graphs with loops and parallel edges, bordered surfaces
and tiny graphs drawn by Hypothesis; it calls neither ``bisect_right``
nor ``shortest_distances``, keeps no search tables on the graph and
builds each child list of a (vertex, free edges) at most once per
call.  Both searches read one step table: the bounded search calls no
``bisect_right``, and the steps it keeps on the graph equal the ones
the close-all search builds per call.  On simple graphs its
vertex-simple cycles are the simple cycles of ``networkx``.  Every
enumerated class is checked against the class of the validated walk,
and the homology's table of enumerated walks
against the validating path of ``class_of_walk``, which must still
refuse darts that only equal ints.  The cycles, built as tuples in one
pass from per-length buckets, are checked against the ones the
``WeightedCycle`` constructor builds, and the cycles of one length
against sharing one length object.
"""

import dataclasses
import importlib
import random
from fractions import Fraction
from itertools import chain, combinations, permutations
from math import lcm

import pytest
from hypothesis import given, settings

from surfhom import minima
from surfhom.catalog import load_example
from surfhom.homology import cotree_basis, homology
from surfhom.minima import WeightedCycle, WeightedGraph, enumerate_cycles
from surfhom.ribbon import (
    RibbonGraph,
    ValidationError,
    add_loop,
    canonical_walk,
    edge_of_dart,
    edges,
    schema_to_ribbon,
    trace_faces,
    validate_walk,
)

from . import reference_minima as ref
from .util import random_ribbon_graph, tiny_weighted_graphs

DENOMINATORS = (1, 7, 8, 12)


def summary(cycles):
    for c in cycles:
        assert type(c.length) is Fraction
    return [(c.darts, c.length, c.key) for c in cycles]


def assert_classes_are_walk_classes(G, cycles):
    """Each cycle carries the class of its validated walk, in the
    coordinates of the surface's homology."""
    R = G.ribbon
    H = homology(R)
    for c in cycles:
        assert c.cls == H.class_of_chain(validate_walk(R, c.darts)), c


def assert_matches_reference(G, bound):
    new = enumerate_cycles(G, bound)
    assert summary(new) == summary(ref.enumerate_cycles(G, bound))
    assert_classes_are_walk_classes(G, new)
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


def bordered_graphs(seed, n):
    """The graphs of ``weighted_graphs(seed, n)`` on surfaces with a
    random nonempty set of their faces as boundary."""
    rng = random.Random(seed)
    for _, G in weighted_graphs(seed, n):
        R = G.ribbon
        faces = [f[0] for f in trace_faces(R)]
        bordered = RibbonGraph(R.rotation, R.twin, rng.sample(faces, rng.randrange(1, len(faces) + 1)))
        yield WeightedGraph(bordered, G.edge_length)


def test_bordered_surfaces_match_reference():
    emitted = 0
    for G in bordered_graphs(10, 25):
        emitted += len(assert_matches_reference(G, sum(G.edge_length) * Fraction(3, 4)))
    assert emitted > 100


def heaviest_first(G):
    """G with its darts renumbered heaviest edge first, so that at every
    vertex the order of the darts by length is the reverse of their
    order by number."""
    R = G.ribbon
    length = dict(zip(edges(R), G.edge_length))
    order = sorted(range(R.n_darts), key=lambda d: -length[edge_of_dart(R, d)])
    new = {d: i for i, d in enumerate(order)}
    twin = [None] * R.n_darts
    for d in range(R.n_darts):
        twin[new[d]] = new[R.twin[d]]
    renumbered = RibbonGraph(tuple(tuple(map(new.get, rot)) for rot in R.rotation), tuple(twin))
    heavy = WeightedGraph(renumbered, [length[edge_of_dart(R, order[e])] for e in edges(renumbered)])
    for rot in renumbered.rotation:
        by_number = [heavy.length_of_dart(d) for d in sorted(rot)]
        assert by_number == sorted(by_number, reverse=True)
    return heavy


def tied_graphs():
    """Multi-vertex graphs whose edges all have one length, and graphs
    whose vertices meet their darts by length in reverse dart order."""
    rng = random.Random(16)
    for _ in range(16):
        V = rng.randrange(2, 5)
        R = random_ribbon_graph(rng, max_edges=6, min_edges=V + 1, vertices=V)
        yield WeightedGraph(R, [Fraction(rng.randint(1, 9), rng.choice(DENOMINATORS))] * R.n_edges)
    for _ in range(16):
        R = random_ribbon_graph(rng, max_edges=5, min_edges=2)
        lengths = [Fraction(rng.randint(1, 24), rng.choice(DENOMINATORS)) for _ in range(R.n_edges)]
        yield heaviest_first(WeightedGraph(R, lengths))


def test_ties_and_reversed_length_orders_match_reference():
    # each bound on a cycle length keeps the cycles of that length, the
    # inclusive cut of the search; each bound just below it drops them.
    # A bound on a length with several cycles checks their order.
    bounds = tied = 0
    for G in tied_graphs():
        D = lcm(*(l.denominator for l in G.edge_length))
        for length in cycle_lengths(G):
            at = assert_matches_reference(G, length)
            below = assert_matches_reference(G, length - Fraction(1, 2 * D))
            assert at[-1].length == length and len(below) < len(at)
            assert all(c.length < length for c in below)
            tied += len(at) - len(below) > 1
            bounds += 2
    assert bounds > 300 and tied > 100


@pytest.mark.parametrize("bound", [Fraction(13, 12), Fraction(2), Fraction(3)])
def test_example4_matches_reference(bound):
    assert_matches_reference(load_example("example4").weights, bound)


def test_six_loop_bouquet_gives_all_its_cycles():
    # k of the six loops, in a cyclic order with an orientation each, up
    # to rotation and reversal: sum of C(6, k) (k-1)! 2^(k-1) = 7,060
    rng = random.Random(14)
    darts = list(range(12))
    rng.shuffle(darts)
    R = RibbonGraph((tuple(darts),), tuple(d ^ 1 for d in range(12)))
    G = WeightedGraph(R, [Fraction(rng.randint(6, 30), 8) for _ in range(6)])
    cycles = enumerate_cycles(G, 2 * sum(G.edge_length))
    assert len(cycles) == len({c.darts for c in cycles}) == 7060
    assert_classes_are_walk_classes(G, cycles)


def test_enumerated_cycles_are_constructor_cycles():
    emitted = []
    for _, G in weighted_graphs(15, 20):
        emitted += enumerate_cycles(G, sum(G.edge_length))
    assert len(emitted) > 100
    for c in emitted:
        built = WeightedCycle(c.darts, c.length, c.key, c.cls)
        assert type(c) is WeightedCycle and c.name is None
        assert c == built and hash(c) == hash(built) and repr(c) == repr(built)
        assert c.with_class(c.cls) is c
    c = emitted[0]
    for name in ("darts", "length", "key", "cls", "name", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(c, name)


def test_weighted_cycle_is_a_tuple_record():
    # field order, defaults, repr and hash against a frozen dataclass:
    # tests/test_package.py::test_record_matches_a_frozen_dataclass
    c = enumerate_cycles(load_example("example4").weights, Fraction(2))[0]
    assert type(c) is WeightedCycle and isinstance(c, tuple)
    darts, length, key, cls, name = c
    assert (darts, length, key, cls, name) == (c.darts, c.length, c.key, c.cls, c.name)
    assert c == (c.darts, c.length, c.key, c.cls, None) and c[0] is c.darts
    assert c.with_class(c.cls) is c and c.with_class(list(c.cls)) is c
    named = c.with_class(c.cls, "alpha")
    assert type(named) is WeightedCycle and named == c._replace(name="alpha")
    other = c.with_class((0,) * len(c.cls))
    assert type(other) is WeightedCycle and other.cls == (0,) * len(c.cls) != c.cls
    assert WeightedCycle(darts, length, key) == (darts, length, key, None, None)


def test_cycles_of_one_length_share_one_length_object():
    # the procedures key each run of one length object once
    # (minima._check_candidates), so equal lengths should be one object
    # and distinct ones different objects
    for _, G in weighted_graphs(17, 40):
        cycles = enumerate_cycles(G, sum(G.edge_length))
        for a, b in zip(cycles, cycles[1:]):
            assert (a.length is b.length) is (a.length == b.length)
        assert len({id(c.length) for c in cycles}) == len({c.length for c in cycles})


# ---------------------------------------------------------------------------
# the table of enumerated walks behind class_of_walk

homology_module = importlib.import_module("surfhom.homology")


def counting_validations(monkeypatch):
    """A list that grows by one entry per walk ``class_of_walk`` validates."""
    seen = []

    def counted(R, walk):
        seen.append(walk)
        return validate_walk(R, walk)

    monkeypatch.setattr(homology_module, "validate_walk", counted)
    return seen


def test_enumerated_walks_skip_validation_and_others_do_not(monkeypatch):
    _, G = next(weighted_graphs(11, 1, vertices=1))
    R = G.ribbon
    cycles = enumerate_cycles(G, sum(G.edge_length) / 2)
    H = homology(R)
    seen = counting_validations(monkeypatch)
    assert [H.class_of_walk(c.darts) for c in cycles] == [c.cls for c in cycles]
    assert seen == []
    # a list is validated, and an invalid tuple still raises
    walk = cycles[-1].darts
    assert H.class_of_walk(list(walk)) == cycles[-1].cls
    with pytest.raises(ValidationError, match="immediate reversal"):
        H.class_of_walk((walk[0], R.twin[walk[0]]))
    assert seen == [list(walk), (walk[0], R.twin[walk[0]])]
    # walks enumerated on a copy of R, past the bound R was enumerated
    # at, are validated on R
    copy = WeightedGraph(RibbonGraph(R.rotation, R.twin), G.edge_length)
    foreign = [c for c in enumerate_cycles(copy, sum(G.edge_length)) if c.darts not in H._walk_class]
    assert foreign
    for c in foreign:
        del seen[:]
        assert H.class_of_walk(c.darts) == c.cls
        assert seen == [c.darts]


def test_table_walks_refuse_darts_that_only_equal_ints(monkeypatch):
    # on the torus the fundamental cycles are (0,) and (1,); (True,) and
    # (1.0,) equal (1,), and (False,) equals (0,), but none is a walk
    R = schema_to_ribbon("a b a' b'")
    H = homology(R)
    pairs = cotree_basis(R)
    assert [w for w, _ in pairs] == [(0,), (1,)]
    G = WeightedGraph(R, [1, 1])
    cycles = enumerate_cycles(G, 4)
    assert all(H._walk_class[c.darts] is c for c in cycles)
    for walk in ((True,), (1.0,), (False,), (False, True, 2, 3)):
        with pytest.raises(ValidationError, match="not in graph"):
            H.class_of_walk(walk)
    # an equal tuple of ints built afresh is validated and gets an equal
    # class
    seen = counting_validations(monkeypatch)
    fresh = []
    for walk, cls in pairs + tuple((c.darts, c.cls) for c in cycles):
        fresh.append(tuple(list(walk)))
        assert fresh[-1] is not walk and H.class_of_walk(fresh[-1]) == cls
    assert list(map(id, seen)) == list(map(id, fresh))


@pytest.mark.parametrize("width", [2, 4, 8])
def test_classes_at_every_packing_width(monkeypatch, width):
    # the rows of these small graphs fit one byte per coordinate; pack
    # them wider, as on a graph with 128 or more edges
    code = homology_module._SIGNED_CODE[width]
    monkeypatch.setattr(homology_module, "_SIGNED_CODE", {width: code})
    for _, G in weighted_graphs(13, 30):
        assert_classes_are_walk_classes(G, enumerate_cycles(G, sum(G.edge_length)))


def test_enumeration_packs_no_rows_of_its_own(monkeypatch):
    # the build packs each dart's row once; enumerating, at any bound and
    # as often as it likes, reads those rows and makes no new packing
    made = []

    class Spy(homology_module._Packing):
        __slots__ = ()

        def __init__(self, size, count):
            made.append(size)
            super().__init__(size, count)

    graphs = [G for _, G in weighted_graphs(14, 10)]
    for G in graphs:
        homology(G.ribbon)
    monkeypatch.setattr(homology_module, "_Packing", Spy)
    for G in graphs:
        total = sum(G.edge_length)
        cycles = enumerate_cycles(G, total / 2) + enumerate_cycles(G, total)
        assert_classes_are_walk_classes(G, cycles)
    assert made == []


def test_packed_class_of_a_walk_past_one_byte_is_exact():
    # 130 loops parallel to a side of a torus: the walk along that side
    # and all of them has the coordinate 131, which the digit width of
    # the packed dart rows holds, as it holds any edge-simple walk's
    R, walk = schema_to_ribbon("a b a' b'"), [0]
    for _ in range(130):
        R, n = add_loop(R, walk[-1], 1)  # between the last loop and dart 1
        walk.append(n)
    H = homology(R)
    cls = H.class_of_walk(tuple(walk))
    assert H.rank == 2 and max(map(abs, cls)) == 131
    assert H._class[sum(H._packed[d] for d in walk)] == cls


@pytest.mark.parametrize("bound, size", [(0, 1), (127, 1), (128, 2), (2 ** 63 - 1, 8),
                                         (2 ** 63, 16), (2 ** 127, 32)])
def test_digit_width_holds_the_bound(bound, size):
    assert homology_module._digit_bytes(bound) == size


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 32])
def test_packing_round_trips_and_is_linear(size):
    rng = random.Random(size)
    top = 1 << (8 * size - 1)
    packing = homology_module._Packing(size, 5)
    rows = [tuple(rng.randrange(-top // 4, top // 4) for _ in range(5)) for _ in range(6)]
    rows.append((top - 1, -top, 0, 1, -1))
    packed = packing.pack(rows)
    assert packing.unpack(packed) == tuple(chain.from_iterable(rows))
    assert all(packing.unpack([p]) == r for p, r in zip(packed, rows))
    # a combination of packed rows is the packed combination while its
    # entries fit in a digit
    a, b = rows[0], rows[1]
    assert packing.unpack([packed[0] - 2 * packed[1]]) == tuple(x - 2 * y for x, y in zip(a, b))
    empty = homology_module._Packing(size, 0)
    assert empty.pack([(), ()]) == [0, 0] and empty.unpack([0, 0]) == ()


def test_enumerating_again_keeps_one_entry_per_cycle():
    _, G = next(weighted_graphs(12, 1, vertices=2))
    total = sum(G.edge_length)
    short = enumerate_cycles(G, total / 2)
    table = homology(G.ribbon)._walk_class
    assert len(table) == len(short)
    long = enumerate_cycles(G, total)
    assert len(long) > len(short)
    assert len(table) == len(long) == len({c.darts for c in long})
    # a cycle found again carries the class object the table keeps
    by_walk = {c.darts: c.cls for c in long}
    assert all(by_walk[c.darts] is c.cls for c in short)


# ---------------------------------------------------------------------------
# the distance cut: a dart to vertex h is taken only when the walk can
# still get back from h to its start within the bound

def search_shaped_graphs(seed, n):
    """``n`` random closed graphs of 6-10 vertices and 20-30 edges, the
    shapes of the benchmark's procedure pools, with lengths of 6-30 over
    denominators 1, 7, 8 and 12."""
    rng = random.Random(seed)
    for _ in range(n):
        R = random_ribbon_graph(rng, max_edges=30, min_edges=20, vertices=rng.randrange(6, 11))
        lengths = [Fraction(rng.randint(6, 30), rng.choice(DENOMINATORS)) for _ in range(R.n_edges)]
        yield WeightedGraph(R, lengths)


def growing_bounds(G, most=400):
    """Bounds from G's shortest cycle length up by factors of 5/4 toward
    its total length, up to the first that admits more than ``most``
    cycles: every edge-simple circuit of a 20-edge graph is far too many
    to list."""
    bound = min(G.edge_length)
    while not enumerate_cycles(G, bound):
        bound *= Fraction(5, 4)
    bounds = [enumerate_cycles(G, bound)[0].length]
    while bounds[-1] < sum(G.edge_length) and len(enumerate_cycles(G, bounds[-1])) <= most:
        bounds.append(min(bounds[-1] * Fraction(5, 4), sum(G.edge_length)))
    return bounds


def test_search_shaped_graphs_match_reference():
    emitted = 0
    for G in search_shaped_graphs(2304, 10):
        assert 6 <= len(G.ribbon.rotation) <= 10 and 20 <= G.ribbon.n_edges <= 30
        bounds = growing_bounds(G)
        assert len(bounds) > 5
        for bound in bounds:
            emitted += len(assert_matches_reference(G, bound))
    assert emitted > 10000


class CountedSteps(list):
    """A vertex's steps in ``_search`` that count the loops run over
    them."""

    def __init__(self, steps, counter):
        super().__init__(steps)
        self.counter = counter

    def __iter__(self):
        self.counter[0] += 1
        return super().__iter__()


def counting_search_loops(G):
    """G's step table with every vertex's steps counting their loops,
    and the counter."""
    counter = [0]
    steps_at = minima._search(G)[0]
    steps_at[:] = [CountedSteps(steps, counter) for steps in steps_at]
    return counter


def test_the_distance_cut_keeps_the_cycles_and_cuts_walks():
    # the search with every distance taken as 0 expands more walks and
    # finds the same cycles
    cut = uncut = 0
    for G in search_shaped_graphs(1975, 6):
        bound = growing_bounds(G, most=200)[-1]
        H = WeightedGraph(G.ribbon, G.edge_length)
        vertices = range(len(H.ribbon.rotation))
        minima._search(H)[1].update(dict.fromkeys(vertices, [0] * len(vertices)))
        counts = counting_search_loops(G), counting_search_loops(H)
        assert summary(enumerate_cycles(G, bound)) == summary(enumerate_cycles(H, bound))
        cut, uncut = cut + counts[0][0], uncut + counts[1][0]
    assert cut < uncut * 3 / 4, (cut, uncut)


def counting_distances(monkeypatch):
    sources = []
    real = minima.shortest_distances

    def counting(G, source):
        sources.append(source)
        return real(G, source)

    monkeypatch.setattr(minima, "shortest_distances", counting)
    return sources


def test_distances_are_built_once_per_start_vertex(monkeypatch):
    sources = counting_distances(monkeypatch)
    for G in search_shaped_graphs(42, 3):
        sources.clear()
        R = G.ribbon
        bounds = growing_bounds(G, most=200)
        for bound in bounds + bounds:
            enumerate_cycles(G, bound)
        starts = {R.vertex_of[d] for d in edges(R) if G.length_of_dart(d) <= bounds[-1]}
        assert len(sources) == len(set(sources)) and set(sources) == starts


def test_no_distances_at_twice_the_total_length(monkeypatch):
    sources = counting_distances(monkeypatch)
    for _, G in weighted_graphs(43, 40, vertices=3):
        total = sum(G.edge_length)
        for bound in (2 * total, 3 * total, 2 * total + Fraction(1, 13)):
            assert_matches_reference(G, bound)
        assert sources == []
        # just below, the distances of every start vertex are built
        assert_matches_reference(G, 2 * total - Fraction(1, 13 * G._denominator))
        R = G.ribbon
        assert sorted(sources) == sorted({R.vertex_of[d] for d in edges(R)})
        sources.clear()


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
    assert_classes_are_walk_classes(G, cycles)
    assert summary(cycles) == summary(ref.enumerate_cycles(G, bound))
    order = [(c.length, c.key) for c in cycles]
    assert all(a < b for a, b in zip(order, order[1:]))


# ---------------------------------------------------------------------------
# the close-all search: at twice the total length or more no walk is cut,
# and the children of a node come from a memo of the call keyed by its
# vertex and its free edges

def close_all_bounds(G):
    """Twice G's total length, the least bound at which no walk is cut
    (its integer limit is the sum of the dart weights), that plus 1/13,
    a multiple of no 1/D, and three times the total length."""
    total = sum(G.edge_length)
    limit = 2 * total * G._denominator
    assert limit.denominator == 1 and limit.numerator == sum(G._weight)
    return 2 * total, 2 * total + Fraction(1, 13), 3 * total


def bouquet(rng, loops):
    """A one-vertex graph of ``loops`` loops, its darts in a shuffled
    rotation, with lengths over the denominators 1, 7, 8 and 12."""
    darts = list(range(2 * loops))
    rng.shuffle(darts)
    R = RibbonGraph((tuple(darts),), tuple(d ^ 1 for d in range(2 * loops)))
    return WeightedGraph(R, [Fraction(rng.randint(1, 24), rng.choice(DENOMINATORS))
                             for _ in range(loops)])


def test_close_all_bouquets_match_reference():
    # a bouquet of k loops has sum of C(k, j) (j-1)! 2^(j-1) cycles
    rng = random.Random(29)
    counts = {1: 1, 2: 4, 3: 17, 4: 96, 5: 729, 6: 7060}
    for loops in range(1, 7):
        for _ in range(2 if loops < 6 else 1):
            G = bouquet(rng, loops)
            for bound in close_all_bounds(G):
                assert len(assert_matches_reference(G, bound)) == counts[loops]


def test_close_all_multi_vertex_graphs_match_reference():
    loops = parallel = emitted = 0
    for _, G in weighted_graphs(2910, 60):
        R = G.ribbon
        if len(R.rotation) == 1:
            continue
        ends = [frozenset((R.vertex_of[d], R.vertex_of[R.twin[d]])) for d in edges(R)]
        links = [e for e in ends if len(e) == 2]
        loops += len(links) < len(ends)
        parallel += len(set(links)) < len(links)
        cycles = [assert_matches_reference(G, bound) for bound in close_all_bounds(G)]
        assert summary(cycles[0]) == summary(cycles[1]) == summary(cycles[2])
        emitted += len(cycles[0])
    assert loops > 10 and parallel > 10 and emitted > 1000


def test_close_all_bordered_surfaces_match_reference():
    emitted = 0
    for G in bordered_graphs(2911, 25):
        for bound in close_all_bounds(G):
            emitted += len(assert_matches_reference(G, bound))
    assert emitted > 300


@settings(max_examples=200, deadline=None)
@given(tiny_weighted_graphs())
def test_tiny_graphs_at_twice_the_total_length_match_reference(case):
    G, _ = case
    bound = 2 * sum(G.edge_length)
    cycles = assert_matches_reference(G, bound)
    assert {c.key: c.length for c in cycles} == brute_force(G, bound)


def test_close_all_search_reads_no_tables_and_lists_children_once(monkeypatch):
    def refused(*args):
        raise AssertionError("the close-all search cuts no walk")

    monkeypatch.setattr(minima, "bisect_right", refused)
    monkeypatch.setattr(minima, "shortest_distances", refused)
    built = []
    real = minima._free_steps

    def counted(steps, free):
        built.append((tuple(steps), free))
        return real(steps, free)

    monkeypatch.setattr(minima, "_free_steps", counted)
    G = bouquet(random.Random(14), 6)
    for bound in close_all_bounds(G):
        # each call builds its own lists, at most one per free set of
        # the six loops, for 7,060 nodes
        built.clear()
        assert len(enumerate_cycles(G, bound)) == 7060
        assert 0 < len(built) == len(set(built)) <= 2 ** 6
        assert "_search" not in G.__dict__
    lists = 0
    for _, G in weighted_graphs(2912, 30):
        built.clear()
        enumerate_cycles(G, 2 * sum(G.edge_length))
        assert len(built) == len(set(built))
        assert "_search" not in G.__dict__
        lists += len(built)
    assert lists > 30


def test_both_searches_read_one_step_table(monkeypatch):
    # the bounded search takes no bisection, and the steps it keeps on G
    # are the ones the close-all search builds for G per call: each
    # vertex's darts in decreasing dart order with their weight, edge
    # bit, head vertex and packed row
    def refused(*args):
        raise AssertionError("the bounded search bisects nothing")

    monkeypatch.setattr(minima, "bisect_right", refused)
    built = []
    real = minima._step_table

    def recorded(G, packed):
        built.append(real(G, packed))
        return built[-1]

    monkeypatch.setattr(minima, "_step_table", recorded)
    bounded = 0
    for _, G in weighted_graphs(33, 40):
        R = G.ribbon
        total = sum(G.edge_length)
        built.clear()
        enumerate_cycles(G, 2 * total)
        assert len(built) == 1 and "_search" not in G.__dict__
        table = built[0]
        bounded += len(assert_matches_reference(G, total))
        assert len(built) == 2 and minima._search(G)[0] is built[1]
        assert built[1] == table
        packed = homology(R)._packed
        for rot, steps in zip(R.rotation, table):
            assert [step[0] for step in steps] == sorted(rot, reverse=True)
            assert steps == [(d, G._weight[d], 1 << R.edge_number[d], R.vertex_of[R.twin[d]],
                              packed[d]) for d, *_ in steps]
    assert bounded > 100


# ---------------------------------------------------------------------------
# vertex-simple cycles against networkx

def simple_graphs(seed, n):
    """``n`` random connected graphs of 3-7 vertices with no loop and no
    parallel edge, as ribbon graphs with shuffled rotations and lengths
    over the denominators 1, 7, 8 and 12."""
    rng = random.Random(seed)
    for _ in range(n):
        V = rng.randrange(3, 8)
        order = list(range(V))
        rng.shuffle(order)
        ends = {frozenset((rng.choice(order[:i]), v)) for i, v in enumerate(order) if i}
        pairs = [frozenset(p) for p in combinations(range(V), 2)]
        E = min(V + rng.randrange(1, 6), len(pairs))
        while len(ends) < E:
            ends.add(rng.choice(pairs))
        rotation = [[] for _ in range(V)]
        for k, (u, v) in enumerate(map(sorted, ends)):
            rotation[u].append(2 * k)
            rotation[v].append(2 * k + 1)
        for darts in rotation:
            rng.shuffle(darts)
        R = RibbonGraph(tuple(map(tuple, rotation)), tuple(d ^ 1 for d in range(2 * len(ends))))
        yield WeightedGraph(R, [Fraction(rng.randint(1, 24), rng.choice(DENOMINATORS))
                                for _ in range(R.n_edges)])


def vertex_cycle(vertices):
    """A cyclic vertex sequence up to rotation and reflection."""
    n = len(vertices)
    turns = [tuple(vertices[i:] + vertices[:i]) for i in range(n)]
    back = list(reversed(vertices))
    return min(turns + [tuple(back[i:] + back[:i]) for i in range(n)])


def test_vertex_simple_cycles_match_networkx():
    nx = pytest.importorskip("networkx")
    compared = 0
    for G in simple_graphs(1975, 40):
        R = G.ribbon
        vof = R.vertex_of
        graph = nx.Graph()
        graph.add_nodes_from(range(len(R.rotation)))
        graph.add_edges_from((vof[d], vof[R.twin[d]]) for d in edges(R))
        assert graph.number_of_edges() == R.n_edges and nx.number_of_selfloops(graph) == 0
        ours = []
        for c in enumerate_cycles(G, 2 * sum(G.edge_length)):
            vertices = [vof[d] for d in c.darts]
            if len(set(vertices)) == len(vertices):
                ours.append(vertex_cycle(vertices))
        theirs = [vertex_cycle(list(cycle)) for cycle in nx.simple_cycles(graph)]
        assert len(ours) == len(set(ours)) and sorted(ours) == sorted(theirs)
        compared += len(ours)
    assert compared > 500
