"""Shortest-cycle enumeration and successive-minima procedures.

All lengths are exact rationals; ties between equal-length cycles are
broken by the canonical dart encoding, so every procedure is a
deterministic function of its input.  Candidate cycles are edge-simple
closed walks with no dart followed by its reversal; vertices may
repeat.  The enumeration searches on integers, the edge lengths scaled
by their least common denominator, and starts each cycle at the smaller
dart of its least edge, which makes the walk its own canonical encoding.
Its depth-first search takes each vertex's darts in increasing dart
order, from per-vertex tables kept on the graph, so it finds the walks
in lexicographic order; it drops each closed walk into the bucket of
its integer length, and the buckets joined in increasing length are in
(length, encoding) order.  ``WeightedCycle`` is a ``NamedTuple``, so
the cycles are built as tuples in one pass.
"""

import heapq
from bisect import bisect_right, insort
from collections import defaultdict
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import chain, combinations, compress, repeat
from math import lcm
from operator import attrgetter, is_not, lt
from typing import NamedTuple

from .homology import homology
from .ribbon import (
    ValidationError,
    canonical_walk,
    edge_of_dart,
    edges,
    validate_walk,
)
from .zlattice import (
    _basis_state,
    _check_modulus,
    _det,
    _greedy_pivots,
    _span_state,
    as_int_matrix,
    det_int,
)


def _exact(x, what):
    """x as a Fraction when its type is exactly int or Fraction, else
    ValidationError: a float is not exact, and a bool is not a length."""
    if type(x) in (int, Fraction):
        return Fraction(x)
    raise ValidationError(f"{what} {x!r} is not an int or a Fraction")


# a frozen dataclass, not a NamedTuple: __post_init__ validates the
# lengths, and the edge index and search tables are kept in its __dict__
@dataclass(frozen=True)
class WeightedGraph:
    """A ribbon graph with an exact positive rational length per edge,
    each given as an int or a ``Fraction`` (``_exact``).

    Its first ``enumerate_cycles`` keeps the search tables on it
    (``_search``): per vertex, its darts' lengths scaled to integers, in
    increasing order, and for each k its k lightest darts in decreasing
    dart order, each with its packed H1 row."""

    ribbon: object
    edge_length: tuple  # aligned with edges(ribbon)

    def __post_init__(self):
        E = edges(self.ribbon)
        try:
            lengths = tuple(_exact(x, "edge length") for x in self.edge_length)
        except TypeError as exc:
            raise ValidationError(f"malformed edge lengths: {exc}") from None
        if len(lengths) != len(E):
            raise ValidationError("one length per edge required")
        if any(l <= 0 for l in lengths):
            raise ValidationError("edge lengths must be positive")
        object.__setattr__(self, "edge_length", lengths)
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(E)})

    def length_of_dart(self, d):
        return self.edge_length[self._index[edge_of_dart(self.ribbon, d)]]

    def walk_length(self, walk):
        return sum((self.length_of_dart(d) for d in walk), Fraction(0))


class WeightedCycle(NamedTuple):
    """A closed walk with its exact length; ``key`` is the canonical
    rotation/reflection encoding used for deduplication and tie order.

    ``cls`` is the walk's H1 class in whatever coordinates its maker
    chose: ``enumerate_cycles`` gives every cycle its class in the
    coordinates of ``homology(R)``, ``make_cycle`` the one it is given,
    if any."""

    darts: tuple
    length: Fraction
    key: tuple
    cls: tuple = None
    name: str = None

    def with_class(self, cls, name=None):
        """This cycle with class ``cls`` and, when given, ``name``: the
        cycle itself when it carries that class already and no name is
        given."""
        cls = tuple(cls)
        if name is None and cls == self.cls:
            return self
        return WeightedCycle(
            self.darts, self.length, self.key, cls, self.name if name is None else name
        )

    # assigning to or deleting any attribute raises FrozenInstanceError,
    # an AttributeError, as on this package's frozen dataclasses
    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def make_cycle(G, walk, cls=None, name=None):
    validate_walk(G.ribbon, walk)
    return WeightedCycle(
        tuple(walk),
        G.walk_length(walk),
        canonical_walk(tuple(walk), G.ribbon.twin),
        tuple(cls) if cls is not None else None,
        name,
    )


def _search(G):
    """The search tables of ``enumerate_cycles``, built on G's first
    enumeration and kept on G, as ``homology(R)`` is kept on R.

    They hold G's edges, the least common denominator D of the lengths,
    each dart's length scaled by D and, per vertex, its outgoing darts'
    scaled lengths in increasing order beside ``lightest`` and
    ``reach``.  Entry k of ``lightest`` is the k lightest of those darts
    as search steps (dart, scaled length, edge bit, head vertex, the
    dart's packed row in ``homology(R)``), in decreasing dart order;
    entry k of ``reach`` is the OR of their edge bits.  Equal lengths
    are all in a prefix or all out of it, so the ties' order in the sort
    does not matter."""
    tables = G.__dict__.get("_search")
    if tables is None:
        R = G.ribbon
        twin, vof = R.twin, R.vertex_of
        packed = homology(R)._packed
        E = tuple(G._index)  # edges(R), in order
        D = lcm(*(l.denominator for l in G.edge_length))
        weight = [0] * len(twin)
        bit = [0] * len(twin)
        for i, (e, l) in enumerate(zip(E, G.edge_length)):
            weight[e] = weight[twin[e]] = l.numerator * (D // l.denominator)
            bit[e] = bit[twin[e]] = 1 << i
        step = [(d, weight[d], bit[d], vof[twin[d]], packed[d]) for d in range(len(twin))]
        weights, lightest, reach = [], [], []
        for rot in R.rotation:
            darts = sorted(rot, key=weight.__getitem__)
            steps, prefixes, masks = [], [()], [0]
            for d in darts:
                insort(steps, step[d])
                prefixes.append(steps[::-1])
                masks.append(masks[-1] | bit[d])
            weights.append([weight[d] for d in darts])
            lightest.append(prefixes)
            reach.append(masks)
        tables = (E, D, weight, weights, lightest, reach)
        object.__setattr__(G, "_search", tables)
    return tables


def enumerate_cycles(G, bound):
    """All cycles of length <= bound, up to rotation and reflection,
    each with its H1 class in the coordinates of ``homology(R)``, which
    this builds when R has none yet.

    Exhaustive backtracking with partial-length pruning, run on
    integers: every edge length is scaled, once per graph, by the least
    common denominator D of the lengths, and a partial length L/D is
    kept exactly when L <= floor(bound * D).  A cycle is reached only
    from its least edge, as the walk that starts with that edge's
    smaller dart; that dart occurs nowhere else in the walk or in its
    reversal, so the walk is its own canonical encoding and no cycle is
    reached twice.

    At each step one ``bisect_right`` of the room left into the
    vertex's dart lengths (``_search``) picks its k lightest darts, all
    the darts short enough to take, which the stack then pops in
    increasing dart order; a step whose k darts all lie on edges the
    walk has used already (their OR of edge bits, ``reach``, adds none)
    takes none of them and skips the loop.  The starts run in increasing
    dart order too, a walk is found before its extensions and each
    subtree is finished before its next sibling starts, so the walks are
    found in lexicographic order (the preorder of a backtracking search;
    Read and Tarjan, "Bounds on backtrack algorithms for listing cycles,
    paths, and spanning trees", Networks 1975).  Each closed walk goes
    to the bucket of its integer length, which keeps that order, so the
    buckets joined in increasing length give the results sorted by
    (length, canonical encoding): only the distinct lengths are sorted,
    and no two walks are ever compared.  The cycles of one length share
    one ``Fraction``.

    Each search entry also carries the packed class of its partial walk,
    the sum of the packed rows that R's homology keeps per dart
    (``SurfaceHomology._packed``), one integer add per step, and the
    homology unpacks each packed class it has not met before
    (``SurfaceHomology._class``), so one packed class is one class
    object.  The cycles are built as tuples in one pass over their
    fields, and each enters the homology's walk table as the entry of its
    walk, so ``class_of_walk`` of its darts is one lookup.
    """
    bound = _exact(bound, "bound")
    if bound <= 0:
        raise ValidationError("bound must be positive")
    R = G.ribbon
    twin, vof = R.twin, R.vertex_of
    H = homology(R)
    packed = H._packed
    all_edges, D, weight, weights, lightest, reach = _search(G)
    limit = bound.numerator * D // bound.denominator
    walks_of, sums_of = defaultdict(list), defaultdict(list)  # by integer length
    for i, start in enumerate(all_edges):
        if weight[start] > limit:
            continue
        home = vof[start]
        # edges up to and including the start edge start out used, so
        # the walk takes no edge below its first one
        stack = [((start,), (2 << i) - 1, weight[start], vof[twin[start]], packed[start])]
        push = stack.append
        while stack:
            walk, used, length, at, s = stack.pop()
            if at == home:
                walks_of[length].append(walk)
                sums_of[length].append(s)
            k = bisect_right(weights[at], limit - length)
            if reach[at][k] | used != used:
                for d, w, b, head, p in lightest[at][k]:
                    if not used & b:
                        push((walk + (d,), used | b, length + w, head, s + p))
    order = sorted(walks_of)
    walks = list(chain.from_iterable(map(walks_of.__getitem__, order)))
    lengths = chain.from_iterable(repeat(Fraction(L, D), len(walks_of[L])) for L in order)
    classes = map(H._class.__getitem__, chain.from_iterable(map(sums_of.__getitem__, order)))
    columns = zip(walks, lengths, walks, classes, repeat(None))
    cycles = tuple(map(tuple.__new__, repeat(WeightedCycle), columns))
    H._walk_class.update(zip(walks, cycles))
    return cycles


# ---------------------------------------------------------------------------
# successive minima

class TraceEvent(NamedTuple):
    cycle: WeightedCycle
    decision: str  # "selected" | "rejected"
    reason: str
    tie_break: bool = False


# a frozen dataclass, not a NamedTuple: the benchmark's tests build
# altered copies of a trace with dataclasses.replace
@dataclass(frozen=True)
class MinimaTrace:
    events: tuple
    selected: tuple
    halting: str  # "reached-count" | "complete" | "exhausted"
    modulus: int


def _check_classes(candidates, n):
    """Raise ValidationError naming the first candidate class that is not
    an n-tuple of ints.  The types of all classes are read at once, then
    the lengths and the entry types of each distinct class object, as
    candidates share them; only a failure walks the classes one by
    one."""
    classes = list(map(attrgetter("cls"), candidates))
    distinct = dict(zip(map(id, classes), classes)).values()
    if set(map(type, classes)) <= {tuple} and set(map(len, distinct)) <= {n} and \
            set(map(type, chain.from_iterable(distinct))) <= {int}:
        return
    for cls in classes:
        if type(cls) is not tuple or len(cls) != n or any(type(x) is not int for x in cls):
            raise ValidationError(f"candidate class {cls!r} is not a {n}-tuple of ints")


def _check_candidates(candidates):
    """The candidates as a tuple, after checking that each class is an
    n-tuple of ints, n the width of the first, and that lengths never
    decrease."""
    candidates = tuple(candidates)
    if candidates:
        cls = candidates[0].cls
        _check_classes(candidates, len(cls) if type(cls) is tuple else 0)
    # the enumeration shares one length object per distinct length, so
    # only the first length of each run of one object is compared
    lengths = list(map(attrgetter("length"), candidates))
    firsts = list(compress(lengths, map(is_not, lengths, chain((None,), lengths))))
    if any(map(lt, firsts[1:], firsts)):
        raise ValidationError("candidates must be sorted by length")
    return candidates


def _tied(candidates, i):
    l = candidates[i].length
    return (i > 0 and candidates[i - 1].length == l) or (
        i + 1 < len(candidates) and candidates[i + 1].length == l
    )


def _greedy(candidates, modulus, limit, state, reasons, halting):
    """The greedy loop behind both procedures.

    One oracle state serves the whole run: ``state(width, modulus)``
    builds it on the class width, and its ``extend(cls)`` decides a
    candidate class against the classes already selected and adds it to
    them when it is selected.  ``reasons`` are the (selected, rejected)
    reason strings; the trace halts with ``halting`` once ``limit``
    classes are selected (never when ``limit`` is None).
    """
    _check_modulus(modulus)
    extend = state(len(candidates[0].cls) if candidates else 0, modulus).extend
    events = []
    selected = []
    for i, c in enumerate(candidates):
        if limit is not None and len(selected) >= limit:
            break
        if extend(c.cls):
            events.append(TraceEvent(c, "selected", reasons[0], _tied(candidates, i)))
            selected.append(c)
        else:
            events.append(TraceEvent(c, "rejected", reasons[1]))
    reached = limit is not None and len(selected) >= limit
    trace = MinimaTrace(
        tuple(events), tuple(selected), halting if reached else "exhausted", modulus
    )
    _assert_sorted(trace)
    return trace


def successive_minima_I(candidates, modulus=0, count=None):
    """Greedy selection of shortest cycles with span-independent classes.

    A class is rejected when it lies in the Z-span (F_p-span for a
    prime ``modulus``) of the classes already selected: over Z, when it
    reduces to zero against the Hermite-reduced echelon rows of that
    span.  Stops after ``count`` selections (or candidate exhaustion);
    the trace records every decision.
    """
    return _greedy(
        _check_candidates(candidates), modulus, count, _span_state,
        ("independent", "span-dependent"), "reached-count",
    )


def successive_minima_II(candidates, modulus=0, target=None):
    """Greedy selection with the basis-extendability oracle.

    A class is selected when the selection stays a partial basis: over
    Z, when its image under the quotient map onto Z^n / span(selected)
    has gcd 1; over F_p, when it is independent of the selection.  Runs
    until ``target`` (default: the class dimension, i.e. 2g) classes
    are selected; the output is a basis whenever the candidate pool
    contains one.
    """
    candidates = _check_candidates(candidates)
    if target is None:
        target = len(candidates[0].cls) if candidates else 0
    return _greedy(
        candidates, modulus, target, _basis_state,
        ("extendable", "not-extendable"), "complete",
    )


def _assert_sorted(trace):
    lengths = [c.length for c in trace.selected]
    assert lengths == sorted(lengths), "selection lengths must be non-decreasing"


# ---------------------------------------------------------------------------
# the partial order on bases

def sorted_lengths(cycles):
    return tuple(sorted(c.length for c in cycles))


def compare_bases(A, B):
    """Pointwise comparison of length-sorted bases.

    Returns one of "equal", "A<B", "A<=B", "B<A", "B<=A",
    "incomparable"; the non-strict verdicts only occur for distinct
    bases with identical length vectors.
    """
    if len(A) != len(B):
        raise ValidationError("bases must have the same size")
    la, lb = sorted_lengths(A), sorted_lengths(B)
    le_ab = all(a <= b for a, b in zip(la, lb))
    le_ba = all(b <= a for a, b in zip(la, lb))
    if le_ab and le_ba:
        return "equal" if {c.key for c in A} == {c.key for c in B} else "A<=B"
    if le_ab:
        return "A<B"
    if le_ba:
        return "B<A"
    return "incomparable"


def _is_unit(d, modulus):
    """Is the determinant d a unit of Z (``modulus`` 0) or of F_p?"""
    return d % modulus != 0 if modulus else abs(d) == 1


def _is_basis(classes, modulus):
    M = as_int_matrix(classes)
    return bool(M) and len(M) == len(M[0]) and _is_unit(det_int(M), modulus)


def _beating_subsets(basis, candidates, modulus):
    """Bases among the candidates, as large as ``basis``, whose sorted
    lengths are not pointwise >= those of ``basis``; each comes with its
    sorted lengths.  The candidates' classes must be checked already."""
    la = sorted_lengths(basis)
    for combo in combinations(candidates, len(basis)):
        if _is_unit(_det([c.cls for c in combo]), modulus):
            lb = sorted_lengths(combo)
            if not all(a <= b for a, b in zip(la, lb)):
                yield combo, lb


def _greedy_certificate(basis, candidates, modulus):
    """Gale's test of ``basis`` against every basis of the candidates
    over Q (``modulus`` 0) or F_p.

    The greedy basis of the length-sorted candidates is pointwise no
    longer than every other basis of theirs (Gale, "Optimal assignments
    in an ordered set", 1968; Edmonds, "Matroids and the greedy
    algorithm", 1971), so no basis of the candidates beats ``basis``
    exactly when their rank is short of n = ``len(basis)`` or the sorted
    lengths of ``basis`` are pointwise <= the greedy basis's.  Raises
    ValidationError unless every candidate carries an n-tuple of ints;
    its callers check the modulus.
    """
    n = len(basis)
    _check_classes(candidates, n)
    if len(candidates) < n:
        return True
    pool = sorted(candidates, key=lambda c: c.length)
    kept = _greedy_pivots([c.cls for c in pool], modulus)
    if len(kept) < n:
        return True
    return all(s <= pool[i].length for s, i in zip(sorted_lengths(basis), kept))


def is_globally_minimal(basis, candidates, modulus=0):
    """Is no basis among the candidates shorter than ``basis`` at some
    sorted position?

    Returns (True, None) or (False, witness).  Gale's greedy certificate
    (``_greedy_certificate``) over Q or F_p settles every passing case;
    over Z it is sound because every Z-basis is a Q-basis.  A failing
    certificate falls back to the brute-force subset search, which finds
    the witness: among all bases beating the input at some sorted
    position, the one with the lexicographically largest length vector
    (the mildest counterexample, which drops the short curves first);
    ties fall back to the canonical cycle encodings.
    """
    _check_modulus(modulus)
    basis = tuple(basis)
    if not _is_basis([c.cls for c in basis], modulus):
        raise ValidationError("input cycles do not form a basis")
    candidates = tuple(candidates)
    if _greedy_certificate(basis, candidates, modulus):
        return True, None
    witness = None
    for combo, lb in _beating_subsets(basis, candidates, modulus):
        key = (lb, tuple(sorted(c.key for c in combo)))
        if witness is None or key > witness[0]:
            witness = (key, combo)
    if witness is None:
        return True, None
    return False, witness[1]


def verify_lemma_procI_minimal(trace, candidates, modulus=0):
    """Check the minimality inequality of a full procedure-I basis
    against every linearly independent subsequence of the same size.

    Independence is over Q (``modulus`` 0) or F_p, whatever ring the
    trace was taken in.  Gale's greedy certificate
    (``_greedy_certificate``) decides this exactly, with no assumption
    that the selection is drawn from the candidates.
    """
    _check_modulus(modulus)
    selected = trace.selected
    if not selected or not _is_basis([c.cls for c in selected], trace.modulus):
        raise ValidationError("trace does not form a basis; nothing to verify")
    return _greedy_certificate(selected, tuple(candidates), modulus)


# ---------------------------------------------------------------------------
# straightness in the graph metric

def shortest_distances(G, source):
    """Dijkstra over exact rational edge lengths."""
    R = G.ribbon
    vof = R.vertex_of
    dist = {source: Fraction(0)}
    heap = [(Fraction(0), source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for dart in R.rotation[v]:
            w = vof[R.twin[dart]]
            nd = d + G.length_of_dart(dart)
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def is_straight_cycle(G, cycle):
    """Is every along-the-cycle distance realized by the whole graph?

    For each pair of vertices on the cycle the shorter arc between them
    (minimized over repeated visits) must equal the graph distance.
    """
    walk = cycle.darts if isinstance(cycle, WeightedCycle) else tuple(cycle)
    validate_walk(G.ribbon, walk)
    vof = G.ribbon.vertex_of
    verts = [vof[d] for d in walk]
    prefix = [Fraction(0)]
    for d in walk:
        prefix.append(prefix[-1] + G.length_of_dart(d))
    total = prefix[-1]

    arc = {}
    m = len(walk)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            s = (prefix[j] - prefix[i]) % total
            d = min(s, total - s)
            key = (verts[i], verts[j])
            if key not in arc or d < arc[key]:
                arc[key] = d
    for v in set(verts):
        dist = shortest_distances(G, v)
        for w in set(verts):
            if v == w:
                continue
            if arc[(v, w)] != dist[w]:
                return False
    return True
