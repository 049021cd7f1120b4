"""Shortest-cycle enumeration and successive-minima procedures.

All lengths are exact rationals; ties between equal-length cycles are
broken by the canonical dart encoding, so every procedure is a
deterministic function of its input.  Candidate cycles are edge-simple
closed walks with no dart followed by its reversal; vertices may
repeat.
"""

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from .ribbon import (
    ValidationError,
    canonical_walk,
    edge_of_dart,
    edges,
    validate_walk,
)
from .zlattice import _check_modulus, as_int_matrix, det_int, in_span, is_partial_basis


@dataclass(frozen=True)
class WeightedGraph:
    """A ribbon graph with an exact positive rational length per edge."""

    ribbon: object
    edge_length: tuple  # aligned with edges(ribbon)

    def __post_init__(self):
        E = edges(self.ribbon)
        lengths = tuple(Fraction(x) for x in self.edge_length)
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


@dataclass(frozen=True)
class WeightedCycle:
    """A closed walk with its exact length; ``key`` is the canonical
    rotation/reflection encoding used for deduplication and tie order."""

    darts: tuple
    length: Fraction
    key: tuple
    cls: tuple = None
    name: str = None

    def with_class(self, cls, name=None):
        return replace(self, cls=tuple(cls), name=name if name is not None else self.name)


def make_cycle(G, walk, cls=None, name=None):
    validate_walk(G.ribbon, walk)
    return WeightedCycle(
        tuple(walk),
        G.walk_length(walk),
        canonical_walk(tuple(walk), G.ribbon.twin),
        tuple(cls) if cls is not None else None,
        name,
    )


def enumerate_cycles(G, bound):
    """All cycles of length <= bound, up to rotation and reflection.

    Exhaustive backtracking with partial-length pruning; results sorted
    by (length, canonical encoding).
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise ValidationError("bound must be positive")
    R = G.ribbon
    vof = R.vertex_of
    found = {}

    all_edges = edges(R)
    for start in all_edges:
        w_start = G.length_of_dart(start)
        if w_start > bound:
            continue
        start_v = vof[start]
        stack = [((start,), frozenset((start,)), w_start)]
        while stack:
            walk, used, length = stack.pop()
            last = walk[-1]
            at = vof[R.twin[last]]
            if at == start_v and R.twin[last] != start:
                key = canonical_walk(walk, R.twin)
                if key not in found:
                    found[key] = WeightedCycle(walk, length, key)
            for d in R.rotation[at]:
                e = edge_of_dart(R, d)
                if e < start or e in used or d == R.twin[last]:
                    continue
                l2 = length + G.length_of_dart(d)
                if l2 <= bound:
                    stack.append((walk + (d,), used | {e}, l2))
    return tuple(sorted(found.values(), key=lambda c: (c.length, c.key)))


# ---------------------------------------------------------------------------
# successive minima

@dataclass(frozen=True)
class TraceEvent:
    cycle: WeightedCycle
    decision: str  # "selected" | "rejected"
    reason: str
    tie_break: bool = False


@dataclass(frozen=True)
class MinimaTrace:
    events: tuple
    selected: tuple
    halting: str  # "reached-count" | "complete" | "exhausted"
    modulus: int

    @property
    def selected_classes(self):
        return tuple(c.cls for c in self.selected)


def _check_candidates(candidates):
    """The candidates as a tuple, after checking each carries a class
    and that lengths never decrease."""
    candidates = tuple(candidates)
    last = None
    for c in candidates:
        if c.cls is None:
            raise ValidationError(f"candidate {c.darts} carries no homology class")
        if last is not None and c.length < last:
            raise ValidationError("candidates must be sorted by length")
        last = c.length
    return candidates


def _tied(candidates, i):
    l = candidates[i].length
    return (i > 0 and candidates[i - 1].length == l) or (
        i + 1 < len(candidates) and candidates[i + 1].length == l
    )


def _greedy(candidates, modulus, limit, accept, reasons, halting):
    """The greedy loop behind both procedures.

    ``accept(chosen, cls)`` decides a candidate class against the
    classes already selected; ``reasons`` are the (selected, rejected)
    reason strings; the trace halts with ``halting`` once ``limit``
    classes are selected (never when ``limit`` is None).
    """
    _check_modulus(modulus)
    events = []
    selected = []
    chosen = []
    for i, c in enumerate(candidates):
        if limit is not None and len(selected) >= limit:
            break
        if accept(chosen, c.cls):
            events.append(TraceEvent(c, "selected", reasons[0], _tied(candidates, i)))
            selected.append(c)
            chosen.append(c.cls)
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
    prime ``modulus``) of the classes already selected.  Stops after
    ``count`` selections (or candidate exhaustion); the trace records
    every decision.
    """
    return _greedy(
        _check_candidates(candidates), modulus, count,
        lambda chosen, cls: not in_span(chosen, cls, modulus)[0],
        ("independent", "span-dependent"), "reached-count",
    )


def successive_minima_II(candidates, modulus=0, target=None):
    """Greedy selection with the basis-extendability oracle.

    Runs until ``target`` (default: the class dimension, i.e. 2g)
    classes are selected; the output is a basis whenever the candidate
    pool contains one.
    """
    candidates = _check_candidates(candidates)
    if target is None:
        target = len(candidates[0].cls) if candidates else 0
    return _greedy(
        candidates, modulus, target,
        lambda chosen, cls: is_partial_basis(chosen + [cls], modulus),
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


def _is_basis(classes, modulus):
    M = as_int_matrix(classes)
    if not M or len(M) != len(M[0]):
        return False
    if modulus:
        return is_partial_basis(M, modulus)
    return abs(det_int(M)) == 1


def _beating_subsets(basis, candidates, ring_test):
    """Subsets of the candidates, as large as ``basis``, whose class
    matrix passes ``ring_test`` and whose sorted lengths are not
    pointwise >= those of ``basis``; each comes with its sorted lengths."""
    la = sorted_lengths(basis)
    for combo in combinations(tuple(candidates), len(basis)):
        if ring_test([c.cls for c in combo]):
            lb = sorted_lengths(combo)
            if not all(a <= b for a, b in zip(la, lb)):
                yield combo, lb


def is_globally_minimal(basis, candidates, modulus=0):
    """Brute-force check of the partial-order global minimum.

    Returns (True, None) or (False, witness).  Among all bases beating
    the input at some sorted position, the witness returned is the one
    with the lexicographically largest length vector (the mildest
    counterexample, which drops the short curves first); ties fall back
    to the canonical cycle encodings.
    """
    basis = tuple(basis)
    if not _is_basis([c.cls for c in basis], modulus):
        raise ValidationError("input cycles do not form a basis")
    witness = None
    for combo, lb in _beating_subsets(basis, candidates, lambda M: _is_basis(M, modulus)):
        key = (lb, tuple(sorted(c.key for c in combo)))
        if witness is None or key > witness[0]:
            witness = (key, combo)
    if witness is None:
        return True, None
    return False, witness[1]


def verify_lemma_procI_minimal(trace, candidates, modulus=0):
    """Check the minimality inequality of a full procedure-I basis
    against every linearly independent subsequence of the same size."""
    selected = trace.selected
    if not selected or not _is_basis([c.cls for c in selected], trace.modulus):
        raise ValidationError("trace does not form a basis; nothing to verify")
    # the selection is a basis, so every subset is square and
    # Q-independence is a nonzero determinant
    beating = _beating_subsets(
        selected, candidates,
        lambda M: is_partial_basis(M, modulus) if modulus else det_int(M) != 0,
    )
    return next(beating, None) is None


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
