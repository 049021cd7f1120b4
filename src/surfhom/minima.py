"""Shortest-cycle enumeration and successive-minima procedures.

All lengths are exact rationals; ties between equal-length cycles are
broken by the canonical dart encoding, so every procedure is a
deterministic function of its input.  A ``WeightedGraph`` scales its
lengths once, when it is built: D is the least common denominator of
the edge lengths and each dart weighs its edge's length times D, an
integer, read through the surface's edge numbering (``edge_number``).
The enumeration, the graph distances and the straightness check all
run on these integers; a walk's length is one ``Fraction`` of its
weight over D.  Candidate cycles are edge-simple closed walks with no
dart followed by its reversal; vertices may repeat.  The enumeration
starts each cycle at the smaller dart of its least edge, which makes
the walk its own canonical encoding.
Both of its depth-first searches read one table of each vertex's
search steps in decreasing dart order, which the stack pops in
increasing order, so they find the walks in lexicographic order.  Below
twice the total length the table is kept on the graph beside the
distances back to each start vertex, and the search cuts each walk that
they say cannot close within the bound; at twice the total length or
more, where no walk is cut, the table is built per call and a node's
children come from a memo of the call keyed by its vertex and free
edges.  It drops each closed walk into the bucket of its integer
length, and the buckets joined in increasing length are in (length,
encoding) order.
``WeightedCycle`` is a ``NamedTuple``, so the cycles are built as
tuples in one pass.

The procedures, the minimality certificates, ``sorted_lengths`` and
``compare_bases`` compare no two lengths as ``Fraction``s: each call
scales the lengths it is given by their least common denominator into
integer keys (``_length_keys``), which order, tie and sort exactly as
the lengths do, and it refuses a length that is not an int or a
``Fraction``.
"""

import heapq
from bisect import bisect_right
from collections import defaultdict
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, combinations, compress, repeat
from math import lcm
from operator import attrgetter, is_not, itemgetter, le, or_
from typing import NamedTuple

from .homology import homology
from .ribbon import (
    ValidationError,
    _check_dart,
    canonical_walk,
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
    # not called here: test_rebinding_reaches_names_imported_by_other_modules
    # in perfbench/test_perfbench.py reads minima.det_int
    det_int,
)


def _exact(x, what):
    """x as a Fraction when its type is exactly int or Fraction (a
    Fraction is returned as it is), else ValidationError: a float is not
    exact, and a bool is not a length."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    raise ValidationError(f"{what} {x!r} is not an int or a Fraction")


def _length_keys(lengths):
    """Exact lengths as integers in units of 1/D, D their least common
    denominator, in order: the keys compare exactly as the lengths do,
    with no ``Fraction`` operation.  Raises ValidationError naming a
    length that is not an int or a Fraction."""
    if not set(map(type, lengths)) <= {int, Fraction}:
        for x in lengths:
            _exact(x, "cycle length")
    D = lcm(*map(attrgetter("denominator"), lengths))
    return [x.numerator * (D // x.denominator) for x in lengths]


def _as_cycles(cycles):
    """The cycles as a tuple; anything that is not iterable raises
    ValidationError naming it."""
    try:
        it = iter(cycles)
    except TypeError:
        raise ValidationError(f"candidates {cycles!r} are not an iterable of cycles") from None
    return tuple(it)


def _fields(cycles, name):
    """The attribute ``name`` of each cycle, in a list; a candidate
    without it raises ValidationError naming it.  Only a failure walks
    the cycles one by one."""
    try:
        return list(map(attrgetter(name), cycles))
    except AttributeError:
        for c in cycles:
            if not hasattr(c, name):
                raise ValidationError(f"candidate {c!r} is not a cycle") from None
        raise


# a frozen dataclass, not a NamedTuple: __post_init__ validates the
# lengths, and the scaled weights and search tables are kept in its
# __dict__
@dataclass(frozen=True)
class WeightedGraph:
    """A ribbon graph with an exact positive rational length per edge,
    each given as an int or a ``Fraction`` (``_exact``).

    Building it scales the lengths once: ``_denominator`` is their least
    common denominator D, and ``_weight[d]`` is the length of dart d's
    edge times D.  Its first bounded ``enumerate_cycles``, at a bound
    below twice its total length, keeps the search tables on it
    (``_search``)."""

    ribbon: object
    edge_length: tuple  # aligned with edges(ribbon)

    def __post_init__(self):
        R = self.ribbon
        try:
            lengths = tuple(_exact(x, "edge length") for x in self.edge_length)
        except TypeError as exc:
            raise ValidationError(f"malformed edge lengths: {exc}") from None
        if len(lengths) != R.n_edges:
            raise ValidationError("one length per edge required")
        if any(l.numerator <= 0 for l in lengths):
            raise ValidationError("edge lengths must be positive")
        D = lcm(*(l.denominator for l in lengths))
        scaled = [l.numerator * (D // l.denominator) for l in lengths]
        object.__setattr__(self, "edge_length", lengths)
        object.__setattr__(self, "_denominator", D)
        object.__setattr__(self, "_weight", tuple(map(scaled.__getitem__, R.edge_number)))

    def length_of_dart(self, d):
        _check_dart(self.ribbon, d)
        return self.edge_length[self.ribbon.edge_number[d]]

    def walk_length(self, walk):
        """The exact length of a tuple or a list of darts; anything else,
        an iterator among them, is refused as ``validate_walk`` refuses it."""
        if not isinstance(walk, (tuple, list)):
            raise ValidationError(f"walk {walk!r} is not a tuple or a list of darts")
        for d in walk:
            _check_dart(self.ribbon, d)
        return Fraction(sum(map(self._weight.__getitem__, walk)), self._denominator)


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
        given.  A class that is not iterable raises ValidationError."""
        try:
            cls = tuple(cls)
        except TypeError:
            raise ValidationError(f"class {cls!r} is not an iterable of ints") from None
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
    walk = validate_walk(G.ribbon, walk)
    cycle = WeightedCycle(walk, G.walk_length(walk), canonical_walk(walk, G.ribbon.twin), None, name)
    return cycle if cls is None else cycle.with_class(cls)


def _step_table(G, packed):
    """Each vertex's search steps in decreasing dart order: a step is
    (dart, weight, edge bit, head vertex, packed row), the weight the
    dart's in ``G._weight``, the edge bit of edge i being 1 << i and the
    packed row the dart's in ``homology(R)`` (``packed``)."""
    R = G.ribbon
    twin, vof, number, weight = R.twin, R.vertex_of, R.edge_number, G._weight
    return [
        [(d, weight[d], 1 << number[d], vof[twin[d]], packed[d]) for d in sorted(rot, reverse=True)]
        for rot in R.rotation
    ]


def _search(G):
    """The tables of ``enumerate_cycles`` below twice G's total length,
    built on G's first such enumeration and kept on G, as
    ``homology(R)`` is kept on R: the step table (``_step_table``) and a
    dict, empty at first, that takes the integer distances to each start
    vertex that a bounded enumeration needs, as a list indexed by
    vertex."""
    tables = G.__dict__.get("_search")
    if tables is None:
        tables = (_step_table(G, homology(G.ribbon)._packed), {})
        object.__setattr__(G, "_search", tables)
    return tables


def _free_steps(steps, free):
    """Those of a vertex's ``steps`` whose edge bit is in ``free``, in
    order: a node's children in the close-all search."""
    return [step for step in steps if step[2] & free]


def enumerate_cycles(G, bound):
    """All cycles of length <= bound, up to rotation and reflection,
    each with its H1 class in the coordinates of ``homology(R)``, which
    this builds when R has none yet.

    Exhaustive backtracking with partial-length pruning, run on the
    integer dart weights of G, its lengths scaled by their least common
    denominator D when G was built: a partial length L/D is kept exactly
    when L <= floor(bound * D).  A cycle is reached only from its least
    edge, as the walk that starts with that edge's smaller dart; that
    dart occurs nowhere else in the walk or in its reversal, so the walk
    is its own canonical encoding and no cycle is reached twice.

    Both searches read each vertex's search steps in decreasing dart
    order (``_step_table``), so the stack pops a node's children in
    increasing dart order.  A bound of at least twice G's total length
    cuts no walk (a walk of length L is at most L from its start, and an
    edge-simple walk is at most the total length long), and it has a
    search of its own, the close-all search.  Per call it builds the
    step table, each vertex's mask of incident edge bits and one empty
    memo per vertex.  A node with no free (incident, unused) edge has no
    children; any other node reads the steps on its free edges from its
    vertex's memo under those edges, built on a miss (``_free_steps``).
    No room, distance or ``_search`` table is used, and nothing is kept
    on G.

    Below that bound the step table is kept on G (``_search``), and a
    node takes a step of weight w to vertex h only when its edge is
    unused and w + back[h] fits the room left, back[h] being the integer
    distance from h to the walk's start vertex (``shortest_distances``,
    run once per start vertex and kept on G beside the steps).  The rest
    of a closed walk through that dart is a walk from h back to the
    start, never shorter than back[h], so the test cuts only walks that
    cannot close within the bound; as back[h] >= 0, it also refuses
    every dart longer than the room left.

    The starts run in increasing dart order too, a walk is found before
    its extensions and each subtree is finished before its next sibling
    starts, so the walks are found in lexicographic order (the preorder
    of a backtracking search; Read and Tarjan, "Bounds on backtrack
    algorithms for listing cycles, paths, and spanning trees", Networks
    1975); a cut subtree holds no closed walk.  Each closed walk goes
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
    if bound.numerator <= 0:
        raise ValidationError("bound must be positive")
    R = G.ribbon
    twin, vof = R.twin, R.vertex_of
    H = homology(R)
    packed = H._packed
    D, weight = G._denominator, G._weight
    limit = bound.numerator * D // bound.denominator
    walks_of, sums_of = defaultdict(list), defaultdict(list)  # by integer length
    # sum(weight) counts each edge twice: twice the total length
    if limit >= sum(weight):
        # every walk fits and can still close
        steps_at = _step_table(G, packed)
        incident = [reduce(or_, map(itemgetter(2), steps), 0) for steps in steps_at]
        memo = [{} for _ in steps_at]
        for i, start in enumerate(edges(R)):
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
                free = incident[at] & ~used
                if not free:
                    continue
                children = memo[at].get(free)
                if children is None:
                    children = memo[at][free] = _free_steps(steps_at[at], free)
                for d, w, b, head, p in children:
                    push((walk + (d,), used | b, length + w, head, s + p))
    else:
        steps_at, back_of = _search(G)
        vertices = range(len(R.rotation))
        for i, start in enumerate(edges(R)):
            if weight[start] > limit:
                continue
            home = vof[start]
            back = back_of.get(home)
            if back is None:
                back = back_of[home] = list(map(shortest_distances(G, home).__getitem__, vertices))
            stack = [((start,), (2 << i) - 1, weight[start], vof[twin[start]], packed[start])]
            push = stack.append
            while stack:
                walk, used, length, at, s = stack.pop()
                if at == home:
                    walks_of[length].append(walk)
                    sums_of[length].append(s)
                room = limit - length
                for d, w, b, head, p in steps_at[at]:
                    if not used & b and w + back[head] <= room:
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
    """The record of one greedy run: ``events`` holds one ``TraceEvent``
    per candidate decided, in candidate order, ``selected`` the selected
    cycles in that order, and ``modulus`` the ring (0 for Z, else the
    prime p of F_p).  ``halting`` says why the run stopped: procedure I
    "reached-count" once ``count`` classes are selected, procedure II
    "complete" once ``target`` are, and either one "exhausted" when the
    candidates run out first."""

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
    classes = _fields(candidates, "cls")
    distinct = dict(zip(map(id, classes), classes)).values()
    if set(map(type, classes)) <= {tuple} and set(map(len, distinct)) <= {n} and \
            set(map(type, chain.from_iterable(distinct))) <= {int}:
        return
    for cls in classes:
        if type(cls) is not tuple or len(cls) != n or any(type(x) is not int for x in cls):
            raise ValidationError(f"candidate class {cls!r} is not a {n}-tuple of ints")


def _check_candidates(candidates):
    """The candidates as a tuple and ``key``, the function that gives
    candidate i's integer length key (``_length_keys``), after checking
    that each class is an n-tuple of ints, n the width of the first,
    that each length is an int or a Fraction, and that lengths never
    decrease."""
    candidates = _as_cycles(candidates)
    if candidates:
        cls = getattr(candidates[0], "cls", None)
        _check_classes(candidates, len(cls) if type(cls) is tuple else 0)
    # the enumeration shares one length object per distinct length, so
    # each run of one object is keyed once, at its start: a long pool
    # costs a pass at C speed, and a procedure reads keys only for the
    # prefix it decides
    lengths = _fields(candidates, "length")
    starts = list(compress(range(len(lengths)), map(is_not, lengths, chain((object(),), lengths))))
    keys = _length_keys(list(map(lengths.__getitem__, starts)))
    if keys != sorted(keys):
        raise ValidationError("candidates must be sorted by length")
    return candidates, lambda i: keys[bisect_right(starts, i) - 1]


def _tied(key, i, n):
    """Does candidate i of n share its length key with a neighbour?"""
    k = key(i)
    return (i > 0 and key(i - 1) == k) or (i + 1 < n and key(i + 1) == k)


def _check_limit(limit, what):
    """Refuse a selection limit that is neither None nor an int >= 0; a
    bool is not a count."""
    if limit is not None and (type(limit) is not int or limit < 0):
        raise ValidationError(f"{what} {limit!r} is not None or an int >= 0")


def _greedy(candidates, key, modulus, limit, state, reasons, halting):
    """The greedy loop behind both procedures, on candidates checked by
    ``_check_candidates`` and their length key function.

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
    chosen = []
    for i, c in enumerate(candidates):
        if limit is not None and len(chosen) >= limit:
            break
        if extend(c.cls):
            events.append(TraceEvent(c, "selected", reasons[0], _tied(key, i, len(candidates))))
            chosen.append(i)
        else:
            events.append(TraceEvent(c, "rejected", reasons[1]))
    reached = limit is not None and len(chosen) >= limit
    trace = MinimaTrace(
        tuple(events), tuple(map(candidates.__getitem__, chosen)),
        halting if reached else "exhausted", modulus,
    )
    _assert_sorted(list(map(key, chosen)))
    return trace


def successive_minima_I(candidates, modulus=0, count=None):
    """Greedy selection of shortest cycles with span-independent classes.

    A class is rejected when it lies in the Z-span (F_p-span for a
    prime ``modulus``) of the classes already selected: over Z, when it
    reduces to zero against the Hermite-reduced echelon rows of that
    span.  Stops after ``count`` selections (or candidate exhaustion);
    the trace records every decision.
    """
    _check_limit(count, "count")
    return _greedy(
        *_check_candidates(candidates), modulus, count, _span_state,
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
    _check_limit(target, "target")
    candidates, key = _check_candidates(candidates)
    if target is None:
        target = len(candidates[0].cls) if candidates else 0
    return _greedy(
        candidates, key, modulus, target, _basis_state,
        ("extendable", "not-extendable"), "complete",
    )


def _assert_sorted(keys):
    """The length keys of a selection never decrease."""
    assert keys == sorted(keys), "selection lengths must be non-decreasing"


# ---------------------------------------------------------------------------
# the partial order on bases

def sorted_lengths(cycles):
    """The cycles' lengths in increasing order, sorted on their integer
    keys (``_length_keys``)."""
    lengths = _fields(_as_cycles(cycles), "length")
    keys = _length_keys(lengths)
    return tuple(lengths[i] for i in sorted(range(len(lengths)), key=keys.__getitem__))


def compare_bases(A, B):
    """Pointwise comparison of length-sorted bases.

    Returns one of "equal", "A<B", "A<=B", "B<A", "B<=A",
    "incomparable"; the non-strict verdicts only occur for distinct
    bases with identical length vectors.
    """
    A, B = _as_cycles(A), _as_cycles(B)
    if len(A) != len(B):
        raise ValidationError("bases must have the same size")
    keys = _length_keys(_fields(A + B, "length"))
    la, lb = sorted(keys[:len(A)]), sorted(keys[len(A):])
    le_ab = all(map(le, la, lb))
    le_ba = all(map(le, lb, la))
    if le_ab and le_ba:
        return "equal" if set(_fields(A, "key")) == set(_fields(B, "key")) else "A<=B"
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
    return bool(M) and len(M) == len(M[0]) and _is_unit(_det(M), modulus)


def _beating_subsets(bound, candidates, keys, modulus):
    """Bases among the candidates, of ``len(bound)`` cycles, whose sorted
    length keys are not pointwise >= ``bound``, the sorted keys of the
    basis they are tested against; each comes with its sorted keys.
    ``keys`` are the candidates' length keys, in the units of ``bound``;
    the candidates' classes must be checked already."""
    for combo in combinations(range(len(candidates)), len(bound)):
        cycles = tuple(map(candidates.__getitem__, combo))
        if _is_unit(_det([c.cls for c in cycles]), modulus):
            lb = sorted(map(keys.__getitem__, combo))
            if not all(map(le, bound, lb)):
                yield cycles, lb


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
    keys = _length_keys(_fields(basis, "length") + _fields(candidates, "length"))
    if len(candidates) < n:
        return True
    bound, keys = sorted(keys[:n]), keys[n:]
    pool = sorted(range(len(candidates)), key=keys.__getitem__)
    kept = _greedy_pivots([candidates[i].cls for i in pool], modulus)
    if len(kept) < n:
        return True
    return all(map(le, bound, [keys[pool[i]] for i in kept]))


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
    basis = _as_cycles(basis)
    if not _is_basis(_fields(basis, "cls"), modulus):
        raise ValidationError("input cycles do not form a basis")
    candidates = _as_cycles(candidates)
    if _greedy_certificate(basis, candidates, modulus):
        return True, None
    keys = _length_keys(_fields(basis + candidates, "length"))
    n = len(basis)
    witness = None
    for combo, lb in _beating_subsets(sorted(keys[:n]), candidates, keys[n:], modulus):
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
    try:
        selected, ring = trace.selected, trace.modulus
    except AttributeError:
        raise ValidationError(f"trace {trace!r} is not a procedure trace") from None
    if not selected or not _is_basis(_fields(selected, "cls"), ring):
        raise ValidationError("trace does not form a basis; nothing to verify")
    return _greedy_certificate(selected, _as_cycles(candidates), modulus)


# ---------------------------------------------------------------------------
# straightness in the graph metric

def shortest_distances(G, source):
    """Dijkstra over G's integer dart weights: each distance is the
    graph distance from ``source`` times D, the least common denominator
    of G's edge lengths (``G._denominator``).  A source that is not a
    vertex of G raises ValidationError."""
    R = G.ribbon
    if not (type(source) is int and 0 <= source < len(R.rotation)):
        raise ValidationError(f"vertex {source!r} not in graph")
    vof, twin, weight = R.vertex_of, R.twin, G._weight
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for dart in R.rotation[v]:
            w = vof[twin[dart]]
            nd = d + weight[dart]
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def is_straight_cycle(G, cycle):
    """Is every along-the-cycle distance realized by the whole graph?

    For each pair of vertices on the cycle the shorter arc between them
    (minimized over repeated visits) must equal the graph distance.  Arcs
    and distances are compared as integers, in units of 1/D: every
    length of G is a multiple of it.
    """
    walk = validate_walk(G.ribbon, cycle.darts if isinstance(cycle, WeightedCycle) else cycle)
    vof = G.ribbon.vertex_of
    verts = [vof[d] for d in walk]
    prefix = list(accumulate(map(G._weight.__getitem__, walk), initial=0))
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
