"""Reference implementations for the differential tests.

These are the earlier, separately written versions of the greedy
procedures, the two brute-force subset searches and the mod-p
elimination: one loop per procedure, one subset loop per search (the
lemma testing Q-independence by Smith-form rank) and one Gauss-Jordan
pass per mod-p routine.  The library shares one copy of each; these
keep the old code paths as the oracle it is compared against.  The
cycle enumeration is the earlier one on ``Fraction`` lengths, with a
``canonical_walk`` key and a dedup dict per closure.
"""

from fractions import Fraction
from itertools import combinations

from surfhom.minima import (
    MinimaTrace,
    TraceEvent,
    WeightedCycle,
    _assert_sorted,
    _check_candidates,
    _tied,
    sorted_lengths,
)
from surfhom.ribbon import ValidationError, canonical_walk, edge_of_dart, edges
from surfhom.zlattice import (
    _check_modulus,
    as_int_matrix,
    det_int,
    smith_normal_form,
)
from surfhom.zlattice import in_span as library_in_span


def rank_mod_p(A, p):
    M = [[x % p for x in row] for row in A]
    rank = 0
    cols = len(A[0]) if A else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(M)) if M[i][j]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][j], -1, p)
        M[rank] = [(x * inv) % p for x in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][j]:
                f = M[i][j]
                M[i] = [(a - f * b) % p for a, b in zip(M[i], M[rank])]
        rank += 1
    return rank


def in_span(M, v, modulus=0):
    """The mod-p branch as it stood on its own; Z goes to the library."""
    _check_modulus(modulus)
    if not modulus:
        return library_in_span(M, v, modulus)
    M = as_int_matrix(M)
    v = tuple(v)
    if not M:
        if any(x % modulus for x in v):
            return False, None
        return True, ()
    p = modulus
    rows = [[x % p for x in row] + [0] * len(M) for row in M]
    for i, row in enumerate(rows):
        row[len(v) + i] = 1
    target = [x % p for x in v]
    rank = 0
    pivots = []
    for j in range(len(v)):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][j], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                f = rows[i][j]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        pivots.append(j)
        rank += 1
    coeffs = [0] * len(M)
    for r, j in enumerate(pivots):
        if target[j]:
            f = target[j]
            target = [(a - f * b) % p for a, b in zip(target, rows[r][: len(v)])]
            coeffs = [(a + f * b) % p for a, b in zip(coeffs, rows[r][len(v):])]
    if any(target):
        return False, None
    return True, tuple(coeffs)


def is_partial_basis(M, modulus=0):
    _check_modulus(modulus)
    M = as_int_matrix(M)
    if not M or not M[0]:
        return True
    if len(M) > len(M[0]):
        return False
    if modulus:
        return rank_mod_p(M, modulus) == len(M)
    return all(d == 1 for d in smith_normal_form(M).invariant_factors)


def successive_minima_I(candidates, modulus=0, count=None):
    candidates = tuple(candidates)
    _check_candidates(candidates)
    events = []
    selected = []
    span = []
    halting = "exhausted"
    for i, c in enumerate(candidates):
        if count is not None and len(selected) >= count:
            halting = "reached-count"
            break
        flag, _ = in_span(as_int_matrix(span) if span else (), c.cls, modulus)
        if flag:
            events.append(TraceEvent(c, "rejected", "span-dependent"))
        else:
            events.append(TraceEvent(c, "selected", "independent", _tied(candidates, i)))
            selected.append(c)
            span.append(c.cls)
    if count is not None and len(selected) >= count:
        halting = "reached-count"
    trace = MinimaTrace(tuple(events), tuple(selected), halting, modulus)
    _assert_sorted(trace)
    return trace


def successive_minima_II(candidates, modulus=0, target=None):
    candidates = tuple(candidates)
    _check_candidates(candidates)
    if target is None:
        target = len(candidates[0].cls) if candidates else 0
    events = []
    selected = []
    chosen = []
    halting = "exhausted"
    for i, c in enumerate(candidates):
        if len(selected) >= target:
            halting = "complete"
            break
        if is_partial_basis(as_int_matrix(chosen + [c.cls]), modulus):
            events.append(TraceEvent(c, "selected", "extendable", _tied(candidates, i)))
            selected.append(c)
            chosen.append(c.cls)
        else:
            events.append(TraceEvent(c, "rejected", "not-extendable"))
    if len(selected) >= target:
        halting = "complete"
    trace = MinimaTrace(tuple(events), tuple(selected), halting, modulus)
    _assert_sorted(trace)
    return trace


def _is_basis(classes, modulus):
    M = as_int_matrix(classes)
    if len(M) != len(M[0]):
        return False
    if modulus:
        return is_partial_basis(M, modulus)
    return abs(det_int(M)) == 1


def is_globally_minimal(basis, candidates, modulus=0):
    basis = tuple(basis)
    n = len(basis)
    if not _is_basis([c.cls for c in basis], modulus):
        raise ValidationError("input cycles do not form a basis")
    la = sorted_lengths(basis)
    witness = None
    for combo in combinations(tuple(candidates), n):
        if not _is_basis([c.cls for c in combo], modulus):
            continue
        lb = sorted_lengths(combo)
        if not all(a <= b for a, b in zip(la, lb)):
            key = (lb, tuple(sorted(c.key for c in combo)))
            if witness is None or key > witness[0]:
                witness = (key, combo)
    if witness is None:
        return True, None
    return False, witness[1]


def verify_lemma_procI_minimal(trace, candidates, modulus=0):
    selected = trace.selected
    n = len(selected)
    if n == 0 or not _is_basis([c.cls for c in selected], trace.modulus):
        raise ValidationError("trace does not form a basis; nothing to verify")
    la = sorted_lengths(selected)
    for combo in combinations(tuple(candidates), n):
        M = as_int_matrix([c.cls for c in combo])
        if modulus:
            if not is_partial_basis(M, modulus):
                continue
        elif smith_normal_form(M).rank != n:
            continue
        lb = sorted_lengths(combo)
        if not all(a <= b for a, b in zip(la, lb)):
            return False
    return True


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
