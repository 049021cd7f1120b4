"""Differential tests: the shared greedy loop, the minimality checks,
the partial order on bases and mod-p elimination against the separate
implementations in ``reference_minima``, on seeded random weighted
ribbon graphs and on pools of random class vectors; and the integer
straightness check against the ``Fraction`` one."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfhom import minima
from surfhom.homology import homology
from surfhom.minima import MinimaTrace, WeightedCycle, WeightedGraph, enumerate_cycles
from surfhom.ribbon import ValidationError, surface_invariants
from surfhom.zlattice import (
    LatticeError,
    _greedy_pivots,
    _rank_mod_p,
    identity,
    in_span,
    is_partial_basis,
)

from . import reference_minima as ref
from .reference_zlattice import smith_normal_form
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


@pytest.mark.parametrize("modulus", MODULI)
def test_partial_order_matches_reference(modulus):
    # integer length keys against the Fraction comparisons of the
    # reference; sorted_lengths hands back the very length objects, in
    # the order a stable sort of the Fractions gives
    verdicts = set()
    for g, pool in POOLS:
        # each basis in length order and reversed
        bases = searched_bases(g, pool, modulus)
        bases += tuple(B[::-1] for B in bases)
        for A in bases:
            got = minima.sorted_lengths(A)
            assert got == ref.sorted_lengths(A)
            assert all(a is b for a, b in zip(got, ref.sorted_lengths(A)))
            for B in bases:
                # bases of different sizes are refused by both
                verdict = outcome(minima.compare_bases, A, B)
                assert verdict == outcome(ref.compare_bases, A, B)
                verdicts.add(verdict)
    assert {"equal", "A<B", "B<A", "not a basis"} <= verdicts


def greedy_witness_mod_p(M, v, p):
    """The reference witness on the rows of M that raise the rank mod p,
    taken in order, and zero on every other row: the one combination
    that ``in_span`` promises over F_p."""
    kept = []
    for i, row in enumerate(M):
        if ref.rank_mod_p([M[k] for k in kept] + [row], p) > len(kept):
            kept.append(i)
    flag, wit = ref.in_span(tuple(M[i] for i in kept), v, p)
    if not flag:
        return False, None
    out = [0] * len(M)
    for i, x in zip(kept, wit):
        out[i] = x
    return True, tuple(out)


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
        assert in_span(M, v, p) == greedy_witness_mod_p(M, v, p)
        assert _rank_mod_p(M, p) == ref.rank_mod_p(M, p)


# ---------------------------------------------------------------------------
# the greedy certificate on class vectors, with no graph behind them

def raised(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except Exception as err:
        return type(err).__name__, str(err)


def random_unimodular(rng, n):
    """An integer basis: the identity under random row additions, shuffled."""
    M = [list(r) for r in identity(n)]
    for _ in range(rng.randrange(3 * n + 1) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-1, 1, 2))
        M[i] = [a + q * b for a, b in zip(M[i], M[j])]
    rng.shuffle(M)
    return [tuple(r) for r in M]


MALFORMED = ("None", "ragged", "non-integer", "wrong-width")


def malformed(rng, pool, kind):
    """The pool with one class (every class, for "wrong-width") spoilt."""
    pool = list(pool)
    i = rng.randrange(len(pool))
    c = pool[i]
    if kind == "wrong-width":
        return [WeightedCycle(c.darts, c.length, c.key, c.cls + (0,)) for c in pool]
    if kind == "None":
        cls = None
    elif kind == "ragged":
        cls = c.cls + (1,)
    else:
        bad = rng.choice((Fraction(1, 2), 1.0, True))
        j = rng.randrange(len(c.cls))
        cls = c.cls[:j] + (bad,) + c.cls[j + 1:]
    pool[i] = WeightedCycle(c.darts, c.length, c.key, cls)
    return pool


def class_case(rng, modulus):
    """A length-sorted pool of 'cycles' carrying random class vectors,
    and the bases to check against it: one drawn outside the pool, both
    reference procedures' selections and a random non-greedy subset.
    One pool in four has rank below the class dimension n, one in five
    is malformed; the label names the fault, or is None.  A quarter of
    the classes are non-primitive (2 e_i, e_i + 2 e_j), and about one
    pool in three holds a class and its double at one length."""
    n = rng.randint(1, 4)
    gens = [tuple(rng.randint(-2, 2) for _ in range(n))
            for _ in range(n if rng.random() < 0.75 else rng.randrange(n))]
    serial = iter(range(1000))

    def cycle(cls):
        k = next(serial)
        return WeightedCycle((k,), Fraction(rng.randint(1, 8), 2), (k,), cls)

    def vector():
        if len(gens) == n and rng.random() < 0.5:
            return tuple(rng.randint(-2, 2) for _ in range(n))
        coeffs = [rng.randint(-2, 2) for _ in gens]
        return tuple(sum(a * g[j] for a, g in zip(coeffs, gens)) for j in range(n))

    def non_primitive():
        v = [0] * n
        i = rng.randrange(n)
        v[i] = rng.choice((2, -2))
        if n > 1 and rng.random() < 0.5:
            v[i] //= 2
            v[rng.choice([j for j in range(n) if j != i])] = 2
        return tuple(v)

    outside = [cycle(r) for r in random_unimodular(rng, n)]
    pool = [cycle(non_primitive() if rng.random() < 0.25 else vector())
            for _ in range(rng.randint(n, 9))]
    if rng.random() < 0.3:
        pool += outside[: rng.randint(1, n)]
    if rng.random() < 0.3:
        # a class and its double at one length, in either order
        i = rng.randrange(len(pool))
        c, k = pool[i], next(serial)
        pool.insert(i + rng.randrange(2),
                    WeightedCycle((k,), c.length, (k,), tuple(2 * x for x in c.cls)))
    pool.sort(key=lambda c: c.length)
    bases = [
        outside,
        ref.successive_minima_I(pool, modulus, n).selected,
        ref.successive_minima_II(pool, modulus).selected,
        rng.sample(pool, n),
    ]
    label = rng.choice(MALFORMED) if rng.random() < 0.2 else None
    if label:
        pool = malformed(rng, pool, label)
    return pool, [tuple(b) for b in bases if b], label


class_vectors = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.one_of(
            st.tuples(*[st.integers(-3, 3)] * n),
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from((-2, 2)))
            .map(lambda t: tuple(t[2] * (j == t[0]) + (j == t[1]) for j in range(n))),
        ),
        max_size=10,
    )
)


@settings(max_examples=150, deadline=None)
@given(class_vectors, st.lists(st.integers(1, 3), min_size=10, max_size=10), st.sampled_from(MODULI))
def test_procedure_traces_match_reference_property(classes, lengths, modulus):
    # classes like 2 e_i + e_j reach the Z oracles' hard cases (in the
    # Q-span but not the Z-span, a span whose index falls as it grows);
    # lengths drawn from three values make ties common
    pool = sorted(
        (WeightedCycle((k,), Fraction(l), (k,), cls) for k, (cls, l) in enumerate(zip(classes, lengths))),
        key=lambda c: c.length,
    )
    n = len(pool[0].cls) if pool else 0
    for count in (None, n):
        assert minima.successive_minima_I(pool, modulus, count) == \
            ref.successive_minima_I(pool, modulus, count)
    for target in (None, n + 1):
        assert minima.successive_minima_II(pool, modulus, target) == \
            ref.successive_minima_II(pool, modulus, target)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(*[st.integers(-6, 6)] * n), max_size=5),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
    st.tuples(*[st.integers(-6, 6)] * n),
)))
def test_z_oracles_match_reference_property(case):
    # the Hermite span oracle and the quotient partial-basis oracle
    # against the Smith-form ones; a witness is checked, not compared
    M, coeffs, other = case
    M = tuple(M)
    combo = tuple(sum(c * row[j] for c, row in zip(coeffs, M)) for j in range(len(other)))
    for v in (combo, other):
        flag, witness = in_span(M, v, 0)
        assert flag == ref.in_span(M, v, 0)[0]
        if flag:
            assert len(witness) == len(M)
            assert tuple(sum(c * row[j] for c, row in zip(witness, M))
                         for j in range(len(v))) == v
    assert in_span(M, combo, 0)[0]
    assert is_partial_basis(M, 0) == ref.is_partial_basis(M, 0)


@pytest.mark.parametrize("modulus", MODULI)
def test_certificate_matches_reference_on_class_vectors(modulus):
    rng = random.Random(1968 + modulus)
    seen = set()
    for _ in range(150):
        pool, bases, label = class_case(rng, modulus)
        checks = []
        for basis in bases:
            checks.append(("minimal", ref.is_globally_minimal, basis, pool, modulus))
            for trace_modulus in MODULI:
                tr = MinimaTrace((), basis, "reached-count", trace_modulus)
                checks.append(("lemma", ref.verify_lemma_procI_minimal, tr, pool, modulus))
        for name, oracle, *args in checks:
            got = raised(getattr(minima, oracle.__name__), *args)
            if label is None:
                assert got == raised(oracle, *args)
            else:
                # a malformed pool is refused; a basis that is not one
                # is refused before the pool is read
                assert got[0] == "ValidationError"
            seen.add((name, label, got if isinstance(got, bool) else got[0]))
    # every branch of both checks is reached: pass, fail and "not a
    # basis" on good pools, and the refusal of each kind of malformed one
    assert {("minimal", None, True), ("minimal", None, False),
            ("minimal", None, "ValidationError"), ("lemma", None, True),
            ("lemma", None, False), ("lemma", None, "ValidationError")} <= seen
    assert {label for _, label, _ in seen} == {None, *MALFORMED}


@pytest.mark.parametrize("modulus", MODULI)
def test_greedy_pivots_match_row_by_row_greedy(modulus):
    # a row is kept when it raises the rank of the rows kept before it:
    # the rank mod p, or the Smith rank over Q.  Entries stay small:
    # the Smith transforms of a 6x5 matrix with entries near 50 can
    # grow past any practical size.
    rng = random.Random(1971 + modulus)
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 9)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, n))]
        rows = []
        for _ in range(m):
            coeffs = [rng.randint(-2, 2) for _ in gens]
            rows.append(tuple(sum(a * g[j] for a, g in zip(coeffs, gens)) for j in range(n))
                        if rng.random() < 0.6 else
                        tuple(rng.randint(-4, 4) for _ in range(n)))
        kept = []
        for i, row in enumerate(rows):
            trial = [rows[k] for k in kept] + [row]
            rank = _rank_mod_p(trial, modulus) if modulus else smith_normal_form(trial).rank
            if rank > len(kept):
                kept.append(i)
        assert _greedy_pivots(rows, modulus) == kept


def test_straightness_matches_reference():
    # integer Dijkstra and arcs against the Fraction ones, on seeded
    # graphs whose lengths have mixed denominators
    rng = random.Random("straightness")
    seen = set()
    for _ in range(80):
        R = random_ribbon_graph(rng, max_edges=6)
        G = WeightedGraph(R, [Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4, 7)))
                              for _ in range(R.n_edges)])
        for c in enumerate_cycles(G, sum(G.edge_length))[:15]:
            got = minima.is_straight_cycle(G, c)
            assert got == ref.is_straight_cycle(G, c), (R, G.edge_length, c.darts)
            seen.add(got)
        for v in range(len(R.rotation)):
            dist = minima.shortest_distances(G, v)
            scaled = {w: x * G._denominator for w, x in ref.shortest_distances(G, v).items()}
            assert dist == scaled
    assert seen == {True, False}


def test_short_pool_holds_only_for_a_valid_modulus():
    # with fewer candidates than classes no basis of theirs exists, so
    # the lemma holds; the modulus is checked all the same
    basis = tuple(WeightedCycle((k,), Fraction(1), (k,), row) for k, row in enumerate(identity(2)))
    tr = MinimaTrace((), basis, "reached-count", 0)
    for modulus in (0, 2):
        assert minima.verify_lemma_procI_minimal(tr, basis[:1], modulus) is True
    with pytest.raises(LatticeError, match="modulus must be 0 or a prime, got 4"):
        minima.verify_lemma_procI_minimal(tr, basis[:1], 4)


def test_malformed_pool_is_refused_with_its_class():
    # the procedures read the width off the first candidate; the
    # minimality checks off the basis
    basis = tuple(WeightedCycle((k,), Fraction(1), (k,), row) for k, row in enumerate(identity(2)))
    tr = MinimaTrace((), basis, "reached-count", 0)
    for cls in (None, (1,), (1, 0, 0), (Fraction(1, 2), 0), (1.0, 0), (True, 0), [1, 0]):
        pool = basis + (WeightedCycle((9,), Fraction(2), (9,), cls),)
        message = f"candidate class {cls!r} is not a 2-tuple of ints"
        for modulus in MODULI:
            with pytest.raises(ValidationError, match=re.escape(message)):
                minima.verify_lemma_procI_minimal(tr, pool, modulus)
            with pytest.raises(ValidationError, match=re.escape(message)):
                minima.is_globally_minimal(basis, pool, modulus)
            with pytest.raises(ValidationError, match=re.escape(message)):
                minima.successive_minima_I(pool, modulus, 2)
            with pytest.raises(ValidationError, match=re.escape(message)):
                minima.successive_minima_II(pool, modulus)
