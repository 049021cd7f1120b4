import itertools
import random
import time
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfhom import zlattice
from surfhom.zlattice import (
    LatticeError,
    as_int_matrix,
    complete_to_unimodular,
    det_int,
    identity,
    in_span,
    int_inverse,
    is_partial_basis,
    matmul,
    subgroup_index,
)

from . import reference_zlattice as ref
from .reference_zlattice import smith_normal_form

# declared coordinate rows used across the genus-2 and genus-4 catalog surfaces
ALPHA = (1, 0, 0, 0)
BETA = (0, 1, 0, 0)
GAMMA = (0, -1, 0, -1)
DELTA_G = (-1, 0, 2, 1)
DELTA_H = (-1, 1, 2, 1)

U = {
    1: (1, 0, 0, 0, 0, 0, 0, 0),
    2: (0, -1, 0, -1, 0, 0, 0, 0),
    3: (-1, 0, 2, 1, 1, 0, 0, 1),
    4: (0, 0, 0, 0, 1, 0, 0, 0),
    5: (0, 0, 0, 0, 0, 1, 0, 0),
    6: (0, 0, 0, 0, 0, 0, 1, 0),
    7: (0, 0, 0, 0, 0, 0, 0, 1),
    8: (0, 1, 0, 0, 0, 0, 0, 0),
    9: (0, -1, -1, 0, 0, -1, 1, 0),
    10: (0, 0, 1, 1, 0, 0, 0, 1),
}


def rows(*ks):
    return tuple(U[k] for k in ks)


# ---------------------------------------------------------------------------
# independent oracles

def det_laplace(A):
    n = len(A)
    if n == 1:
        return A[0][0]
    total = 0
    for j in range(n):
        if A[0][j]:
            minor = tuple(r[:j] + r[j + 1:] for r in A[1:])
            total += (-1) ** j * A[0][j] * det_laplace(minor)
    return total


def brute_force_in_span(M, v, bound=3):
    """Exhaustive small-coefficient search for v in the Z-row-span of M."""
    cols = len(v)
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(M)):
        s = tuple(sum(c * row[j] for c, row in zip(coeffs, M)) for j in range(cols))
        if s == v:
            return True
    return False


def mod2_rank(M):
    rows_ = [[x & 1 for x in r] for r in M]
    rank = 0
    for j in range(len(M[0])):
        piv = next((i for i in range(rank, len(rows_)) if rows_[i][j]), None)
        if piv is None:
            continue
        rows_[rank], rows_[piv] = rows_[piv], rows_[rank]
        for i in range(len(rows_)):
            if i != rank and rows_[i][j]:
                rows_[i] = [a ^ b for a, b in zip(rows_[i], rows_[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# smith normal form

def test_snf_identity():
    snf = smith_normal_form(identity(4))
    assert snf.invariant_factors == (1, 1, 1, 1)


def test_snf_genus2_curves():
    snf = smith_normal_form((ALPHA, BETA, GAMMA, DELTA_G))
    assert snf.invariant_factors == (1, 1, 1, 2)
    snf = smith_normal_form((ALPHA, BETA, GAMMA, DELTA_H))
    assert snf.invariant_factors == (1, 1, 1, 2)


def test_snf_index3_combination():
    snf = smith_normal_form(rows(1, 2, 3, 4, 5, 6, 7, 9))
    prod = 1
    for d in snf.invariant_factors:
        prod *= d
    assert prod == 3


def test_snf_round_trip_deterministic():
    A = rows(1, 2, 3, 9, 10)
    s1 = smith_normal_form(A)
    s2 = smith_normal_form(A)
    assert s1 == s2
    assert matmul(matmul(s1.U, A), s1.V) == s1.D
    assert matmul(s1.V, s1.V_inv) == identity(8)


matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_snf_properties(A):
    A = as_int_matrix(A)
    snf = smith_normal_form(A)
    assert matmul(matmul(snf.U, A), snf.V) == snf.D
    assert abs(det_int(snf.U)) == 1
    assert abs(det_int(snf.V)) == 1
    facs = snf.invariant_factors
    for a, b in zip(facs, facs[1:]):
        if b == 0:
            continue
        assert a != 0 and b % a == 0
    for i, row in enumerate(snf.D):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0


# ---------------------------------------------------------------------------
# determinants

def test_det_table():
    assert det_int(rows(1, 2, 3, 4, 5, 6, 7, 8)) == 2
    assert det_int(rows(1, 2, 3, 4, 5, 6, 7, 9)) == -3
    assert det_int(rows(1, 2, 3, 4, 5, 6, 7, 10)) == -1
    assert det_int(rows(2, 3, 4, 5, 6, 7, 8, 9)) == 1
    assert det_int(identity(8)) == 1


def test_det_errors():
    with pytest.raises(LatticeError):
        det_int(((1, 2, 3), (4, 5, 6)))


@pytest.mark.parametrize("call, message", [
    (lambda: det_int(None), "matrix None is not an iterable of rows"),
    (lambda: det_int([5]), "matrix [5] is not an iterable of rows"),
    (lambda: subgroup_index(None), "matrix None is not an iterable of rows"),
    (lambda: complete_to_unimodular(None), "matrix None is not an iterable of rows"),
    (lambda: in_span(None, (1,)), "matrix None is not an iterable of rows"),
    (lambda: in_span([[1, 0]], None), "vector None is not an iterable of ints"),
    (lambda: is_partial_basis(None), "matrix None is not an iterable of rows"),
    (lambda: as_int_matrix(5), "matrix 5 is not an iterable of rows"),
], ids=["det_int", "det_int-row", "subgroup_index", "complete_to_unimodular",
        "in_span-matrix", "in_span-vector", "is_partial_basis", "as_int_matrix"])
def test_a_matrix_or_row_that_is_not_iterable_is_refused(call, message):
    # a LatticeError naming the input the caller passed, never a raw
    # TypeError, as a non-integer entry is refused: in_span names its
    # vector, not a one-row matrix the caller never passed
    with pytest.raises(LatticeError) as err:
        call()
    assert str(err.value) == message


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_matches_laplace(A):
    A = as_int_matrix(A)
    assert det_int(A) == det_laplace(A)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_matches_sympy(A):
    # sympy is a test oracle only, never a dependency of the library
    sympy = pytest.importorskip("sympy")
    assert det_int(as_int_matrix(A)) == sympy.Matrix(A).det()


# ---------------------------------------------------------------------------
# span membership

def test_in_span_delta_not_in_abc():
    M = (ALPHA, BETA, GAMMA)
    # oracle first: no small integer combination reaches delta
    assert not brute_force_in_span(M, DELTA_G)
    flag, wit = in_span(M, DELTA_G, 0)
    assert not flag and wit is None


def test_in_span_mod2_u8():
    M = rows(1, 2, 3, 4, 5, 6, 7)
    # oracle: the 8x8 with u8 appended drops rank mod 2
    assert mod2_rank(rows(1, 2, 3, 4, 5, 6, 7, 8)) == 7
    flag, wit = in_span(M, U[8], 2)
    assert flag
    s = tuple(sum(c * row[j] for c, row in zip(wit, M)) % 2 for j in range(8))
    assert s == tuple(x % 2 for x in U[8])


def test_in_span_mod_p_witness_skips_dependent_rows():
    # the second row repeats the first, so the greedy keeps rows 0 and 2
    # and the witness mod 2 puts nothing on row 1
    M = ((0, 1), (0, 1), (1, 0))
    assert in_span(M, (0, 1), 2) == (True, (1, 0, 0))


def test_in_span_zero_vector():
    flag, wit = in_span((ALPHA, BETA), (0, 0, 0, 0), 0)
    assert flag and all(x == 0 for x in wit)


def test_in_span_witness_exact():
    M = (ALPHA, BETA, GAMMA, DELTA_G)
    v = tuple(2 * a - 3 * b + c - d for a, b, c, d in zip(ALPHA, BETA, GAMMA, DELTA_G))
    flag, wit = in_span(M, v, 0)
    assert flag
    got = tuple(sum(c * row[j] for c, row in zip(wit, M)) for j in range(4))
    assert got == v


# a 6x5 matrix on which the Smith form's transforms grow without bound:
# its 5-row prefix already gives a U entry of 33 digits
GROWTH = (
    (-30, -11, 9, 34, -16),
    (20, 52, -42, 5, 2),
    (-32, -23, 15, 7, -30),
    (-1, -4, 1, -6, 2),
    (-15, 24, 6, 41, -2),
    (17, 21, 12, 21, 35),
)


def cramer_in_span(M, v):
    """Is v in the Z-span of the rows of a nonsingular square M?  The
    unique rational solution of x @ M == v has x_i = det(M_i) / det(M),
    M_i being M with row i replaced by v."""
    d = det_int(M)
    return all(det_int(M[:i] + (v,) + M[i + 1:]) % d == 0 for i in range(len(M)))


def test_z_oracles_decide_the_growth_matrix_at_once():
    start = time.perf_counter()
    coeffs = (3, -2, 5, -7, 1, 4)
    v = tuple(sum(c * row[j] for c, row in zip(coeffs, GROWTH)) for j in range(5))
    flag, witness = in_span(GROWTH, v, 0)
    assert flag and matmul((witness,), GROWTH) == (v,)
    square = GROWTH[:5]
    w = tuple(sum(c * row[j] for c, row in zip(coeffs, square)) for j in range(5))
    for u in identity(5) + (GROWTH[5], v, w):
        flag, witness = in_span(square, u, 0)
        assert flag == cramer_in_span(square, u)
        assert witness is None or matmul((witness,), square) == (u,)
    assert is_partial_basis(square, 0) == (abs(det_int(square)) == 1)
    assert time.perf_counter() - start < 2


def test_in_span_dimension_mismatch():
    with pytest.raises(LatticeError):
        in_span((ALPHA,), (1, 2), 0)
    for modulus in (0, 2):
        with pytest.raises(LatticeError, match="non-integer entry 0.5"):
            in_span((ALPHA,), (1, 0.5, 0, 0), modulus)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
)
def test_z_span_implies_p_span(M, coeffs):
    M = as_int_matrix(M)
    coeffs = coeffs[: len(M)] + [0] * (len(M) - len(coeffs))
    v = tuple(sum(c * row[j] for c, row in zip(coeffs, M)) for j in range(3))
    assert in_span(M, v, 0)[0]
    for p in (2, 3, 5):
        assert in_span(M, v, p)[0]


# ---------------------------------------------------------------------------
# partial bases and indices

def test_partial_basis_examples():
    assert is_partial_basis(rows(1, 2, 3, 4, 5, 6, 7, 10), 0)
    assert not is_partial_basis(rows(1, 2, 3, 4, 5, 6, 7, 8), 0)
    assert not is_partial_basis(rows(1, 2, 3, 4, 5, 6, 7, 8), 2)
    assert is_partial_basis((), 0)
    assert is_partial_basis(rows(1, 2, 3, 4, 5, 6, 7), 0)
    # more rows than columns, also when there are no columns
    for modulus in (0, 2):
        assert not is_partial_basis(((),), modulus)
        assert not is_partial_basis(((1,), (0,)), modulus)


def test_subgroup_index_examples():
    assert subgroup_index((ALPHA, BETA, GAMMA, DELTA_H)) == 2
    assert subgroup_index(rows(2, 3, 4, 5, 6, 7, 8, 9)) == 1
    assert subgroup_index(((1, 0, 0, 0),)) is None


def smith_index(M):
    """The index of M's row span read off the reference Smith form: the
    product of the invariant factors, None when fewer than one nonzero
    factor per column."""
    diag = smith_normal_form(M).invariant_factors
    if len(diag) < len(M[0]) or 0 in diag:
        return None
    return prod(diag)


def test_subgroup_index_matches_the_smith_form():
    rng = random.Random(20261018)
    finite = 0
    for _ in range(400):
        r, c = rng.randrange(1, 6), rng.randrange(1, 5)
        M = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        # scale a row now and then, so indices above 1 are common
        M[rng.randrange(r)] = [rng.choice((1, 2, 3)) * x for x in M[rng.randrange(r)]]
        M = as_int_matrix(M)
        index = subgroup_index(M)
        assert index == smith_index(M), M
        finite += index is not None and index > 1
    assert finite > 50


def test_subgroup_index_decides_the_growth_matrix_at_once():
    start = time.perf_counter()
    # the gcd of the 5x5 minors of GROWTH, and det of its first five rows
    assert subgroup_index(GROWTH) == 39119
    assert subgroup_index(GROWTH[:5]) == abs(det_int(GROWTH[:5])) == 4068376
    assert time.perf_counter() - start < 2


def test_inverse_and_completion_decide_the_growth_matrix_at_once():
    start = time.perf_counter()
    with pytest.raises(LatticeError, match="not unimodular"):
        int_inverse(GROWTH[:5])
    # k = 6 has more rows than columns, so it is refused
    for k in range(1, 7):
        M = GROWTH[:k]
        if is_partial_basis(M, 0):
            assert abs(det_int(M + complete_to_unimodular(M))) == 1
        else:
            with pytest.raises(LatticeError):
                complete_to_unimodular(M)
    assert time.perf_counter() - start < 2


def test_complete_to_unimodular():
    M = rows(1, 2, 3, 4, 5, 6, 7)
    added = complete_to_unimodular(M)
    assert len(added) == 1
    assert abs(det_int(M + added)) == 1
    # u10 also completes this partial basis
    assert abs(det_int(rows(1, 2, 3, 4, 5, 6, 7, 10))) == 1
    with pytest.raises(LatticeError):
        complete_to_unimodular(rows(1, 2, 3, 4, 5, 6, 7, 8))


def test_complete_a_primitive_row_that_no_unit_vector_extends():
    # the quotient map of (3, -2) sends e1 to 2 and e2 to 3, so neither
    # unit vector completes it, though the row is primitive
    M = ((3, -2),)
    added = complete_to_unimodular(M)
    assert len(added) == 1
    assert abs(det_int(M + added)) == 1


def random_unimodular(rng, n):
    """A product of 12 random elementary row operations on the identity."""
    M = [list(r) for r in identity(n)]
    for _ in range(12):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randrange(-2, 3)
            M[i] = [a + q * b for a, b in zip(M[i], M[j])]
    return as_int_matrix(M)


def test_completion_is_refused_exactly_off_partial_bases():
    rng = random.Random(20261018)
    refused = 0
    for _ in range(150):
        n = rng.randrange(1, 6)
        W = random_unimodular(rng, n)
        for k in range(1, n + 1):
            added = complete_to_unimodular(W[:k])
            assert len(added) == n - k and abs(det_int(W[:k] + added)) == 1
        # scale a row or repeat one now and then, so refusals are common
        M = [list(r) for r in W[:rng.randrange(1, n + 1)]]
        M[rng.randrange(len(M))] = [rng.choice((1, 2, 3)) * x for x in M[rng.randrange(len(M))]]
        M = as_int_matrix(M)
        factors = smith_normal_form(M).invariant_factors
        primitive = len(factors) == len(M) and all(d == 1 for d in factors)
        assert is_partial_basis(M, 0) == primitive
        if primitive:
            assert abs(det_int(M + complete_to_unimodular(M))) == 1
        else:
            refused += 1
            with pytest.raises(LatticeError):
                complete_to_unimodular(M)
    assert refused > 30


def test_unimodular_row_subsets_are_partial_bases():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(2, 5)
        M = random_unimodular(rng, n)
        assert abs(det_int(M)) == 1
        k = rng.randrange(n + 1)
        subset = tuple(M[i] for i in sorted(rng.sample(range(n), k)))
        assert is_partial_basis(subset, 0)
        assert subgroup_index(M) == 1


def test_int_inverse():
    M = rows(2, 3, 4, 5, 6, 7, 8, 9)
    Minv = int_inverse(M)
    assert matmul(M, Minv) == identity(8)
    assert Minv == ref.int_inverse(M)
    with pytest.raises(LatticeError):
        int_inverse((ALPHA, BETA, GAMMA, DELTA_G))


def test_complete_empty_with_ambient():
    added = complete_to_unimodular((), ambient_cols=4)
    assert abs(det_int(added)) == 1
    with pytest.raises(LatticeError):
        complete_to_unimodular(())


@pytest.mark.parametrize("cols", [-1, True, False, 2.0, "3"])
def test_an_ambient_width_that_is_not_an_int_of_at_least_0_is_refused(cols):
    # a negative width read as no rows, True as width 1, and 2.0 reached
    # identity() as a raw TypeError; a matrix with rows is no excuse
    for M in ([], [[1, 0]]):
        with pytest.raises(LatticeError) as err:
            complete_to_unimodular(M, cols)
        assert str(err.value) == f"ambient_cols {cols!r} is not None or an int >= 0"
    assert complete_to_unimodular([], 0) == ()


@pytest.mark.parametrize("M, cols", [
    ([[1, 0]], 5),
    ([[1, 0, 0]], 2),
    ([[]], 3),
    ([[0, 1], [1, 1]], 0),
])
def test_an_ambient_width_other_than_the_matrix_width_is_refused(M, cols):
    # each was completed in the matrix's own width, as if no width were
    # given: ((0, 1),) for [[1, 0]] in Z^5, two rows of width 3 for
    # [[1, 0, 0]] in Z^2, identity(3) for a row of width 0
    with pytest.raises(LatticeError) as err:
        complete_to_unimodular(M, cols)
    assert str(err.value) == f"ambient_cols {cols} != matrix width {len(M[0])}"
    # the matrix's own width is accepted
    assert complete_to_unimodular(M, len(M[0])) == (complete_to_unimodular(M) if M[0] else ())
    assert complete_to_unimodular((), 4) == identity(4)


# ---------------------------------------------------------------------------
# the sparse Z oracles against the reference kernels: a Hermite insertion
# that takes a new pivot reduces only the rows it changes, and the quotient
# map dots a vector at its nonzero entries only; the reference re-reduces
# every pair of rows and dots every entry.  The Hermite form of a lattice
# is unique, so the two must agree exactly, row dicts included.

def sparse_rows(width):
    """Rows of ``width`` entries, mostly zero, with negative entries and
    multiples of one another, so insertions merge pivots (a gcd) as
    well as take new ones."""
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -2, 3, -3, 4, 6, -9))
    return st.lists(
        st.lists(entry, min_size=width, max_size=width).map(tuple), min_size=1, max_size=7
    )


extend_sequences = st.integers(1, 6).flatmap(
    lambda width: st.tuples(st.just(width), st.integers(0, 3)).flatmap(
        lambda wa: st.tuples(st.just(wa[0]), sparse_rows(wa[0] + wa[1]))
    )
)


def insertion_merges(H, v):
    """Does inserting v into the Hermite rows H merge a kept pivot?"""
    _, j = H.reduce(v)
    return j is not None and j in H.rows


@settings(max_examples=300, deadline=None)
@given(extend_sequences)
def test_hermite_rows_match_the_full_pass_reference(case):
    # the rows past ``width`` are augmented columns that ride along
    width, vs = case
    H, R = zlattice._HermiteRows(width), ref.HermiteRows(width)
    for v in vs:
        assert H.reduce(v) == R.reduce(v)
        assert H.extend(v) == R.extend(v)
        # a kept row is a list or, when no step changed it, the tuple
        # given: a tuple never equals a list, so this compares types too
        assert H.rows == R.rows


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: sparse_rows(n)))
def test_quotient_map_matches_the_dense_reference(vs):
    n = len(vs[0])
    Q, R = zlattice._QuotientZ(n), ref.QuotientZ(n)
    for v in vs:
        assert Q.extend(v) == R.extend(v)
        assert Q.cols == R.cols


def public_z_results(M, v, square):
    """What the public Z functions return on M, v and a square matrix,
    a refusal recorded as its message."""
    def attempt(f, *args):
        try:
            return f(*args)
        except LatticeError as exc:
            return ("refused", str(exc))

    return (
        in_span(M, v, 0),
        subgroup_index(M),
        is_partial_basis(M, 0),
        attempt(complete_to_unimodular, M),
        attempt(int_inverse, square),
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    sparse_rows(n), st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple),
    st.randoms(use_true_random=False),
)))
def test_public_z_oracles_match_the_reference_kernels(case):
    M, v, rng = case
    M = as_int_matrix(M)
    n = len(v)
    # a unimodular square about half the time, so int_inverse answers
    square = random_unimodular(rng, n) if rng.random() < 0.5 else as_int_matrix(
        (M * n)[:n])
    new = public_z_results(M, v, square)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zlattice, "_HermiteRows", ref.HermiteRows)
        mp.setattr(zlattice, "_QuotientZ", ref.QuotientZ)
        old = public_z_results(M, v, square)
    assert new == old


def test_the_random_sequences_cover_merges_new_pivots_and_refusals():
    # a seeded draw of the insertions the tests above make: gcd merges,
    # new pivots and vectors already in the span all occur
    rng = random.Random(20261020)
    entries = (0, 0, 0, 0, 1, -1, 2, -2, 3, -3, 4, 6, -9)
    seen = {"merge": 0, "new pivot": 0, "in span": 0}
    for _ in range(300):
        width = rng.randrange(1, 7)
        H = zlattice._HermiteRows(width)
        for _ in range(rng.randrange(1, 8)):
            v = tuple(rng.choice(entries) for _ in range(width))
            kind = "merge" if insertion_merges(H, v) else "new pivot"
            if not H.extend(v):
                kind = "in span"
            seen[kind] += 1
    assert min(seen.values()) > 50, seen


class RecordingRow(list):
    """A kept row that records the columns read from it by index."""

    def __init__(self, row, log):
        super().__init__(row)
        self.log = log

    def __getitem__(self, j):
        self.log.append((id(self), j))
        return super().__getitem__(j)


def test_a_new_pivot_reads_no_pair_of_rows_it_leaves_unchanged():
    # the kept rows of a 6-column lattice with pivots 0, 2, 3 and 5;
    # inserting a row with leading column 1 takes a new pivot, changes
    # only the rows whose entry at column 1 is out of range, and reads
    # no kept row at another row's pivot unless the insertion changed it
    H = zlattice._HermiteRows(6)
    for v in ((2, 5, 1, 7, 0, 3), (0, 0, 3, 1, 4, 2), (0, 0, 0, 2, 1, 1), (0, 0, 0, 0, 0, 5)):
        H.extend(v)
    R = ref.HermiteRows(6)
    R.rows = {j: list(r) for j, r in H.rows.items()}
    v = (0, 3, 1, 4, 0, 2)
    assert not insertion_merges(H, v)
    log = []
    H.rows = {j: RecordingRow(r, log) for j, r in H.rows.items()}
    kept = dict(H.rows)
    assert set(kept) == {0, 2, 3, 5}
    assert H.extend(v) and R.extend(v)
    assert H.rows == R.rows and set(H.rows) == {0, 1, 2, 3, 5}
    unchanged = {id(r): j for j, r in kept.items() if H.rows[j] is r}
    changed = set(kept) - set(unchanged.values())
    assert unchanged and changed
    reads = [(unchanged[i], j) for i, j in log if i in unchanged]
    # each unchanged row is read at its own pivot (as the pivot that
    # reduces another row) or at the new column 1, never at another pivot
    assert all(j == own or j == 1 for own, j in reads), reads


# ---------------------------------------------------------------------------
# F_2 on bit rows against the residue lists of _EchelonModP(2, width), the
# one elimination for odd primes: a bit row is reduced at its lowest set
# bit in any order, a residue list in insertion order, so residues of
# vectors outside the span may differ, but flags, leading columns and the
# residues of vectors in the span may not

def f2_case(rng, width, riding):
    """Rows of ``width + riding`` entries, sparse, with entries that are
    negative or beyond +-1 and many rows that are combinations mod 2 of
    a few generators, and probe vectors in and out of their span."""
    entries = (0, 0, 0, 0, 0, 1, -1, 2, -2, 3, -3, 5, -7)
    n = width + riding

    def vector():
        return tuple(rng.choice(entries) for _ in range(n))

    gens = [vector() for _ in range(rng.randrange(0, min(width, 6) + 1))]

    def combination():
        v = [0] * n
        for g in gens:
            if rng.random() < 0.5:
                v = [a + rng.choice((1, -1, 3)) * b for a, b in zip(v, g)]
        return tuple(v)

    rows = [combination() if gens and rng.random() < 0.6 else vector()
            for _ in range(rng.randrange(0, 12))]
    probes = [combination() if gens and rng.random() < 0.5 else vector() for _ in range(6)]
    return rows, probes


def f2_cases(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        # every width from 0 to 40 occurs, most of them more than once
        width = i % 41 if i < 82 else rng.randrange(0, 41)
        riding = rng.randrange(0, 4)
        yield width, riding, *f2_case(rng, width, riding)


def in_span_on(state, M, v):
    """``in_span`` over F_2 run on the given empty state of width len(v)."""
    n = len(v)
    for row, e in zip(M, identity(len(M))):
        state.extend(row + e)
    rest, j = state.reduce(tuple(-x for x in v) + (0,) * len(M))
    return (False, None) if j is not None else (True, tuple(rest[n:]))


def test_bit_rows_match_the_residue_lists_mod_2():
    seen = {"kept": 0, "refused": 0, "probe in span": 0, "probe outside": 0}
    for width, riding, rows, probes in f2_cases(2023, 400):
        bits, lists = zlattice._EchelonMod2(width), zlattice._EchelonModP(2, width)
        for v in rows:
            assert bits.reduce(v)[1] == lists.reduce(v)[1]
            flag = bits.extend(v)
            assert flag == lists.extend(v)
            seen["kept" if flag else "refused"] += 1
        for v in probes:
            (r2, j2), (rp, jp) = bits.reduce(v), lists.reduce(v)
            assert j2 == jp
            assert all(x in (0, 1) for x in r2) and len(r2) == width + riding
            if j2 is None:
                assert r2 == rp
                seen["probe in span"] += 1
            else:
                seen["probe outside"] += 1
    assert min(seen.values()) > 100, seen


def test_f2_entry_points_match_the_residue_lists():
    for width, _, rows, probes in f2_cases(1968, 300):
        M = as_int_matrix(row[:width] for row in rows)
        reference = lambda n: zlattice._EchelonModP(2, n)
        for v in probes:
            v = v[:width]
            assert in_span(M, v, 2) == in_span_on(reference(width), M, v)
        assert is_partial_basis(M, 2) == all(map(reference(width).extend, M))
        if M:
            assert zlattice._rank_mod_p(M, 2) == sum(map(reference(width).extend, M))
            extend = reference(width).extend
            assert zlattice._greedy_pivots(list(M), 2) == [i for i, r in enumerate(M) if extend(r)]


def test_f2_states_are_bit_rows_and_odd_primes_keep_residue_lists(monkeypatch):
    for n in (0, 3):
        assert type(zlattice._span_state(n, 2)) is zlattice._EchelonMod2
        assert type(zlattice._basis_state(n, 2)) is zlattice._EchelonMod2
        assert type(zlattice._span_state(n, 3)) is zlattice._EchelonModP
        assert type(zlattice._basis_state(n, 5)) is zlattice._EchelonModP

    def refuse(p, width):
        raise AssertionError("residue lists used over F_2")

    monkeypatch.setattr(zlattice, "_EchelonModP", refuse)
    M = ((1, 0, 3), (3, 0, 1), (0, -2, 1), (2, 5, 4))
    # mod 2 the rows are (1, 0, 1) twice, (0, 0, 1) and (0, 1, 0)
    assert zlattice._rank_mod_p(M, 2) == 3
    assert zlattice._greedy_pivots(list(M), 2) == [0, 2, 3]
    assert in_span(M, (1, 1, 0), 2) == (True, (1, 0, 1, 1))
    assert not is_partial_basis(M, 2)
