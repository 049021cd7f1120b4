"""Exact integer lattice arithmetic: determinants, spans, indices,
inverses and unimodular completions.

All matrices are tuples of equal-length tuples of Python ints, so every
computation is exact; there is no floating point anywhere in this
module.

The span and extendability oracles are incremental: a state is built
one row at a time and a candidate costs one reduction against it.  Each
ring has one elimination, picked only here: over F_p an echelon basis
mod p (``_echelon_mod_p``, which ``_span_state``, ``_basis_state``,
``_greedy_pivots`` and ``_rank_mod_p`` all call), on bit rows over F_2,
where a row operation is one XOR, and on lists of residues for an odd
p; over Z, Hermite-reduced echelon rows keyed by pivot column decide
membership in a Z-span, and the quotient map of Z^n onto
Z^n / span(rows) decides whether a row extends a partial basis.  Both
Z states do only the work a sparse row needs: a Hermite insertion that
takes a new pivot reduces only the rows it changes, and the quotient
map reads a row at its nonzero entries only.  The public ``in_span``
(one path in every ring) and ``is_partial_basis`` validate their input
and run these kernels from scratch; the greedy procedures keep one
state for a whole run.  The same Hermite rows, carrying a second block
through the reduction, solve X @ A == I over Z, which gives
``int_inverse`` and the rows of ``complete_to_unimodular``.
"""

from bisect import bisect
from itertools import compress
from math import gcd, prod
from operator import add, itemgetter, mul, sub


class LatticeError(ValueError):
    pass


def as_int_matrix(rows):
    """Normalize to a tuple-of-tuples of ints; reject ragged input and
    a matrix or a row that is not iterable."""
    try:
        out = tuple(tuple(x) for x in rows)
    except TypeError:
        raise LatticeError(f"matrix {rows!r} is not an iterable of rows") from None
    if out:
        w = len(out[0])
        for r in out:
            if len(r) != w:
                raise LatticeError("matrix is not rectangular")
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise LatticeError(f"non-integer entry {x!r}")
    return out


def identity(n):
    unit = (0,) * n + (1,) + (0,) * n
    return tuple(unit[n - i:2 * n - i] for i in range(n))


def _combine(v, A, cols):
    """The row sum of ``x * A[i]`` over the nonzero entries x = v[i]."""
    out = [0] * cols
    for x, row in zip(v, A):
        if x == 1:
            out = list(map(add, out, row))
        elif x == -1:
            out = list(map(sub, out, row))
        elif x:
            out = [o + x * a for o, a in zip(out, row)]
    return tuple(out)


def matmul(A, B):
    """A @ B, each row of A as a combination of B's rows.

    Zero entries of A are skipped, so the cost is O(nnz(A) * cols(B)).
    """
    if A and B and len(A[0]) != len(B):
        raise LatticeError("dimension mismatch in matmul")
    cols = len(B[0]) if B else 0
    return tuple(_combine(row, B, cols) for row in A)


def transpose(A):
    return tuple(zip(*A)) if A else ()


def vec_mat(v, A):
    """Row vector times matrix, skipping the zero entries of v.

    The cost is O(nnz(v) * cols(A)); a fundamental-cycle vector with one
    nonzero entry costs one row copy.
    """
    if len(v) != len(A):
        raise LatticeError("vector length does not match matrix rows")
    return _combine(v, A, len(A[0])) if A else ()


def _bareiss_scan(A):
    """Fraction-free (Bareiss) echelon scan of the rows of A.

    Yields ``(column, pivot, sign)`` for each pivot column in turn, as
    soon as its pivot row is in place and before the rows below it are
    eliminated, so a caller may stop at any pivot at no further cost.
    The pivot is a minor of A, so every division is exact; the last
    pivot of a nonsingular square A times the row-swap sign is det A.
    A row with a zero in the pivot column only scales by pivot / prev,
    so it is left as it is when the two are equal; the cost falls with
    the number of nonzero entries below each pivot.
    """
    M = [list(r) for r in A]
    n = len(M)
    m = len(M[0]) if M else 0
    sign = 1
    prev = 1
    r = 0
    for j in range(m):
        if r == n:
            return
        if not M[r][j]:
            for i in range(r + 1, n):
                if M[i][j]:
                    M[r], M[i] = M[i], M[r]
                    sign = -sign
                    break
            else:
                continue
        rk = M[r]
        pk = rk[j]
        yield j, pk, sign
        cols = range(j + 1, m)
        for ri in M[r + 1:]:
            a = ri[j]
            if a:
                for k in cols:
                    ri[k] = (ri[k] * pk - a * rk[k]) // prev
            elif pk != prev:
                for k in cols:
                    ri[k] = ri[k] * pk // prev
        prev = pk
        r += 1


def det_int(A):
    """Exact signed determinant by fraction-free (Bareiss) elimination,
    which stops at the first column without a pivot."""
    A = as_int_matrix(A)
    n = len(A)
    if n == 0 or len(A[0]) != n:
        raise LatticeError("determinant of a non-square matrix")
    return _det(A)


def _det(A):
    """``det_int`` of a nonempty square tuple of int rows, unchecked."""
    n = len(A)
    k = 0
    for j, pk, sign in _bareiss_scan(A):
        if j != k:
            return 0
        k += 1
    return sign * pk if k == n else 0


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on the bases above is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin primality test for p < _MR_LIMIT."""
    if p >= _MR_LIMIT:
        raise LatticeError(f"modulus {p} is too large to test for primality")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_modulus(modulus):
    """Refuse a modulus that is not the int 0 or a prime: a float or a
    Fraction equal to a prime would pass the primality test, and a bool
    equals 0 or 1."""
    if type(modulus) is not int:
        raise LatticeError(f"modulus must be an int, got {modulus!r}")
    if modulus == 0:
        return
    if not _is_prime(modulus):
        raise LatticeError(f"modulus must be 0 or a prime, got {modulus}")


def _rank_mod_p(A, p):
    return sum(map(_echelon_mod_p(p, len(A[0]) if A else 0).extend, A))


def _greedy_pivots(rows, modulus):
    """Indices of the rows the greedy algorithm keeps, in order: each row
    independent of the rows before it, over Q (``modulus`` 0) or F_p.

    Over Q these are the pivot columns of the transposed matrix.
    ``rows`` must be a nonempty list of equal-length tuples of ints;
    nothing is checked.
    """
    if modulus:
        extend = _echelon_mod_p(modulus, len(rows[0])).extend
        return [i for i, row in enumerate(rows) if extend(row)]
    return [j for j, _, _ in _bareiss_scan(transpose(rows))]


# ---------------------------------------------------------------------------
# incremental oracles: private and unchecked, fed tuples of ints of one
# width (the modulus a prime)

class _EchelonModP:
    """An echelon basis over F_p, grown one row at a time.

    Pivots are searched in the first ``width`` columns only; any further
    columns ride along with the row operations, as in ``_HermiteRows``.
    Each kept row is monic at its pivot and zero at the pivots of the
    rows kept before it, so one pass in insertion order reduces a row
    to its residue modulo their span.
    """

    __slots__ = ("p", "width", "rows")

    def __init__(self, p, width):
        self.p = p
        self.width = width
        self.rows = []  # (pivot column, row)

    def reduce(self, v):
        """v's residue modulo the kept rows, entries in [0, p), and its
        leading column (None when the first ``width`` entries are all
        zero: v lies in the span)."""
        p = self.p
        r = [x % p for x in v]
        for j, row in self.rows:
            f = r[j]
            if f:
                r = [(a - f * b) % p for a, b in zip(r, row)]
        return r, next(compress(range(self.width), r), None)

    def extend(self, v):
        """Keep v's residue and return True, unless v lies in the span."""
        r, j = self.reduce(v)
        if j is None:
            return False
        inv = pow(r[j], -1, self.p)
        self.rows.append((j, r if inv == 1 else [a * inv % self.p for a in r]))
        return True


class _EchelonMod2:
    """An echelon basis over F_2 on bit rows, grown one row at a time.

    A row is one int with a byte per column, the low bit of byte i
    holding entry i mod 2, so a row operation is one XOR.  Each kept row
    is keyed by its lowest set bit among the first ``width`` bytes, its
    pivot; further columns ride along, as in ``_EchelonModP``, which
    this follows in ``reduce`` and ``extend``.  A row is reduced by
    clearing its lowest set bit with the row keyed there, until that bit
    is no pivot.  The residue may differ from the insertion-order
    reduction of ``_EchelonModP``, but the two differ by an element of
    the span, whose lowest set bit is a pivot: so they have one leading
    column, both keep the same rows, and both give a row in the span
    one residue (its riding columns are the one combination of the
    independent kept rows)."""

    __slots__ = ("mask", "rows")

    def __init__(self, width):
        self.mask = (1 << 8 * width) - 1
        self.rows = {}  # lowest set bit -> row

    def _residue(self, v):
        """v's reduced bit row, and its lowest set bit among the first
        ``width`` bytes, or 0 when it has none."""
        r = int.from_bytes(bytes([x & 1 for x in v]), "little")
        rows, mask = self.rows, self.mask
        while True:
            low = r & -r
            if not low & mask:
                return r, 0
            row = rows.get(low)
            if row is None:
                return r, low
            r ^= row

    def reduce(self, v):
        """v's residue modulo the kept rows, entries in [0, 2), and its
        leading column (None when the first ``width`` entries are all
        even: v lies in the span)."""
        r, low = self._residue(v)
        return list(r.to_bytes(len(v), "little")), low.bit_length() // 8 if low else None

    def extend(self, v):
        """Keep v's residue and return True, unless v lies in the span."""
        r, low = self._residue(v)
        if low:
            self.rows[low] = r
            return True
        return False


def _echelon_mod_p(p, width):
    """An empty echelon basis over F_p on ``width`` pivot columns: bit
    rows for p = 2, ``_EchelonModP`` for an odd prime."""
    return _EchelonMod2(width) if p == 2 else _EchelonModP(p, width)


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) = x*a + y*b > 0, for a > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


class _HermiteRows:
    """Echelon rows spanning a lattice over Z, keyed by pivot column.

    Pivots are searched in the first ``width`` columns only; any further
    columns ride along with the row operations, which is how ``in_span``
    records a witness.  Each pivot is positive and every other row's
    entry in a pivot column is reduced into [0, pivot), the Hermite
    normal form (Cohen, "A Course in Computational Algebraic Number
    Theory", section 2.4), which keeps the entries bounded.

    The kept rows are in that form between insertions, and a lattice
    has only one such form, so an insertion may restore it by any
    sequence of reductions.  A row that takes a new pivot column j is
    reduced at the later pivots; an earlier row changes only when its
    entry at column j is out of range, and is then reduced there and at
    the later pivots; no other pair of rows is read.  A row whose
    leading entry merges with a kept pivot (their gcd) may change every
    row, so that insertion reduces every pair of rows again.
    """

    __slots__ = ("width", "rows")

    def __init__(self, width):
        self.width = width
        self.rows = {}  # pivot column -> row, its pivot > 0

    def reduce(self, v):
        """v minus the kept rows that clear its leading entry exactly,
        and the leading column of what is left (None when the first
        ``width`` entries are all zero: v lies in the span)."""
        rows = self.rows
        for j in range(self.width):
            x = v[j]
            if x:
                row = rows.get(j)
                if row is None:
                    return v, j
                q, r = divmod(x, row[j])
                if r:
                    return v, j
                v = [a - q * b for a, b in zip(v, row)]
        return v, None

    def _tidy(self, row, pivots):
        """row with its entry at each of ``pivots``, in increasing order,
        reduced into [0, pivot) by the kept row there."""
        rows = self.rows
        for jb in pivots:
            rb = rows[jb]
            q = row[jb] // rb[jb]
            if q:
                row = [a - q * b for a, b in zip(row, rb)]
        return row

    def extend(self, v):
        """Add v to the span and return True, unless it lies there."""
        v, j = self.reduce(v)
        if j is None:
            return False
        rows = self.rows
        if j not in rows:
            pivots = sorted(rows)
            k = bisect(pivots, j)
            later = pivots[k:]
            rows[j] = row = self._tidy(v if v[j] > 0 else [-a for a in v], later)
            p = row[j]
            for ja in pivots[:k]:
                ra = rows[ja]
                q = ra[j] // p
                if q:
                    rows[ja] = self._tidy([a - q * b for a, b in zip(ra, row)], later)
            return True
        while j is not None:
            row = rows.get(j)
            if row is None:
                rows[j] = v if v[j] > 0 else [-a for a in v]
                break
            # the pivot becomes gcd(p, x); v keeps the unimodular
            # complement, which is zero at column j
            p, x = row[j], v[j]
            g, a, b = _xgcd(p, x)
            rows[j] = [a * r + b * w for r, w in zip(row, v)]
            p, x = p // g, x // g
            v, j = self.reduce([p * w - x * r for r, w in zip(row, v)])
        pivots = sorted(rows)
        for i, ja in enumerate(pivots):
            rows[ja] = self._tidy(rows[ja], pivots[i + 1:])
        return True


class _QuotientZ:
    """The quotient map of Z^n onto Z^n / span(kept rows), as the n-row
    columns of a matrix Q, for rows that form a partial basis.

    A row v extends the partial basis exactly when the entries of v @ Q
    have gcd 1; column operations then bring v @ Q to a single unit
    entry, and that column is dropped.  v @ Q reads each column at v's
    nonzero entries only, so a class with one nonzero entry costs one
    read per column.
    """

    __slots__ = ("cols",)

    def __init__(self, n):
        self.cols = [list(c) for c in identity(n)]

    def extend(self, v):
        """Add v to the partial basis and return True, if it extends it."""
        cols = self.cols
        support = list(compress(range(len(v)), v))
        if not support:
            return False
        if len(support) == 1:
            i = support[0]
            x = v[i]
            w = [x * c[i] for c in cols]
        else:
            pick = itemgetter(*support)
            xs = pick(v)
            w = [sum(map(mul, xs, pick(c))) for c in cols]
        if gcd(*w) != 1:
            return False
        while True:
            nz = [i for i, x in enumerate(w) if x]
            if len(nz) == 1:
                break
            i = min(nz, key=lambda i: abs(w[i]))
            for j in nz:
                if j != i:
                    q = w[j] // w[i]
                    w[j] -= q * w[i]
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
        del cols[nz[0]]
        return True


def _span_state(n, modulus):
    """An empty span oracle on n columns over Z (``modulus`` 0) or F_p."""
    return _echelon_mod_p(modulus, n) if modulus else _HermiteRows(n)


def _basis_state(n, modulus):
    """An empty partial-basis oracle on n columns over Z or F_p."""
    return _echelon_mod_p(modulus, n) if modulus else _QuotientZ(n)


def in_span(M, v, modulus=0):
    """Is v an integer (or mod-p) combination of M's rows?

    Returns (flag, witness): witness @ M == v in the given ring when the
    flag is true, otherwise witness is None.  In both rings M's rows
    carry an identity block through the span oracle, and the block of
    -v's residue records the witness.  Over F_p the oracle keeps the rows
    independent mod p of the rows kept before them, and the witness is
    the unique combination that is zero on every other row, with entries
    in [0, p).  A v that is not iterable raises LatticeError.
    """
    _check_modulus(modulus)
    M = as_int_matrix(M)
    try:
        v = as_int_matrix((tuple(v),))[0]
    except TypeError:
        raise LatticeError(f"vector {v!r} is not an iterable of ints") from None
    n = len(v)
    if M and n != len(M[0]):
        raise LatticeError("vector length does not match matrix columns")
    state = _span_state(n, modulus)
    for row, e in zip(M, identity(len(M))):
        state.extend(row + e)
    rest, j = state.reduce(tuple(-x for x in v) + (0,) * len(M))
    if j is not None:
        return False, None
    return True, tuple(rest[n:])


def is_partial_basis(M, modulus=0):
    """Can M's rows be extended to a basis (over Z: primitive sublattice)?"""
    _check_modulus(modulus)
    M = as_int_matrix(M)
    if not M:
        return True
    return all(map(_basis_state(len(M[0]), modulus).extend, M))


def subgroup_index(M):
    """Index of the row span in the full lattice, or None for infinite.

    The Hermite echelon rows of the span are triangular, so when every
    column has a pivot the index is the product of the pivots; a column
    without one leaves the index infinite."""
    M = as_int_matrix(M)
    if not M or not M[0]:
        return None
    cols = len(M[0])
    H = _HermiteRows(cols)
    for row in M:
        H.extend(row)
    if len(H.rows) < cols:
        return None
    return prod(row[j] for j, row in H.rows.items())


def _unimodular_solve(A, B):
    """X @ B for an X with X @ A == I, or None when A's rows do not
    span Z^cols(A).

    The rows ``[A_i | B_i]`` are Hermite-reduced on A's columns, so the
    B block records each reduced row's combination of B's rows.  A's
    block reduces to I exactly when its rows span Z^cols(A): every
    column then has a pivot, the pivots multiply to the index 1, and the
    entries above them are reduced into [0, 1).  ``A`` must be a
    nonempty tuple of int rows of nonzero width, each B_i a tuple.
    """
    m = len(A[0])
    H = _HermiteRows(m)
    for a, b in zip(A, B):
        H.extend(a + b)
    rows = H.rows
    if len(rows) < m or any(rows[j][j] != 1 for j in range(m)):
        return None
    return tuple(tuple(rows[j][m:]) for j in range(m))


def complete_to_unimodular(M, ambient_cols=None):
    """Rows completing a partial basis to a square matrix of det +-1.

    M's rows are fed to the quotient map Q of Z^n onto Z^n / span(M);
    the completion is rows C with C @ Q == I, which the map sends to a
    basis of the quotient, so M and C together span Z^n.  An empty
    matrix needs ``ambient_cols`` to know the ambient rank; any
    unimodular completion satisfies the contract, so it gets the
    identity.  An ``ambient_cols`` that is not None or an int >= 0 (a
    bool included), or that is not the width of a matrix with rows,
    raises LatticeError.
    """
    if ambient_cols is not None and (type(ambient_cols) is not int or ambient_cols < 0):
        raise LatticeError(f"ambient_cols {ambient_cols!r} is not None or an int >= 0")
    M = as_int_matrix(M)
    if M and ambient_cols is not None and ambient_cols != len(M[0]):
        raise LatticeError(f"ambient_cols {ambient_cols} != matrix width {len(M[0])}")
    if not M or not M[0]:
        if ambient_cols is None:
            raise LatticeError("cannot complete an empty matrix of unknown width")
        return identity(ambient_cols)
    n = len(M[0])
    Q = _QuotientZ(n)
    if not all(map(Q.extend, M)):
        raise LatticeError("rows are not a partial basis")
    added = _unimodular_solve(transpose(Q.cols), identity(n)) if Q.cols else ()
    if abs(det_int(M + added)) != 1:
        raise AssertionError("completion failed to be unimodular")
    return added


def int_inverse(A):
    """Exact inverse of a unimodular integer matrix: the X with
    X @ A == I, which is also A's right inverse."""
    A = as_int_matrix(A)
    n = len(A)
    if n == 0 or len(A[0]) != n:
        raise LatticeError("inverse of a non-square matrix")
    inverse = _unimodular_solve(A, identity(n))
    if inverse is None:
        raise LatticeError("matrix is not unimodular")
    return inverse
