"""Reference implementations for the differential tests of the lattice
kernels.

These are the earlier dense versions of ``vec_mat``, ``matmul`` and
``det_int``: every output entry is a full inner product read cell by
cell with ``A[i][j]``, and Bareiss updates one cell at a time.  The
library skips zero entries and updates whole rows; these keep the old
code paths as the oracle it is compared against.

``smith_normal_form`` is the Smith form the library carried until its
last callers, ``int_inverse`` and ``complete_to_unimodular``, moved to
a Hermite solve; it is kept here, with the exact inverse ``V_inv`` of
its column transform, as the only Smith form in the repository.  The
Z oracles of ``reference_minima``, the Smith-form homology of
``reference_homology`` and the rank and index checks of the tests run
on it, as does ``int_inverse`` (V @ U), so they stay independent of the
library's Hermite kernels.  Its transforms can grow without bound on
matrices with entries near 50, so keep its inputs small.

``HermiteRows`` and ``QuotientZ`` are the Z oracles as the library kept
them before its insertions went sparse: every Hermite insertion reduces
every pair of kept rows again, and the quotient map takes v @ Q as a
full inner product with each column.  They keep the library's
interface, so a test can put them in place of ``_HermiteRows`` and
``_QuotientZ`` and run the public functions on them.
"""

from dataclasses import dataclass
from math import gcd
from operator import mul

from surfhom.zlattice import LatticeError, _xgcd, as_int_matrix, identity


def matmul(A, B):
    if A and B and len(A[0]) != len(B):
        raise LatticeError("dimension mismatch in matmul")
    Bt = tuple(zip(*B)) if B else ()
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A
    )


def vec_mat(v, A):
    return tuple(sum(x * A[i][j] for i, x in enumerate(v)) for j in range(len(A[0]))) if A else ()


def det_int(A):
    A = as_int_matrix(A)
    n = len(A)
    if n == 0 or len(A[0]) != n:
        raise LatticeError("determinant of a non-square matrix")
    M = [list(r) for r in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """U @ A @ V == D with |det U| = |det V| = 1, D diagonal with
    d1 | d2 | ... and trailing zeros last.  V_inv is V's exact inverse."""

    U: tuple
    D: tuple
    V: tuple
    V_inv: tuple
    invariant_factors: tuple

    @property
    def rank(self):
        return sum(1 for d in self.invariant_factors if d)


def _pivot(M, start, rows, cols):
    """Smallest |entry| != 0 at or below/right of start; lowest index wins."""
    best = None
    for i in range(start, rows):
        for j in range(start, cols):
            x = M[i][j]
            if x and (best is None or abs(x) < abs(M[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(A):
    """Smith normal form with both transforms, fully deterministic."""
    A = as_int_matrix(A)
    if not A or not A[0]:
        raise LatticeError("empty matrix")
    rows, cols = len(A), len(A[0])
    M = [list(r) for r in A]
    U = [list(r) for r in identity(rows)]
    V = [list(r) for r in identity(cols)]
    Vi = [list(r) for r in identity(cols)]

    def row_op(i, j, q):  # row i -= q * row j
        M[i] = [a - q * b for a, b in zip(M[i], M[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(j, i, q):  # col j -= q * col i ; V_inv gets the inverse op
        for r in M:
            r[j] -= q * r[i]
        for r in V:
            r[j] -= q * r[i]
        Vi[i] = [a + q * b for a, b in zip(Vi[i], Vi[j])]

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in M:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    t = 0
    while True:
        piv = _pivot(M, t, rows, cols)
        if piv is None:
            break
        i, j = piv
        if i != t:
            row_swap(i, t)
        if j != t:
            col_swap(j, t)
        # clear row and column t, restarting when a remainder shrinks the pivot
        while True:
            done = True
            for i in range(t + 1, rows):
                if M[i][t]:
                    q = M[i][t] // M[t][t]
                    row_op(i, t, q)
                    if M[i][t]:
                        row_swap(i, t)
                        done = False
            for j in range(t + 1, cols):
                if M[t][j]:
                    q = M[t][j] // M[t][t]
                    col_op(j, t, q)
                    if M[t][j]:
                        col_swap(j, t)
                        done = False
            if done:
                break
        # make the pivot divide everything below-right
        p = M[t][t]
        fixed = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if M[i][j] % p:
                    row_op(t, i, -1)  # add row i to row t and redo the clearing
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if p < 0:
            M[t] = [-x for x in M[t]]
            U[t] = [-x for x in U[t]]
        t += 1
        if t == min(rows, cols):
            break
    diag = tuple(M[k][k] if k < cols else 0 for k in range(min(rows, cols)))
    return SmithForm(
        tuple(tuple(r) for r in U),
        tuple(tuple(r) for r in M),
        tuple(tuple(r) for r in V),
        tuple(tuple(r) for r in Vi),
        diag,
    )


def int_inverse(A):
    """Exact inverse of a unimodular integer matrix: with U A V = I the
    inverse is V U, both exactly integral."""
    A = as_int_matrix(A)
    n = len(A)
    if n == 0 or len(A[0]) != n:
        raise LatticeError("inverse of a non-square matrix")
    snf = smith_normal_form(A)
    if any(d != 1 for d in snf.invariant_factors):
        raise LatticeError("matrix is not unimodular")
    return matmul(snf.V, snf.U)


class HermiteRows:
    """Hermite-reduced echelon rows keyed by pivot column; every
    insertion re-reduces every pair of kept rows."""

    __slots__ = ("width", "rows")

    def __init__(self, width):
        self.width = width
        self.rows = {}  # pivot column -> row, its pivot > 0

    def reduce(self, v):
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

    def extend(self, v):
        v, j = self.reduce(v)
        if j is None:
            return False
        rows = self.rows
        while j is not None:
            row = rows.get(j)
            if row is None:
                rows[j] = v if v[j] > 0 else [-a for a in v]
                break
            p, x = row[j], v[j]
            g, a, b = _xgcd(p, x)
            rows[j] = [a * r + b * w for r, w in zip(row, v)]
            p, x = p // g, x // g
            v, j = self.reduce([p * w - x * r for r, w in zip(row, v)])
        pivots = sorted(rows)
        for i, ja in enumerate(pivots):
            ra = rows[ja]
            for jb in pivots[i + 1:]:
                rb = rows[jb]
                q = ra[jb] // rb[jb]
                if q:
                    ra = [a - q * b for a, b in zip(ra, rb)]
            rows[ja] = ra
        return True


class QuotientZ:
    """The quotient map of Z^n onto Z^n / span(kept rows) as columns;
    v @ Q is a dense inner product with each column."""

    __slots__ = ("cols",)

    def __init__(self, n):
        self.cols = [list(c) for c in identity(n)]

    def extend(self, v):
        cols = self.cols
        w = [sum(map(mul, v, c)) for c in cols]
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
