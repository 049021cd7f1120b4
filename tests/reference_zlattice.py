"""Reference implementations for the differential tests of the lattice
kernels.

These are the earlier dense versions of ``vec_mat``, ``matmul`` and
``det_int``: every output entry is a full inner product read cell by
cell with ``A[i][j]``, and Bareiss updates one cell at a time.  The
library skips zero entries and updates whole rows; these keep the old
code paths as the oracle it is compared against.
"""

from surfhom.zlattice import LatticeError, as_int_matrix


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
