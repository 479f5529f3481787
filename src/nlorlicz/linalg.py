"""Dense Cholesky factorization, solve and matrix-vector product with
thread-count-independent bits.

The relaxed Newton loop factors its matrix only where the factor is used
more than once, or where conjugate gradients lost to it: every step below
256 nodes or below growth 2, and the kept factor of a quadratic solve
from its second step on.  Its other steps run conjugate gradients, which
apply a built non-quadratic matrix through matvec.

LAPACK's ``potrf`` splits its work by the number of BLAS threads, so its
factor (and every solve built on it) changes in the last bits when the
thread count changes.  Here the matrix is cut into BLOCK x BLOCK tiles and
every BLAS call of the factorization works on single tiles: a 48^3 product
is below OpenBLAS's threading cutoff (m*n*k < 262144 for GEMM), so each
call runs on one thread and the same matrix gives the same factor at every
thread count.  Small calls also spare the cost of waking BLAS threads, which
on a busy 2-core host made a 512 x 512 factorization with whole-panel
products take 60 ms at 2 threads against 7 ms at 1.

The solve is two BLAS ``dtrsv`` sweeps over the whole factor.  OpenBLAS
does not thread ``trsv``, so its bits do not depend on the thread count
either.

A whole-matrix GEMV is threaded, and ``H @ v`` for a square H of order
700, 1001, 1500, 2050 or 3001 gave other bits at 2 and 3 OpenBLAS threads
than at 1 (OpenBLAS 0.3.31); matvec keeps every GEMV below the cutoff.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dtrtri

BLOCK = 48
# OpenBLAS threads a GEMV from m * n = 2304 * 4 entries up
_GEMV_ENTRIES = 9215


def cholesky_inplace(A: np.ndarray) -> None:
    """Overwrite the lower triangle of the symmetric positive definite
    C-ordered matrix A with its Cholesky factor L (A = L L^T); the strict
    upper triangle is left as scratch.

    Raises numpy.linalg.LinAlgError when A is not numerically positive
    definite.
    """
    n = A.shape[0]
    tiles = [(k, min(k + BLOCK, n)) for k in range(0, n, BLOCK)]
    for a, (k, e) in enumerate(tiles):
        L11 = np.linalg.cholesky(A[k:e, k:e])
        A[k:e, k:e] = L11
        inv = dtrtri(L11, lower=1)[0]
        below = tiles[a + 1:]
        for i, ie in below:
            A[i:ie, k:e] = A[i:ie, k:e] @ inv.T
        for b, (i, ie) in enumerate(below):
            panel = A[i:ie, k:e]
            for j, je in below[:b + 1]:
                A[i:ie, j:je] -= panel @ A[j:je, k:e].T


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x from GEMVs on panels of fewer than 9216 entries, which OpenBLAS
    runs on one thread: whole rows while they fit, else single rows cut
    into column chunks summed in order."""
    m, n = A.shape
    rows = max(1, _GEMV_ENTRIES // n)
    cols = _GEMV_ENTRIES // rows
    y = np.zeros(m)
    for j in range(0, n, cols):
        for k in range(0, m, rows):
            y[k:k + rows] += A[k:k + rows, j:j + cols] @ x[j:j + cols]
    return y


def cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b with the factor from cholesky_inplace."""
    # L.T is an F-ordered view whose upper triangle is L^T; passing L itself
    # would make the BLAS wrapper copy the whole C-ordered factor
    U = L.T
    y = dtrsv(U, b, lower=0, trans=1)
    return dtrsv(U, y, lower=0, overwrite_x=1)
