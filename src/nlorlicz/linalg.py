"""Dense Cholesky factorization and solve, and the node dot product, with
thread-count-independent bits.

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

The node dot product ``dot`` is a reduction in a fixed order, for the same
reason: a BLAS dot of more than 10 000 elements is threaded and changes its
last bits with the thread count.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dtrtri

BLOCK = 48


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) by numpy's pairwise reduction, whose order does not depend
    on the BLAS thread count: the bits of np.sum(a * b), without np.sum's
    Python-side wrapper."""
    return float(np.add.reduce(a * b))


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


def cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b with the factor from cholesky_inplace."""
    # L.T is an F-ordered view whose upper triangle is L^T; passing L itself
    # would make the BLAS wrapper copy the whole C-ordered factor
    U = L.T
    y = dtrsv(U, b, lower=0, trans=1)
    return dtrsv(U, y, lower=0, overwrite_x=1)
