"""Tiled dense Cholesky factorization and matrix-vector product with
thread-count-independent bits.

LAPACK's ``potrf`` splits its work by the number of BLAS threads, so its
factor (and every solve built on it) changes in the last bits when the
thread count changes.  Here the matrix is cut into BLOCK x BLOCK tiles and
every BLAS call works on single tiles: a 48^3 product is below OpenBLAS's
threading cutoff (m*n*k < 262144 for GEMM), so each call runs on one thread
and the same matrix gives the same factor at every thread count.  Small
calls also spare the cost of waking BLAS threads, which on a busy 2-core
host made a 512 x 512 factorization with whole-panel products take 60 ms
at 2 threads against 7 ms at 1.

The same holds for GEMV: a threaded product splits the output rows between
threads, and a row's bits depend on where the split falls (the kernels
treat rows in groups, with a separate path for the remainder).  A
whole-matrix ``W @ x`` gave different bits at 1 and 2 threads for n = 1001,
2050 and 3001 (OpenBLAS 0.3.31).  matvec keeps every GEMV below the cutoff.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtrtri

BLOCK = 48

# OpenBLAS runs a GEMV on one thread when m * n < 2304 * GEMM_MULTITHREAD_THRESHOLD,
# which is 9216 at the default threshold of 4
_GEMV_ENTRIES = 9215


def _tiles(n: int) -> list[tuple[int, int]]:
    return [(k, min(k + BLOCK, n)) for k in range(0, n, BLOCK)]


def cholesky_inplace(A: np.ndarray) -> list[np.ndarray]:
    """Overwrite the lower triangle of the symmetric positive definite matrix
    A with its Cholesky factor L (A = L L^T); the strict upper triangle is
    left as scratch.  Returns the inverses of L's diagonal tiles, which
    cholesky_solve needs.

    Raises numpy.linalg.LinAlgError when A is not numerically positive
    definite.
    """
    tiles = _tiles(A.shape[0])
    inverses = []
    for a, (k, e) in enumerate(tiles):
        L11 = np.linalg.cholesky(A[k:e, k:e])
        A[k:e, k:e] = L11
        inv = dtrtri(L11, lower=1)[0]
        inverses.append(inv)
        below = tiles[a + 1:]
        for i, ie in below:
            A[i:ie, k:e] = A[i:ie, k:e] @ inv.T
        for b, (i, ie) in enumerate(below):
            panel = A[i:ie, k:e]
            for j, je in below[:b + 1]:
                A[i:ie, j:je] -= panel @ A[j:je, k:e].T
    return inverses


def cholesky_solve(L: np.ndarray, inverses: list[np.ndarray], b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b with the factor from cholesky_inplace."""
    tiles = _tiles(b.shape[0])
    x = np.array(b, dtype=float)
    for a, (k, e) in enumerate(tiles):
        for j, je in tiles[:a]:
            x[k:e] -= L[k:e, j:je] @ x[j:je]
        x[k:e] = inverses[a] @ x[k:e]
    for a in reversed(range(len(tiles))):
        k, e = tiles[a]
        for i, ie in tiles[a + 1:]:
            x[k:e] -= L[i:ie, k:e].T @ x[i:ie]
        x[k:e] = inverses[a].T @ x[k:e]
    return x


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x from GEMVs on panels of at most 9215 entries: whole rows while
    n <= 9215, else single rows cut into column chunks summed in order."""
    m, n = A.shape
    rows = max(1, _GEMV_ENTRIES // n)
    cols = _GEMV_ENTRIES // rows
    y = np.zeros(m)
    for j in range(0, n, cols):
        for k in range(0, m, rows):
            y[k:k + rows] += A[k:k + rows, j:j + cols] @ x[j:j + cols]
    return y
