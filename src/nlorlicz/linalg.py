"""Tiled dense Cholesky factorization with thread-count-independent bits.

LAPACK's ``potrf`` splits its work by the number of BLAS threads, so its
factor (and every solve built on it) changes in the last bits when the
thread count changes.  Here the matrix is cut into BLOCK x BLOCK tiles and
every BLAS call works on single tiles: a 48^3 product is below OpenBLAS's
threading cutoff (m*n*k < 262144 for GEMM), so each call runs on one thread
and the same matrix gives the same factor at every thread count.  Small
calls also spare the cost of waking BLAS threads, which on a busy 2-core
host made a 512 x 512 factorization with whole-panel products take 60 ms
at 2 threads against 7 ms at 1.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtrtri

BLOCK = 48


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
    # Not one whole-factor trsv: it sums in another order, so every solve's bits would move.
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

