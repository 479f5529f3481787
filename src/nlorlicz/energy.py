"""Discrete nonlocal energies, the interaction form, and the operator.

The assembly precomputes pair weights w_ij = (cell average of the kernel
over the offset cell) * h^(2N) for near pairs (offset below 3h, the 5-point
Gauss rule on each axis as a tensor product, one rule in every dimension)
and midpoint weights J(x_j - x_i) * h^(2N) for far pairs.  A pair weight
depends only on the |lattice offset| along each axis, so the assembly
computes each sorted offset's weight once into one array of shape (m,) * N
indexed by those |offsets|
(EnergyAssembly.offset_weights), as one vectorized table with a fixed number
of kernel profile calls whatever the grid size.  W and the FFT stencil are
gathers from it, so w_ij = w_ji holds exactly.  W is built on first read
(EnergyAssembly.weights), by row blocks through one flat index into the
table, and the pair budget is checked there: the quadratic and even
polynomial FFT routes read only the stencil, its row sums and Lambda, so
they never build it.  The exterior weights Lambda(domain; x_i),
which carry the zero condition on the complement, come from the ray formula
(the integral over directions of the kernel mass beyond the boundary) in
one vectorized pass over all nodes; see kernels.lambda_exterior.

Apart from the dense references of oracles.py, this module is the only one
that evaluates anything on the pairs or on the FFT lattice: the energy and
its gradient, the relaxed Newton matrix of the solvers (newton_matrix)
with its matrix-free product for even polynomial psi (even_newton_product)
and its circulant preconditioner (circulant_preconditioner), and the
product of the quadratic energy's matrix (quadratic_form_product), from
which the eigen solve starts.  Every elementwise pair sum, of psi, psi' or
the relaxed curvature, is one walk over one triangle of the pairs
(_pair_blocks) in row blocks of linalg.BLOCK rows, so its temporaries are
BLOCK x n and never n x n, and every sum runs in a fixed order.

E_value, gradient_E and E_and_gradient are thin calls to one pass, _pass,
which makes E, its gradient or both from one evaluation, each with the same
bits however it was asked: the solvers take both at once.  _pair_pass, the
pass of one of the two, also takes a stack (k, n) of node vectors, as the
battery evaluates its corpora: both FFT routes, quadratic and even
polynomial psi, filter the whole stack with one batched stencil product,
the triangle walk runs row by row, and each row keeps the bits of its own
call.
young.value is even and young.deriv odd (make_young checks both), so the
triangle walk is enough: a block's column sums give the rows below it
their terms, with the gradient's sign flipped.  For the
quadratic Young function (young.quadratic) the energy is a quadratic form in
the graph Laplacian diag(rowsum W) - W.  Since w_ij depends only on the
lattice offset of x_i and x_j, W @ x is a discrete convolution with the
offset stencil, and the pass computes it by FFT on the bounding lattice,
zero-padded so that no offset wraps around (EnergyAssembly.stencil).  For
the even polynomial Young functions (young.even_terms) the pass is a few
such convolutions, of the powers of x - mean(x), from _EVEN_MIN_NODES
nodes up.  The FFT runs on one thread, in buffers kept per assembly
(_fft_buffers), so in every case the results do not depend on thread
counts.  The interaction form and the pointwise operator
are derived from the gradient, which is exact because young.deriv is odd.
"""

from __future__ import annotations

import functools
import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import BudgetExceededError, ValidationError
from .grid import DomainGrid, GridFunction
from .kernels import Kernel, exterior_weights
from .linalg import BLOCK, dot
from .young import YoungFunction, luxemburg_norm

_GL5_X, _GL5_W = np.polynomial.legendre.leggauss(5)

PAIR_BUDGET = int(1e8)

# from this many nodes up an even polynomial psi takes the FFT route of
# _pair_pass; below it the triangle pass is the faster
_EVEN_MIN_NODES = 100


@dataclass(frozen=True, eq=False)
class EnergyAssembly:
    """Precomputed discrete form of the nonlocal energy on one grid.

    Two assemblies are equal only when they are the same object, and an
    assembly hashes by identity, so it can key a weak memo of what is
    evaluated on it (harness._calibration)."""

    grid: DomainGrid
    kernel: Kernel
    young: YoungFunction
    exterior: np.ndarray        # (n,) Lambda at each node
    offset_weights: np.ndarray  # (m,) * N: pair weight at |offset| (|d_1|, ..., |d_N|)
    pair_budget: int = PAIR_BUDGET  # most pairs W may hold

    @property
    def h_pow_dim(self) -> float:
        return self.grid.cell_volume

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """The dense pair-weight matrix W, (n, n) symmetric with a zero
        diagonal, built on first read; refused with BudgetExceededError,
        before anything is allocated, when its pair count exceeds
        pair_budget.

        W is filled by row blocks, each one np.take from the flattened
        offset weights at the flat index sum_a |l_ia - l_ja| m^(N-1-a) of the
        pairs' lattice offsets, so its temporaries are BLOCK x n."""
        n = self.grid.n_nodes
        n_pairs = n * (n - 1) // 2
        if n_pairs > self.pair_budget:
            raise BudgetExceededError(
                f"assembly needs {n_pairs:.3g} pairs, budget is {self.pair_budget:.3g}; "
                "lower the resolution or raise the budget explicitly"
            )
        m, dim = self.offset_weights.shape[0], self.grid.dim
        flat = self.offset_weights.reshape(-1)
        # |l_i m^a - l_j m^a| = |l_i - l_j| m^a: the strides go on the coordinates
        lat = _lattice_coords(self.grid).T * (m ** np.arange(dim - 1, -1, -1))[:, None]
        W = np.empty((n, n))
        for k in range(0, n, BLOCK):
            index = np.abs(lat[0, k:k + BLOCK, None] - lat[0])
            for coord in lat[1:]:
                step = coord[k:k + BLOCK, None] - coord
                index += np.abs(step, out=step)
            np.take(flat, index, out=W[k:k + BLOCK], mode="clip")
        return W

    @functools.cached_property
    def rowsum(self) -> np.ndarray:
        """Row sums of the pair weights, the degrees of the graph Laplacian;
        computed on first use as W @ 1 by one stencil product, so no W is
        built.  They agree with W's row sums to rounding (about 1e-15
        relative)."""
        return _stencil_product(self, np.ones(self.grid.n_nodes))

    @functools.cached_property
    def stencil(self) -> tuple[np.ndarray, tuple, np.ndarray, np.ndarray]:
        """The convolution form of W @ x, computed on first use: the flat
        index of each node in the padded lattice, the padded shape, the
        real transform of the offset stencil, and the nodes' extent in
        lattice cells on each axis.

        Each axis is padded from m lattice cells to at least 2m - 1, so the
        circular convolution never wraps an offset onto another.  The
        stencil folds the padded lattice onto offset_weights: a padded cell
        takes the weight of its per-axis |offset|, or 0 where that offset
        reaches past the nodes' extent on some axis.  The stencil is even,
        so its transform is real.
        """
        lat = _lattice_coords(self.grid)
        ext = lat.max(axis=0) + 1
        shape = tuple(fft.next_fast_len(2 * int(m) - 1, real=True) for m in ext)
        offs = [np.minimum(np.arange(L), L - np.arange(L)) for L in shape]
        # offsets that no pair of nodes reaches read the appended zero
        weights = np.pad(self.offset_weights, (0, 1))
        stencil = weights[np.ix_(*[np.where(o < m, o, -1) for o, m in zip(offs, ext)])]
        return np.ravel_multi_index(tuple(lat.T), shape), shape, fft.rfftn(stencil).real, ext


def _lattice_coords(grid: DomainGrid) -> np.ndarray:
    """Integer lattice indices of the nodes, counted from 0 on each axis."""
    lower = grid.nodes.min(axis=0)
    return np.rint((grid.nodes - lower) / grid.spacing).astype(np.int64)


def _offset_weights(kern: Kernel, m: int, dim: int, h: float) -> np.ndarray:
    """Pair weights of every lattice |offset| below m on each axis, as an
    array of shape (m,) * dim; zero at the zero offset.

    The sorted nonzero offsets are weighed as one (k, dim) array, and every
    offset then reads the weight of its sorted permutation.  The far pairs
    take one profile call on all their distances, and the near pairs one on
    the nodes of their cell averages: the 5-point Gauss rule on each axis of
    the offset cell, as a tensor product over the dim axes, built by
    broadcasting one axis at a time."""
    indices = np.indices((m,) * dim)
    lattice = indices.reshape(dim, -1).T
    offsets = lattice[np.all(np.diff(lattice, axis=1) >= 0, axis=1)][1:]
    delta = offsets * h
    # each distance has the bits of np.linalg.norm: its dot product, row by row
    dist = np.sqrt((delta[:, None, :] @ delta[:, :, None]).reshape(-1))
    hN = h ** dim
    weights = np.empty(len(offsets))
    far, near = dist >= 3.0 * h, dist < 3.0 * h
    weights[far] = kern.profile(dist[far]) * hN * hN
    # near pairs: the Gauss nodes of axis a run along axis a + 1 of r, a of w
    z = delta[near, :, None] + 0.5 * h * _GL5_X
    r, w = np.abs(z[:, 0]), _GL5_W
    for a in range(1, dim):
        r = np.hypot(r[..., None], z[:, a].reshape((-1,) + (1,) * a + (5,)))
        w = w[..., None] * _GL5_W
    avg = np.sum((w * kern.profile(r)).reshape(len(r), -1), axis=1) * 0.5 ** dim
    weights[near] = avg * hN * hN
    table = np.zeros((m,) * dim)
    table[tuple(offsets.T)] = weights
    return table[tuple(np.sort(indices, axis=0))]


def assemble(grid: DomainGrid, kern: Kernel, young: YoungFunction,
             pair_budget: int = PAIR_BUDGET) -> EnergyAssembly:
    """Build the offset weights and the exterior weights.

    The offset weights take a fixed number of kernel profile calls, however
    large the grid (_offset_weights).  The dense pair-weight matrix W is
    built on first read (EnergyAssembly.weights), and pair_budget is checked
    there: the quadratic and even polynomial FFT routes never read it.
    """
    if kern.dim != grid.dim:
        raise ValidationError("kernel and grid dimensions differ")
    m = int(_lattice_coords(grid).max()) + 1
    offset_weights = _offset_weights(kern, m, grid.dim, grid.spacing)
    return EnergyAssembly(grid=grid, kernel=kern, young=young, exterior=exterior_weights(kern, grid),
                          offset_weights=offset_weights, pair_budget=pair_budget)


def _check(asm: EnergyAssembly, u: GridFunction):
    if u.grid is not asm.grid and u.grid != asm.grid:
        raise ValidationError("grid function does not live on the assembly grid")


def F_value(asm: EnergyAssembly, u: GridFunction) -> float:
    """Orlicz modular: sum of young.value(u) times the cell volume."""
    _check(asm, u)
    return float(np.sum(asm.young.value(u.values)) * asm.h_pow_dim)


# the buffers of _lattice_filter: per thread, a weak map from an assembly
# to its buffers
_FFT_BUFFERS = threading.local()


def _fft_buffers(asm: EnergyAssembly, rows: int):
    """(lattice, spectrum, output, block): the buffers of _lattice_filter
    for asm on this thread, each a stack of at least `rows` rows of the
    padded lattice's shape (the spectrum's last axis halved, plus one), and
    the slices of the stack and of the nodes' extent on each leading
    lattice axis.  The buffers grow to the largest stack so far and live as
    long as the assembly.  The lattice starts at zero, and only its node
    entries are ever written."""
    memo = getattr(_FFT_BUFFERS, "memo", None)
    if memo is None:
        memo = _FFT_BUFFERS.memo = weakref.WeakKeyDictionary()
    buffers = memo.get(asm)
    if buffers is None or len(buffers[0]) < rows:
        _, shape, _, extent = asm.stencil
        block = (slice(None),) + tuple(slice(0, int(e)) for e in extent[:-1])
        buffers = memo[asm] = (np.zeros((rows,) + shape),
                               np.empty((rows,) + shape[:-1] + (shape[-1] // 2 + 1,), complex),
                               np.empty((rows,) + shape), block)
    return buffers


def _lattice_filter(asm: EnergyAssembly, x: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Each vector of x, of shape (n,) or a stack (..., n), scattered onto
    the padded lattice of asm.stencil (zero off the domain), multiplied by
    symbol in frequency space and gathered back.  The transforms run in
    the kept buffers of _fft_buffers, by numpy.fft with out=, along the
    lattice axes of the whole stack: an rfft along the last axis and an fft
    along each leading one, then an ifft along each leading axis and an
    irfft along the last, the inverse ones unnormalized, and the gathered
    nodes are multiplied by 1/prod(shape).  Those are scipy.fft's rfftn and
    irfftn, pass for pass in their order, with irfftn's normalization
    applied as pocketfft applies it, after the last pass.  So the results
    agree with theirs to rounding, bit for bit where numpy and scipy ship
    the same pocketfft (numpy 2.4 and scipy 1.17 do), and each row has the
    bits of its own call.

    Each last-axis pass takes only the lines of the nodes' extent on the
    leading axes (block): the lattice is zero beyond it, and so are the
    first pass's lines, which are zeroed instead; the last pass's lines
    beyond it are never gathered.  On a 2D lattice that halves both.  A
    call allocates nothing but the gathered nodes."""
    index, shape, _, _ = asm.stencil
    rows, size = math.prod(x.shape[:-1]), math.prod(shape)
    lattice, spectrum, output, block = _fft_buffers(asm, rows)
    lattice, spectrum, output = lattice[:rows], spectrum[:rows], output[:rows]
    lattice.reshape(rows, size)[:, index] = x.reshape(rows, x.shape[-1])
    for axis, lines in enumerate(block[1:], start=1):
        spectrum[(slice(None),) * axis + (slice(lines.stop, None),)] = 0.0
    # numpy's rfftn would take the leading axes in reverse order
    np.fft.rfft(lattice[block], axis=-1, out=spectrum[block])
    for axis in range(1, len(shape)):
        np.fft.fft(spectrum, axis=axis, out=spectrum)
    spectrum *= symbol
    for axis in range(1, len(shape)):
        np.fft.ifft(spectrum, axis=axis, norm="forward", out=spectrum)
    np.fft.irfft(spectrum[block], n=shape[-1], axis=-1, norm="forward", out=output[block])
    nodes = output.reshape(rows, size)[:, index]
    nodes *= 1.0 / size
    return nodes.reshape(x.shape)


def _stencil_product(asm: EnergyAssembly, x: np.ndarray) -> np.ndarray:
    """W @ x as the convolution of x with the offset stencil, by FFT; for a
    stack (k, n), W @ x of each row."""
    return _lattice_filter(asm, x, asm.stencil[2])


def _powers(z: np.ndarray, top: int) -> np.ndarray:
    """z^0, ..., z^top along a new leading axis, for z of shape (n,) or a
    stack (k, n), by repeated products: (-z)^j is then (-1)^j z^j bit for
    bit, which np.power does not guarantee."""
    zp = np.ones((top + 1,) + z.shape)
    for j in range(1, top + 1):
        np.multiply(zp[j - 1], z, out=zp[j])
    return zp


def _powers_product(asm: EnergyAssembly, zp: np.ndarray, k: int) -> np.ndarray:
    """W @ z^j for j = 0..k, from the powers zp[j] = z^j of _powers: rowsum
    for j = 0, the rest by one batched stencil product."""
    Wz = np.empty((k + 1,) + zp.shape[1:])
    Wz[0] = asm.rowsum
    if k:
        Wz[1:] = _stencil_product(asm, zp[1:k + 1])
    return Wz


@functools.lru_cache(maxsize=64)
def _binomial(poly: tuple, fold: bool = False) -> np.ndarray:
    """The table T of the binomial theorem for the polynomial r(t), the sum
    of c t^m over the pairs (m, c) of poly: with W symmetric and zero on its
    diagonal, sum_j w_ij r(z_i - z_j) u_j = sum_be T[b, e] z_i^e (W (z^b u))_i.

    With fold, the table of the double sum of w_ij r(z_i - z_j) at u = 1:
    summed over the nodes, z^e . W z^b = z^b . W z^e, so each pair of terms
    is put on the side b <= e and only b <= max m / 2 is kept."""
    top = max(m for m, _ in poly)
    T = np.zeros((top + 1, top + 1))
    for m, c in poly:
        for b in range(m + 1):
            T[b, m - b] += c * math.comb(m, b) * (-1) ** b
    if fold:
        T = (np.triu(T) + np.tril(T, -1).T)[:top // 2 + 1]
    T.flags.writeable = False  # shared by every call through the cache
    return T


def _pair_blocks(asm: EnergyAssembly, x: np.ndarray, phi):
    """The one walk over the pairs of every elementwise pair sum: for each
    row block k:e of linalg.BLOCK rows, (k, e, blocks) with the fresh arrays
    blocks = phi(x[k:e, None] - x[None, k:]), a tuple, each multiplied by
    W[k:e, k:], which the caller may overwrite.  It covers one triangle of
    the pairs, columns k:n only: a pair (i, j) with j < k has the difference
    of (j, i) with the sign flipped and, W being bitwise symmetric, its
    weight, so for an even or odd phi the caller reads it off an earlier
    block's columns."""
    n = x.shape[0]
    for k in range(0, n, BLOCK):
        e = min(k + BLOCK, n)
        blocks = phi(x[k:e, None] - x[None, k:])
        for block in blocks:
            block *= asm.weights[k:e, k:]
        yield k, e, blocks


def _pair_pass(asm: EnergyAssembly, x: np.ndarray, grad: bool):
    """The energy at the node values x, or its gradient when grad is set:
    x is one vector (n,), which gives a float or an (n,) gradient, or a
    stack (k, n), which gives k energies or a (k, n) stack of gradients.
    Each row has the bits of its own call.  The pass is _pass, asked for
    one of the two."""
    return _pass(asm, x, not grad, grad)[1 if grad else 0]


def _pass(asm: EnergyAssembly, x: np.ndarray, energy: bool, grad: bool):
    """(E, gradient) at the node values x, each where asked and None where
    not; x is one vector (n,) or a stack (k, n), whose rows have the bits of
    their own calls.  Asked for both, it makes one pass, and each of the two
    has the bits it has alone.  The FFT routes, quadratic and even
    polynomial psi, take a stack whole, through one batched stencil product
    along the trailing node axis; the triangle walk goes row by row.

    In general the pair sums run over the row blocks k:e of the triangle
    walk (_pair_blocks), which calls young.value, young.deriv or, for both,
    young.value_and_deriv on the differences against columns k:n only.  A
    block's row sums go to rows k:e; psi is even and psi' odd, so its
    column sums over columns e:n are the terms of rows e:n against rows
    k:e, added for the energy and subtracted for the gradient.  That is
    about n(n+1)/2 evaluations of psi instead of n^2.  A row's terms are
    summed in pieces, one per block, so E and the gradient differ from a
    whole-matrix row sum by rounding (about 1e-16 relative), and their bits
    do not depend on the thread count.

    For the quadratic Young function no elementwise psi is needed: with the
    graph Laplacian L = diag(rowsum) - W, the energy is x . Lx + the
    exterior part and the gradient 2 (Lx + x Lambda h^N), both read off one
    Lz.  L is blind to constants (W @ 1 = rowsum), so the pass works on
    z = x - mean(x), with x . Lx = z . Lz.  W @ z is the convolution of z,
    scattered onto the padded lattice (zero off the domain), with the
    offset stencil (_stencil_product): one real FFT, a product with the
    stencil's transform and one inverse FFT.  Its componentwise error
    against the dense product was at most 2.1e-15 (|W| |x|) on intervals,
    boxes and a ball at alpha = 0.5 and 1.5.  The FFT's rounding scales with
    the transform's largest terms, and z has no zero-frequency term, where
    the stencil's transform peaks: with x itself, E near the mountain-pass
    solution at 1D n = 128 scattered 1.8 ulp (standard deviation) about
    its value, with z 0.7 ulp, as with the dense product.  The energy
    loses accuracy to cancellation in rowsum * z^2 - z * (W @ z): against
    the elementwise double sum it reads 4.5e-13 relative, and the gradient
    1.8e-12 of max|gradient|, at alpha = 1.5, 1D n = 2048, on a bump.  That
    stays below the relative rounding _ROUNDING = 1e-10 that the Newton
    loop allows the objective.

    When psi is a sum of c |s|^d over even d <= 6 (young.even_terms), the
    binomial theorem turns the pair sums into sums over j of a polynomial
    in z times W z^j (_binomial), again with z = x - mean(x): no psi is
    evaluated on the pairs.  The energy needs W z^j up to j = max d / 2
    (z^e . W z^j = z^j . W z^e) and the gradient up to max d - 1, so both
    together take the gradient's one batched stencil product
    (_lattice_filter), whose rows have the bits of a shorter batch.  The
    error is cancellation among the terms, which grows with d and with the
    kernel's singularity.  Against the triangle pass, on the test grids and
    at alpha = 1.5, 1D n = 2048, on a bump, a shifted bump and random data,
    the energy agreed to 2.8e-12 relative and the gradient to 2.4e-11 of
    max|gradient|, both worst at p = 6 and alpha = 1.5; at degrees 8 and
    10 the gradient reached 5.4e-11 and 9.4e-11, so they keep the triangle
    pass.  At n = 2048 one energy and one gradient pass take about 2.5 ms,
    against 45 ms for the triangle pass.  The FFT has a fixed cost of about
    0.2 ms for the pair, so below _EVEN_MIN_NODES nodes the triangle pass
    runs instead: at p = 6 the two met near 96 nodes on intervals, and at
    64 nodes (1D, and the 8 x 8 box) the FFT route was the slower by 4 to
    50%.

    At x = 0 no route runs: E is 0.0 and the gradient +0.0, the bits every
    route gives there, since young.value(0) = 0 and young.deriv(0) = 0
    (make_young checks both).  A Dirichlet solve starts at x = 0.
    """
    if not x.any():
        E = (0.0 if x.ndim == 1 else np.zeros(x.shape[:-1])) if energy else None
        return E, (np.zeros(x.shape) if grad else None)
    young, hN, n = asm.young, asm.h_pow_dim, x.shape[-1]
    if young.quadratic:
        z = x - x.sum(axis=-1, keepdims=True) / n
        Lz = asm.rowsum * z - _stencil_product(asm, z)
        ext = x * asm.exterior * hN
        E = np.sum(z * Lz, axis=-1) + np.sum(x * ext, axis=-1) if energy else None
        G = 2.0 * (Lz + ext) if grad else None
        return (float(E) if energy and x.ndim == 1 else E), G
    if energy and grad:
        phi = young.value_and_deriv
    else:
        phi = (lambda s: (young.value(s),)) if energy else (lambda s: (young.deriv(s),))
    if young.even_terms is not None and n >= _EVEN_MIN_NODES:
        top = max(d for d, _ in young.even_terms)
        zp = _powers(x - x.sum(axis=-1, keepdims=True) / n, top if energy else top - 1)
        Wz = _powers_product(asm, zp, top - 1 if grad else top // 2)
        rows = []
        if energy:
            T = _binomial(young.even_terms, fold=True)
            rows.append(np.einsum("be,e...,b...->...", T, zp, Wz[:len(T)]))
        if grad:
            T = _binomial(tuple((d - 1, c * d) for d, c in young.even_terms))
            rows.append(np.einsum("be,e...,b...->...", T, zp[:top], Wz))
    else:
        signs = [1.0] * energy + [-1.0] * grad
        rows = np.zeros((len(signs),) + x.shape)
        # a stack walks the triangle one vector at a time, each into its rows
        for out, v in zip(rows.reshape(len(signs), -1, n).swapaxes(0, 1), x.reshape(-1, n)):
            for k, e, blocks in _pair_blocks(asm, v, phi):
                for row, sign, block in zip(out, signs, blocks):
                    row[k:e] += block.sum(axis=1)
                    row[e:] += sign * block[:, e - k:].sum(axis=0)
    nodes, E, G = phi(x), None, None
    if energy:
        E = 0.5 * np.sum(rows[0], axis=-1) + np.add.reduce(nodes[0] * asm.exterior, axis=-1) * hN
    if grad:
        G = rows[-1] + nodes[-1] * asm.exterior * hN
    return (float(E) if energy and x.ndim == 1 else E), G


def _curvature_shift(young: YoungFunction, eps: float) -> float:
    """c(eps) - c(0) for the even polynomial psi of young.even_terms, where
    c is young.curvature."""
    return sum(c * d * (d - 1) * eps ** (d - 2) for d, c in young.even_terms if d > 2)


def newton_matrix(asm: EnergyAssembly, x: np.ndarray, eps: float) -> np.ndarray:
    """The relaxed Newton matrix of E at the node values x: the weighted
    graph Laplacian with pair weights w_ij c(max(|x_i - x_j|, eps)) plus the
    diagonal Lambda_i h^N c(max(|x_i|, eps)), where c is young.curvature.
    For the even polynomial psi of young.even_terms the relaxed weight is
    c(t) + c(eps) - c(0) instead: a polynomial in t, between c(max(t, eps))
    and twice that, which even_newton_product applies with no matrix.

    The weights come from the triangle walk of the energy (_pair_blocks):
    each row block k:e is written into rows k:e, columns k:n, and mirrored
    into columns k:e of the rows below, so c is evaluated on about n(n+1)/2
    pairs instead of n^2, with the lower half of each diagonal tile as the
    only repeats.  Rows k:e are then complete and each diagonal entry is the
    sum of its whole row, as a full-square build sums it, plus the exterior
    term, so H has the same bits.  Built into a single n x n buffer, so the
    temporaries stay at block x n.

    No walk is made when psi takes the walk (young.even_terms is None) and
    the spread fl(max x - min x) is at most eps.  Rounding is monotone, so
    every walked |x_i - x_j| is at most that spread, each relaxed
    difference is eps, and the walk would write c(eps) w_ij and its row
    sums.  H is then c(eps) W, with c(eps) from a one-entry array (c is
    elementwise, so an entry's bits do not depend on the array around it),
    W's row sums as its diagonal, summed over whole rows as the walk sums
    them, and the exterior term.  This is the first step of a solve from
    x = 0, whose eps is a fraction of that step's own spread
    (solvers._zero_start_relaxation), so the next step spreads wider than
    its eps unless the line search cut the first to 1/8 or less: 1 build of
    5 in the Dirichlet solves of log_perturbed (2, 1) and |s|^3 at 1D
    n = 512 on a bump, 1 of 25 for |s|^1.5 at n = 64.

    At x = 0 every pair weight and every exterior weight is c(eps), or
    c(0) + (c(eps) - c(0)) for the even polynomial psi, so H is c(eps)
    times the matrix diag(rowsum + Lambda h^N) - W of every eps: the first
    relaxation of a solve from zero (solvers._zero_start_relaxation) reads
    the direction of one eps as that of any other, rescaled."""
    young = asm.young
    if young.even_terms is None:
        def relaxed(t):
            return young.curvature(np.maximum(t, eps, out=t))
    else:
        shift = _curvature_shift(young, eps)

        def relaxed(t):
            return young.curvature(t) + shift
    n = x.shape[0]
    if young.even_terms is None and n and x.max() - x.min() <= eps:
        # every pair weight is c(eps)
        H = asm.weights * relaxed(np.full(1, eps))
        diag = H.sum(axis=1)
        np.negative(H, out=H)
    else:
        H = np.empty((n, n))
        diag = np.empty(n)
        for k, e, (block,) in _pair_blocks(asm, x, lambda d: (relaxed(np.abs(d, out=d)),)):
            rows = H[k:e]
            rows[:, k:] = block
            H[e:, k:e] = block[:, e - k:].T
            diag[k:e] = rows.sum(axis=1)
            np.negative(rows, out=rows)
    diag += relaxed(np.abs(x)) * asm.exterior * asm.h_pow_dim
    np.fill_diagonal(H, diag)
    return H


def even_newton_product(asm: EnergyAssembly, x: np.ndarray, eps: float):
    """(diag H, v -> H v) with no n x n matrix, for H = newton_matrix(asm, x,
    eps) at an even polynomial psi (young.even_terms): pair weights
    w_ij (c(|x_i - x_j|) + shift) and the diagonal adding
    Lambda_i h^N (c(|x_i|) + shift), with c = young.curvature and
    shift = c(eps) - c(0).

    The weight r(t) = c(t) + shift is a polynomial in t = z_i - z_j, with
    z = x - mean(x).  By the binomial theorem (_binomial) sum_j w_ij r(t) v_j
    = sum_b P_b W (z^b v), with P_b a polynomial in z, and the pair part of
    diag H is the same sum at v = 1.  So a product is one batched stencil
    product of v, z v, ..., z^M v (M the degree of r), and the diagonal is
    read off rowsum and W z, ..., W z^M."""
    young = asm.young
    shift = _curvature_shift(young, eps)
    T = _binomial(tuple((d - 2, c * d * (d - 1)) for d, c in young.even_terms))
    zp = _powers(x - x.sum() / x.size, len(T) - 1)
    P = np.einsum("be,en->bn", T, zp)
    P[0] += shift
    ext = (young.curvature(np.abs(x)) + shift) * asm.exterior * asm.h_pow_dim
    diag = np.einsum("bn,bn->n", P, _powers_product(asm, zp, len(T) - 1)) + ext

    def apply(v):
        return diag * v - np.einsum("bn,bn->n", P, _stencil_product(asm, zp * v))
    return diag, apply


def quadratic_form_product(asm: EnergyAssembly):
    """(d0, v -> A v) for the matrix A = diag(d0) - W of the quadratic
    energy, E(v) = v . A v at psi = |s|^2, with d0 = rowsum + Lambda h^N:
    W v is one stencil product, so no W is built, whatever the assembly's
    psi.  A is positive definite, and A^-1 1 is the torsion function of the
    domain (solvers._torsion_start)."""
    d0 = asm.rowsum + asm.exterior * asm.h_pow_dim
    return d0, lambda v: d0 * v - _stencil_product(asm, v)


def circulant_preconditioner(asm: EnergyAssembly):
    """The circulant preconditioner of the Newton matrices, or None where
    there is none: a function that takes diag H and returns the solve
    r -> S C^-1 S r, with S = sqrt(2 max d0 / diag H).

    C is the circulant on the padded lattice of asm.stencil with symbol
    2 (max d0 - s^), where d0 = rowsum + Lambda h^N and s^ is the stencil's
    transform (Chan and Ng, SIAM Review 38, 1996): the quadratic Newton
    matrix 2 (diag(d0) - W) with its diagonal raised to the largest entry
    and its rows extended over the whole lattice.  S gives S H S the
    diagonal of C.  The symbol's least value was at least 1.2e-3 of
    2 max d0 for every kernel family on intervals, boxes and balls; where it
    is not positive, C is no preconditioner and the result is None."""
    top = 2.0 * float(np.max(asm.rowsum + asm.exterior * asm.h_pow_dim))
    symbol = top - 2.0 * asm.stencil[2]
    if not np.all(symbol > 0.0):
        return None
    inverse = 1.0 / symbol

    def preconditioner(diag):
        s = np.sqrt(top / diag)
        return lambda r: s * _lattice_filter(asm, s * r, inverse)
    return preconditioner


def E_value(asm: EnergyAssembly, u: GridFunction) -> float:
    """Nonlocal energy: half the weighted double sum of young.value of the
    differences, plus the exterior (zero-complement) part."""
    _check(asm, u)
    return _pair_pass(asm, u.values, grad=False)


def gradient_E(asm: EnergyAssembly, u: GridFunction) -> GridFunction:
    """Exact gradient of E_value with respect to the node values."""
    _check(asm, u)
    return GridFunction(grid=asm.grid, values=_pair_pass(asm, u.values, grad=True))


def E_and_gradient(asm: EnergyAssembly, u: GridFunction) -> tuple[float, GridFunction]:
    """(E_value(u), gradient_E(u)) from one pass, with the bits of the two
    calls: one triangle walk with young.value_and_deriv, one Lz for
    quadratic psi, or one batched stencil product for even polynomial psi
    (_pass)."""
    _check(asm, u)
    E, G = _pass(asm, u.values, True, True)
    return E, GridFunction(grid=asm.grid, values=G)


def interaction(asm: EnergyAssembly, u: GridFunction, phi: GridFunction) -> float:
    """First variation of the energy at u, paired against phi (linear in phi).

    The double-difference form
    0.5 sum_ij deriv(u_i - u_j) (phi_i - phi_j) w_ij + sum_i deriv(u_i) phi_i Lambda_i h^N
    equals gradient_E(u) . phi: deriv is odd, so the (i, j) and (j, i) terms
    of the pair sum fold onto the row sums of the gradient.
    """
    _check(asm, phi)
    return dot(gradient_E(asm, u).values, phi.values)


def apply_operator(asm: EnergyAssembly, u: GridFunction) -> GridFunction:
    """Pointwise discrete operator value at every node: gradient_E(u) / h^N.

    Satisfies the summation-by-parts identity
    interaction(u, phi) = sum_i (Lu)_i phi_i h^N, which holds because deriv
    is odd (see interaction).  Unlike its continuum counterpart, whose
    pointwise meaning needs extra regularity of u and a growth margin over
    the kernel singularity, the discrete sum is always defined.
    """
    return GridFunction(grid=asm.grid, values=gradient_E(asm, u).values / asm.h_pow_dim)


def luxemburg_norm_of(asm: EnergyAssembly, u: GridFunction,
                      rel_tol: float = 1e-10) -> float:
    """Luxemburg norm of a grid function under the assembly's Young function.

    For homogeneous psi (p = q) F(u/k) = k^(-p) F(u), so the norm is
    F(u)^(1/p) and rel_tol is unused; otherwise it is the root of
    F(u/k) = 1 in k (young.luxemburg_norm) to the relative tolerance
    rel_tol."""
    if not np.any(u.values):
        return 0.0
    if asm.young.homogeneous:
        return F_value(asm, u) ** (1.0 / asm.young.p)
    return luxemburg_norm(
        lambda k: F_value(asm, GridFunction(asm.grid, u.values / k)),
        rel_tol=rel_tol,
    )


# ---------------------------------------------------------------------------
# discrete gradient (for the gradient-comparison inequalities)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _neighbor_indices(grid: DomainGrid):
    """Per-axis neighbor index arrays; -1 where the neighbor is exterior."""
    lat = _lattice_coords(grid) + 1
    index = np.full(tuple(lat.max(axis=0) + 2), -1, dtype=np.int64)
    index[tuple(lat.T)] = np.arange(grid.n_nodes)
    steps = np.eye(grid.dim, dtype=np.int64)
    plus = np.stack([index[tuple((lat + e).T)] for e in steps], axis=1)
    minus = np.stack([index[tuple((lat - e).T)] for e in steps], axis=1)
    return plus, minus


def central_gradient_norm(grid: DomainGrid, v: np.ndarray) -> np.ndarray:
    """Euclidean norm of the central-difference gradient of the node values
    v, zero exterior; for a stack (k, n), of each row."""
    plus, minus = _neighbor_indices(grid)
    comps = np.zeros(v.shape + (grid.dim,))
    for ax in range(grid.dim):
        up = np.where(plus[:, ax] >= 0, v[..., plus[:, ax]], 0.0)
        um = np.where(minus[:, ax] >= 0, v[..., minus[:, ax]], 0.0)
        comps[..., ax] = (up - um) / (2.0 * grid.spacing)
    return np.linalg.norm(comps, axis=-1)
