"""Variational solvers for the nonlocal Dirichlet, reaction, and eigenvalue
problems, plus the solution-quality reports (uniqueness certificate,
nonexistence-exponent ratio, integrability scaling).

All four problems share one step loop, _relaxed_newton: relaxed Newton
steps on a dense weighted graph Laplacian with an Armijo line search, each
step solved by the rule that _relaxed_newton's docstring states.  The
superlinear (mountain-pass) solve runs the loop on the peaks of rays, the
local minimax method of Li and Zhou, and the eigenvalue solve on the
unit-modular set, with every trial point renormalized.  The convergence
metric is the pointwise operator residual (gradient max-norm divided by the
cell volume), scaled by the data size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .energy import (
    EnergyAssembly,
    _even_newton_product,
    _lattice_filter,
    E_value,
    F_value,
    apply_operator,
    gradient_E,
    interaction,
    luxemburg_norm_of,
)
from .errors import ValidationError
from .grid import GridFunction, bump
from .kernels import scaling_profile
from .linalg import BLOCK, cholesky_inplace, cholesky_solve
from .young import (
    YoungFunction,
    calibrate_singular_constant,
    clarkson_conditions,
    gamma_bounds,
)


@dataclass
class SolveReport:
    """Outcome of one variational solve."""

    solution: GridFunction
    objective: float
    residual_inf: float
    iterations: int
    converged: bool
    energy_E: float
    integral_F: float
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "spec_version": 1,
            "objective": self.objective,
            "residual_inf": self.residual_inf,
            "iterations": self.iterations,
            "converged": self.converged,
            "energy_E": self.energy_E,
            "integral_F": self.integral_F,
            "extras": {
                k: (v if not isinstance(v, np.generic) else float(v))
                for k, v in self.extras.items()
                if not isinstance(v, (GridFunction, np.ndarray))
            },
        }


@dataclass
class ReactionSpec:
    """Reaction term f with its antiderivative; zero for negative arguments
    (the problems seek nonnegative solutions)."""

    f: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    params: dict = field(default_factory=dict)
    condition_report: Optional[dict] = None
    # f', optional: the reaction solves take second-order steps with it
    # and the steps of E alone without it
    df: Optional[Callable[[np.ndarray], np.ndarray]] = None


def power_reaction(m: float) -> ReactionSpec:
    """f(t) = t^(m-1) on t > 0, zero elsewhere; G(t) = t^m / m and
    f'(t) = (m-1) t^(m-2) on t > 0, zero elsewhere."""
    if m <= 1.0:
        raise ValidationError("power reaction needs exponent m > 1")

    def f(t, m=m):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.0, np.where(t > 0.0, t, 1.0) ** (m - 1.0), 0.0)

    def G(t, m=m):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.0, np.where(t > 0.0, t, 1.0) ** m / m, 0.0)

    def df(t, m=m):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.0, (m - 1.0) * np.where(t > 0.0, t, 1.0) ** (m - 2.0), 0.0)

    return ReactionSpec(f=f, G=G, name="power", params={"m": m}, df=df)


# ---------------------------------------------------------------------------
# relaxed Newton engine
# ---------------------------------------------------------------------------

# below this fraction of |objective| a predicted decrease puts the Armijo
# margin (1e-4 of it) within a few dozen ulps of the objective
_ROUNDING = 1e-10
# eps's factor after a step accepted at unit length; a shortened step halves
# it (_relaxed_newton).  The sweep that chose it is in CHANGES.md
_EPS_DECAY = 0.125
# the CG step solve's bounds (_relaxed_newton); the measured crossovers are
# in CHANGES.md
_PCG_MIN_NODES = 256
_PCG_MIN_GROWTH = 2.0
# relative residual of the CG solve of a quadratic step, which is exact
# Newton, and the floor of the forcing term of the others
_PCG_RTOL = 1e-13
_FORCING_CAP = 0.01
# most CG products of one Newton step (_pcg).  Measured per-step counts at
# 1D alpha = 0.5: 3 to 19 for Dirichlet steps on the circulant, 1 to 12 for
# reaction steps on the factor and up to 20 on the circulant (|s|^3 at
# n = 256 and 512).  It binds on the last Dirichlet steps from alpha = 1 up,
# which took 26 to 43 uncapped; the step counts held but at p = 2, n = 2048,
# alpha = 1.9, whose one step of 38 became two of 20
_CG_CAP = 20


def _quadratic_diagonal(asm: EnergyAssembly) -> np.ndarray:
    """rowsum + Lambda h^N: half the diagonal of the quadratic Newton matrix."""
    return asm.rowsum + asm.exterior * asm.h_pow_dim


def _curvature_shift(young: YoungFunction, eps: float) -> float:
    """c(eps) - c(0) for the even polynomial psi of young.even_terms, where
    c is young.curvature."""
    return sum(c * d * (d - 1) * eps ** (d - 2) for d, c in young.even_terms if d > 2)


def _newton_matrix(asm: EnergyAssembly, x: np.ndarray, eps: float) -> np.ndarray:
    """Weighted graph Laplacian with pair weights w_ij * c(max(|x_i - x_j|, eps))
    plus the diagonal Lambda_i h^N c(max(|x_i|, eps)), where c is
    young.curvature.  For the even polynomial psi of young.even_terms the
    relaxed weight is c(t) + c(eps) - c(0) instead: a polynomial in t,
    between c(max(t, eps)) and twice that, which energy._even_newton_product
    applies with no matrix.

    |x_i - x_j| and w_ij are bitwise symmetric, so each row block k:e
    evaluates c only on columns k:n and copies columns e:n into columns k:e
    of the rows below: about n(n+1)/2 pairs instead of n^2, with the lower
    half of each diagonal tile as the only repeats.  Rows k:e are then
    complete and are summed whole, as a full-square build sums them, so H
    has the same bits.  Built into a single n x n buffer, so the temporaries
    stay at block x n.

    For quadratic psi c is 2 everywhere, so H is read off W: -2W with the
    diagonal 2 (rowsum + Lambda h^N).  Doubling is exact, so these are the
    bits of the curvature build."""
    young = asm.young
    if young.quadratic:
        H = -2.0 * asm.weights
        np.fill_diagonal(H, 2.0 * _quadratic_diagonal(asm))
        return H
    if young.even_terms is None:
        def relaxed(t):
            return young.curvature(np.maximum(t, eps, out=t))
    else:
        shift = _curvature_shift(young, eps)

        def relaxed(t):
            return young.curvature(t) + shift
    n = x.shape[0]
    H = np.empty((n, n))
    diag = np.empty(n)
    for k in range(0, n, BLOCK):
        e = min(k + BLOCK, n)
        rows = H[k:e]
        np.multiply(relaxed(np.abs(x[k:e, None] - x[None, k:])), asm.weights[k:e, k:],
                    out=rows[:, k:])
        H[e:, k:e] = rows[:, e:].T
        diag[k:e] = rows.sum(axis=1)
        np.negative(rows, out=rows)
    diag += relaxed(np.abs(x)) * asm.exterior * asm.h_pow_dim
    np.fill_diagonal(H, diag)
    return H


def _circulant(asm: EnergyAssembly):
    """The circulant preconditioner's scale 2 max d0 and inverse symbol.

    C is the circulant on asm.stencil's padded lattice with symbol
    2 (max d0 - s^), where d0 = _quadratic_diagonal and s^ is the stencil's
    transform (Chan and Ng, SIAM Review 38, 1996): the quadratic Newton
    matrix 2 (diag(d0) - W) with its diagonal raised to the largest entry
    and its rows extended over the whole lattice.  The symbol's least value
    was at least 1.2e-3 of 2 max d0 for every kernel family on intervals,
    boxes and balls; where it is not positive, C is no preconditioner and
    the result is None."""
    top = 2.0 * float(np.max(_quadratic_diagonal(asm)))
    symbol = top - 2.0 * asm.stencil[2]
    return (top, 1.0 / symbol) if np.all(symbol > 0.0) else None


def _pcg(apply, b: np.ndarray, solve, rtol: float, tangent=None):
    """Truncated preconditioned conjugate gradients for A d = b from d = 0:
    the truncated CG of Steihaug (SIAM J. Numer. Anal. 20, 1983), with
    apply(v) = A v for a symmetric A that may be indefinite and
    solve(r) = M^-1 r for a positive definite M.

    With tangent = (x, Hx) the iterates stay in the subspace Hx . d = 0:
    the preconditioner is P M^-1 P^T with P z = z - x (Hx . z) / (x . Hx),
    the projected PCG of Gould, Hribar and Nocedal (SIAM J. Sci. Comput. 23,
    2001).  Without it P is the identity.  The solve stops when the
    projected residual falls to ||P^T (b - A d)||_2 <= rtol ||P^T b||_2,
    after _CG_CAP products, or at the first search direction p with
    p.Ap <= 0.  That last stop returns the iterate so far, or at the first
    direction the preconditioned b itself.

    Every iterate minimizes d.Ad/2 - b.d over a subspace on which A is
    positive definite, so b.d = d.Ad > 0: each one is a descent direction,
    however early the solve stops, and so is P M^-1 P^T b.  Every dot
    product is np.sum(x * y), a reduction in a fixed order, so the bits do
    not depend on thread counts."""
    if tangent is not None:
        x, Hx = tangent
        xHx = float(np.sum(x * Hx))

    def project(r):  # P^T r
        return r if tangent is None else r - Hx * (float(np.sum(x * r)) / xHx)

    def lift(z):  # P z
        return z if tangent is None else z - x * (float(np.sum(Hx * z)) / xHx)

    d = np.zeros_like(b)
    r = b
    w = project(r)
    goal = rtol * rtol * float(np.sum(w * w))
    p = z = lift(solve(w))
    rz = float(np.sum(r * z))
    for k in range(_CG_CAP):
        q = apply(p)
        pq = float(np.sum(p * q))
        if pq <= 0.0:
            return d if k else z
        a = rz / pq
        d += a * p
        r = r - a * q  # not in place: solve and project may return r itself
        w = project(r)
        if float(np.sum(w * w)) <= goal:
            break
        z = lift(solve(w))
        rz, rz_old = float(np.sum(r * z)), rz
        p = z + (rz / rz_old) * p
    return d


def _newton_direction(asm: EnergyAssembly, x: np.ndarray, eps: float, g: np.ndarray,
                      rtol: float, circulant=None, L=None, D=None, tangent: bool = False):
    """The direction of one step of _relaxed_newton, whose docstring states
    the step rule, with the factor L it used (None on the circulant): the
    solve of (H - diag(D)) d = -g by _pcg to rtol, with its iterates
    H-orthogonal to x when tangent is set.  The only place that builds and
    factors H = _newton_matrix(asm, x, eps).

    The product: for a polynomial psi (young.even_terms, |s|^2 included)
    H v comes from energy._even_newton_product, with no n x n matrix; at
    degree 2 that is 2 (d0 v - W v) with W v by FFT.  Otherwise H is built
    and freed on return, and applied by np.einsum with its default
    optimize=False, which runs numpy's own loop and never calls BLAS.  So it
    starts no threads, and its bits do not depend on the BLAS thread count:
    a BLAS H @ v of order 700 gave other bits at 2 and 3 OpenBLAS threads
    than at 1.  A built H that is also factored is copied first.

    The preconditioner M: S C^-1 S with C from the circulant of _circulant
    and S = sqrt(2 max d0 / diag H), which gives S H S the diagonal of C;
    without the circulant the tiled Cholesky factor L of H, factored here
    when L is None.  With neither D nor the circulant, M is the factor of
    this very H, and the direction is cholesky_solve(L, -g), with no
    product."""
    H = None
    if circulant is None and L is None:
        H = _newton_matrix(asm, x, eps)
        L = H.copy() if D is not None and asm.young.even_terms is None else H
        cholesky_inplace(L)
    if circulant is None and D is None:
        return cholesky_solve(L, -g), L
    if asm.young.even_terms is not None:
        diag, apply = _even_newton_product(asm, x, _curvature_shift(asm.young, eps))
    else:
        if H is None:
            H = _newton_matrix(asm, x, eps)
        diag = H.diagonal()

        def apply(v):
            return np.einsum("ij,j->i", H, v)
    if circulant is None:
        solve = functools.partial(cholesky_solve, L)
    else:
        top, inverse = circulant
        s = np.sqrt(top / diag)

        def solve(r):
            return s * _lattice_filter(asm, s * r, inverse)
    product = apply if D is None else (lambda v: apply(v) - D * v)
    return _pcg(product, -g, solve, rtol, (x, apply(x)) if tangent else None), L


def _relaxed_newton(asm: EnergyAssembly, value, gradient, x0, stop, max_iter: int,
                    retract=None, one_step: bool = False, curvature=None,
                    tangent: bool = False):
    """Lower value(x) from x0 by relaxed Newton steps until stop(x, gradient(x)).

    H = _newton_matrix is the relaxed curvature of E, which stays positive
    definite whatever the data or reaction term adds; the step rule below
    says how each step solves with it.  H's pair weights are young.curvature,
    the larger of psi'' and the secant weight psi'(t)/t: where psi' is
    concave (growth below 2) the secant weight contracts a near-zero
    difference in one step, where the plain Newton weight maps t to -t
    (p = 1.5) or farther out.
    eps starts at 1 and follows the iterate: after every accepted step it
    becomes min(kappa eps, max|x|), with kappa = _EPS_DECAY after a step at
    unit length and 1/2 after a shortened one.  No pair difference exceeds
    2 max|x|, and a wider relaxation only moves H off the curvature at x
    (above quadratic growth it stiffens H and shortens the steps); the
    relaxed Kacanov scheme asks only that eps decrease.  It stays above one
    ulp of max|x| and above where the weights would overflow.  Below growth
    2 the residual then falls by a steady factor of about 2 - p per step,
    whatever eps is: for |s|^p the secant weight is 1/(p - 1) times psi'',
    so a step goes p - 1 of the Newton step.  The remaining steps scale as
    log(tol) / log(2 - p): p = 1.1 takes about 170 at 1D n = 64.  An Armijo
    search on value starts at the unit step; once the predicted decrease is
    below the rounding of value, a step must lower the Euclidean norm of
    gradient instead, which no single node's rounding can hold at a short
    step.
    With retract, each trial point x + t d is replaced by retract(x + t d)
    (None rejects it).  The slope stays gradient . d, which is exact when
    gradient is the gradient of value after retract (the eigen solve), or
    when retract maximizes value and its first-order condition holds at x
    (the mountain pass).
    The step rule.  Each step solves (H - diag(D)) d = -gradient(x) by
    _pcg, the one conjugate-gradient routine, on the product and
    preconditioner that _newton_direction picks.  D = curvature(x) =
    f'(x) h^N is a reaction's curvature, so that H - diag(D) is the
    objective's Hessian; without curvature (Dirichlet and eigen) D = 0.
    With tangent the CG iterates stay H-orthogonal to the ray through x
    (the mountain pass, whose objective peaks along the ray).  Every step is
    truncated: CG stops at a projected residual of rtol, after _CG_CAP
    products, or at negative curvature, and any iterate is a descent
    direction, so the line search is the same.
    - rtol is the Eisenstat-Walker forcing term ||g_k|| / ||g_0||, capped
      at _FORCING_CAP (SIAM J. Sci. Comput. 17, 1996) and floored at
      _PCG_RTOL.  With one_step and quadratic psi the objective is
      quadratic (E minus a linear term), so rtol is _PCG_RTOL: the step is
      exact Newton and usually the solution, unless _CG_CAP cuts it.
    - The preconditioner M is chosen once, before the first step, and kept
      for every step.  It is the circulant of _circulant from
      _PCG_MIN_NODES nodes and growth q >= _PCG_MIN_GROWTH up, where the
      circulant exists and a factor would serve a single solve: psi is not
      quadratic, or the caller sets one_step.  Below growth 2 CG steps made
      a p = 1.5 solve about 3 times slower, and below 256 nodes they were
      no faster than the factor.  Otherwise M is the tiled Cholesky factor
      of H.  When psi is quadratic, H is the same at every x and eps, so it
      is built and factored once and kept for the rest of this call;
      otherwise each step builds and factors a fresh H and frees it before
      the energy passes of the line search.  Without curvature, M is then
      the factor of the step's own H and the step is its solve, with no CG
      product.
    - At negative curvature on CG's first direction the step is the
      preconditioned gradient, which on the factor is the step of H alone.
      The steps of H alone converge at first order (for the sublinear
      t^(m-1) the error falls by a factor of about m - 1 per step), those
      with the curvature at second order: the benchmark's mountain pass at
      1D n = 128 went from 52 steps to 4, and its sublinear solve at
      n = 256 from 24 to 5.
    The bits of the steps do not depend on the BLAS thread count.

    Returns (x, steps, converged, info) with the objective history and
    whether the line search failed."""
    x = np.array(x0, dtype=float)
    J, g = value(x), gradient(x)
    eps = 1.0
    info = {"line_search_failure": False, "objective_history": [J]}
    quadratic = asm.young.quadratic
    circulant = None
    if (x.size >= _PCG_MIN_NODES and asm.young.q >= _PCG_MIN_GROWTH
            and (one_step or not quadratic)):
        circulant = _circulant(asm)
    g0_sq = float(np.sum(g * g))
    L = None
    it = 0
    while True:
        if stop(x, g):
            return x, it, True, info
        if it >= max_iter:
            return x, it, False, info
        g_sq = float(np.sum(g * g))
        # differences below one ulp of the iterate are rounding noise
        eps = max(eps, np.finfo(float).eps * float(np.max(np.abs(x))))
        forcing = (0.0 if one_step and quadratic
                   else min(_FORCING_CAP, np.sqrt(g_sq / g0_sq)))
        d, L = _newton_direction(asm, x, eps, g, max(_PCG_RTOL, forcing), circulant, L,
                                 None if curvature is None else curvature(x), tangent)
        if not quadratic:
            L = None  # free the n x n buffer before the line search
        slope = float(g @ d)
        t = 1.0
        for _ in range(60):
            x_new = x + t * d if retract is None else retract(x + t * d)
            if x_new is None:
                pass  # the retract rejected the trial point
            elif -t * slope > _ROUNDING * abs(J):
                J_new = value(x_new)
                if J_new <= J + 1e-4 * t * slope:
                    g_new = gradient(x_new)
                    break
            else:
                # the Armijo margin is lost in the rounding of the energy:
                # judge the step by the gradient's Euclidean norm instead
                g_new = gradient(x_new)
                if float(np.sum(g_new * g_new)) < g_sq:
                    J_new = value(x_new)
                    break
            t *= 0.5
        else:
            info["line_search_failure"] = True
            return x, it, False, info
        x, J, g = x_new, J_new, g_new
        info["objective_history"].append(J)
        it += 1
        size = float(np.max(np.abs(x)))
        nxt = (_EPS_DECAY if t == 1.0 else 0.5) * eps
        if size > 0.0:
            nxt = min(nxt, size)
        if np.all(np.isfinite(asm.young.curvature(np.array([nxt])))):
            eps = nxt


# ---------------------------------------------------------------------------
# Dirichlet problem with fixed data
# ---------------------------------------------------------------------------


def solve_dirichlet(asm: EnergyAssembly, f: GridFunction, tol: float = 1e-8,
                    max_iter: int = 20000) -> SolveReport:
    """Minimize the convex functional E(v) - <f, v> from the zero start.

    Converged means the pointwise residual max|Lu - f| is below
    tol * (1 + max|f|).  The weak form is re-verified a posteriori on 20
    seeded coordinate directions, where the interaction form is the gradient
    entry at that node.

    The method is a relaxed Newton iteration (_relaxed_newton, whose
    docstring states the step rule and the relaxation schedule), after the
    relaxed Kacanov iteration of Diening, Fornasier, Tomasi and Wank
    (Numer. Math. 145, 2020).
    ``iterations`` counts Newton steps.
    """
    hN = asm.h_pow_dim
    grid = asm.grid
    fv = f.values
    scale = 1.0 + float(np.max(np.abs(fv)))
    # the last E and gradient_E passes, with the iterate they were taken at
    last = {}

    def value(x):
        last["E"] = x, E_value(asm, GridFunction(grid, x))
        return last["E"][1] - float(fv @ x) * hN

    def gradient(x):
        last["gE"] = x, gradient_E(asm, GridFunction(grid, x)).values
        return last["gE"][1] - fv * hN

    def stop(x, g):
        return float(np.max(np.abs(g))) / hN <= tol * scale

    x, iters, conv, info = _relaxed_newton(asm, value, gradient, np.zeros(grid.n_nodes),
                                           stop, max_iter, one_step=True)
    u = GridFunction(grid, x)
    # the loop's passes at x, unless a failed line search took others since
    at, gE = last["gE"]
    if at is not x:
        gE = gradient_E(asm, u).values
    at, E = last["E"]
    if at is not x:
        E = E_value(asm, u)
    resid = float(np.max(np.abs(gE / hN - fv)))
    n = grid.n_nodes
    nodes = np.random.default_rng(2024).choice(n, size=min(20, n), replace=False)
    weak = float(np.max(np.abs(gE[nodes] - fv[nodes] * hN)))
    return SolveReport(
        solution=u,
        objective=E - float(fv @ x) * hN,
        residual_inf=resid,
        iterations=iters,
        converged=conv,
        energy_E=E,
        integral_F=F_value(asm, u),
        extras={
            "problem": "dirichlet",
            "weak_form_residual": weak,
            "line_search_failure": info["line_search_failure"],
        },
    )


@dataclass(frozen=True)
class UniquenessGap:
    """Computable uniqueness certificate for two candidate solutions."""

    gap: float          # E(u1 - u2)
    bound: Optional[float]
    case: str
    interaction_difference: float


def uniqueness_gap(asm: EnergyAssembly, u1: GridFunction, u2: GridFunction) -> UniquenessGap:
    """Bound E(u1-u2) by the interaction difference through the difference
    inequalities.  When u1 and u2 solve the same weak problem the bound forces
    the gap to zero."""
    d = GridFunction(asm.grid, u1.values - u2.values)
    gap = E_value(asm, d)
    diff = interaction(asm, u1, d) - interaction(asm, u2, d)
    conds = clarkson_conditions(asm.young)
    if conds.get("sqrt_convex"):
        c = gamma_bounds(asm.young, 2.0)[1] / 4.0
        return UniquenessGap(gap=gap, bound=c * diff, case="difference_convexity",
                             interaction_difference=diff)
    if conds.get("power_pinch"):
        c3 = calibrate_singular_constant(asm.young)
        p = asm.young.p
        e_sum = E_value(asm, u1) + E_value(asm, u2)
        if e_sum == 0.0:
            return UniquenessGap(gap=gap, bound=0.0, case="singular_exponent",
                                 interaction_difference=diff)
        bound = 0.5 * (2.0 * max(diff, 0.0) / c3) ** (p / 2.0) * (2.0 * e_sum) ** (1.0 - p / 2.0)
        return UniquenessGap(gap=gap, bound=bound, case="singular_exponent",
                             interaction_difference=diff)
    return UniquenessGap(gap=gap, bound=None, case="condition not satisfied",
                         interaction_difference=diff)


# ---------------------------------------------------------------------------
# reaction conditions
# ---------------------------------------------------------------------------


def _window_exponent(xs, ys):
    """Least-squares slope of log ys against log xs."""
    lx, ly = np.log(xs), np.log(ys)
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))


def check_reaction_conditions(young: YoungFunction, reaction: ReactionSpec,
                              dim: Optional[int] = None,
                              alpha_order: Optional[float] = None) -> dict:
    """Sampled verification of the lower-range and intermediate-range growth
    conditions on the reaction.

    Reports the fitted exponents and constants per clause plus pass flags.
    For power reactions with a homogeneous Young function (p = q), cross-checks
    the analytic ranges: the lower condition holds iff m < p, the intermediate
    ones with rate m iff p < m < dim*q/(dim - alpha).
    """
    p, q = young.p, young.q
    t_small = np.logspace(-8.0, -2.0, 60)
    t_large = np.logspace(1.0, 4.0, 60)
    f_small = reaction.f(t_small)
    f_large = reaction.f(t_large)
    report: dict = {}

    # lower range: |f| <= c1 + c2 * value^mu with mu < (q-1)/p, f positive near 0
    if np.all(f_small > 0.0) and np.all(f_large > 0.0):
        mu_small = _window_exponent(young.value(t_small), f_small)
        mu_large = _window_exponent(young.value(t_large), f_large)
        mu_fit = max(mu_small, mu_large)
        mu_bound = (q - 1.0) / p
        c2 = float(np.max(f_large / (1.0 + young.value(t_large) ** mu_fit)))
        c3 = float(np.min(f_small / young.value(t_small) ** mu_fit))
        report["sub_mu"] = mu_fit
        report["sub_mu_bound"] = mu_bound
        # one constant C fits f <= C (1 + value^mu), so c1 = c2 = C
        c1 = c2
        report["sub_c1"] = c1
        report["sub_c2"] = c2
        report["sub_c3"] = c3
        report["sub_ok"] = bool(mu_fit < mu_bound - 1e-12 and c3 > 0.0)
    else:
        report["sub_ok"] = False
        report["sub_note"] = "reaction not positive on the sampled range"

    # intermediate range, clause 1: t f(t) >= rho G(t) with rho > p
    t_all = np.logspace(-6.0, 4.0, 120)
    ft, Gt = reaction.f(t_all), reaction.G(t_all)
    pos = Gt > 0.0
    if pos.any():
        rho_fit = float(np.min(t_all[pos] * ft[pos] / Gt[pos]))
        report["rho"] = rho_fit
        report["rho_clause1_ok"] = bool(rho_fit > p + 1e-12)
    else:
        report["rho_clause1_ok"] = False

    # clause 2: t f(t) <= c * value(t)^r for large t, with some 1 < r < r*
    if np.all(f_large > 0.0):
        r_fit = _window_exponent(young.value(t_large), t_large * f_large)
        report["r"] = r_fit
        report["r_constant"] = float(
            np.max(t_large * f_large / young.value(t_large) ** r_fit))
        report["t0"] = float(t_large[0])
    else:
        r_fit = 0.0
        report["r"] = None
    if dim is not None and alpha_order is not None and alpha_order < dim:
        r_star = dim / (dim - alpha_order)
        report["r_star"] = r_star
        report["rho_clause2_ok"] = bool(r_fit < r_star - 1e-12)
    else:
        report["rho_clause2_ok"] = None
        report["rho_clause2_note"] = "needs a kernel with a fractional lower bound"

    # clause 3: G(lambda t) >= lambda^rho G(t) for lambda beyond some lambda0
    lam_grid = (1.5, 2.0, 4.0, 8.0)
    lam0 = None
    if report.get("rho") is not None and pos.any():
        rho = report["rho"]
        for lam in lam_grid:
            ok = np.all(
                reaction.G(lam * t_all[pos]) >= lam ** rho * Gt[pos] * (1.0 - 1e-9)
            )
            if ok:
                lam0 = lam
                break
        report["lambda0"] = lam0
        report["rho_clause3_ok"] = lam0 is not None
    else:
        report["rho_clause3_ok"] = False

    report["rho_ok"] = bool(
        report.get("rho_clause1_ok")
        and report.get("rho_clause2_ok")
        and report.get("rho_clause3_ok")
    )

    if reaction.name == "power" and young.homogeneous:
        m = reaction.params["m"]
        report["power_cross_check"] = {"m": m, "sub_expected": m < p}
        if dim is not None and alpha_order is not None and alpha_order < dim:
            hi = dim * q / (dim - alpha_order)
            report["power_cross_check"]["rho_expected"] = p < m < hi
    return report


# ---------------------------------------------------------------------------
# sublinear reaction problem
# ---------------------------------------------------------------------------


def _bump_start(asm: EnergyAssembly) -> GridFunction:
    g = asm.grid
    b = bump(g, g.center, 0.5 * g.inradius, 1.0)
    norm = luxemburg_norm_of(asm, b)
    return GridFunction(g, b.values / norm)


def _reaction_objective(asm: EnergyAssembly, reaction: ReactionSpec, tol: float):
    """value, gradient and stop rule of E(v) - sum G(v) h^N: converged when
    max|Lu - f(u)| <= tol * (1 + max|f(u)|); and x -> f'(x) h^N, the
    curvature the reaction takes off the Hessian of E, or None when the
    reaction has no df."""
    hN = asm.h_pow_dim

    def value(x):
        return E_value(asm, GridFunction(asm.grid, x)) - float(np.sum(reaction.G(x))) * hN

    def gradient(x):
        return gradient_E(asm, GridFunction(asm.grid, x)).values - reaction.f(x) * hN

    def stop(x, g):
        scale = 1.0 + float(np.max(np.abs(reaction.f(x))))
        return float(np.max(np.abs(g))) / hN <= tol * scale

    def curvature(x):
        return reaction.df(x) * hN

    return value, gradient, stop, None if reaction.df is None else curvature


def solve_sublinear(asm: EnergyAssembly, reaction: ReactionSpec, tol: float = 1e-7,
                    max_iter: int = 20000, start: Optional[GridFunction] = None) -> SolveReport:
    """Minimize E(v) - integral of G(v) by relaxed Newton steps
    (_relaxed_newton) from a positive unit-norm bump.

    The steps take in the reaction's curvature f'(u) h^N when reaction.df
    is given; _relaxed_newton's docstring states the step rule.
    Replaces the minimizer by its absolute value when that does not increase
    the objective, and records the negative-level witness that certifies a
    nontrivial solution in the lower range.  A collapse to zero is flagged
    (it signals a failed growth condition, not a solver bug).
    ``iterations`` counts Newton steps.
    """
    report_cond = check_reaction_conditions(
        asm.young, reaction, dim=asm.grid.dim, alpha_order=asm.kernel.alpha_order
    )
    reaction.condition_report = report_cond
    value, gradient, stop, curvature = _reaction_objective(asm, reaction, tol)
    x0 = (start or _bump_start(asm)).values
    x, iters, conv, info = _relaxed_newton(asm, value, gradient, x0, stop, max_iter,
                                           curvature=curvature)

    u = GridFunction(asm.grid, x)
    obj = info["objective_history"][-1]
    u_abs = GridFunction(asm.grid, np.abs(x))
    obj_abs = value(u_abs.values)
    if obj_abs <= obj + 1e-15 * (1.0 + abs(obj)):
        u, obj = u_abs, obj_abs
    E = E_value(asm, u)

    fv = reaction.f(u.values)
    resid = float(np.max(np.abs(apply_operator(asm, u).values - fv)))
    sup = float(np.max(np.abs(u.values)))
    trivial = sup <= 1e-9 and abs(obj) <= 1e-12
    return SolveReport(
        solution=u,
        objective=obj,
        residual_inf=resid,
        iterations=iters,
        converged=conv,
        energy_E=E,
        integral_F=F_value(asm, u),
        extras={
            "problem": "sublinear",
            "trivial_solution": trivial,
            "negative_level": obj < 0.0,
            "condition_report": report_cond,
            "line_search_failure": info["line_search_failure"],
        },
    )


# ---------------------------------------------------------------------------
# mountain-pass search
# ---------------------------------------------------------------------------


def _ray_peak(slope) -> Optional[float]:
    """The scale t > 0 where the objective peaks on a ray: the root of its
    slope t -> d/dt J(t y) where it changes sign from + to -, bracketed by
    doubling or halving from t = 1 and refined by brentq.  None when 60
    doublings or halvings find no sign change."""
    slope = functools.lru_cache(maxsize=None)(slope)

    lo = hi = 1.0
    rising = slope(1.0) > 0.0
    for _ in range(60):
        if rising:
            lo, hi = hi, 2.0 * hi
            if slope(hi) <= 0.0:
                break
        else:
            lo, hi = 0.5 * lo, lo
            if slope(lo) > 0.0:
                break
    else:
        return None
    return brentq(slope, lo, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)


def mountain_pass_search(asm: EnergyAssembly, reaction: ReactionSpec,
                         endpoint: Optional[GridFunction] = None, tol: float = 1e-6,
                         max_iter: int = 3000) -> SolveReport:
    """Mountain-pass critical point between 0 and a negative-level endpoint,
    by the local minimax method of Li and Zhou (SIAM J. Sci. Comput. 23,
    2001): minimize over directions v the peak level max_t J(t v).

    The iterate lives on the peaks of rays (_ray_peak).  Each step is a
    relaxed Newton step (_relaxed_newton) whose trial points are moved back
    to the peak of their ray, so the line search lowers the peak level.
    The steps keep to directions orthogonal to the ray in the inner product
    of E's Newton matrix (the objective peaks along the ray, so its
    curvature there is negative), and take in the reaction's curvature
    f'(u) h^N when reaction.df is given; _relaxed_newton's docstring states
    the step rule.
    For homogeneous psi (p = q) E is p-homogeneous, so a ray's slope costs one
    gradient pass however many scales the peak search tries, and that pass
    also gives E and its gradient at the peak: gradient_E(t y) =
    t^(p-1) gradient_E(y) and E(t y) = t^p gradient_E(y) . y / p.  There is no
    mountain-pass geometry when the endpoint's ray has no peak, peaks
    beyond the endpoint, or peaks at a level <= 1e-12.  ``eta`` is the
    final peak level and ``eta_initial`` the level of the endpoint ray's
    peak; ``iterations`` counts Newton steps.  Converged means
    max|Lu - f(u)| <= tol * (1 + max|f(u)|).  The extras carry the reaction's
    condition report, and ``outside_admissible_range`` is set when its
    subcritical clause fails (rho_clause2_ok is False): the run may then
    converge to a critical point that is not the ground state.
    """
    g = asm.grid
    report_cond = check_reaction_conditions(
        asm.young, reaction, dim=g.dim, alpha_order=asm.kernel.alpha_order
    )
    reaction.condition_report = report_cond
    admissibility = {"condition_report": report_cond,
                     "outside_admissible_range": report_cond["rho_clause2_ok"] is False}
    value, gradient, stop, curvature = _reaction_objective(asm, reaction, tol)
    hN = asm.h_pow_dim
    homogeneous, p = asm.young.homogeneous, asm.young.p
    # the last ray: its peak scale t and point x = t y; for homogeneous psi
    # also gradient_E(y) and gradient_E(y) . y
    ray = {"x": None}

    def ray_slope(y):
        # E is p-homogeneous for homogeneous psi, so gradient_E(t y) =
        # t^(p-1) gradient_E(y) and only the reaction term depends on t
        if homogeneous:
            gE = gradient_E(asm, GridFunction(g, y)).values
            gy = float(gE @ y)
            ray.update(gE=gE, gy=gy)
            return lambda t: t ** (p - 1.0) * gy - float(reaction.f(t * y) @ y) * hN
        return lambda t: float(gradient(t * y) @ y)

    def peak(y):
        t = _ray_peak(ray_slope(y))
        ray.update(t=t, x=None if t is None else t * y)
        return ray["x"]

    def peak_value(x):
        # at a ray's peak E(t y) = t^p E(y) = t^p gradient_E(y) . y / p (Euler)
        if not homogeneous or x is not ray["x"]:
            return value(x)
        return ray["t"] ** p * ray["gy"] / p - float(np.sum(reaction.G(x))) * hN

    def peak_gradient(x):
        if not homogeneous or x is not ray["x"]:
            return gradient(x)
        return ray["t"] ** (p - 1.0) * ray["gE"] - reaction.f(x) * hN

    if endpoint is None:
        base = bump(g, g.center, 0.6 * g.inradius, 1.0).values
        # the first doubling of the bump with a negative level; failing that,
        # the first halving (degenerate geometry)
        scales = [2.0 ** k for k in range(60)] + [0.5 ** k for k in range(1, 61)]
        lam = next((s for s in scales if value(s * base) < 0.0), None)
        if lam is None:
            raise ValidationError("could not scale the bump to a negative level")
        endpoint = GridFunction(g, lam * base)
    if value(endpoint.values) >= 0.0:
        raise ValidationError("endpoint must have negative level")

    x0 = peak(endpoint.values)
    if x0 is not None and ray["t"] >= 1.0:
        x0 = None
    eta_initial = 0.0 if x0 is None else peak_value(x0)
    if eta_initial <= 1e-12:
        return SolveReport(
            solution=GridFunction(g, np.zeros(g.n_nodes)),
            objective=0.0,
            residual_inf=float("inf"),
            iterations=0,
            converged=False,
            energy_E=0.0,
            integral_F=0.0,
            extras={"problem": "superlinear", "no_mountain_geometry": True, **admissibility},
        )

    x, iters, conv, info = _relaxed_newton(asm, peak_value, peak_gradient, x0, stop,
                                           max_iter, retract=peak, curvature=curvature,
                                           tangent=True)
    u = GridFunction(g, x)
    eta = info["objective_history"][-1]
    return SolveReport(
        solution=u,
        objective=eta,
        residual_inf=float(np.max(np.abs(apply_operator(asm, u).values - reaction.f(x)))),
        iterations=iters,
        converged=conv,
        energy_E=E_value(asm, u),
        integral_F=F_value(asm, u),
        extras={
            "problem": "superlinear",
            "eta": eta,
            "eta_initial": eta_initial,
            "no_mountain_geometry": False,
            "line_search_failure": info["line_search_failure"],
            **admissibility,
        },
    )


# ---------------------------------------------------------------------------
# eigenvalue problem
# ---------------------------------------------------------------------------


def solve_eigen(asm: EnergyAssembly, tol: float = 1e-8, max_iter: int = 20000,
                start: Optional[GridFunction] = None) -> SolveReport:
    """Minimize the Rayleigh quotient E(v)/F(v) on the unit-modular set
    F(v) = 1 by relaxed Newton steps (_relaxed_newton).

    Each trial point is renormalized to F(v) = 1 by the Luxemburg norm
    (closed form when p = q, else bisection on the scale factor).  The
    step gradient is r = gradient_E - lambda * gradient_F with the Lagrange
    multiplier lambda = gradient_E . v / gradient_F . v: the projection of
    gradient_E onto the tangent directions along v, which is the exact
    gradient of E after renormalization.  Converged means
    max|r| / h^N <= tol * (1 + |lambda| max|psi'(v)|).  With the relaxed
    Hessian of E as the matrix the steps are preconditioned inverse
    iteration (Knyazev and Neymeyr, Linear Algebra Appl. 358, 2003; Hein and
    Buhler, NIPS 2010).  For quadratic psi the unit step is exact inverse
    iteration, and the one factor serves the whole solve.  ``iterations``
    counts Newton steps.  ``lambda_weak`` is the multiplier and ``lambda1``
    = E/F; the eigenfunction is reported with nonnegative sign.  Each step
    costs one gradient pass, which also yields lambda and the residual, and
    the report reuses the loop's last energy pass."""
    hN = asm.h_pow_dim
    g = asm.grid
    state = {}
    # the last E_value pass, with the iterate it was taken at
    last = {}

    def normalize(x):
        u = GridFunction(g, x)
        k = luxemburg_norm_of(asm, u, rel_tol=1e-14)
        if k == 0.0:
            raise ValidationError("eigen iteration collapsed to zero")
        return x / k

    def value(x):
        last["E"] = x, E_value(asm, GridFunction(g, x))
        return last["E"][1]

    def gradient(x):
        dpsi = asm.young.deriv(x)
        gE = gradient_E(asm, GridFunction(g, x)).values
        lam = float(gE @ x) / (float(dpsi @ x) * hN)
        r = gE - lam * hN * dpsi
        state.update(x=x, lam=lam, resid=float(np.max(np.abs(r))) / hN,
                     scale=1.0 + abs(lam) * float(np.max(np.abs(dpsi))))
        return r

    def stop(x, r):
        # gradient(x) was the last gradient call: the loop calls stop on the
        # point it has just accepted
        return state["resid"] <= tol * state["scale"]

    x0 = normalize((start or _bump_start(asm)).values)
    x, iters, converged, info = _relaxed_newton(asm, value, gradient, x0, stop, max_iter,
                                                retract=normalize)
    if state["x"] is not x:
        gradient(x)  # a failed line search left the state at a rejected trial
    lam, resid = state["lam"], state["resid"]
    # the loop's pass at x, unless a failed line search took others since;
    # E is even, so the pass also holds at -x
    at, E = last["E"]
    if at is not x:
        E = E_value(asm, GridFunction(g, x))
    if float(np.sum(x)) < 0.0:
        x = -x
    u = GridFunction(g, x)
    F = F_value(asm, u)
    return SolveReport(
        solution=u,
        objective=E / F,
        residual_inf=resid,
        iterations=iters,
        converged=converged,
        energy_E=E,
        integral_F=F,
        extras={
            "problem": "eigen",
            "lambda1": E / F,
            "lambda_weak": lam,
            "min_value": float(np.min(x)),
            "line_search_failure": info["line_search_failure"],
        },
    )


# ---------------------------------------------------------------------------
# nonexistence-exponent and integrability reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PohozaevReport:
    applicable: bool
    note: str
    lhs: float = float("nan")
    rhs: float = float("nan")
    ratio: float = float("nan")
    delta: float = float("nan")
    critical_exponent: float = float("nan")


def pohozaev_check(asm: EnergyAssembly, reaction: ReactionSpec,
                   u: GridFunction) -> PohozaevReport:
    """Ratio of the two sides of the scaling (nonexistence) inequality for a
    computed solution: sum u f(u) against (N p / (N - delta)) sum G(u).

    Only meaningful for homogeneous Young functions (p = q) and kernels with a
    finite rescaling supremum; those failures are reported, not raised."""
    if not asm.young.homogeneous:
        return PohozaevReport(False, "inapplicable: Young function is not a pure power")
    prof = scaling_profile(asm.kernel)
    if not prof.finite:
        return PohozaevReport(False, "inapplicable: rescaling supremum is infinite")
    N = asm.grid.dim
    delta = float(prof.delta)
    if delta >= N:
        return PohozaevReport(False, f"inapplicable: delta={delta:.3g} >= N")
    if float(np.max(np.abs(u.values))) < 1e-12:
        return PohozaevReport(False, "trivial solution", delta=delta)
    hN = asm.h_pow_dim
    p = asm.young.p
    lhs = float(np.sum(u.values * reaction.f(u.values))) * hN
    rhs = N * p / (N - delta) * float(np.sum(reaction.G(u.values))) * hN
    return PohozaevReport(
        applicable=True,
        note="ok",
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs,
        delta=delta,
        critical_exponent=N * p / (N - delta),
    )


@dataclass(frozen=True)
class MoserReport:
    applicable: bool
    note: str
    m: float = float("nan")
    norms: tuple = ()
    fitted_exponent: float = float("nan")
    target_exponent: float = float("nan")
    sup_norms: tuple = ()
    sobolev_norms: tuple = ()


def moser_integrability_report(asm: EnergyAssembly, f: GridFunction, m: float,
                               scales=(1.0, 2.0, 4.0, 8.0), tol: float = 1e-8) -> MoserReport:
    """Data-to-solution integrability scaling for power-like nonlinearities.

    Solves the Dirichlet problem for s*f over the given scales and fits the
    growth exponent of the L^{m(p-1)} norm against the predicted 1/(p-1)."""
    Y = asm.young
    s_grid = np.logspace(-3, 3, 100)
    pinch = Y.deriv(s_grid) / s_grid ** (Y.p - 1.0)
    if pinch.max() / pinch.min() > 1e2:
        return MoserReport(False, "inapplicable: nonlinearity is not power-like")
    p = Y.p
    if m <= p / (p - 1.0):
        return MoserReport(False, f"inapplicable: m <= p/(p-1) = {p/(p-1.0):.4g}", m=m)
    hN = asm.h_pow_dim
    N = asm.grid.dim
    alpha = asm.kernel.alpha_order
    r_exp = m * (p - 1.0)
    norms, sups, sobs = [], [], []
    for s in scales:
        rep = solve_dirichlet(asm, GridFunction(asm.grid, s * f.values), tol=tol)
        uv = np.abs(rep.solution.values)
        norms.append(float((np.sum(uv ** r_exp) * hN) ** (1.0 / r_exp)))
        sups.append(float(uv.max()))
        if alpha is not None and m < N / alpha:
            r2 = m * (p - 1.0) * N / (N - m * alpha)
            sobs.append(float((np.sum(uv ** r2) * hN) ** (1.0 / r2)))
    if max(norms) == 0.0:
        return MoserReport(True, "zero data: all norms vanish", m=m,
                           norms=tuple(norms), fitted_exponent=float("nan"),
                           target_exponent=1.0 / (p - 1.0),
                           sup_norms=tuple(sups), sobolev_norms=tuple(sobs))
    fitted = _window_exponent(np.array(scales), np.array(norms))
    return MoserReport(
        applicable=True,
        note="ok",
        m=m,
        norms=tuple(norms),
        fitted_exponent=fitted,
        target_exponent=1.0 / (p - 1.0),
        sup_norms=tuple(sups),
        sobolev_norms=tuple(sobs),
    )
