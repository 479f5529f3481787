"""Variational solvers for the nonlocal Dirichlet, reaction, and eigenvalue
problems, plus the nonexistence-exponent report (pohozaev_check).

All four problems share one step loop, _relaxed_newton: relaxed Newton
steps on a dense weighted graph Laplacian with an Armijo line search, each
step solved by the rule that _relaxed_newton's docstring states.  This
module holds the step rule (_pcg, _newton_direction and _relaxed_newton),
one objective builder (_reaction_objective), one pass cache (_Passes) and
one report builder (_report).  Every solve takes E and its gradient through
the pass cache, both from one joint pass per point, and its report reads
them there: the joint pass, the Newton matrix, its matrix-free product and
the circulant preconditioner come from energy.py, which alone evaluates on
the pairs and on the FFT lattice.  The four objectives are E(v) minus a
reaction term, the cases of Lu = f that the paper treats: f = f(x) for the
Dirichlet solve, f = f(u) for the sublinear and superlinear solves, and the
generalized eigenvalue problem f(u) = lambda(u) psi'(u).  The superlinear
(mountain-pass) solve runs the loop on the peaks of rays, the local minimax
method of Li and Zhou, and the eigenvalue solve takes Newton steps on its
Lagrangian on the unit-modular set, with every trial point renormalized.
Neither keeps state beside the pass cache: the eigen multiplier and a ray's
peak scale are computed from the passes they need, which are cache hits at
an accepted point.  The convergence metric is the pointwise residual of
the objective (its gradient's max-norm divided by the cell volume), scaled
by the size of f; the report's residual_inf is that same quantity.  Every
dot product over the nodes is linalg.dot, a reduction in a fixed order: a
BLAS dot of more than 10 000 elements is threaded and changes its last bits
with the thread count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .energy import (
    EnergyAssembly,
    E_and_gradient,
    F_value,
    circulant_preconditioner,
    even_newton_product,
    gradient_E,
    luxemburg_norm_of,
    newton_matrix,
    quadratic_form_product,
)
from .errors import ValidationError
from .grid import GridFunction, bump
from .kernels import scaling_profile
from .linalg import cholesky_inplace, cholesky_solve, dot
from .young import YoungFunction, scale_root


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
    """Reaction term f with its antiderivative G.  f may depend on u (the
    power reactions, zero for negative arguments, as the reaction problems
    seek nonnegative solutions), only on x (solve_dirichlet's data), or be
    lambda(u) psi'(u) with the eigen multiplier lambda(u) (solve_eigen)."""

    f: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    params: dict = field(default_factory=dict)
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
# the floor of the CG solves' forcing term (_relaxed_newton)
_PCG_RTOL = 1e-13
_FORCING_CAP = 0.01
# most CG products of one Newton step (_pcg).  Measured per-step counts at
# 1D alpha = 0.5: 3 to 19 for Dirichlet steps on the circulant, 1 to 12 for
# reaction steps on the factor and up to 20 on the circulant (|s|^3 at
# n = 256 and 512).  It binds on the last Dirichlet steps from alpha = 1 up,
# which took 26 to 43 uncapped; the step counts held but at p = 2, n = 2048,
# alpha = 1.9, whose one step of 38 became two of 20
_CG_CAP = 20


def _pcg(apply, b: np.ndarray, solve, rtol: float, tangent=None):
    """Truncated preconditioned conjugate gradients for A d = b from d = 0:
    the truncated CG of Steihaug (SIAM J. Numer. Anal. 20, 1983), with
    apply(v) = A v for a symmetric A that may be indefinite and
    solve(r) = M^-1 r for a positive definite M.

    With tangent = (x, c) the iterates stay in the subspace c . d = 0: the
    preconditioner is P M^-1 P^T with P z = z - x (c . z) / (x . c), the
    projected PCG of Gould, Hribar and Nocedal (SIAM J. Sci. Comput. 23,
    2001).  Without it P is the identity.  The solve stops when the
    projected residual falls to ||P^T (b - A d)||_2 <= rtol ||P^T b||_2,
    after _CG_CAP products, or at the first search direction p with
    p.Ap <= 0.  That last stop returns the iterate so far, or at the first
    direction the preconditioned b itself.

    Every iterate minimizes d.Ad/2 - b.d over a subspace on which A is
    positive definite, so b.d = d.Ad > 0: each one is a descent direction,
    however early the solve stops, and so is P M^-1 P^T b.  Every dot
    product is linalg.dot, so the bits do not depend on thread counts."""
    if tangent is not None:
        x, c = tangent
        xc = dot(x, c)

    def project(r):  # P^T r
        return r if tangent is None else r - c * (dot(x, r) / xc)

    def lift(z):  # P z
        return z if tangent is None else z - x * (dot(c, z) / xc)

    d = np.zeros_like(b)
    r = b
    w = project(r)
    goal = rtol * rtol * dot(w, w)
    p = z = lift(solve(w))
    rz = dot(r, z)
    for k in range(_CG_CAP):
        q = apply(p)
        pq = dot(p, q)
        if pq <= 0.0:
            return d if k else z
        a = rz / pq
        d += a * p
        r = r - a * q  # not in place: solve and project may return r itself
        w = project(r)
        if dot(w, w) <= goal:
            break
        z = lift(solve(w))
        rz, rz_old = dot(r, z), rz
        p = z + (rz / rz_old) * p
    return d


def _newton_direction(asm: EnergyAssembly, x: np.ndarray, eps: float, g: np.ndarray,
                      rtol: float, circulant=None, L=None, D=None, tangent=None):
    """The direction of one step of _relaxed_newton, whose docstring states
    the step rule, with the factor L it used (None on the circulant): the
    solve of (H - diag(D)) d = -g by _pcg to rtol, with its iterates in the
    subspace c . d = 0 for c = tangent(x, apply), where apply(v) = H v.
    H = energy.newton_matrix(asm, x, eps), and this is the only place that
    builds and factors it.

    The product: for a polynomial psi (young.even_terms, |s|^2 included)
    H v comes from energy.even_newton_product, with no n x n matrix; at
    degree 2 that is 2 (d0 v - W v) with W v by FFT.  Otherwise H is built
    and freed on return, and applied by np.einsum with its default
    optimize=False, which runs numpy's own loop and never calls BLAS.  So it
    starts no threads, and its bits do not depend on the BLAS thread count:
    a BLAS H @ v of order 700 gave other bits at 2 and 3 OpenBLAS threads
    than at 1.  A built H that is also factored is copied first.

    The preconditioner M: the circulant of energy.circulant_preconditioner,
    scaled to diag H, when the caller passes it; without it the tiled
    Cholesky factor L of H, factored here when L is None.  With neither D
    nor the circulant, M is the factor of this very H, and the direction is
    cholesky_solve(L, -g), with no product and no tangent."""
    H = None
    if circulant is None and L is None:
        H = newton_matrix(asm, x, eps)
        L = H.copy() if D is not None and asm.young.even_terms is None else H
        cholesky_inplace(L)
    if circulant is None and D is None:
        return cholesky_solve(L, -g), L
    if asm.young.even_terms is not None:
        diag, apply = even_newton_product(asm, x, eps)
    else:
        H = newton_matrix(asm, x, eps) if H is None else H
        diag, apply = H.diagonal(), functools.partial(np.einsum, "ij,j->i", H)
    solve = functools.partial(cholesky_solve, L) if circulant is None else circulant(diag)
    product = apply if D is None else (lambda v: apply(v) - D * v)
    return _pcg(product, -g, solve, rtol, None if tangent is None else (x, tangent(x, apply))), L


def _relaxed_newton(asm: EnergyAssembly, value, gradient, x0, stop, max_iter: int,
                    retract=None, curvature=None, tangent=None):
    """Lower value(x) from x0 by relaxed Newton steps until stop(x, gradient(x)).

    H = energy.newton_matrix is the relaxed curvature of E, which stays positive
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
    preconditioner that _newton_direction picks.  D = curvature(x, eps) is
    the curvature that the objective takes off E's, so that H - diag(D) is
    the objective's Hessian: a reaction's f'(x) h^N, or the eigen solve's
    lambda psi''(max(|x|, eps)) h^N, relaxed at eps as H is; without
    curvature (Dirichlet) D = 0.  With tangent the CG iterates stay in the
    subspace c . d = 0, c = tangent(x, apply) with apply(v) = H v: H x for
    the mountain pass, whose objective peaks along the ray through x, and
    the constraint's gradient psi'(x) h^N for the eigen solve, which makes
    its steps Newton steps on the Lagrangian.  Every step is truncated: CG
    stops at a projected residual of rtol, after _CG_CAP products, or at
    negative curvature, and any iterate is a descent direction, so the line
    search is the same.
    - rtol is the Eisenstat-Walker forcing term ||g_k|| / ||g_0||, capped
      at _FORCING_CAP (SIAM J. Sci. Comput. 17, 1996) and floored at
      _PCG_RTOL.
    - The preconditioner M is chosen once, before the first step, and kept
      for every step.  It is energy.circulant_preconditioner from
      _PCG_MIN_NODES nodes and growth q >= _PCG_MIN_GROWTH up, where the
      circulant exists.  Below growth 2 CG steps made a p = 1.5 solve about
      3 times slower, and below 256 nodes they were no faster than the
      factor.  Otherwise M is the tiled Cholesky factor of H.  When psi is
      quadratic, H is the same at every x and eps, so it is built and
      factored once and kept for the rest of this call; otherwise each step
      builds and factors a fresh H and frees it before the energy passes of
      the line search.  Without curvature, M is then the factor of the
      step's own H and the step is its solve, with no CG product.  For a
      psi that is not an even polynomial, a step whose iterate spreads no
      more than eps (max x - min x <= eps: the first step from x0 = 0,
      say) gets its H as c(eps) W, with no walk of the curvature over the
      pairs (energy.newton_matrix).
    - At negative curvature on CG's first direction the step is the
      preconditioned gradient, which on the factor is the step of H alone.
      The steps of H alone converge at first order (for the sublinear
      t^(m-1) the error falls by a factor of about m - 1 per step), those
      with the curvature at second order: the benchmark's mountain pass at
      1D n = 128 went from 52 steps to 4, its sublinear solve at n = 256
      from 24 to 5, and the eigen solve at 1D n = 512, from a bump, from
      178 steps to 6 at p = 4 and from 26 to 8 at p = 2.
    The bits of the steps do not depend on the BLAS thread count.

    Returns (x, steps, converged, info) with the objective history and
    whether the line search failed."""
    x = np.array(x0, dtype=float)
    J, g = value(x), gradient(x)
    eps = 1.0
    info = {"line_search_failure": False, "objective_history": [J]}
    circulant = (circulant_preconditioner(asm) if x.size >= _PCG_MIN_NODES
                 and asm.young.q >= _PCG_MIN_GROWTH else None)
    g0_sq = dot(g, g)
    L = None
    it = 0
    while True:
        if stop(x, g):
            return x, it, True, info
        if it >= max_iter:
            return x, it, False, info
        g_sq = dot(g, g)
        # differences below one ulp of the iterate are rounding noise
        eps = max(eps, np.finfo(float).eps * float(np.max(np.abs(x))))
        forcing = min(_FORCING_CAP, np.sqrt(g_sq / g0_sq))
        d, L = _newton_direction(asm, x, eps, g, max(_PCG_RTOL, forcing), circulant, L,
                                 None if curvature is None else curvature(x, eps), tangent)
        if not asm.young.quadratic:
            L = None  # free the n x n buffer before the line search
        slope = dot(g, d)
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
                if dot(g_new, g_new) < g_sq:
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


class _Passes:
    """The pass cache of one solve: x -> (E(x), gradient_E(x)) of node values
    x, both from one energy.E_and_gradient pass (looked up in this module at
    each call).  It remembers its last point by the bytes of x, so that a
    step's value and gradient at one point, the stop rule, curvature and
    tangent at the point the loop has just accepted (the eigen multiplier
    among them), and a report at the solution share one pass; a report
    after a failed line search, whose last pass was at a rejected trial
    point, takes a fresh one.  With keep set it remembers every point until
    the caller empties memory: the mountain pass keeps the passes of the
    ray it searches, so a slope its peak search takes twice, and the peak
    itself, cost no second pass.  A hit returns the same objects, which
    callers must not write to.  A class and not a closure: a closure that
    reads its own attributes is a reference cycle, which holds the assembly
    until the garbage collector runs."""

    def __init__(self, asm: EnergyAssembly):
        self.asm, self.memory, self.keep = asm, {}, False

    def __call__(self, x):
        key = x.tobytes()
        if key not in self.memory:
            if not self.keep:
                self.memory.clear()
            E, G = E_and_gradient(self.asm, GridFunction(self.asm.grid, x))
            self.memory[key] = E, G.values
        return self.memory[key]


def _report(asm: EnergyAssembly, passes, x, iters, converged, info, objective, gradient,
            **extras) -> SolveReport:
    """The report at u = x of a solve whose objective has the gradient
    gradient: residual_inf is max|gradient(x)| / h^N, the quantity that the
    stop rules test, and E and the gradient come off the solve's passes."""
    u = GridFunction(asm.grid, x)
    return SolveReport(
        solution=u,
        objective=objective,
        residual_inf=float(np.max(np.abs(gradient(x)))) / asm.h_pow_dim,
        iterations=iters,
        converged=converged,
        energy_E=passes(x)[0],
        integral_F=F_value(asm, u),
        extras={**extras, "line_search_failure": info["line_search_failure"]},
    )


# ---------------------------------------------------------------------------
# Dirichlet problem with fixed data
# ---------------------------------------------------------------------------


def solve_dirichlet(asm: EnergyAssembly, f: GridFunction, tol: float = 1e-8,
                    max_iter: int = 20000) -> SolveReport:
    """Minimize the convex functional E(v) - <f, v> from the zero start: the
    reaction objective (_reaction_objective) of the reaction f(x), which
    does not depend on u, with G(x, v) = f(x) v and no curvature.

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
    fv = f.values
    value, gradient, stop, _, passes = _reaction_objective(
        asm, ReactionSpec(f=lambda x: fv, G=lambda x: fv * x), tol)
    n = asm.grid.n_nodes
    x, iters, conv, info = _relaxed_newton(asm, value, gradient, np.zeros(n), stop,
                                           max_iter)
    nodes = np.random.default_rng(2024).choice(n, size=min(20, n), replace=False)
    return _report(asm, passes, x, iters, conv, info, value(x), gradient, problem="dirichlet",
                   weak_form_residual=float(np.max(np.abs(gradient(x)[nodes]))))


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


def _torsion_start(asm: EnergyAssembly) -> np.ndarray:
    """The torsion function t = A^-1 h^N 1 of the quadratic energy's matrix
    A = diag(d0) - W (energy.quadratic_form_product), by one _pcg call to
    rtol 1e-2, preconditioned by the circulant scaled to d0, or by d0 where
    there is no circulant.  t is the landscape function of Filoche and
    Mayboroda (PNAS 109, 2012) and decays like the first eigenfunction,
    as delta^(alpha/2) at the boundary for the fractional kernel (Ros-Oton
    and Serra, J. Math. Pures Appl. 101, 2014)."""
    d0, apply = quadratic_form_product(asm)
    circulant = circulant_preconditioner(asm)
    solve = (lambda r: r / d0) if circulant is None else circulant(d0)
    return _pcg(apply, np.full(asm.grid.n_nodes, asm.h_pow_dim), solve, 1e-2)


def _reaction_objective(asm: EnergyAssembly, reaction: ReactionSpec, tol: float):
    """value, gradient and stop rule of E(v) - sum G(v) h^N, for a reaction
    f(u), for data f(x) with G(v) = f(x) v (solve_dirichlet), or for
    f(u) = lambda(u) psi'(u) with G = 0 (solve_eigen): converged when
    max|Lu - f(u)| <= tol * (1 + max|f(u)|); (x, eps) -> f'(x) h^N, the
    curvature the reaction takes off the Hessian of E, or None when the
    reaction has no df; and the passes (_Passes) that value and gradient
    go through."""
    hN = asm.h_pow_dim
    passes = _Passes(asm)

    def value(x):
        return passes(x)[0] - float(np.sum(reaction.G(x))) * hN

    def gradient(x):
        return passes(x)[1] - reaction.f(x) * hN

    def stop(x, g):
        scale = 1.0 + float(np.max(np.abs(reaction.f(x))))
        return float(np.max(np.abs(g))) / hN <= tol * scale

    def curvature(x, eps):
        return reaction.df(x) * hN

    return value, gradient, stop, None if reaction.df is None else curvature, passes


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
    value, gradient, stop, curvature, passes = _reaction_objective(asm, reaction, tol)
    x0 = (start or _bump_start(asm)).values
    x, iters, conv, info = _relaxed_newton(asm, value, gradient, x0, stop, max_iter,
                                           curvature=curvature)
    obj = info["objective_history"][-1]
    x_abs = np.abs(x)
    obj_abs = value(x_abs)
    if obj_abs <= obj + 1e-15 * (1.0 + abs(obj)):
        x, obj = x_abs, obj_abs
    trivial = float(np.max(np.abs(x))) <= 1e-9 and abs(obj) <= 1e-12
    return _report(asm, passes, x, iters, conv, info, obj, gradient,
                   problem="sublinear", trivial_solution=trivial, negative_level=obj < 0.0,
                   condition_report=report_cond)


# ---------------------------------------------------------------------------
# mountain-pass search
# ---------------------------------------------------------------------------


def _ray_peak(slope) -> Optional[float]:
    """The scale t > 0 where the objective peaks on a ray: the root of its
    slope t -> d/dt J(t y) where it changes sign from + to - (scale_root),
    or None when 60 doublings or halvings of t = 1, each a joint pass, find
    no sign change.  The root is refined to an absolute 1e-15: at 1e-300
    the mountain passes moved in their last bits, and the log-perturbed one
    took two more passes."""
    t = scale_root(slope, steps=60, xtol=1e-15)
    return t if 0.0 < t < np.inf else None


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
    t^(p-1) gradient_E(y) and E(t y) = t^p gradient_E(y) . y / p; the
    endpoint's ray reads that gradient off the joint pass of the endpoint's
    level, so every point costs one pass.  For any
    other psi each slope the search takes at a scale t is one joint pass of
    E and its gradient at t y, and the solve keeps the ray's passes, so the
    peak reads the pass the search took there.  There is no
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
    admissibility = {"condition_report": report_cond,
                     "outside_admissible_range": report_cond["rho_clause2_ok"] is False}
    value, gradient, stop, curvature, passes = _reaction_objective(asm, reaction, tol)
    # the passes of a ray's search stay until the next ray's, so its peak
    # reads the pass the search took there
    passes.keep = True
    hN = asm.h_pow_dim
    homogeneous, p = asm.young.homogeneous, asm.young.p

    def scale(y):  # the peak scale t of the ray through y, or None
        if not homogeneous:
            return _ray_peak(lambda t: dot(gradient(t * y), y))
        # E is p-homogeneous, so gradient_E(t y) = t^(p-1) gradient_E(y)
        # and only the reaction term depends on t.  A joint pass at y (the
        # endpoint's level) has gradient_E's bits
        hit = passes.memory.get(y.tobytes())
        gE = gradient_E(asm, GridFunction(g, y)).values if hit is None else hit[1]
        gy = dot(gE, y)
        t = _ray_peak(lambda t: t ** (p - 1.0) * gy - dot(reaction.f(t * y), y) * hN)
        if t is not None:
            # the peak's pass: E(t y) = t^p E(y) = t^p gradient_E(y) . y / p (Euler)
            passes.memory[(t * y).tobytes()] = t ** p * gy / p, t ** (p - 1.0) * gE
        return t

    def peak(y):  # the retract: a new ray, whose search keeps its own passes
        passes.memory.clear()
        t = scale(y)
        return None if t is None else t * y

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

    # the endpoint's ray keeps the passes so far: a non-homogeneous search
    # starts at t = 1, the pass of the endpoint's level
    t = scale(endpoint.values)
    x0 = None if t is None or t >= 1.0 else t * endpoint.values
    eta_initial = 0.0 if x0 is None else value(x0)
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
    if homogeneous:
        # the loop starts from a pass at x0, and the report reads one at its
        # point; the trial points read their peaks' closed forms
        passes.memory.clear()

    x, iters, conv, info = _relaxed_newton(asm, value, gradient, x0, stop, max_iter,
                                           retract=peak, curvature=curvature,
                                           tangent=lambda x, H: H(x))
    eta = info["objective_history"][-1]
    if homogeneous:
        passes.memory.clear()
    return _report(asm, passes, x, iters, conv, info, eta, gradient,
                   problem="superlinear", eta=eta, eta_initial=eta_initial,
                   no_mountain_geometry=False, **admissibility)


# ---------------------------------------------------------------------------
# eigenvalue problem
# ---------------------------------------------------------------------------


def solve_eigen(asm: EnergyAssembly, tol: float = 1e-8, max_iter: int = 20000,
                start: Optional[GridFunction] = None) -> SolveReport:
    """Minimize the Rayleigh quotient E(v)/F(v) on the unit-modular set
    F(v) = 1 by relaxed Newton steps (_relaxed_newton), by default from the
    torsion function of the quadratic energy (_torsion_start), normalized.

    The objective is the reaction objective (_reaction_objective) of
    f(v) = lambda(v) psi'(v) with G = 0, where the Lagrange multiplier
    lambda(v) = gradient_E(v) . v / (psi'(v) . v h^N) is read off the pass
    at v.  Its gradient gradient_E - lambda psi' h^N is the projection of
    gradient_E onto the tangent directions along v, which is the exact
    gradient of E after renormalization, and the gradient of the Lagrangian
    E - lambda (F - 1).  G = 0 is exact: every point the loop sees has
    F = 1, where the Lagrangian equals E.  So converged means
    max|Lv - lambda psi'(v)| <= tol * (1 + max|lambda psi'(v)|).
    The start and each trial point are normalized to F(v) = 1 by the
    Luxemburg norm (closed form when p = q, else young.scale_root on the
    scale factor).  The torsion start is the landscape function, whose
    boundary decay is the first eigenfunction's: at 1D n = 512 (fractional
    alpha = 0.5) the solve took 3 steps from it at p = 2, against 8 from a
    bump, 5 against 7 at p = 3, 5 against 8 for the log-perturbed (2, 1)
    and 7 against 6 at p = 4.  The steps are Newton steps on the
    Lagrangian restricted to the tangent space of F = 1, by projected PCG
    (Gould, Hribar and Nocedal, SIAM J. Sci. Comput. 23, 2001): the
    curvature lambda psi''(max(|v|, eps)) h^N is taken off the relaxed
    Hessian of E, and the CG iterates keep
    psi'(v) . d = 0.  Where psi has no deriv2 the steps take no curvature
    and converge at first order, as the nonlinear inverse iteration they
    replace (Hein and Buhler, NIPS 2010) does.
    ``iterations`` counts Newton steps.  ``lambda_weak`` is the multiplier
    and ``lambda1`` = E/F.  The eigenfunction is reported with nonnegative
    sign, flipped after the report has read the loop's last pass: E, F, the
    multiplier and the residual are even in v.  Each point costs one joint
    pass of E and its gradient."""
    hN = asm.h_pow_dim
    young = asm.young

    def normalize(x):
        k = luxemburg_norm_of(asm, GridFunction(asm.grid, x), rel_tol=1e-14)
        if k == 0.0:
            raise ValidationError("eigen iteration collapsed to zero")
        return x / k

    # lambda(x) from the objective's pass at x (passes is bound below): at
    # the point the loop has just accepted, the pass its line search took
    def multiplier(x, dpsi):
        return dot(passes(x)[1], x) / (dot(dpsi, x) * hN)

    def f(x):
        dpsi = young.deriv(x)
        return multiplier(x, dpsi) * dpsi

    def curvature(x, eps):  # lambda F''(x), relaxed at eps as H is
        return multiplier(x, young.deriv(x)) * young.deriv2(np.maximum(np.abs(x), eps)) * hN

    value, gradient, stop, _, passes = _reaction_objective(
        asm, ReactionSpec(f=f, G=lambda x: 0.0), tol)
    x0 = normalize(_torsion_start(asm) if start is None else start.values)
    x, iters, conv, info = _relaxed_newton(
        asm, value, gradient, x0, stop, max_iter, retract=normalize,
        curvature=curvature if young.deriv2 else None,
        tangent=lambda x, H: young.deriv(x) * hN)
    rep = _report(asm, passes, x, iters, conv, info, None, gradient, problem="eigen",
                  lambda_weak=multiplier(x, young.deriv(x)))
    lam1 = rep.energy_E / rep.integral_F
    u = rep.solution if float(np.sum(x)) >= 0.0 else GridFunction(asm.grid, -x)
    return replace(rep, solution=u, objective=lam1,
                   extras={**rep.extras, "lambda1": lam1, "min_value": float(np.min(u.values))})


# ---------------------------------------------------------------------------
# nonexistence-exponent report
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
    lhs = dot(u.values, reaction.f(u.values)) * hN
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
