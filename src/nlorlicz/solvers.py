"""Variational solvers for the nonlocal Dirichlet, reaction, and eigenvalue
problems, plus the solution-quality reports (uniqueness certificate,
nonexistence-exponent ratio, integrability scaling).

All four problems share one step loop, _relaxed_newton: relaxed Newton
steps on a dense weighted graph Laplacian with an Armijo line search.  For
quadratic psi that matrix is factored once per solve.  The superlinear
(mountain-pass) solve runs the loop on the peaks of rays, the local minimax
method of Li and Zhou, and the eigenvalue solve on the unit-modular set,
with every trial point renormalized.  The convergence metric is the
pointwise operator residual (gradient max-norm divided by the cell volume),
scaled by the data size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .energy import (
    EnergyAssembly,
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


def power_reaction(m: float) -> ReactionSpec:
    """f(t) = t^(m-1) on t > 0, zero elsewhere; G(t) = t^m / m."""
    if m <= 1.0:
        raise ValidationError("power reaction needs exponent m > 1")

    def f(t, m=m):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.0, np.where(t > 0.0, t, 1.0) ** (m - 1.0), 0.0)

    def G(t, m=m):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.0, np.where(t > 0.0, t, 1.0) ** m / m, 0.0)

    return ReactionSpec(f=f, G=G, name="power", params={"m": m})


# ---------------------------------------------------------------------------
# relaxed Newton engine
# ---------------------------------------------------------------------------

# below this fraction of |objective| a predicted decrease puts the Armijo
# margin (1e-4 of it) within a few dozen ulps of the objective
_ROUNDING = 1e-10


def _newton_matrix(asm: EnergyAssembly, x: np.ndarray, eps: float) -> np.ndarray:
    """Weighted graph Laplacian with pair weights w_ij * c(max(|x_i - x_j|, eps))
    plus the diagonal Lambda_i h^N c(max(|x_i|, eps)), where c is
    young.curvature.

    |x_i - x_j| and w_ij are bitwise symmetric, so each row block k:e
    evaluates c only on columns k:n and copies columns e:n into columns k:e
    of the rows below: about n(n+1)/2 pairs instead of n^2, with the lower
    half of each diagonal tile as the only repeats.  Rows k:e are then
    complete and are summed whole, as a full-square build sums them, so H
    has the same bits.  Built into a single n x n buffer, so the temporaries
    stay at block x n."""
    n = x.shape[0]
    H = np.empty((n, n))
    diag = np.empty(n)
    for k in range(0, n, BLOCK):
        e = min(k + BLOCK, n)
        t = np.abs(x[k:e, None] - x[None, k:])
        np.maximum(t, eps, out=t)
        rows = H[k:e]
        np.multiply(asm.young.curvature(t), asm.weights[k:e, k:], out=rows[:, k:])
        H[e:, k:e] = rows[:, e:].T
        diag[k:e] = rows.sum(axis=1)
        np.negative(rows, out=rows)
    diag += asm.young.curvature(np.maximum(np.abs(x), eps)) * asm.exterior * asm.h_pow_dim
    np.fill_diagonal(H, diag)
    return H


def _relaxed_newton(asm: EnergyAssembly, value, gradient, x0, stop, max_iter: int,
                    retract=None):
    """Lower value(x) from x0 by relaxed Newton steps until stop(x, gradient(x)).

    Each step solves H d = -gradient(x) with H = _newton_matrix, the relaxed
    curvature of E alone, which stays positive definite whatever the data or
    reaction term adds.  Its pair weights are young.curvature, the larger of
    psi'' and the secant weight psi'(t)/t: where psi' is concave (growth
    below 2) the secant weight contracts a near-zero difference in one step,
    where the plain Newton weight maps t to -t (p = 1.5) or farther out.
    eps starts at 1 and is halved after every step, down to one ulp of
    max|x| or to where the weights would overflow.  An Armijo
    search on value starts at the unit step; once the predicted decrease is
    below the rounding of value, a step must lower max|gradient| instead.
    With retract, each trial point x + t d is replaced by retract(x + t d)
    (None rejects it).  The slope stays gradient . d, which is exact when
    gradient is the gradient of value after retract (the eigen solve), or
    when retract maximizes value and its first-order condition holds at x
    (the mountain pass).

    When psi is quadratic, H is the same at every x and eps, so it is built
    and factored once and the factor is kept for the rest of this call.
    Otherwise each step builds and factors a fresh H and frees it before the
    energy passes of the line search.

    Returns (x, steps, converged, info) with the objective history and
    whether the line search failed."""
    x = np.array(x0, dtype=float)
    J, g = value(x), gradient(x)
    eps = 1.0
    info = {"line_search_failure": False, "objective_history": [J]}
    factor = None
    it = 0
    while True:
        if stop(x, g):
            return x, it, True, info
        if it >= max_iter:
            return x, it, False, info
        gmax = float(np.max(np.abs(g)))
        if factor is None:
            # differences below one ulp of the iterate are rounding noise
            eps = max(eps, np.finfo(float).eps * float(np.max(np.abs(x))))
            H = _newton_matrix(asm, x, eps)
            factor = H, cholesky_inplace(H)
            del H
        d = cholesky_solve(*factor, -g)
        if not asm.young.quadratic:
            factor = None  # free the n x n buffer before the line search
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
                # judge the step by the gradient instead
                g_new = gradient(x_new)
                if float(np.max(np.abs(g_new))) < gmax:
                    J_new = value(x_new)
                    break
            t *= 0.5
        else:
            info["line_search_failure"] = True
            return x, it, False, info
        x, J, g = x_new, J_new, g_new
        info["objective_history"].append(J)
        it += 1
        half = 0.5 * eps
        if np.all(np.isfinite(asm.young.curvature(np.array([half])))):
            eps = half


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

    The method is a relaxed Newton iteration (_relaxed_newton), after the
    relaxed Kacanov iteration of Diening, Fornasier, Tomasi and Wank
    (Numer. Math. 145, 2020), with the dense tiled Cholesky of
    nlorlicz.linalg, whose bits do not depend on the BLAS thread count.
    ``iterations`` counts Newton steps.
    """
    hN = asm.h_pow_dim
    grid = asm.grid
    fv = f.values
    scale = 1.0 + float(np.max(np.abs(fv)))

    def value(x):
        return E_value(asm, GridFunction(grid, x)) - float(fv @ x) * hN

    def gradient(x):
        return gradient_E(asm, GridFunction(grid, x)).values - fv * hN

    def stop(x, g):
        return float(np.max(np.abs(g))) / hN <= tol * scale

    x, iters, conv, info = _relaxed_newton(asm, value, gradient, np.zeros(grid.n_nodes),
                                           stop, max_iter)
    u = GridFunction(grid, x)
    gE = gradient_E(asm, u).values
    resid = float(np.max(np.abs(gE / hN - fv)))
    n = grid.n_nodes
    nodes = np.random.default_rng(2024).choice(n, size=min(20, n), replace=False)
    weak = float(np.max(np.abs(gE[nodes] - fv[nodes] * hN)))
    E = E_value(asm, u)
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
    For power reactions with a pure-power Young function, cross-checks the
    analytic ranges: the lower condition holds iff m < p, the intermediate
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

    if reaction.name == "power" and young.family == "power":
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
    max|Lu - f(u)| <= tol * (1 + max|f(u)|)."""
    hN = asm.h_pow_dim

    def value(x):
        return E_value(asm, GridFunction(asm.grid, x)) - float(np.sum(reaction.G(x))) * hN

    def gradient(x):
        return gradient_E(asm, GridFunction(asm.grid, x)).values - reaction.f(x) * hN

    def stop(x, g):
        scale = 1.0 + float(np.max(np.abs(reaction.f(x))))
        return float(np.max(np.abs(g))) / hN <= tol * scale

    return value, gradient, stop


def solve_sublinear(asm: EnergyAssembly, reaction: ReactionSpec, tol: float = 1e-7,
                    max_iter: int = 20000, start: Optional[GridFunction] = None) -> SolveReport:
    """Minimize E(v) - integral of G(v) by relaxed Newton steps
    (_relaxed_newton) from a positive unit-norm bump.

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
    value, gradient, stop = _reaction_objective(asm, reaction, tol)
    x0 = (start or _bump_start(asm)).values
    x, iters, conv, info = _relaxed_newton(asm, value, gradient, x0, stop, max_iter)

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


def _ray_peak(gradient, y: np.ndarray) -> Optional[float]:
    """The scale t > 0 where the objective peaks on the ray through y: the
    root of t -> gradient(t y) . y where it changes sign from + to -,
    bracketed by doubling or halving from t = 1 and refined by brentq.
    None when 60 doublings or halvings find no sign change."""

    @functools.lru_cache(maxsize=None)
    def slope(t):
        return float(gradient(t * y) @ y)

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
    There is no mountain-pass geometry when the endpoint's ray has no peak,
    peaks beyond the endpoint, or peaks at a level <= 1e-12.  ``eta`` is the
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
    value, gradient, stop = _reaction_objective(asm, reaction, tol)

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

    t0 = _ray_peak(gradient, endpoint.values)
    x0 = None if t0 is None or t0 >= 1.0 else t0 * endpoint.values
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

    def peak(y):
        t = _ray_peak(gradient, y)
        return None if t is None else t * y

    x, iters, conv, info = _relaxed_newton(asm, value, gradient, x0, stop, max_iter,
                                           retract=peak)
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
    (closed form for pure powers, else bisection on the scale factor).  The
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
    costs one gradient pass, which also yields lambda and the residual."""
    hN = asm.h_pow_dim
    g = asm.grid
    state = {}

    def normalize(x):
        u = GridFunction(g, x)
        k = luxemburg_norm_of(asm, u, rel_tol=1e-14)
        if k == 0.0:
            raise ValidationError("eigen iteration collapsed to zero")
        return x / k

    def value(x):
        return E_value(asm, GridFunction(g, x))

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
    if float(np.sum(x)) < 0.0:
        x = -x
    u = GridFunction(g, x)
    E = E_value(asm, u)
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

    Only meaningful for pure-power Young functions and kernels with a finite
    rescaling supremum; those failures are reported, not raised."""
    if asm.young.family != "power":
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
