"""Young-function calculus for Orlicz-type energies.

Provides the class of normalized Young functions trapped between two powers
(growth exponents ``q <= s*V'(s)/V(s) <= p``), their characteristic bounds
(inf/sup of ``V(s*x)/V(x)`` over ``x``), the complementary (conjugate)
function, Luxemburg-norm bisection, and the Clarkson-type calculus
inequalities used by the uniqueness certificates.

All evaluators accept numpy arrays.  Instances are immutable after
construction and every operation here is pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .errors import BracketingError, ValidationError

# sample grid used for construction-time checks of the growth-ratio bounds
_CHECK_GRID = np.logspace(-4.0, 4.0, 1000)

# base grid for characteristic-function extremization: 64 points per decade
_CHAR_GRID = np.logspace(-6.0, 6.0, 64 * 12 + 1)

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class YoungFunction:
    """A normalized convex Young function with power-type growth bounds.

    ``value`` evaluates the function itself, ``deriv`` its first derivative
    (odd, nondecreasing), ``deriv2`` the second derivative when the family
    has one in closed form.  ``curvature`` is the relaxed-Newton pair weight
    max(deriv2(t), deriv(t)/t), defined for t > 0 only; families without a
    closed-form deriv2 use deriv(t)/t.  ``q <= p`` are the tightest growth
    exponents: ``q <= s*deriv(s)/value(s) <= p`` away from zero.
    """

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    curvature: Callable[[np.ndarray], np.ndarray]
    p: float
    q: float
    family: str
    params: dict = field(default_factory=dict)
    deriv2: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def quadratic(self) -> bool:
        """True for |s|^2, the one family member with constant second
        derivative: the energy is then a quadratic form, and its Newton
        matrix is the same at every point."""
        return self.family == "power" and self.p == 2.0

    def ratio(self, s):
        """Growth ratio s*deriv(s)/value(s), defined for s != 0."""
        s = np.asarray(s, dtype=float)
        return s * self.deriv(s) / self.value(s)

    def __hash__(self):
        return hash((self.family, tuple(sorted(self.params.items())), self.p, self.q))


@dataclass(frozen=True)
class CharacteristicBounds:
    """Pointwise characteristic bounds gamma-(s), gamma+(s) of a Young function."""

    gamma_minus: Callable[[float], float]
    gamma_plus: Callable[[float], float]


@dataclass(frozen=True)
class ComplementaryFunction:
    """Conjugate Young function of a YoungFunction.

    ``phi`` is normalized to phi(1) = 1 by rescaling of its *argument*;
    ``phi_raw`` is the exact Legendre conjugate, the one that realizes
    equality in the Young inequality at b = deriv(|a|)*sign(a).
    """

    phi: Callable[[np.ndarray], np.ndarray]
    phi_raw: Callable[[np.ndarray], np.ndarray]
    p_conj: float
    q_conj: float
    arg_scale: float
    deriv_inverse: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ClarksonReport:
    """One evaluation of the Clarkson-type difference inequalities.

    ``left`` is (deriv(a)-deriv(b))*(a-b).  Right-hand sides are None when the
    corresponding structural condition fails (or cannot be sampled because the
    second derivative is unavailable); in that case the matching entry of
    ``conditions`` explains why.
    """

    a: float
    b: float
    left: float
    rhs_convex_sqrt: Optional[float]
    rhs_concave: Optional[float]
    rhs_singular: Optional[float]
    conditions: dict
    c_singular: Optional[float]


def _normalize_scale(raw_value, lo=1e-8, hi=1e8):
    """Solve raw_value(t0) = 1 for the argument rescale t0."""
    flo, fhi = raw_value(lo), raw_value(hi)
    while flo > 1.0:
        lo *= 0.5
        flo = raw_value(lo)
        if lo < 1e-290:
            raise ValidationError("cannot normalize: value does not drop below 1")
    while fhi < 1.0:
        hi *= 2.0
        fhi = raw_value(hi)
        if hi > 1e290:
            raise ValidationError("cannot normalize: value does not exceed 1")
    return brentq(lambda t: raw_value(t) - 1.0, lo, hi, xtol=1e-300, rtol=8.9e-16)


def _validate(fn: YoungFunction, tol=1e-9):
    """Construction-time checks of the growth-class membership on a sample grid."""
    s = _CHECK_GRID
    v = fn.value(s)
    d = fn.deriv(s)
    if not np.all(np.isfinite(v)) or not np.all(np.isfinite(d)):
        raise ValidationError("Young function evaluators returned non-finite values")
    if fn.value(np.array(0.0)) != 0.0:
        raise ValidationError("violates Young-class condition value(0) = 0")
    if abs(fn.value(np.array(1.0)) - 1.0) > 1e-9:
        raise ValidationError("violates normalization value(1) = 1")
    if np.any(np.abs(fn.value(-s) - v) > tol * (1.0 + v)):
        raise ValidationError("violates symmetry value(-s) = value(s)")
    if np.any(np.diff(d) < -tol * (1.0 + d[1:])):
        raise ValidationError("violates convexity: derivative not nondecreasing")
    r = s * d / v
    if np.any(r < fn.q - 1e-7) or np.any(r > fn.p + 1e-7):
        raise ValidationError(
            "violates growth-ratio bounds: sampled s*deriv/value leaves "
            f"[{fn.q}, {fn.p}] (range [{r.min()}, {r.max()}])"
        )


def make_young(family: str, **params) -> YoungFunction:
    """Construct a Young function from one of the built-in families.

    Families:
      power       -- |s|^p, requires p > 1
      power_sum   -- sum of k_i |s|^{p_i}, argument-rescaled to value(1) = 1
      log_perturbed -- |s|^p * log(1+|s|)^r, argument-rescaled; needs min(p, p+r) > 1
      custom      -- caller-supplied evaluators, already normalized; growth
                     exponents estimated by sampling with a 1% safety margin

    Raises ValidationError naming the violated class condition.
    """
    if family == "power":
        p = float(params["p"])
        if p <= 1.0:
            raise ValidationError("violates q > 1: power exponent must exceed 1")
        fn = YoungFunction(
            value=lambda s, p=p: np.abs(s) ** p,
            deriv=lambda s, p=p: p * np.abs(s) ** (p - 1.0) * np.sign(s),
            deriv2=lambda s, p=p: p * (p - 1.0) * np.abs(s) ** (p - 2.0),
            # deriv2 is the larger exactly when p >= 2; one pow either way
            curvature=(lambda t, p=p: p * (p - 1.0) * t ** (p - 2.0)) if p >= 2.0
            else (lambda t, p=p: p * t ** (p - 1.0) / t),
            p=p,
            q=p,
            family="power",
            params={"p": p},
        )

    elif family == "power_sum":
        terms = [(float(k), float(pi)) for k, pi in params["terms"]]
        if not terms or any(k <= 0.0 for k, _ in terms):
            raise ValidationError("power_sum needs positive coefficients")
        if any(pi <= 1.0 for _, pi in terms):
            raise ValidationError("violates q > 1: all power_sum exponents must exceed 1")
        ks = np.array([k for k, _ in terms])
        ps = np.array([pi for _, pi in terms])

        def raw(t):
            return float(np.sum(ks * t ** ps))

        t0 = _normalize_scale(raw)
        kt = ks * t0 ** ps
        kt = kt / kt.sum()  # exact value(1) = 1
        c2 = kt * ps * (ps - 1.0)

        def curvature(t, kt=kt, ps=ps, c2=c2):
            # deriv(t)/t shares deriv2's powers t^(p_i - 2), and is never the
            # larger when every p_i >= 2
            tp = t[None] ** (ps - 2.0).reshape((-1,) + (1,) * np.ndim(t))
            d2 = np.einsum("i,i...->...", c2, tp)
            if ps.min() >= 2.0:
                return d2
            return np.maximum(d2, np.einsum("i,i...->...", kt * ps, tp))

        fn = YoungFunction(
            value=lambda s, kt=kt, ps=ps: np.einsum(
                "i,i...->...", kt, np.abs(s)[None] ** ps.reshape((-1,) + (1,) * np.ndim(s))
            ),
            deriv=lambda s, kt=kt, ps=ps: np.sign(s)
            * np.einsum(
                "i,i...->...",
                kt * ps,
                np.abs(s)[None] ** (ps - 1.0).reshape((-1,) + (1,) * np.ndim(s)),
            ),
            deriv2=lambda s, ps=ps, c2=c2: np.einsum(
                "i,i...->...",
                c2,
                np.abs(s)[None] ** (ps - 2.0).reshape((-1,) + (1,) * np.ndim(s)),
            ),
            curvature=curvature,
            p=float(ps.max()),
            q=float(ps.min()),
            family="power_sum",
            params={"terms": tuple(zip(ks.tolist(), ps.tolist())), "arg_scale": t0},
        )

    elif family == "log_perturbed":
        p = float(params["p"])
        r = float(params["r"])
        c = float(params.get("c", 1.0))
        if c <= 0.0:
            raise ValidationError("log_perturbed needs a positive coefficient")
        if min(p, p + r) <= 1.0:
            raise ValidationError(
                "violates q > 1: log_perturbed requires min(p, p+r) > 1 "
                f"(got p={p}, r={r})"
            )

        def raw(t, c=c, p=p, r=r):
            return c * t ** p * np.log1p(t) ** r

        t0 = _normalize_scale(lambda t: float(raw(t)))

        # at a = 0 the formulas below meet 0^(r-1) = inf (r < 1) and 0 * inf;
        # those entries are replaced by the limit 0
        def value(s, t0=t0, c=c, p=p, r=r):
            a = t0 * np.abs(np.asarray(s, dtype=float))
            with np.errstate(divide="ignore", invalid="ignore"):
                out = c * a ** p * np.log1p(a) ** r
            out = np.where(a > 0.0, out, 0.0)
            return out if out.ndim else float(out)

        def deriv(s, t0=t0, c=c, p=p, r=r):
            s = np.asarray(s, dtype=float)
            a = t0 * np.abs(s)
            with np.errstate(divide="ignore", invalid="ignore"):
                L = np.log1p(a)
                out = t0 * c * a ** (p - 1.0) * L ** (r - 1.0) * (p * L + r * a / (1.0 + a))
            out = np.where(a > 0.0, out, 0.0) * np.sign(s)
            return out if out.ndim else float(out)

        def deriv2(s, t0=t0, c=c, p=p, r=r):
            a = t0 * np.abs(np.asarray(s, dtype=float))
            out = np.zeros_like(a)
            nz = a > 0.0
            an, L = a[nz], np.log1p(a[nz])
            g = an / (1.0 + an)
            out[nz] = (
                t0 ** 2
                * c
                * an ** (p - 2.0)
                * L ** (r - 2.0)
                * (
                    (p - 1.0) * L * (p * L + r * g)
                    + r * g * (p * L + (r - 1.0) * g)
                    + r * L * g / (1.0 + an)
                )
            )
            return out if out.ndim else float(out)

        def curvature(t, t0=t0, c=c, p=p, r=r):
            # deriv2's expression, and deriv(t)/t from the same two powers:
            # deriv(t)/t = t0^2 c a^(p-2) (p L + r g) L^(r-2) L
            a = t0 * t
            L = np.log1p(a)
            a1 = 1.0 + a
            g = a / a1
            A = t0 ** 2 * c * a ** (p - 2.0)
            Lr = L ** (r - 2.0)
            pL, rg = p * L, r * g
            pLrg = pL + rg
            d2 = A * Lr * ((p - 1.0) * L * pLrg + rg * (pL + (r - 1.0) * g) + r * L * g / a1)
            return np.maximum(d2, A * pLrg * (Lr * L))

        fn = YoungFunction(
            value=value,
            deriv=deriv,
            deriv2=deriv2,
            curvature=curvature,
            # ratio(s) = p + r * h(s) with h decreasing from 1 to 0, so the
            # tightest constants are the two limits
            p=max(p, p + r),
            q=min(p, p + r),
            family="log_perturbed",
            params={"p": p, "r": r, "c": c, "arg_scale": t0},
        )

    elif family == "custom":
        value = params["value"]
        deriv = params["deriv"]
        deriv2 = params.get("deriv2")
        s = _CHECK_GRID
        r = s * deriv(s) / value(s)
        if np.any(~np.isfinite(r)):
            raise ValidationError("custom evaluators non-finite on the sample grid")
        # 1% safety margin, widening outward so sandwich-type uses stay valid
        q_est = float(r.min()) * 0.99
        p_est = float(r.max()) * 1.01
        if q_est <= 1.0:
            raise ValidationError(
                f"violates q > 1: sampled lower growth ratio is {r.min():.6g}"
            )
        if deriv2 is None:
            def curvature(t):
                return deriv(t) / t
        else:
            def curvature(t):
                return np.maximum(deriv2(t), deriv(t) / t)
        fn = YoungFunction(
            value=value,
            deriv=deriv,
            deriv2=deriv2,
            curvature=curvature,
            p=p_est,
            q=q_est,
            family="custom",
            params={"note": "growth exponents sampled with 1% margin"},
        )

    else:
        raise ValidationError(f"unknown Young-function family {family!r}")

    _validate(fn)
    return fn


# ---------------------------------------------------------------------------
# characteristic bounds
# ---------------------------------------------------------------------------


def _refine_extremum(ratio_of_logx, t_lo, t_hi, maximize, iters=60):
    """Golden-section search on log-x for the bracketed interior extremum."""
    sgn = -1.0 if maximize else 1.0
    a, b = t_lo, t_hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = sgn * ratio_of_logx(x1)
    f2 = sgn * ratio_of_logx(x2)
    for _ in range(iters):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = sgn * ratio_of_logx(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = sgn * ratio_of_logx(x2)
    return sgn * min(f1, f2)


def _char_extremum(g, s: float, maximize: bool) -> float:
    """inf or sup over x > 0 of g(s*x)/g(x), by log-grid scan plus refinement."""
    x = _CHAR_GRID
    vals = g(s * x) / g(x)
    idx = int(np.argmax(vals) if maximize else np.argmin(vals))
    best = float(vals[idx])
    if 0 < idx < len(x) - 1:
        t = np.log(x)

        def f(tt):
            xx = np.exp(tt)
            return float(g(np.array(s * xx)) / g(np.array(xx)))

        best_ref = _refine_extremum(f, t[idx - 1], t[idx + 1], maximize)
        best = max(best, best_ref) if maximize else min(best, best_ref)
    return best


def gamma_bounds(fn: YoungFunction, s: float) -> tuple[float, float]:
    """Characteristic bounds (gamma-(s), gamma+(s)) of the Young function.

    Exact for the power families (the extremes sit at the ends of the
    x-range); computed by scanning a 64-per-decade log grid with
    golden-section refinement otherwise.
    """
    if s <= 0.0:
        raise ValidationError("characteristic bounds need s > 0")
    if fn.family == "power":
        v = s ** fn.p
        return v, v
    if fn.family == "power_sum":
        lo, hi = s ** fn.q, s ** fn.p
        return min(lo, hi), max(lo, hi)
    gm = _char_extremum(fn.value, s, maximize=False)
    gp = _char_extremum(fn.value, s, maximize=True)
    return gm, gp


def gamma_bounds_deriv(fn: YoungFunction, s: float) -> tuple[float, float]:
    """Characteristic bounds of the *derivative* of the Young function."""
    if s <= 0.0:
        raise ValidationError("characteristic bounds need s > 0")
    if fn.family == "power":
        v = s ** (fn.p - 1.0)
        return v, v
    if fn.family == "power_sum":
        lo, hi = s ** (fn.q - 1.0), s ** (fn.p - 1.0)
        return min(lo, hi), max(lo, hi)
    gm = _char_extremum(fn.deriv, s, maximize=False)
    gp = _char_extremum(fn.deriv, s, maximize=True)
    return gm, gp


def gamma_plus_deriv(fn: YoungFunction, s) -> np.ndarray:
    """Vectorized gamma+ of the derivative; gamma+(0) = 0 by continuity."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    out = np.zeros_like(s)
    if fn.family == "power":
        out[s > 0] = s[s > 0] ** (fn.p - 1.0)
    elif fn.family == "power_sum":
        sp = s[s > 0]
        out[s > 0] = np.maximum(sp ** (fn.q - 1.0), sp ** (fn.p - 1.0))
    else:
        for i in np.nonzero(s > 0)[0]:
            out[i] = _char_extremum(fn.deriv, float(s[i]), maximize=True)
    return float(out[0]) if scalar else out


def characteristic_bounds(fn: YoungFunction) -> CharacteristicBounds:
    """Bundle the two characteristic maps of a Young function."""
    return CharacteristicBounds(
        gamma_minus=lambda s: gamma_bounds(fn, s)[0],
        gamma_plus=lambda s: gamma_bounds(fn, s)[1],
    )


@functools.lru_cache(maxsize=64)
def sv_delta(fn: YoungFunction) -> float:
    """inf over s > 0 of deriv(s)/gamma+_deriv(s), sampled on the log grid.

    This is the coefficient entering the generalized Stroock-Varopoulos
    inequality; it equals p for a pure power and min(k_1 p_1, k_M p_M) for a
    sum of powers.
    """
    if fn.family == "power":
        return fn.p
    s = _CHAR_GRID
    vals = fn.deriv(s) / gamma_plus_deriv(fn, s)
    idx = int(np.argmin(vals))
    best = float(vals[idx])
    if 0 < idx < len(s) - 1:
        t = np.log(s)

        def f(tt):
            x = float(np.exp(tt))
            return float(fn.deriv(np.array(x))) / gamma_plus_deriv(fn, x)

        best = min(best, _refine_extremum(f, t[idx - 1], t[idx + 1], maximize=False))
    return best


# ---------------------------------------------------------------------------
# complementary function and Luxemburg norm
# ---------------------------------------------------------------------------


def _deriv_inverse(fn: YoungFunction, t, iters=80):
    """Inverse of the (strictly increasing) derivative, by vectorized bisection."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    hi = np.ones_like(t)
    for _ in range(600):
        need = fn.deriv(hi) < t
        if not need.any():
            break
        hi[need] *= 2.0
        if hi.max() > 1e290:
            raise BracketingError(
                "derivative appears bounded; cannot invert (excluded for the "
                "admissible Young class, which has unbounded odd derivative)"
            )
    lo = np.zeros_like(t)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = fn.deriv(mid) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def complementary(fn: YoungFunction) -> ComplementaryFunction:
    """Conjugate Young function, argument-rescaled so that phi(1) = 1.

    For a pure power |s|^p the conjugate is closed-form:
    phi_raw(b) = (p-1) (|b|/p)^(p/(p-1)), deriv^{-1}(t) = (|t|/p)^(1/(p-1)),
    and the rescale is p (p-1)^(-(p-1)/p).  Otherwise the raw conjugate is
    evaluated through the Legendre identity phi_raw(b) = a*b - value(a) at
    a = deriv^{-1}(|b|), with the inverse derivative obtained by monotone
    bisection (80 iterations), and the rescale by root finding.
    """
    if fn.family == "power":
        p = fn.p

        def phi_raw(b):
            out = (p - 1.0) * (np.abs(np.asarray(b, dtype=float)) / p) ** (p / (p - 1.0))
            return out if out.ndim else float(out)

        def deriv_inverse(t):
            return (np.abs(np.asarray(t, dtype=float)) / p) ** (1.0 / (p - 1.0))

        b0 = p * (p - 1.0) ** (-(p - 1.0) / p)
    else:
        def phi_raw(b):
            b = np.asarray(b, dtype=float)
            scalar = b.ndim == 0
            ab = np.atleast_1d(np.abs(b)).astype(float)
            a = _deriv_inverse(fn, ab)
            out = a * ab - fn.value(a)
            out = np.maximum(out, 0.0)
            return float(out[0]) if scalar else out.reshape(np.shape(b))

        def deriv_inverse(t):
            return _deriv_inverse(fn, t)

        b0 = _normalize_scale(lambda t: float(phi_raw(t)))

    def phi(b):
        return phi_raw(np.asarray(b, dtype=float) * b0)

    return ComplementaryFunction(
        phi=phi,
        phi_raw=phi_raw,
        p_conj=fn.p / (fn.p - 1.0),
        q_conj=fn.q / (fn.q - 1.0),
        arg_scale=b0,
        deriv_inverse=deriv_inverse,
    )


def luxemburg_norm(modular: Callable[[float], float], rel_tol=1e-10) -> float:
    """inf of k > 0 with modular(k) <= 1, for a nonincreasing modular map.

    ``modular`` is the map k -> F(u/k) for the fixed function u.  Returns 0
    when the modular is already below 1 for arbitrarily small k (the zero
    function).
    """
    hi = 1.0
    for _ in range(2000):
        if modular(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise BracketingError("modular does not drop below 1")
    lo = hi
    for _ in range(2000):
        lo *= 0.5
        if modular(lo) > 1.0:
            break
        if lo < 1e-300:
            return 0.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if modular(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Clarkson-type inequalities
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def clarkson_conditions(fn: YoungFunction) -> dict:
    """Sampled structural conditions for the three Clarkson cases.

    Returns flags for: the sqrt-convexity condition s*deriv2(s)/deriv(s) >= 1,
    concavity of the derivative on (0, inf), and the singular power-like
    pinch c1 |s|^{p-2} <= deriv2 <= c2 |s|^{p-2} with 1 < p < 2.
    """
    s = np.logspace(-6.0, 6.0, 400)
    out = {"sqrt_convex": None, "deriv_concave": None, "power_pinch": None}
    if fn.deriv2 is None:
        out["note"] = "second derivative unavailable; cases ii/iii not checkable"
        return out
    d1 = fn.deriv(s)
    d2 = fn.deriv2(s)
    out["sqrt_convex"] = bool(np.all(s * d2 >= d1 * (1.0 - 1e-9)))
    out["deriv_concave"] = bool(np.all(np.diff(d2) <= 1e-9 * (1.0 + np.abs(d2[1:]))))
    pinch = d2 * s ** (2.0 - fn.p)
    ok = (
        1.0 < fn.p < 2.0
        and np.all(pinch > 0.0)
        and pinch.max() / pinch.min() < 1e6
    )
    out["power_pinch"] = bool(ok)
    if ok:
        out["pinch_c1"] = float(pinch.min())
        out["pinch_c2"] = float(pinch.max())
    return out


@functools.lru_cache(maxsize=64)
def calibrate_singular_constant(fn: YoungFunction, span=5.0, n=200) -> float:
    """Constant for the singular-case Clarkson bound, fitted once per function.

    The inequality only asserts existence of the constant, so it is taken as
    the infimum of left/right over an n-by-n grid of (a, b) pairs plus
    near-diagonal pairs (the ratio's infimum sits on the diagonal limit
    b -> a), and then validated on fresh samples by the callers.
    """
    a = np.linspace(-span, span, n)
    A, B = np.meshgrid(a, a)
    A, B = A.ravel(), B.ravel()
    eps = 1e-5 * (1.0 + np.abs(a))
    A = np.concatenate([A, a, a])
    B = np.concatenate([B, a + eps, a - eps])
    mask = np.abs(A - B) > 1e-9
    A, B = A[mask], B[mask]
    left = (fn.deriv(A) - fn.deriv(B)) * (A - B)
    denom = (fn.value(A) + fn.value(B)) ** ((2.0 - fn.p) / fn.p)
    right0 = fn.value(A - B) ** (2.0 / fn.p) / denom
    good = right0 > 0.0
    return float(np.min(left[good] / right0[good])) * (1.0 - 1e-9)


def clarkson_gap(fn: YoungFunction, a: float, b: float) -> ClarksonReport:
    """Evaluate the difference-monotonicity inequalities at the pair (a, b).

    left = (deriv(a) - deriv(b))*(a - b); each applicable right-hand side is
    reported, or None together with the failed condition.
    """
    conditions = dict(clarkson_conditions(fn))
    left = float((fn.deriv(np.array(a)) - fn.deriv(np.array(b))) * (a - b))

    rhs1 = None
    if conditions.get("sqrt_convex"):
        rhs1 = float(4.0 * fn.value(np.array((a - b) / 2.0)))

    rhs2 = None
    if conditions.get("deriv_concave") and fn.deriv2 is not None:
        if abs(a) + abs(b) == 0.0:
            rhs2 = 0.0
        else:
            rhs2 = float(fn.deriv2(np.array(abs(a) + abs(b))) * (a - b) ** 2)

    rhs3 = None
    c3 = None
    if conditions.get("power_pinch"):
        c3 = calibrate_singular_constant(fn)
        denom = float((fn.value(np.array(a)) + fn.value(np.array(b))))
        if denom > 0.0:
            rhs3 = float(
                c3 * fn.value(np.array(a - b)) ** (2.0 / fn.p)
                / denom ** ((2.0 - fn.p) / fn.p)
            )
        elif a == b == 0.0:
            rhs3 = 0.0
    return ClarksonReport(
        a=a,
        b=b,
        left=left,
        rhs_convex_sqrt=rhs1,
        rhs_concave=rhs2,
        rhs_singular=rhs3,
        conditions=conditions,
        c_singular=c3,
    )
