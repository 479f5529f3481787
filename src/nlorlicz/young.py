"""Young-function calculus for Orlicz-type energies.

Provides the class of normalized Young functions trapped between two powers
(growth exponents ``q <= s*V'(s)/V(s) <= p``), their characteristic bounds
(inf/sup of ``V(s*x)/V(x)`` over ``x``), the complementary (conjugate)
function, the Luxemburg norm, and the Clarkson-type calculus inequalities.
One scale search, scale_root, finds the Luxemburg norm, the argument
rescalings that normalize psi and its conjugate, and the peak of a ray in
the mountain-pass solve.

All evaluators accept numpy arrays.  Instances are immutable after
construction and every operation here is pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import BracketingError, ValidationError

# sample grid used for construction-time checks of the growth-ratio bounds
_CHECK_GRID = np.logspace(-4.0, 4.0, 1000)

# base grid for characteristic-function extremization: 64 points per decade
_CHAR_GRID = np.logspace(-6.0, 6.0, 64 * 12 + 1)

# the smallest relative tolerance brentq accepts
_RTOL = 4.0 * np.finfo(float).eps

# the degrees whose binomial expansion (energy._pair_pass) keeps the
# gradient well inside 1e-10 of max|gradient| of the triangle pass: 2.4e-11
# at degree 6, against 5.4e-11 and 9.4e-11 at degrees 8 and 10
_EVEN_DEGREES = (2.0, 4.0, 6.0)

# the pair grid of calibrate_singular_constant: its extent and its nodes
# per axis
_SINGULAR_SPAN = 5.0
_SINGULAR_NODES = 200


@dataclass(frozen=True)
class YoungFunction:
    """A normalized convex Young function with power-type growth bounds.

    ``value`` evaluates the function itself, ``deriv`` its first derivative
    (odd, nondecreasing), ``deriv2`` the second derivative when the family
    has one in closed form.  ``curvature`` is the relaxed-Newton pair weight
    max(deriv2(t), deriv(t)/t), defined for t > 0 only; families without a
    closed-form deriv2 use deriv(t)/t.  ``q <= p`` are the tightest growth
    exponents: ``q <= s*deriv(s)/value(s) <= p`` away from zero.
    ``power_terms`` holds the (degree, coefficient) pairs of value when it
    is a sum of c |s|^d, and is None otherwise; the characteristic bounds
    are then exact powers.  ``even_terms`` is power_terms when every degree
    is in {2, 4, 6}: the pair passes and the Newton product are then exact
    convolutions (energy._pair_pass).  ``quadratic`` (every degree is 2)
    and ``homogeneous`` (p == q, value = |s|^p) are read off these fields
    and select every closed form; ``family`` is a label only.  ``joint``,
    optional, gives (value(s), deriv(s)) with the bits of the two calls and
    shares their work (value_and_deriv).
    """

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    curvature: Callable[[np.ndarray], np.ndarray]
    p: float
    q: float
    family: str
    params: dict = field(default_factory=dict)
    deriv2: Optional[Callable[[np.ndarray], np.ndarray]] = None
    power_terms: Optional[tuple] = None
    joint: Optional[Callable[[np.ndarray], tuple]] = None

    def value_and_deriv(self, s):
        """(value(s), deriv(s)), bit for bit: one joint call where the
        family has one, else the two calls."""
        if self.joint is None:
            return self.value(s), self.deriv(s)
        return self.joint(s)

    @functools.cached_property
    def even_terms(self) -> Optional[tuple]:
        """power_terms with integer degrees when every degree is in
        _EVEN_DEGREES, else None."""
        if self.power_terms is None or any(d not in _EVEN_DEGREES for d, _ in self.power_terms):
            return None
        return tuple((int(d), c) for d, c in self.power_terms)

    @property
    def quadratic(self) -> bool:
        """True when value is |s|^2, however spelled: every degree of
        power_terms is 2, and value(1) = 1 makes the coefficients sum to 1 up
        to rounding.  The energy is then a quadratic form, and its Newton
        matrix is the same at every point."""
        return self.power_terms is not None and all(d == 2 for d, _ in self.power_terms)

    @property
    def homogeneous(self) -> bool:
        """True when value is p-homogeneous, value(t s) = t^p value(s): the
        growth exponents meet, p == q."""
        return self.p == self.q

    def ratio(self, s):
        """Growth ratio s*deriv(s)/value(s), defined for s != 0."""
        s = np.asarray(s, dtype=float)
        return s * self.deriv(s) / self.value(s)

    def __hash__(self):
        return hash((self.family, tuple(sorted(self.params.items())), self.p, self.q))


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


def scale_root(g: Callable[[float], float], steps: int = 1000, xtol: float = 1e-300,
               rtol: float = _RTOL) -> float:
    """The scale t > 0 where g changes sign from + to -, for a g that is
    positive below that scale and not above it: bracketed by doubling or
    halving t from 1, at most `steps` times, and refined by brentq to
    xtol + rtol * t.  0.0 when g is not positive down to t = 2^-steps, inf
    when it is positive up to 2^steps.  g is taken once per scale, so
    brentq reads the bracket ends that the bracketing took."""
    g = functools.cache(g)
    lo = hi = 1.0
    rising = g(1.0) > 0.0
    for _ in range(steps):
        if rising:
            lo, hi = hi, 2.0 * hi
            if g(hi) <= 0.0:
                break
        else:
            lo, hi = 0.5 * lo, lo
            if g(lo) > 0.0:
                break
    else:
        return np.inf if rising else 0.0
    # brentq's wrapper of its function is a reference cycle, which would
    # hold g, and through it the caller's state, until the garbage
    # collector runs: g goes in args, and the function holds nothing
    return brentq(lambda t, g: g(t), lo, hi, args=(g,), xtol=xtol, rtol=rtol)


def _normalize_scale(raw_value):
    """Solve raw_value(t0) = 1 for the argument rescale t0 of an increasing
    raw_value (scale_root)."""
    t0 = scale_root(lambda t: 1.0 - raw_value(t))
    if t0 == 0.0:
        raise ValidationError("cannot normalize: value does not drop below 1")
    if t0 == np.inf:
        raise ValidationError("cannot normalize: value does not exceed 1")
    return t0


def _validate(fn: YoungFunction, tol=1e-9):
    """Construction-time checks of the growth-class membership on a sample grid."""
    s = _CHECK_GRID
    v = fn.value(s)
    d = fn.deriv(s)
    if not np.all(np.isfinite(v)) or not np.all(np.isfinite(d)):
        raise ValidationError("Young function evaluators returned non-finite values")
    if fn.value(np.array(0.0)) != 0.0:
        raise ValidationError("violates Young-class condition value(0) = 0")
    if fn.deriv(np.array(0.0)) != 0.0:
        # energy._pass returns E = 0 and a zero gradient at x = 0 on this
        raise ValidationError("violates Young-class condition deriv(0) = 0")
    if abs(fn.value(np.array(1.0)) - 1.0) > 1e-9:
        raise ValidationError("violates normalization value(1) = 1")
    if np.any(np.abs(fn.value(-s) - v) > tol * (1.0 + v)):
        raise ValidationError("violates symmetry value(-s) = value(s)")
    if np.any(np.abs(fn.deriv(-s) + d) > tol * (1.0 + np.abs(d))):
        raise ValidationError("violates symmetry deriv(-s) = -deriv(s)")
    if np.any(np.diff(d) < -tol * (1.0 + d[1:])):
        raise ValidationError("violates convexity: derivative not nondecreasing")
    r = s * d / v
    if np.any(r < fn.q - 1e-7) or np.any(r > fn.p + 1e-7):
        raise ValidationError(
            "violates growth-ratio bounds: sampled s*deriv/value leaves "
            f"[{fn.q}, {fn.p}] (range [{r.min()}, {r.max()}])"
        )


def _spare(x):
    """x as the out= buffer of a ufunc whose result may overwrite it: x
    itself when it is an array, None (a fresh result) when it is a numpy
    scalar, which an evaluator's 0-d input gives."""
    return x if isinstance(x, np.ndarray) else None


def _at_tiny(out, s, tiny, single, odd=False):
    """out, a log_perturbed closed form at a = t0 |s|, with its tiny entries
    (a below the forms' range, zero included) set to their single power
    single(|s|).  tiny is (mask, its count, the count of a = 0 when the mask
    has any).  For the odd deriv the sign of s is put on: elsewhere by
    np.copysign, which has the bits of out * np.sign(s) there, and at tiny
    as a product with np.sign(s), which is +0 at s = -0.  A numpy-scalar
    out returns a float."""
    mask, n_tiny, n_zero = tiny
    if np.ndim(out) == 0:
        if mask:
            with np.errstate(all="ignore"):
                out = single(np.abs(s))
        return float(out * np.sign(s) if odd else out)
    if odd:
        np.copysign(out, s, out=out)
    if n_tiny > n_zero:
        st = s[mask]
        with np.errstate(all="ignore"):
            lim = single(np.abs(st))
        out[mask] = lim * np.sign(st) if odd else lim
    elif n_tiny:
        # only zeros, the one tiny value pair differences meet often: the
        # i = j entries of a walk's diagonal tiles (4608 of the 5802 zero
        # differences of a 512-node log_perturbed Dirichlet solve on a
        # bump): their single power at 0 as one scalar, +0 for the odd
        # deriv.  With the gather above, joint on the last 48 x 48 tile of
        # that walk took 47.5 us against 39 (2-core x86 host)
        with np.errstate(all="ignore"):
            out[mask] = single(np.float64(0.0))
    return out


def _relaxed(deriv2, slope):
    """The relaxed-Newton pair weight max(deriv2(t), slope(t)/t) at t > 0, with
    slope(t) = deriv(t) there; a None side is never the larger and is not
    evaluated."""
    if slope is None:
        return deriv2
    if deriv2 is None:
        return lambda t: slope(t) / t
    return lambda t: np.maximum(deriv2(t), slope(t) / t)


def make_young(family: str, **params) -> YoungFunction:
    """Construct a Young function from one of the built-in families.

    Families:
      power       -- |s|^p, requires p > 1: the one-term power_sum, built by
                     the same body under its own label and params
      power_sum   -- sum of k_i |s|^{p_i}, argument-rescaled to value(1) = 1
      log_perturbed -- |s|^p * log(1+|s|)^r, argument-rescaled; needs min(p, p+r) > 1
      custom      -- caller-supplied evaluators, already normalized; growth
                     exponents estimated by sampling with a 1% safety margin

    Raises ValidationError naming the violated class condition.
    """
    if family in ("power", "power_sum"):
        power = family == "power"
        terms = ([(1.0, float(params["p"]))] if power
                 else [(float(k), float(pi)) for k, pi in params["terms"]])
        if not terms or any(k <= 0.0 for k, _ in terms):
            raise ValidationError("power_sum needs positive coefficients")
        if any(pi <= 1.0 for _, pi in terms):
            raise ValidationError("violates q > 1: power exponent must exceed 1" if power
                                  else "violates q > 1: all power_sum exponents must exceed 1")
        ks, ps = np.array(terms).T
        t0 = _normalize_scale(lambda t: float(np.sum(ks * t ** ps)))
        kt = ks * t0 ** ps
        kt = kt / kt.sum()  # exact value(1) = 1; one term gives 1.0 at t0 = 1.0
        # exponents and coefficients as Python floats: numpy takes a float
        # power of 2.0 or 0.5 as a square or a root, not an array of them
        degrees = ps.tolist()
        c0 = kt.tolist()
        c1 = [c * d for c, d in zip(c0, degrees)]
        c2 = [c * (d - 1.0) for c, d in zip(c1, degrees)]

        def series(a, shift, coefs):
            # sum of c_i a^(p_i - shift), term by term in term order
            out = None
            for d, c in zip(degrees, coefs):
                x = a ** (d - shift)
                if c != 1.0:
                    x *= c
                out = x if out is None else np.add(out, x, out=_spare(out))
            return out

        def deriv(s):
            out = series(np.abs(s), 1.0, c1)
            out *= np.sign(s)
            return out

        fn = YoungFunction(
            value=lambda s: series(np.abs(s), 0.0, c0),
            deriv=deriv,
            deriv2=lambda s: series(np.abs(s), 2.0, c2),
            # deriv2 is the larger exactly where every p_i >= 2, and
            # deriv(t)/t where every p_i < 2
            curvature=_relaxed(
                (lambda t: series(t, 2.0, c2)) if max(degrees) >= 2.0 else None,
                (lambda t: series(t, 1.0, c1)) if min(degrees) < 2.0 else None),
            p=max(degrees),
            q=min(degrees),
            family=family,
            params={"p": degrees[0]} if power else
            {"terms": tuple(zip(ks.tolist(), degrees)), "arg_scale": t0},
            power_terms=tuple(zip(degrees, c0)),
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

        # The closed forms multiply powers of a and of L = log1p(a).  Below
        # a_tiny such a factor a^e, or a product of two, leaves the normal
        # range while the result ~ a^f it makes does not (e (e - f) > 0, as
        # L ~ a there): a^(p-1) underflows against an overflowing L^(r-1),
        # say.  Such a factor stays normal while a^e is within 2^+-1000 (the
        # range ends near 2^+-1022; the rest is margin for the coefficients),
        # which sets a_tiny.  a_tiny is at most 2^-53, below which
        # log1p(a) == a and a / (1 + a) == a, so there the single powers of
        # a, c a^(p+r), t0 c (p+r) a^(p+r-1), ..., are the closed forms in
        # floating point, and at a = 0 they give the limits.
        P = p + r
        factors = ((P, p, r), (P - 1.0, p - 1.0, r - 1.0, P - 2.0, 1.0),
                   (P - 2.0, p - 2.0, r - 2.0, P - 4.0, 2.0, p - 1.0, r - 1.0))
        a_tiny = min(2.0 ** -53, max([5e-324] + [2.0 ** (-1000.0 / abs(e))
                                                for f, *es in factors for e in es
                                                if e * (e - f) > 0.0]))

        def single(coef, k, t0=t0):
            # x -> coef a^(p+r-k) at a = t0 x (inf at x = 0 for k > p + r)
            return lambda x: coef * (x * t0) ** (P - k)

        limit_value, limit_deriv = single(c, 0.0), single(t0 * c * P, 1.0)
        limit_deriv2 = single(t0 ** 2 * c * P * (P - 1.0), 2.0)
        limit_curvature = single(t0 ** 2 * c * P * max(P - 1.0, 1.0), 2.0)

        # The evaluators work in place, with the operations of the plain
        # formulas in the comments in their order, so they have those
        # formulas' bits: a walk calls them on blocks of pair differences,
        # and each fresh block-sized temporary costs more than the
        # arithmetic on it.  A 0-d input is evaluated on numpy scalars.
        # Below a_tiny the formulas over- or underflow, and at a = 0 they
        # meet 0^(r-1) = inf (r < 1) and 0 * inf; _at_tiny puts in the
        # single powers there.
        def tiny_entries(a):
            # _at_tiny's tiny: the mask of a below a_tiny (NaN included),
            # its count, and the count of a = 0 where the mask has any
            mask = ~(a >= a_tiny)
            n = np.count_nonzero(mask)
            return mask, n, n and np.count_nonzero(a == 0.0)

        def magnitude(s, t0=t0):
            # s as floats, a = t0 |s| and its tiny entries
            s = np.asarray(s, dtype=float)
            a = np.abs(s)
            a *= t0
            return s, a, tiny_entries(a)

        def value(s, c=c, p=p, r=r):
            # c a^p L^r, with L = log1p(a)
            s, a, tiny = magnitude(s)
            with np.errstate(all="ignore"):
                out = a ** p
                out *= c
                L = np.log1p(a, out=_spare(a))
                L **= r
                out *= L
            return _at_tiny(out, s, tiny, limit_value)

        def slope(a, L, t0=t0, c=c, p=p, r=r):
            # t0 c a^(p-1) L^(r-1) (p L + r a / (1 + a)), deriv before its
            # sign; overwrites a and L
            out = a ** (p - 1.0)
            out *= t0 * c
            bracket = p * L
            L **= r - 1.0
            out *= L
            ra = np.multiply(a, r, out=_spare(L))
            a += 1.0
            ra /= a
            bracket += ra
            out *= bracket
            return out

        def deriv(s):
            s, a, tiny = magnitude(s)
            with np.errstate(all="ignore"):
                out = slope(a, np.log1p(a))
            return _at_tiny(out, s, tiny, limit_deriv, odd=True)

        def joint(s, c=c, p=p, r=r):
            # value and deriv from one |s| and one log1p, in their own terms
            s, a, tiny = magnitude(s)
            with np.errstate(all="ignore"):
                L = np.log1p(a)
                v = a ** p
                v *= c
                v *= L ** r
                d = slope(a, L)
            return (_at_tiny(v, s, tiny, limit_value),
                    _at_tiny(d, s, tiny, limit_deriv, odd=True))

        def curvature_pair(a, t0=t0, c=c, p=p, r=r):
            # deriv2 and deriv(t)/t at the array a = t0 t > 0, from the same
            # two powers: with L = log1p(a), g = a / (1 + a), A = t0^2 c
            # a^(p-2) and B = p L + r g,
            # deriv2 = A L^(r-2) ((p-1) L B + r g (p L + (r-1) g) + r L g / (1 + a))
            # and deriv(t)/t = A B (L^(r-2) L).  Overwrites a; five more
            # arrays of its shape at most
            with np.errstate(all="ignore"):
                L = np.log1p(a)
                a1 = a + 1.0
                g = a / a1
                a **= p - 2.0
                a *= t0 ** 2 * c  # A
                last = r * L
                last *= g
                last /= a1  # r L g / (1 + a)
                pL = np.multiply(L, p, out=a1)
                rg = r * g
                g *= r - 1.0
                g += pL
                g *= rg  # r g (p L + (r-1) g)
                B = np.add(pL, rg, out=pL)
                d2 = np.multiply(L, p - 1.0, out=rg)
                d2 *= B
                d2 += g
                d2 += last  # the bracket of deriv2
                np.copyto(g, L)
                Lr = g
                Lr **= r - 2.0
                d2 *= np.multiply(a, Lr, out=last)
                a *= B
                Lr *= L
                a *= Lr
            return d2, a

        def deriv2(s):
            s, a, tiny = magnitude(s)
            out = curvature_pair(np.atleast_1d(a))[0].reshape(np.shape(s))[()]
            return _at_tiny(out, s, tiny, limit_deriv2)

        def curvature(t, t0=t0):
            # a 0-d t is evaluated as a one-entry array
            t1 = np.atleast_1d(np.asarray(t, dtype=float))
            a = t0 * t1
            tiny = tiny_entries(a)
            d2, d1 = curvature_pair(a)
            out = _at_tiny(np.maximum(d2, d1, out=d2), t1, tiny, limit_curvature)
            return out.reshape(np.shape(t))[()]

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
            joint=joint,
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
        fn = YoungFunction(
            value=value,
            deriv=deriv,
            deriv2=deriv2,
            curvature=_relaxed(deriv2, deriv),
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


def _grid_extremum(vals, f, maximize: bool) -> float:
    """Extremum of a map on x > 0 from its values vals on _CHAR_GRID: the
    grid's best, refined by Brent's bounded minimization on log-x, with f
    the map as a function of log x, between the grid's neighbours of an
    interior extremum."""
    idx = int(np.argmax(vals) if maximize else np.argmin(vals))
    best = float(vals[idx])
    if not 0 < idx < len(vals) - 1:
        return best
    t = np.log(_CHAR_GRID)
    sgn = -1.0 if maximize else 1.0
    # log x to sqrt(eps), below which the map is flat to its rounding
    res = minimize_scalar(lambda tt: sgn * f(tt), bounds=(t[idx - 1], t[idx + 1]),
                          method="bounded", options={"xatol": 1e-8})
    refined = sgn * float(res.fun)
    return max(best, refined) if maximize else min(best, refined)


def _char_extremum(g, s: float, maximize: bool) -> float:
    """inf or sup over x > 0 of g(s*x)/g(x), by log-grid scan plus refinement."""
    def f(tt):
        xx = np.exp(tt)
        return float(g(np.array(s * xx)) / g(np.array(xx)))

    return _grid_extremum(g(s * _CHAR_GRID) / g(_CHAR_GRID), f, maximize)


def _gamma_pair(fn: YoungFunction, s: float, deriv: bool) -> tuple[float, float]:
    """(gamma-(s), gamma+(s)) of fn.value, or of fn.deriv when deriv is set."""
    if s <= 0.0:
        raise ValidationError("characteristic bounds need s > 0")
    g, shift = (fn.deriv, 1.0) if deriv else (fn.value, 0.0)
    if fn.power_terms is not None:
        lo, hi = s ** (fn.q - shift), s ** (fn.p - shift)
        return min(lo, hi), max(lo, hi)
    return _char_extremum(g, s, maximize=False), _char_extremum(g, s, maximize=True)


def gamma_bounds(fn: YoungFunction, s: float) -> tuple[float, float]:
    """Characteristic bounds (gamma-(s), gamma+(s)) of the Young function.

    Exact powers of s when value is a sum of powers (the extremes sit at the
    ends of the x-range); computed by scanning a 64-per-decade log grid with
    Brent's bounded refinement otherwise.
    """
    return _gamma_pair(fn, s, deriv=False)


def gamma_bounds_deriv(fn: YoungFunction, s: float) -> tuple[float, float]:
    """Characteristic bounds of the *derivative* of the Young function."""
    return _gamma_pair(fn, s, deriv=True)


def gamma_plus_deriv(fn: YoungFunction, s) -> np.ndarray:
    """Vectorized gamma+ of the derivative, for s of any shape; gamma+(0) = 0
    by continuity."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    out = np.zeros_like(s)
    if fn.power_terms is not None:
        sp = s[s > 0]
        out[s > 0] = np.maximum(sp ** (fn.q - 1.0), sp ** (fn.p - 1.0))
    else:
        for i in zip(*np.nonzero(s > 0)):
            out[i] = _char_extremum(fn.deriv, float(s[i]), maximize=True)
    return float(out[0]) if scalar else out


@functools.lru_cache(maxsize=64)
def sv_delta(fn: YoungFunction) -> float:
    """inf over s > 0 of deriv(s)/gamma+_deriv(s), sampled on the log grid.

    This is the coefficient entering the generalized Stroock-Varopoulos
    inequality; it is p, exactly, for homogeneous value |s|^p, and
    min(k_1 p_1, k_M p_M) for a sum of powers.
    """
    if fn.homogeneous:
        return fn.p

    def f(tt):
        x = float(np.exp(tt))
        return float(fn.deriv(np.array(x))) / gamma_plus_deriv(fn, x)

    s = _CHAR_GRID
    return _grid_extremum(fn.deriv(s) / gamma_plus_deriv(fn, s), f, maximize=False)


# ---------------------------------------------------------------------------
# complementary function and Luxemburg norm
# ---------------------------------------------------------------------------


def _deriv_inverse(fn: YoungFunction, t):
    """Inverse of the (strictly increasing) derivative, by vectorized bisection.

    Every root is bisected at geometric midpoints over the whole float range
    [2^-1074, 2^1023]: 64 halvings of log(hi/lo) take hi/lo from 2^2097 to
    within one ulp of 1, so the result carries relative (not absolute)
    accuracy at any size.  An inf or NaN derivative (an overflowing evaluator) counts as
    above t.  0 where t <= 0; BracketingError where t exceeds a finite
    deriv(2^1023).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    lo = np.full_like(t, 2.0 ** -1074)
    hi = np.full_like(t, 2.0 ** 1023)
    with np.errstate(all="ignore"):
        if np.any(fn.deriv(np.array([2.0 ** 1023])) < t):
            raise BracketingError("t exceeds the derivative at the top of the float range")
        for _ in range(64):
            mid = np.sqrt(lo) * np.sqrt(hi)
            below = fn.deriv(mid) < t
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
    return np.where(t > 0.0, np.sqrt(lo) * np.sqrt(hi), 0.0)


def complementary(fn: YoungFunction) -> ComplementaryFunction:
    """Conjugate Young function, argument-rescaled so that phi(1) = 1.

    For homogeneous value |s|^p the conjugate is closed-form:
    phi_raw(b) = (p-1) (|b|/p)^(p/(p-1)), deriv^{-1}(t) = (|t|/p)^(1/(p-1)),
    and the rescale is p (p-1)^(-(p-1)/p).  Otherwise the raw conjugate is
    evaluated through the Legendre identity phi_raw(b) = a*b - value(a) at
    a = deriv^{-1}(|b|), with the inverse derivative obtained by monotone
    bisection on geometric midpoints (_deriv_inverse).  The rescale is
    b0 = deriv(a0) for the a0 where phi_raw(deriv(a)) = a deriv(a) - value(a)
    reaches 1; that map increases (its derivative is a deriv2(a) > 0), so a0
    is one scalar root on scalar evaluations (_normalize_scale).
    """
    if fn.homogeneous:
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

        a0 = _normalize_scale(
            lambda a: float(a * fn.deriv(np.array(a)) - fn.value(np.array(a))))
        b0 = float(fn.deriv(np.array(a0)))

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

    ``modular`` is the map k -> F(u/k) for the fixed function u.  The norm
    is the root of modular(k) - 1 (scale_root), to the relative tolerance
    rel_tol, floored at 4 eps.  Returns 0 when the modular is already at
    most 1 for arbitrarily small k (the zero function), and raises
    BracketingError when it stays above 1 for arbitrarily large k.
    """
    k = scale_root(lambda k: modular(k) - 1.0, rtol=max(rel_tol, _RTOL))
    if k == np.inf:
        raise BracketingError("modular does not drop below 1")
    return k


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
def calibrate_singular_constant(fn: YoungFunction) -> float:
    """Constant for the singular-case Clarkson bound, fitted once per function.

    The inequality only asserts existence of the constant, so it is taken as
    the infimum of left/right over the n-by-n grid of (a, b) pairs on
    [-span, span]^2 (n = _SINGULAR_NODES, span = _SINGULAR_SPAN) plus
    near-diagonal pairs (the ratio's infimum sits on the diagonal limit
    b -> a), and then validated on fresh samples by the callers.
    """
    a = np.linspace(-_SINGULAR_SPAN, _SINGULAR_SPAN, _SINGULAR_NODES)
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
