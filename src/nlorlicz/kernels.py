"""Radial interaction kernels and their integral geometry.

Builds the admissible kernel families (singular at the origin, integrable
tail), evaluates the tail integral P(s) (the kernel mass beyond radius s,
elementwise on arrays), the exterior interaction Lambda(domain; x) for
interval/box/ball domains, the explicit Poincare constant, the rescaling
profile mu(lambda) with its one-sided derivative at 1 (the nonexistence
exponent), and a heuristic estimator of the singularity order for custom
kernels.

Lambda comes from the ray formula Lambda(x) = integral over directions theta
of T(rho_x(theta)), with T = P / omega_N the mass per unit angle and
rho_x(theta) the distance from x to the boundary along theta, evaluated at
all nodes at once; see lambda_exterior.

All kernels are radial: J(z) = profile(|z|), so J(z) = J(-z) holds exactly.
A kernel's structure is set once, in make_kernel, beside its profile: the
closed-form tail T (Kernel.tail) where there is one, and the order alpha of
a pure power |z|^(-N-alpha) (Kernel.power_order).  The code reads these
fields and never the family name, which is a label only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import beta as beta_fn, betainc

from .errors import ValidationError
from .grid import BALL_VOLUME, DIMENSIONS, SPHERE_MEASURE, DomainGrid

_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)


@dataclass(frozen=True)
class Kernel:
    """A radial kernel with its singularity metadata.

    ``q_star`` is the analytic singularity order for the built-in families.
    ``alpha_order`` is the exponent of a fractional lower bound near the
    origin when one exists (None when the kernel has no such bound, e.g. the
    alternating dyadic example).  ``monotone`` says whether the profile is
    radially nonincreasing; the symmetrization battery asserts only for such
    kernels, and poincare_constant scans non-monotone profiles for their
    minimum.  ``tail`` is T(s) = P(s) / omega_N, the kernel mass per unit
    angle beyond radius s, in closed form, or None when tail_integral steps
    it numerically.  ``power_order`` is alpha for the fractional family,
    J(z) = |z|^(-N-alpha) at every z, and None otherwise; where it is set,
    the box's Lambda is an incomplete beta function and the battery checks
    the interpolation inequality.  Both sit in make_kernel beside the profile
    they integrate; ``family`` is a label only.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    dim: int
    q_star: float
    family: str
    params: dict = field(default_factory=dict)
    alpha_order: Optional[float] = None
    monotone: bool = True
    breakpoints: tuple = ()
    tail: Optional[Callable[[np.ndarray], np.ndarray]] = None
    power_order: Optional[float] = None

    def evaluate(self, z) -> np.ndarray:
        """J at displacement vectors z of shape (..., dim)."""
        return self.profile(np.linalg.norm(np.asarray(z, dtype=float), axis=-1))

    def __hash__(self):
        return hash((self.family, self.dim, tuple(sorted(self.params.items()))))


@dataclass(frozen=True)
class ScalingProfile:
    """Rescaling supremum mu(lambda) and its one-sided derivative at 1."""

    mu_eval: Callable[[float], float]
    delta: Optional[float]
    finite: bool
    lambda_grid: tuple
    mu_values: tuple


_DYADIC_DEPTH = 60  # deepest stored shell boundary 2**-60 ~ 1e-18


def _dyadic_profile(mu: float, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Alternating octave kernel: |z|^-N on even octaves below 1/2, |z|^-N-mu
    on odd ones, continuous power tail of exponent 1 beyond 1/2."""
    tail_c = 2.0 ** (dim + mu)  # profile(1/2)

    def profile(r, mu=mu, dim=dim, tail_c=tail_c):
        # on arrays only: a numpy scalar's ** rounds unlike the array ufunc
        scalar = np.ndim(r) == 0
        r = np.atleast_1d(np.asarray(r, dtype=float))
        with np.errstate(divide="ignore"):
            octave = np.floor(-np.log2(np.where(r > 0, r, 1.0)))
        strong = (octave % 2 == 1) & (r <= 0.5)
        out = np.where(strong, r ** (-dim - mu), r ** (-dim * 1.0))
        tail = tail_c * (2.0 * r) ** (-(dim + 1.0))
        out = np.where(r > 0.5, tail, out)
        return float(out[0]) if scalar else out

    return profile


def make_kernel(family: str, dim: int, **params) -> Kernel:
    """Construct an admissible kernel.

    Families:
      fractional(alpha)            -- |z|^(-N-alpha), alpha > 0
      two_exponent(alpha_inner, alpha_outer)
                                   -- |z|^(-N-a1) inside the unit ball,
                                      |z|^(-N-a2) outside
      log(beta)                    -- |z|^-N |log(|z|/2)|^beta inside, power
                                      tail of exponent 1 outside; beta >= -1
      piecewise_dyadic(mu)         -- alternating octaves, see above
      custom_radial(profile)       -- caller-supplied radial profile; the
                                      admissibility integrals are probed
                                      numerically and q* is estimated

    Rejects kernels that are integrable at the origin or have a heavy tail,
    naming the failed integral.
    """
    if dim not in DIMENSIONS:
        raise ValidationError(f"kernel dimension must be one of {DIMENSIONS}")

    if family == "fractional":
        alpha = float(params["alpha"])
        if alpha < 0.0:
            raise ValidationError(
                "origin integral finite: |z|^(-N-alpha) with alpha < 0 is in L1(B1)"
            )
        if alpha == 0.0:
            raise ValidationError(
                "tail integral infinite: |z|^-N has a non-integrable tail"
            )
        return Kernel(
            profile=lambda r, a=alpha, N=dim: np.asarray(r, dtype=float) ** (-N - a),
            dim=dim,
            q_star=alpha,
            family=family,
            params={"alpha": alpha},
            alpha_order=alpha,
            tail=lambda s, a=alpha: s ** -a / a,
            power_order=alpha,
        )

    if family == "two_exponent":
        a1 = float(params["alpha_inner"])
        a2 = float(params["alpha_outer"])
        if a1 < 0.0:
            raise ValidationError(
                "origin integral finite: inner exponent < 0 puts J in L1(B1)"
            )
        if a2 <= 0.0:
            raise ValidationError("tail integral infinite: outer exponent must be > 0")

        def profile(r, a1=a1, a2=a2, N=dim):
            r = np.asarray(r, dtype=float)
            return np.where(r <= 1.0, r ** (-N - a1), r ** (-N - a2))

        def tail(s, a1=a1, a2=a2):
            inner = -np.log(s) if a1 == 0.0 else np.expm1(-a1 * np.log(s)) / a1
            return np.where(s < 1.0, inner + 1.0 / a2, s ** -a2 / a2)

        return Kernel(
            profile=profile,
            dim=dim,
            q_star=a1,
            family=family,
            params={"alpha_inner": a1, "alpha_outer": a2},
            alpha_order=a1 if a1 > 0.0 else None,
            breakpoints=(1.0,),
            tail=tail,
        )

    if family == "log":
        beta = float(params["beta"])
        if beta < -1.0:
            raise ValidationError(
                "origin integral finite: |z|^-N |log|^beta with beta < -1 is in L1(B1)"
            )
        tail_c = math.log(2.0) ** beta  # continuity at r = 1

        def profile(r, beta=beta, N=dim, tail_c=tail_c):
            r = np.asarray(r, dtype=float)
            scalar = r.ndim == 0
            r = np.atleast_1d(r)
            out = np.empty_like(r)
            inner = (r <= 1.0) & (r > 0.0)
            out[inner] = r[inner] ** (-N * 1.0) * np.abs(np.log(r[inner] / 2.0)) ** beta
            out[r > 1.0] = tail_c * r[r > 1.0] ** (-(N + 1.0))
            out[r <= 0.0] = np.inf
            return float(out[0]) if scalar else out

        def tail(s, beta=beta, l2=math.log(2.0)):
            # t = log(2/r) turns the inner part into the integral of t^beta
            L = np.log(2.0 / np.minimum(s, 1.0))
            if beta == -1.0:
                inner = np.log(L / l2)
            else:
                inner = (L ** (beta + 1.0) - l2 ** (beta + 1.0)) / (beta + 1.0)
            return np.where(s <= 1.0, inner + l2 ** beta, l2 ** beta / s)

        # nonincreasing near the origin holds up to a constant, but the
        # profile itself can rise just below r = 1 when beta < 0
        monotone = beta >= 0.0
        return Kernel(
            profile=profile,
            dim=dim,
            q_star=0.0,
            family=family,
            params={"beta": beta},
            alpha_order=None,
            monotone=monotone,
            breakpoints=(1.0,),
            tail=tail,
        )

    if family == "piecewise_dyadic":
        mu = float(params["mu"])
        if mu <= 0.0:
            raise ValidationError("piecewise_dyadic needs mu > 0")
        bps = tuple(0.5 ** k for k in range(1, _DYADIC_DEPTH + 1))
        return Kernel(
            profile=_dyadic_profile(mu, dim),
            dim=dim,
            q_star=mu,
            family=family,
            params={"mu": mu},
            alpha_order=None,
            monotone=False,
            breakpoints=bps,
        )

    if family == "custom_radial":
        profile = params["profile"]
        kern = Kernel(
            profile=profile,
            dim=dim,
            q_star=float("nan"),
            family=family,
            params={"note": params.get("note", "custom radial profile")},
            alpha_order=params.get("alpha_order"),
            monotone=bool(params.get("monotone", True)),
            breakpoints=tuple(params.get("breakpoints", ())),
        )
        _check_custom_admissible(kern)
        est, note = estimate_singularity_order(kern)
        if est is None:
            raise ValidationError(f"cannot certify singularity order: {note}")
        object.__setattr__(kern, "q_star", est)
        return kern

    raise ValidationError(f"unknown kernel family {family!r}")


def _shell_mass(kern: Kernel, j: int) -> float:
    """Integral of J r^(N-1) over the octave (2^-(j+1), 2^-j], in log space."""
    lo, hi = -(j + 1) * math.log(2.0), -j * math.log(2.0)

    def integrand(t):
        r = math.exp(t)
        return float(kern.profile(np.array(r))) * math.exp(t * kern.dim)

    val, _ = quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-11, limit=200)
    return val


def _check_custom_admissible(kern: Kernel):
    """Numeric probes of the admissibility integrals for custom kernels."""
    # origin: the partial integrals over (eps, 1) must keep growing
    masses = [_shell_mass(kern, j) for j in range(54)]
    # partial integrals down to ~6e-5, ~7e-9 and ~5e-17
    s4, s8, s16 = (sum(masses[:m]) for m in (14, 27, 54))
    if s16 - s8 <= 1e-3 * s16:
        raise ValidationError(
            "origin integral finite: partial integrals over (eps,1) stabilized "
            f"({s4:.6g}, {s8:.6g}, {s16:.6g}); J appears to be in L1(B1)"
        )
    # tail: the radial mass density must decay faster than 1/r
    r = np.logspace(2.0, 6.0, 60)
    dens = kern.profile(r) * r ** (kern.dim - 1)
    if np.any(dens <= 0.0) or not np.all(np.isfinite(dens)):
        raise ValidationError("tail integral check failed: non-positive tail density")
    lr = np.log(r)
    ld = np.log(dens)
    slope = float((lr - lr.mean()) @ (ld - ld.mean()) / ((lr - lr.mean()) @ (lr - lr.mean())))
    if slope > -1.02:
        raise ValidationError(
            f"tail integral infinite: radial mass density decays like r^{slope:.3g}, "
            "needs an exponent below -1"
        )


def _tail_stepped(kern: Kernel, s: np.ndarray) -> np.ndarray:
    """P(s) / omega_N without a closed form (Kernel.tail None): 10-point
    Gauss panels up to mid, summed downward, plus adaptive quadrature beyond
    mid.  The knots are the
    sorted s, the kernel breakpoints and a quarter-octave grid, so each panel
    covers a smooth piece of the profile no wider than a factor 2^(1/4)."""
    def density(r):
        return kern.profile(r) * r ** (kern.dim - 1)

    u, inv = np.unique(s.ravel(), return_inverse=True)
    mid = max(2.0 * u[-1], 2.0, 2.0 * max(kern.breakpoints, default=0.0))
    grid = u[0] * 2.0 ** (np.arange(math.ceil(4.0 * math.log2(mid / u[0]))) / 4.0)
    knots = np.unique(np.concatenate([u, grid, kern.breakpoints, [mid]]))
    knots = knots[(knots >= u[0]) & (knots <= mid)]
    half = 0.5 * np.diff(knots)
    r = (knots[:-1] + half)[:, None] + half[:, None] * _GL_X
    beyond = np.append(np.cumsum((density(r) @ _GL_W * half)[::-1])[::-1], 0.0)
    far, _ = quad(lambda r: float(density(np.array(r))), mid, np.inf,
                  epsabs=1e-14, epsrel=1e-10, limit=400)
    return (far + beyond[np.searchsorted(knots, u)])[inv].reshape(s.shape)


def tail_integral(kern: Kernel, s):
    """P(s): total kernel mass outside the ball of radius s, for a scalar s or
    elementwise for an array.

    Kernels with a closed-form tail (Kernel.tail: the fractional,
    two-exponent and log families) evaluate it; other kernels use Gauss
    panels near s and adaptive quadrature far out, to ~1e-10 relative.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValidationError("tail integral needs s > 0")
    per_direction = _tail_stepped(kern, s) if kern.tail is None else kern.tail(s)
    out = SPHERE_MEASURE[kern.dim] * per_direction
    return float(out) if s.ndim == 0 else out


# ---------------------------------------------------------------------------
# exterior interaction Lambda(domain; x)
# ---------------------------------------------------------------------------


def _graded_panels(length, first, cuts):
    """10-point Gauss-Legendre nodes and weights on [0, length[i]] for each
    row i.  Panel widths double away from 0, starting at first[i], the
    distance of the integrand's nearest complex singularity from the real
    line; rows also break at cuts[i, :], where the integrand has a kink."""
    octaves = max(1, math.ceil(math.log2(np.max(length / first))) + 1)
    knots = np.column_stack([np.zeros_like(length), first[:, None] * 2.0 ** np.arange(octaves),
                             cuts, length])
    knots = np.sort(np.minimum(knots, length[:, None]), axis=1)
    half = 0.5 * np.diff(knots, axis=1)
    t = (knots[:, :-1] + half)[..., None] + half[..., None] * _GL_X
    w = half[..., None] * _GL_W
    return t.reshape(len(length), -1), w.reshape(len(length), -1)


def _require_interior(dists):
    if not np.all(dists > 0.0):
        raise ValidationError("point is not interior")


def _box_exterior(kern: Kernel, bounds, x: np.ndarray) -> np.ndarray:
    """Sum over the four sides, each split at the foot of the perpendicular
    from x.  A half-side at distance d that runs a length l from the foot is
    seen from x over the angles phi in [0, atan(l/d)], along which rho =
    d / cos(phi); in the side coordinate y = d tan(phi) its share is the
    integral over [0, l] of T(sqrt(d^2 + y^2)) d / (d^2 + y^2) dy."""
    a1, b1, a2, b2 = bounds
    left, right, down, up = x[:, 0] - a1, b1 - x[:, 0], x[:, 1] - a2, b2 - x[:, 1]
    d = np.stack([left, left, right, right, down, down, up, up])
    l = np.stack([down, up, down, up, left, right, left, right])
    _require_interior(d)
    if kern.power_order is not None:
        # T(rho) = rho^-alpha / alpha: the share is d^-alpha / alpha times the
        # integral of cos^alpha over [0, atan(l/d)], an incomplete beta
        # function in sin^2 = l^2 / (d^2 + l^2)
        alpha = kern.power_order
        q = 0.5 * (alpha + 1.0)
        share = (d ** -alpha / alpha * 0.5 * beta_fn(0.5, q)
                 * betainc(0.5, q, l * l / (d * d + l * l)))
        return share.sum(axis=0)
    d, l = d.ravel(), l.ravel()
    far = np.hypot(d, l).max()
    bps = np.array([b for b in kern.breakpoints if d.min() < b < far])
    y, w = _graded_panels(l, d, np.sqrt(np.maximum(bps ** 2 - d[:, None] ** 2, 0.0)))
    rho2 = d[:, None] ** 2 + y * y
    T = tail_integral(kern, np.sqrt(rho2)) / SPHERE_MEASURE[2]
    return np.sum(T * d[:, None] / rho2 * w, axis=1).reshape(8, -1).sum(axis=0)


def _ball_exterior(kern: Kernel, bounds, x: np.ndarray) -> np.ndarray:
    """Integral over the boundary angle psi in [0, pi], doubled by symmetry,
    from the boundary point nearest x.  With r0 = |x - centre|, d = R - r0
    and s = sin(psi/2), the ray to the boundary point at psi has length rho,
    rho^2 = d^2 + 4 R r0 s^2, and subtends R (d + 2 r0 s^2) / rho^2 dpsi.
    The pass runs once per distinct r0."""
    *centre, R = bounds
    r_all = np.hypot.reduce((x - centre).T, axis=0, initial=0.0)
    # mirror-image nodes differ in r0 by rounding only; give them one value
    _, first, inv = np.unique(np.round(r_all / R, 12), return_index=True,
                              return_inverse=True)
    _require_interior(R - r_all)
    r0 = r_all[first][:, None]
    d = R - r0
    bps = np.array([b for b in kern.breakpoints if d.min() < b < R + r0.max()])
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_cut = np.where(r0 > 0.0, (R * R + r0 ** 2 - bps ** 2) / (2.0 * R * r0), 1.0)
    psi, w = _graded_panels(np.full(len(d), np.pi), d[:, 0] / R,
                            np.arccos(np.clip(cos_cut, -1.0, 1.0)))
    s2 = np.sin(0.5 * psi) ** 2
    rho2 = d ** 2 + 4.0 * R * r0 * s2
    T = tail_integral(kern, np.sqrt(rho2)) / SPHERE_MEASURE[2]
    return 2.0 * np.sum(T * R * (d + 2.0 * r0 * s2) / rho2 * w, axis=1)[inv]


def _exterior(kern: Kernel, domain: DomainGrid, x: np.ndarray) -> np.ndarray:
    """Lambda at the points x of shape (m, dim); see lambda_exterior."""
    if kern.dim != domain.dim:
        raise ValidationError("kernel and domain dimensions differ")
    if domain.shape == "ball":
        return _ball_exterior(kern, domain.bounds, x)
    if domain.dim == 2:
        return _box_exterior(kern, domain.bounds, x)
    a, b = domain.bounds
    d = np.stack([x[:, 0] - a, b - x[:, 0]])
    _require_interior(d)
    return 0.5 * tail_integral(kern, d).sum(axis=0)


def exterior_weights(kern: Kernel, grid: DomainGrid) -> np.ndarray:
    """Lambda(domain; x_i) at every node of the grid in one vectorized pass."""
    return _exterior(kern, grid, grid.nodes)


def lambda_exterior(kern: Kernel, domain: DomainGrid, x) -> float:
    """Exterior interaction at an interior point: integral of J(x - y) over
    the complement of the domain.

    In polar coordinates about x it is the integral over directions theta of
    T(rho_x(theta)): rho_x(theta) is the distance from x to the boundary
    along theta and T(s) = P(s) / omega_N the kernel mass per unit angle
    beyond radius s.  An interval gives 0.5 * (P(x - a) + P(b - x)).  A box
    splits the directions at its corners into one range per side, in closed
    form for the fractional kernel and by graded Gauss panels otherwise; a
    ball uses graded Gauss panels over the boundary angle.  Panels also
    split where rho crosses a kernel breakpoint.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(_exterior(kern, domain, x[None, :])[0])


def poincare_constant(kern: Kernel, domain: DomainGrid) -> float:
    """Explicit lower-bound constant A with E(u) >= A F(u): the kernel minimum
    over the ball of radius R = 2 * inradius times the annulus measure
    between the inradius and R."""
    delta = domain.inradius
    R = 2.0 * delta
    # powers as products: pow(x, 2) is not always the rounded x * x
    N = kern.dim
    annulus = BALL_VOLUME[N] * (math.prod([R] * N) - math.prod([delta] * N))
    return _profile_min(kern, R) * annulus


def _profile_min(kern: Kernel, R: float) -> float:
    """min of the profile over (0, R]; exact at R for nonincreasing profiles,
    otherwise a dense scan including the breakpoints."""
    if kern.monotone:
        return float(kern.profile(np.array(R)))
    rs = np.concatenate(
        [
            np.logspace(np.log10(R) - 6.0, np.log10(R), 4000),
            np.array([b for b in kern.breakpoints if b <= R]),
            np.array([R]),
        ]
    )
    return float(np.min(kern.profile(rs)))


# ---------------------------------------------------------------------------
# rescaling profile
# ---------------------------------------------------------------------------


# sample points per decade of _mu_sample's window
_MU_PER_DECADE = 64


def _mu_sample(kern: Kernel, lam: float, decades=(-6.0, 6.0)) -> float:
    span = decades[1] - decades[0]
    z = np.logspace(decades[0], decades[1], int(span * _MU_PER_DECADE) + 1)
    extra = []
    for b in kern.breakpoints:
        if decades[0] <= np.log10(b) <= decades[1]:
            extra.extend([b * (1.0 + 1e-9), b * lam * (1.0 - 1e-9)])
    if extra:
        z = np.concatenate([z, np.array(extra)])
    ratio = kern.profile(z / lam) / kern.profile(z)
    return float(lam ** (-kern.dim) * np.max(ratio))


def scaling_profile(kern: Kernel, lambda_grid: Sequence[float] = (1.01, 1.02, 1.04)) -> ScalingProfile:
    """Sampled mu(lambda) on the given grid plus the one-sided derivative at 1.

    mu is declared infinite when widening the sampling window keeps growing
    the supremum (the alternating dyadic kernels); the derivative is then
    withheld and the nonexistence-exponent check is inapplicable.
    """
    lams = tuple(float(l) for l in lambda_grid)
    if any(not (1.0 < l <= 2.0) for l in lams):
        raise ValidationError("lambda grid must lie in (1, 2]")

    # each (lambda, window) sampled once: the finite check's base windows
    # give mu_values, and the quotients' 1 + h are the default grid's lambdas
    mu = functools.cache(lambda lam, decades=(-6.0, 6.0): _mu_sample(kern, lam, decades))
    finite = not any(mu(lam, (-9.0, 9.0)) > mu(lam) * 1.05 for lam in lams)
    mu_vals = tuple(mu(lam) for lam in lams)

    delta = None
    if finite:
        def dq(h):
            return (mu(1.0 + h) - 1.0) / h

        d1, d2, d4 = dq(0.01), dq(0.02), dq(0.04)
        e1 = 2.0 * d1 - d2
        e2 = 2.0 * d2 - d4
        delta = e1 + (e1 - e2) / 3.0

    return ScalingProfile(
        mu_eval=lambda lam: _mu_sample(kern, float(lam)),
        delta=delta,
        finite=finite,
        lambda_grid=lams,
        mu_values=mu_vals,
    )


# ---------------------------------------------------------------------------
# singularity order estimation
# ---------------------------------------------------------------------------


def estimate_singularity_order(kern: Kernel, depths=(40, 80, 150)):
    """Heuristic singularity-order estimate from dyadic shell masses.

    Looks at two-octave exponents 0.5*log2(m_{j+2}/m_j) of the shell masses
    near several depths and takes the deepest stabilized maximum, snapped to
    a 0.01 grid.  Returns (estimate, note); estimate is None with the reason
    in the note when the scan does not stabilize for any order <= N+2.
    """
    per_depth = []
    for J in depths:
        masses = {j: _shell_mass(kern, j) for j in range(J - 6, J + 2)}
        cand = [
            0.5 * math.log2(masses[j + 2] / masses[j])
            for j in range(J - 6, J - 1)
            if masses[j] > 0.0
        ]
        if not cand:
            return None, "indeterminate: empty shell masses"
        per_depth.append(max(0.0, max(cand)))
    deep, mid = per_depth[-1], per_depth[-2]
    if deep > mid + 0.02:
        return None, "indeterminate: shell exponent still growing with depth"
    if deep > kern.dim + 2.0:
        return None, f"indeterminate: no stabilized order <= N+2 (got {deep:.3g})"
    est = round(deep / 0.01) * 0.01
    return est, "heuristic: two-octave shell-mass exponent"
