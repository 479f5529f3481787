"""Radial interaction kernels and their integral geometry.

Builds the admissible kernel families (singular at the origin, integrable
tail), evaluates the tail integral P(s), the exterior interaction
Lambda(domain; x) for interval/box/ball domains, the explicit Poincare
constant, the rescaling profile mu(lambda) with its one-sided derivative at
1 (the nonexistence exponent), and a heuristic estimator of the singularity
order for custom kernels.

All kernels are radial: J(z) = profile(|z|), so J(z) = J(-z) holds exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import ValidationError
from .grid import DomainGrid

# unit sphere measure (N=1: two points; N=2: circle length)
SPHERE_MEASURE = {1: 2.0, 2: 2.0 * np.pi}
# unit ball volume
BALL_VOLUME = {1: 2.0, 2: np.pi}


@dataclass(frozen=True)
class Kernel:
    """A radial kernel with its singularity metadata.

    ``q_star`` is the analytic singularity order for the built-in families.
    ``alpha_order`` is the exponent of a fractional lower bound near the
    origin when one exists (None when the kernel has no such bound, e.g. the
    alternating dyadic example).  ``regular_v`` records whether the kernel is
    nonincreasing near the origin up to a constant; it gates no operation
    here but is reported, and the symmetrization battery only asserts for
    radially nonincreasing kernels.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    dim: int
    q_star: float
    family: str
    params: dict = field(default_factory=dict)
    alpha_order: Optional[float] = None
    regular_v: bool = True
    monotone: bool = True
    breakpoints: tuple = ()

    def evaluate(self, z) -> np.ndarray:
        """J at displacement vectors z of shape (..., dim)."""
        z = np.asarray(z, dtype=float)
        r = np.abs(z[..., 0]) if self.dim == 1 else np.hypot(z[..., 0], z[..., 1])
        return self.profile(r)

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
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            octave = np.floor(-np.log2(np.where(r > 0, r, 1.0)))
        strong = (octave % 2 == 1) & (r <= 0.5)
        out = np.where(strong, r ** (-dim - mu), r ** (-dim * 1.0))
        tail = tail_c * (2.0 * r) ** (-(dim + 1.0))
        return np.where(r > 0.5, tail, out)

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
    if dim not in (1, 2):
        raise ValidationError("kernel dimension must be 1 or 2")

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

        return Kernel(
            profile=profile,
            dim=dim,
            q_star=a1,
            family=family,
            params={"alpha_inner": a1, "alpha_outer": a2},
            alpha_order=a1 if a1 > 0.0 else None,
            breakpoints=(1.0,),
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
            regular_v=True,
            monotone=monotone,
            breakpoints=(1.0,),
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
            regular_v=False,
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
            regular_v=bool(params.get("regular_v", True)),
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
    s4 = sum(_shell_mass(kern, j) for j in range(0, 14))    # down to ~6e-5
    s8 = sum(_shell_mass(kern, j) for j in range(0, 27))    # down to ~7e-9
    s16 = sum(_shell_mass(kern, j) for j in range(0, 54))   # down to ~5e-17
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


def tail_integral(kern: Kernel, s: float) -> float:
    """P(s): total kernel mass outside the ball of radius s, to ~1e-8 relative."""
    if s <= 0.0:
        raise ValidationError("tail integral needs s > 0")
    omega = SPHERE_MEASURE[kern.dim]

    def integrand(r):
        return float(kern.profile(np.array(r))) * r ** (kern.dim - 1)

    mid = max(2.0 * s, 2.0, max(kern.breakpoints, default=0.0) * 2.0)
    pts = sorted(b for b in kern.breakpoints if s < b < mid)
    near, _ = quad(integrand, s, mid, points=pts or None,
                   epsabs=0.0, epsrel=1e-10, limit=400)
    far, _ = quad(integrand, mid, np.inf, epsabs=1e-14, epsrel=1e-10, limit=400)
    return omega * (near + far)


# ---------------------------------------------------------------------------
# exterior interaction Lambda(domain; x)
# ---------------------------------------------------------------------------


def _box_inside_angle(r, dists):
    """Angular measure of {theta: x + r e(theta) inside the box} given the
    four side distances (left, right, down, up).

    Each side cuts off an arc of half-width acos(d/r).  Opposite sides' arcs
    are disjoint and adjacent sides' arcs, whose centres are pi/2 apart,
    overlap by max(0, a + b - pi/2), so inclusion-exclusion is exact."""
    left, right, down, up = (math.acos(min(1.0, d / r)) for d in dists)
    overlap = sum(max(0.0, a + b - 0.5 * np.pi)
                  for a in (left, right) for b in (down, up))
    return max(0.0, 2.0 * np.pi - 2.0 * (left + right + down + up) + overlap)


def lambda_exterior(kern: Kernel, domain: DomainGrid, x) -> float:
    """Exterior interaction at an interior point: integral of J(x - y) over
    the complement of the domain.

    Decomposes as P(d) minus the kernel mass of the domain part outside the
    inscribed ball at x, the latter by polar quadrature with exact angular
    sections (box/ball) and breakpoints at the feature radii.
    """
    if kern.dim != domain.dim:
        raise ValidationError("kernel and domain dimensions differ")
    x = np.atleast_1d(np.asarray(x, dtype=float))

    if domain.dim == 1:
        a, b = domain.bounds
        if not (a < x[0] < b):
            raise ValidationError("point is not interior")
        return 0.5 * (tail_integral(kern, x[0] - a) + tail_integral(kern, b - x[0]))

    if domain.shape == "ball":
        cx, cy, R = domain.bounds
        rho = math.hypot(x[0] - cx, x[1] - cy)
        if rho >= R:
            raise ValidationError("point is not interior")
        if rho < 1e-14 * R:
            return tail_integral(kern, R)
        d, r_far = R - rho, R + rho

        def angle_inside(r):
            c = (rho * rho + r * r - R * R) / (2.0 * rho * r)
            return 2.0 * math.acos(min(1.0, max(-1.0, c)))

        feature = [d, r_far]
    elif domain.shape == "box":
        a1, b1, a2, b2 = domain.bounds
        if not (a1 < x[0] < b1 and a2 < x[1] < b2):
            raise ValidationError("point is not interior")
        dists = (x[0] - a1, b1 - x[0], x[1] - a2, b2 - x[1])
        corners = [
            math.hypot(cx_ - x[0], cy_ - x[1])
            for cx_ in (a1, b1)
            for cy_ in (a2, b2)
        ]
        d = min(dists)
        r_far = max(corners)

        def angle_inside(r, dists=dists):
            return _box_inside_angle(r, dists)

        feature = sorted(set(list(dists) + corners))
    else:
        raise ValidationError(f"unsupported 2D shape {domain.shape!r}")

    def integrand(r):
        return float(kern.profile(np.array(r))) * r * angle_inside(r)

    pts = sorted(
        set(
            [f for f in feature if d < f < r_far]
            + [b for b in kern.breakpoints if d < b < r_far]
        )
    )
    # near-corner points make nearly-degenerate panels between feature radii;
    # the extrapolation then hits roundoff around 1e-7 relative, which is far
    # below what the exterior weights need, so the tolerance warning is noise
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        inside_mass, _ = quad(
            integrand, d, r_far, points=pts or None, epsabs=0.0, epsrel=1e-10,
            limit=400,
        )
    return tail_integral(kern, d) - inside_mass


def poincare_constant(kern: Kernel, domain: DomainGrid) -> float:
    """Explicit lower-bound constant A with E(u) >= A F(u): the kernel minimum
    over the ball of radius R = 2 * inradius times the annulus measure
    between the inradius and R."""
    delta = domain.inradius
    R = 2.0 * delta
    mu_min = _profile_min(kern, R)
    if kern.dim == 1:
        annulus = 2.0 * (R - delta)
    else:
        annulus = np.pi * (R * R - delta * delta)
    return mu_min * annulus


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


def _mu_sample(kern: Kernel, lam: float, decades=(-6.0, 6.0), per_decade=64) -> float:
    span = decades[1] - decades[0]
    z = np.logspace(decades[0], decades[1], int(span * per_decade) + 1)
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

    finite = True
    for lam in lams:
        base = _mu_sample(kern, lam, decades=(-6.0, 6.0))
        wide = _mu_sample(kern, lam, decades=(-9.0, 9.0))
        if wide > base * 1.05:
            finite = False
            break

    mu_vals = tuple(_mu_sample(kern, lam) for lam in lams)

    delta = None
    if finite:
        def dq(h):
            return (_mu_sample(kern, 1.0 + h) - 1.0) / h

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
