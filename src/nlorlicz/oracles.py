"""Independent verification routes, kept out of the production solver path.

Dense linear algebra for the quadratic case (direct solve and full
eigendecomposition), the superlinear problem's ground-state level by
scipy's BFGS on the scale-invariant Nehari quotient, a polar-quadrature
route to the exterior weights, and a per-node quadrature consistency check
of the assembled weights.  The acceptance suite diffs solver output against
these.  Nothing here imports the solvers, the battery, the CLI or the tiled
linear algebra, and of the energy module only EnergyAssembly:
tests/test_tools.py scans for it.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import minimize

from .energy import EnergyAssembly
from .errors import NlorliczError, ValidationError
from .grid import DomainGrid, GridFunction, bump, make_grid
from .kernels import SPHERE_MEASURE, Kernel


def _require_quadratic(asm: EnergyAssembly):
    if not asm.young.quadratic:
        raise ValidationError("dense oracle is defined for the quadratic case only")


def operator_matrix(asm: EnergyAssembly) -> np.ndarray:
    """Matrix of the pointwise operator for the quadratic nonlinearity."""
    _require_quadratic(asm)
    W = asm.weights
    D = np.diag(W.sum(axis=1))
    return 2.0 * ((D - W) / asm.h_pow_dim + np.diag(asm.exterior))


def dense_dirichlet_solve(asm: EnergyAssembly, f: GridFunction) -> GridFunction:
    """Direct dense solve of the linear problem (quadratic case)."""
    M = operator_matrix(asm)
    return GridFunction(asm.grid, np.linalg.solve(M, f.values))


def dense_min_eigenvalue(asm: EnergyAssembly):
    """Smallest eigenvalue/vector of the symmetric quadratic-case operator,
    normalized so the eigenvector has unit modular."""
    # halving the exact doubling of operator_matrix gives eigh the same bits
    vals, vecs = np.linalg.eigh(operator_matrix(asm) / 2.0)
    v = vecs[:, 0]
    v = v * np.sign(v.sum() or 1.0)
    v = v / np.sqrt(np.sum(v * v) * asm.h_pow_dim)
    return float(vals[0]), GridFunction(asm.grid, v)


def nehari_ground_state(asm: EnergyAssembly, m: float, max_iter: int = 4000):
    """Ground-state level of E(v) - sum (v+)^m / m via the scale-invariant
    quotient E(v) / Q(v)^(2/m); quadratic case, m > 2.  Returns the level and
    the quotient's minimizer (a multiple of the ground state).

    Independent of the mountain-pass search: scipy's BFGS minimizes the
    quotient from a bump, with no Newton matrix and no peaks, and stops at
    max |grad| <= 1e-7 (1 + quotient at the bump).  Raises NlorliczError with
    scipy's message when BFGS reports no success, max_iter steps included."""
    _require_quadratic(asm)
    if m <= 2.0:
        raise ValidationError("ground-state oracle needs a superquadratic exponent")
    hN = asm.h_pow_dim
    g = asm.grid

    def phi_and_grad(x):
        xp = np.maximum(x, 0.0)
        q = float(np.sum(xp ** m)) * hN
        if q <= 0.0:
            return float("inf"), np.zeros_like(x)
        E = _quadratic_energy(asm, x)
        gradQ = m * xp ** (m - 1.0) * hN
        grad = (_quadratic_gradient(asm, x) / q ** (2.0 / m)
                - (2.0 / m) * E * gradQ / q ** (2.0 / m + 1.0))
        return E / q ** (2.0 / m), grad

    x0 = bump(g, g.center, 0.6 * g.inradius, 1.0).values
    gtol = 1e-7 * (1.0 + phi_and_grad(x0)[0])
    res = minimize(phi_and_grad, x0, jac=True, method="BFGS",
                   options={"gtol": gtol, "maxiter": max_iter})
    if not res.success:
        raise NlorliczError(f"ground-state oracle: BFGS did not converge: {res.message}")
    level = (1.0 - 2.0 / m) * 2.0 ** (2.0 / (m - 2.0)) * float(res.fun) ** (m / (m - 2.0))
    return level, GridFunction(g, res.x)


def _quadratic_energy(asm: EnergyAssembly, x: np.ndarray) -> float:
    """0.5 sum_ij w_ij (x_i - x_j)^2 + sum_i x_i^2 Lambda_i h^N as an
    elementwise double sum, apart from the production pair pass."""
    D = x[:, None] - x[None, :]
    ext = float(np.sum(x * x * asm.exterior)) * asm.h_pow_dim
    return 0.5 * float(np.sum(D * D * asm.weights)) + ext


def _quadratic_gradient(asm: EnergyAssembly, x: np.ndarray) -> np.ndarray:
    W = asm.weights
    row = 2.0 * (W.sum(axis=1) * x - W @ x)
    return row + 2.0 * x * asm.exterior * asm.h_pow_dim


def node_mass_consistency(asm: EnergyAssembly, i: int):
    """Total interior weight plus exterior weight at node i against an
    adaptive-quadrature reference (kernel mass outside the node's own cell)."""
    g = asm.grid
    h = g.spacing
    total = float(asm.weights[i].sum()) / asm.h_pow_dim + float(asm.exterior[i])
    node = g.nodes[i]
    # the node's cell, in the box layout (a_1, b_1, ..., a_N, b_N)
    bounds = np.column_stack([node - h / 2, node + h / 2]).ravel()
    cell = make_grid("interval" if g.dim == 1 else "box", 4, tuple(bounds))
    reference = polar_lambda_exterior(asm.kernel, cell, node)
    return total, reference


def _tail_quad(kern: Kernel, s: float) -> float:
    """P(s), the kernel mass beyond radius s, by adaptive quadrature of the
    radial mass density, to ~1e-10 relative."""
    def integrand(r):
        return float(kern.profile(np.array(r))) * r ** (kern.dim - 1)

    mid = max(2.0 * s, 2.0, max(kern.breakpoints, default=0.0) * 2.0)
    pts = sorted(b for b in kern.breakpoints if s < b < mid)
    near, _ = quad(integrand, s, mid, points=pts or None,
                   epsabs=0.0, epsrel=1e-10, limit=400)
    far, _ = quad(integrand, mid, np.inf, epsabs=1e-14, epsrel=1e-10, limit=400)
    return SPHERE_MEASURE[kern.dim] * (near + far)


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


def polar_lambda_exterior(kern: Kernel, domain: DomainGrid, x) -> float:
    """Exterior weight at a point inside an interval or box by a route
    independent of the production ray formula: P(d) by adaptive quadrature,
    minus the kernel mass of the box part outside the inscribed ball at x,
    the latter by polar quadrature with the exact inside angle and
    breakpoints at the feature radii.  Accurate to about 1e-7 relative near
    box corners.
    """
    if kern.dim != domain.dim:
        raise ValidationError("kernel and domain dimensions differ")
    x = np.atleast_1d(np.asarray(x, dtype=float))

    if domain.dim == 1:
        a, b = domain.bounds
        if not (a < x[0] < b):
            raise ValidationError("point is not interior")
        return 0.5 * (_tail_quad(kern, x[0] - a) + _tail_quad(kern, b - x[0]))

    if domain.shape != "box":
        raise ValidationError(f"unsupported 2D shape {domain.shape!r}")
    a1, b1, a2, b2 = domain.bounds
    if not (a1 < x[0] < b1 and a2 < x[1] < b2):
        raise ValidationError("point is not interior")
    dists = (x[0] - a1, b1 - x[0], x[1] - a2, b2 - x[1])
    corners = [math.hypot(cx - x[0], cy - x[1]) for cx in (a1, b1) for cy in (a2, b2)]
    d = min(dists)
    r_far = max(corners)
    feature = sorted(set(list(dists) + corners))

    def integrand(r):
        return float(kern.profile(np.array(r))) * r * _box_inside_angle(r, dists)

    pts = sorted(
        set(
            [f for f in feature if d < f < r_far]
            + [b for b in kern.breakpoints if d < b < r_far]
        )
    )
    # near-corner points make nearly-degenerate panels between feature radii;
    # the extrapolation then hits roundoff around 1e-7 relative, which is far
    # below what a consistency check needs, so the tolerance warning is noise
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        inside_mass, _ = quad(
            integrand, d, r_far, points=pts or None, epsabs=0.0, epsrel=1e-10,
            limit=400,
        )
    return _tail_quad(kern, d) - inside_mass
