import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import beta as beta_fn, betainc

from nlorlicz import (
    ValidationError,
    assemble,
    estimate_singularity_order,
    exterior_weights,
    lambda_exterior,
    make_grid,
    make_kernel,
    make_young,
    poincare_constant,
    scaling_profile,
    tail_integral,
)
from nlorlicz import kernels
from nlorlicz.kernels import SPHERE_MEASURE, _mu_sample, _shell_mass, _tail_stepped
from nlorlicz.oracles import _box_inside_angle, _tail_quad


class TestConstruction:
    def test_fractional_metadata(self):
        K = make_kernel("fractional", dim=2, alpha=1.0)
        assert K.q_star == 1.0
        assert K.alpha_order == 1.0
        z = np.array([[0.3, 0.4]])
        assert K.evaluate(z)[0] == pytest.approx(0.5 ** -3.0)

    @pytest.mark.parametrize("dim", [0, 3])
    def test_unsupported_dimension_rejected(self, dim):
        with pytest.raises(ValidationError, match="kernel dimension"):
            make_kernel("fractional", dim=dim, alpha=0.5)

    def test_log_kernel_zero_order(self):
        K = make_kernel("log", dim=1, beta=1.0)
        assert K.q_star == 0.0
        assert K.alpha_order is None

    def test_dyadic_metadata(self):
        K = make_kernel("piecewise_dyadic", dim=1, mu=0.5)
        assert K.q_star == 0.5
        assert K.alpha_order is None
        assert not K.monotone

    def test_radial_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for K in (make_kernel("fractional", dim=2, alpha=0.7),
                  make_kernel("piecewise_dyadic", dim=2, mu=0.4)):
            z = rng.normal(size=(100, 2))
            assert np.array_equal(K.evaluate(z), K.evaluate(-z))

    def test_rejections_name_the_integral(self):
        with pytest.raises(ValidationError, match="origin integral"):
            make_kernel("fractional", dim=1, alpha=-0.2)
        with pytest.raises(ValidationError, match="tail integral"):
            make_kernel("fractional", dim=1, alpha=0.0)
        with pytest.raises(ValidationError, match="origin integral"):
            make_kernel("log", dim=1, beta=-1.5)
        with pytest.raises(ValidationError, match="tail integral"):
            make_kernel("two_exponent", dim=1, alpha_inner=0.5, alpha_outer=0.0)
        with pytest.raises(ValidationError):
            make_kernel("fractional", dim=3, alpha=0.5)

    def test_custom_radial_accepted_and_estimated(self):
        K = make_kernel(
            "custom_radial", dim=1,
            profile=lambda r: np.asarray(r, dtype=float) ** -1.5,
        )
        assert K.q_star == pytest.approx(0.5, abs=0.011)

    def test_custom_radial_integrable_rejected(self):
        with pytest.raises(ValidationError, match="origin integral"):
            make_kernel(
                "custom_radial", dim=1,
                profile=lambda r: np.exp(-np.asarray(r, dtype=float)),
            )

    @pytest.mark.parametrize("profile, verdict", [
        (lambda r: np.asarray(r, dtype=float) ** -1.5, None),
        (lambda r: np.exp(-np.asarray(r, dtype=float)), "origin integral finite"),
    ])
    def test_admissibility_takes_each_shell_mass_once(self, monkeypatch, profile, verdict):
        # the partial integrals down to 2^-14, 2^-27 and 2^-54 are prefix
        # sums of one list of 54 shell masses
        kern = kernels.Kernel(profile=profile, dim=1, q_star=float("nan"), family="custom")
        calls = []

        def counted(kern, j):
            calls.append(j)
            return _shell_mass(kern, j)

        monkeypatch.setattr(kernels, "_shell_mass", counted)
        if verdict is None:
            kernels._check_custom_admissible(kern)
        else:
            with pytest.raises(ValidationError, match=verdict):
                kernels._check_custom_admissible(kern)
        assert calls == list(range(54))

    def test_admissibility_integral_numeric(self):
        # the defining integral with weight min(1, |z|^(q*+0.1)) is finite:
        # weighted shell masses decay geometrically at depth, tail finite
        for K in (make_kernel("fractional", dim=1, alpha=0.5),
                  make_kernel("log", dim=1, beta=1.0),
                  make_kernel("piecewise_dyadic", dim=1, mu=0.5)):
            q0 = K.q_star + 0.1

            def weighted_shell(j):
                lo, hi = -(j + 1) * np.log(2.0), -j * np.log(2.0)
                val, _ = quad(
                    lambda t: float(K.profile(np.array(np.exp(t))))
                    * np.exp(t * (K.dim + q0)),
                    lo, hi, epsabs=0.0, epsrel=1e-9, limit=200)
                return val

            for j in (100, 120, 140):
                assert weighted_shell(j + 2) <= 0.999 * weighted_shell(j)
            assert np.isfinite(tail_integral(K, 1.0))


class TestTailIntegral:
    @pytest.mark.parametrize("dim,alpha", [(1, 0.5), (1, 1.2), (2, 0.5), (2, 1.0)])
    def test_fractional_closed_form(self, dim, alpha):
        K = make_kernel("fractional", dim=dim, alpha=alpha)
        for s in (0.5, 1.0, 3.0):
            exact = SPHERE_MEASURE[dim] * s ** -alpha / alpha
            assert tail_integral(K, s) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("family,params,dim", [
        ("log", {"beta": 1.0}, 1), ("log", {"beta": 1.0}, 2),
        ("log", {"beta": -0.5}, 1), ("log", {"beta": -0.5}, 2),
        ("log", {"beta": -1.0}, 1), ("log", {"beta": -1.0}, 2),
        ("two_exponent", {"alpha_inner": 0.3, "alpha_outer": 0.9}, 2),
    ])
    def test_closed_forms_against_quadrature(self, family, params, dim):
        K = make_kernel(family, dim=dim, **params)
        for s in (1e-3, 0.05, 0.5, 0.999, 1.0, 1.001, 3.0):
            assert tail_integral(K, s) == pytest.approx(_tail_quad(K, s), rel=1e-9)

    @pytest.mark.parametrize("family,params", [
        ("fractional", {"alpha": 0.5}),
        ("log", {"beta": -0.5}),
        ("piecewise_dyadic", {"mu": 0.5}),
    ])
    def test_array_input(self, family, params):
        # the dyadic kernel has no closed form: one Gauss-panel pass serves
        # the whole array
        K = make_kernel(family, dim=2, **params)
        ss = np.array([[0.003, 0.02, 0.3], [0.7, 1.0, 4.0]])
        vals = tail_integral(K, ss)
        assert vals.shape == ss.shape
        expected = [[tail_integral(K, float(s)) for s in row] for row in ss]
        np.testing.assert_allclose(vals, expected, rtol=1e-9, atol=0.0)

    def test_two_exponent_closed_form(self):
        a1, a2 = 0.3, 0.9
        K = make_kernel("two_exponent", dim=1, alpha_inner=a1, alpha_outer=a2)
        s = 0.4
        exact = 2.0 * ((s ** -a1 - 1.0) / a1 + 1.0 / a2)
        assert tail_integral(K, s) == pytest.approx(exact, rel=1e-8)

    def test_monotone_and_vanishing(self):
        K = make_kernel("piecewise_dyadic", dim=1, mu=0.5)
        ss = np.logspace(-3, 2, 25)
        vals = [tail_integral(K, s) for s in ss]
        assert np.all(np.diff(vals) <= 1e-12)
        assert vals[-1] < 1e-1 * vals[0]

    def test_rejects_nonpositive_radius(self):
        K = make_kernel("fractional", dim=1, alpha=0.5)
        with pytest.raises(ValidationError):
            tail_integral(K, 0.0)


def _named_tail(kern, s):
    """P(s) / omega_N in closed form, chosen by the family name as
    tail_integral chose it before each kernel carried its own tail; None
    for the families without one."""
    p = kern.params
    if kern.family == "fractional":
        return s ** -p["alpha"] / p["alpha"]
    if kern.family == "two_exponent":
        a1, a2 = p["alpha_inner"], p["alpha_outer"]
        inner = -np.log(s) if a1 == 0.0 else np.expm1(-a1 * np.log(s)) / a1
        return np.where(s < 1.0, inner + 1.0 / a2, s ** -a2 / a2)
    if kern.family == "log":
        beta, l2 = p["beta"], math.log(2.0)
        L = np.log(2.0 / np.minimum(s, 1.0))
        if beta == -1.0:
            inner = np.log(L / l2)
        else:
            inner = (L ** (beta + 1.0) - l2 ** (beta + 1.0)) / (beta + 1.0)
        return np.where(s <= 1.0, inner + l2 ** beta, l2 ** beta / s)
    return None


def _named_fractional_box(kern, bounds, x):
    """The fractional kernel's Lambda on a box as an incomplete beta function
    in each half-side's angle, as _box_exterior wrote it when it chose this
    route by the family name."""
    a1, b1, a2, b2 = bounds
    left, right, down, up = x[:, 0] - a1, b1 - x[:, 0], x[:, 1] - a2, b2 - x[:, 1]
    d = np.stack([left, left, right, right, down, down, up, up])
    l = np.stack([down, up, down, up, left, right, left, right])
    alpha = kern.params["alpha"]
    q = 0.5 * (alpha + 1.0)
    share = (d ** -alpha / alpha * 0.5 * beta_fn(0.5, q)
             * betainc(0.5, q, l * l / (d * d + l * l)))
    return share.sum(axis=0)


def _all_families(dim):
    return [
        make_kernel("fractional", dim=dim, alpha=0.5),
        make_kernel("fractional", dim=dim, alpha=1.3),
        make_kernel("two_exponent", dim=dim, alpha_inner=0.3, alpha_outer=0.9),
        make_kernel("two_exponent", dim=dim, alpha_inner=0.0, alpha_outer=1.0),
        make_kernel("two_exponent", dim=dim, alpha_inner=0.7, alpha_outer=0.7),
        make_kernel("log", dim=dim, beta=1.0),
        make_kernel("log", dim=dim, beta=-0.5),
        make_kernel("log", dim=dim, beta=-1.0),
        make_kernel("piecewise_dyadic", dim=dim, mu=0.5),
        make_kernel("custom_radial", dim=dim,
                    profile=lambda r, dim=dim: np.asarray(r, dtype=float) ** (-dim - 0.5)),
    ]


class TestKernelStructure:
    """Each kernel carries its closed-form tail and its pure-power order,
    set beside its profile, and they keep the bits of the formulas that
    were once chosen by the family name."""

    def test_fields_by_family(self):
        for kern in _all_families(2):
            assert (kern.tail is not None) == (kern.family in ("fractional", "two_exponent",
                                                                 "log"))
            order = kern.params["alpha"] if kern.family == "fractional" else None
            assert kern.power_order == order

    @pytest.mark.parametrize("dim", [1, 2])
    def test_tail_integral_keeps_its_bits(self, dim):
        s = np.concatenate([np.logspace(-6.0, 3.0, 91), [0.999, 1.0, 1.001, 2.0]])
        for kern in _all_families(dim):
            closed = _named_tail(kern, s)
            per_direction = _tail_stepped(kern, s) if closed is None else closed
            ref = SPHERE_MEASURE[dim] * per_direction
            assert tail_integral(kern, s).tobytes() == ref.tobytes(), kern.family
            assert tail_integral(kern, 0.3) == float(SPHERE_MEASURE[dim] * (
                _tail_stepped(kern, np.asarray(0.3)) if closed is None
                else _named_tail(kern, np.asarray(0.3))))

    @pytest.mark.parametrize("shape, n, bounds", [
        ("interval", 16, (-1.0, 1.0)),
        ("box", 8, (-1.0, 1.0, -1.0, 1.0)),
        ("ball", 8, (0.0, 0.0, 1.0)),
    ])
    def test_exterior_weights_keep_their_bits(self, shape, n, bounds):
        # the fractional box by the incomplete beta function; every other
        # case by the ray formula on the tail the family name once chose
        grid = make_grid(shape, n, bounds)
        for kern in _all_families(grid.dim):
            if shape == "box" and kern.family == "fractional":
                ref = _named_fractional_box(kern, grid.bounds, grid.nodes)
            else:
                named = None if _named_tail(kern, np.ones(1)) is None else (
                    lambda s, kern=kern: _named_tail(kern, s))
                ref = exterior_weights(
                    dataclasses.replace(kern, tail=named, power_order=None), grid)
            assert exterior_weights(kern, grid).tobytes() == ref.tobytes(), kern.family


def _box_side_reference(kern, bounds, x):
    """Sum over the four sides of the ray integral of T(d / cos(phi)) over the
    angles phi, measured from the side's normal, at which the ray leaves the
    box through that side; T = P / (2 pi)."""
    a1, b1, a2, b2 = bounds
    left, right, down, up = x[0] - a1, b1 - x[0], x[1] - a2, b2 - x[1]
    total = 0.0
    for d, (lo, hi) in ((left, (down, up)), (right, (down, up)),
                        (down, (left, right)), (up, (left, right))):
        lo, hi = -np.arctan2(lo, d), np.arctan2(hi, d)
        kinks = [s * np.arccos(d / b) for b in kern.breakpoints if b > d for s in (-1, 1)]
        val, _ = quad(lambda phi: tail_integral(kern, d / np.cos(phi)) / (2.0 * np.pi),
                      lo, hi, points=[k for k in kinks if lo < k < hi] or None,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        total += val
    return total


def _ball_ray_reference(kern, bounds, x):
    """Integral of T(rho(theta)) over the ray angle theta from the outward
    radial direction, by adaptive quadrature split at the tangent direction
    and where rho crosses a kernel breakpoint."""
    cx, cy, R = bounds
    r0 = np.hypot(x[0] - cx, x[1] - cy)

    def rho(theta):
        return -r0 * np.cos(theta) + np.sqrt(R * R - (r0 * np.sin(theta)) ** 2)

    kinks = [np.arccos(np.clip((R * R - r0 * r0 - b * b) / (2.0 * r0 * b), -1.0, 1.0))
             for b in kern.breakpoints if R - r0 < b < R + r0]
    val, _ = quad(lambda t: tail_integral(kern, rho(t)) / (2.0 * np.pi), 0.0, np.pi,
                  points=sorted(set(kinks + [0.5 * np.pi])), epsabs=0.0,
                  epsrel=1e-13, limit=200)
    return 2.0 * val


def _box_exterior_reference(kern, bounds, x):
    """Independent route: integrate J over the four exterior slabs."""
    a1, b1, a2, b2 = bounds

    def J(y1, y2):
        return float(kern.profile(np.hypot(y1 - x[0], y2 - x[1])))

    total = 0.0
    for (lo1, hi1, lo2, hi2) in [
        (-np.inf, a1, -np.inf, np.inf),
        (b1, np.inf, -np.inf, np.inf),
        (a1, b1, -np.inf, a2),
        (a1, b1, b2, np.inf),
    ]:
        val, _ = dblquad(lambda y2, y1: J(y1, y2), lo1, hi1, lo2, hi2,
                         epsabs=1e-11, epsrel=1e-9)
        total += val
    return total


class TestLambdaExterior:
    def test_interval_center_closed_form(self):
        # unit interval around an interior point: exterior mass in closed form
        K = make_kernel("fractional", dim=1, alpha=0.5)
        g = make_grid("interval", 8, (-1.0, 1.0))
        assert lambda_exterior(K, g, [0.0]) == pytest.approx(2.0 / 0.5, rel=1e-12)
        x = 0.3
        exact = ((1.0 + x) ** -0.5 + (1.0 - x) ** -0.5) * 2.0 / 0.5 / 2.0 * 2.0
        # P(s)/2 per side with P(s) = 2 s^-a / a
        exact = (2.0 * (1.0 + x) ** -0.5 / 0.5 + 2.0 * (1.0 - x) ** -0.5 / 0.5) / 2.0
        assert lambda_exterior(K, g, [x]) == pytest.approx(exact, rel=1e-12)
        xs = g.nodes[:, 0]
        exact = 2.0 * ((xs + 1.0) ** -0.5 + (1.0 - xs) ** -0.5)
        np.testing.assert_allclose(exterior_weights(K, g), exact, rtol=1e-12, atol=0.0)

    def test_ball_center_equals_tail(self):
        K = make_kernel("fractional", dim=2, alpha=1.0)
        g = make_grid("ball", 8, (0.0, 0.0, 1.0))
        assert lambda_exterior(K, g, [0.0, 0.0]) == pytest.approx(
            tail_integral(K, 1.0), rel=1e-10)

    def test_fractional_box_weights_match_side_quadrature(self):
        # the assembled weights at all 576 nodes, near-corner nodes included
        K = make_kernel("fractional", dim=2, alpha=0.5)
        g = make_grid("box", 24, (-1.0, 1.0, -1.0, 1.0))
        lam = assemble(g, K, make_young("power", p=2.0)).exterior
        ref = [_box_side_reference(K, g.bounds, x) for x in g.nodes]
        np.testing.assert_allclose(lam, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("shape,family,params", [
        ("box", "two_exponent", {"alpha_inner": 0.3, "alpha_outer": 0.9}),
        ("box", "log", {"beta": -1.0}),
        ("ball", "fractional", {"alpha": 1.5}),
        ("ball", "log", {"beta": 1.0}),
        ("ball", "two_exponent", {"alpha_inner": 0.3, "alpha_outer": 0.9}),
    ])
    def test_weights_match_ray_quadrature(self, shape, family, params):
        K = make_kernel(family, dim=2, **params)
        if shape == "box":
            g = make_grid("box", 10, (-1.0, 1.0, -1.0, 1.0))
            ref = [_box_side_reference(K, g.bounds, x) for x in g.nodes]
        else:
            g = make_grid("ball", 12, (0.0, 0.0, 1.0))
            ref = [_ball_ray_reference(K, g.bounds, x) for x in g.nodes]
        np.testing.assert_allclose(exterior_weights(K, g), ref, rtol=1e-9, atol=0.0)

    def test_box_against_slab_decomposition(self):
        K = make_kernel("fractional", dim=2, alpha=1.0)
        g = make_grid("box", 8, (0.0, 1.0, 0.0, 1.0))
        for x in ([0.3, 0.45], [0.52, 0.81]):
            ref = _box_exterior_reference(K, g.bounds, x)
            assert lambda_exterior(K, g, x) == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("shape,bounds", [
        ("interval", (-1.0, 1.0)),
        ("box", (0.0, 1.0, 0.0, 1.0)),
        ("ball", (0.0, 0.0, 1.0)),
    ])
    def test_volume_ball_lower_bound(self, shape, bounds):
        dim = 1 if shape == "interval" else 2
        K = make_kernel("fractional", dim=dim, alpha=0.5)
        g = make_grid(shape, 8, bounds)
        from nlorlicz.kernels import BALL_VOLUME
        r_om = (g.volume / BALL_VOLUME[dim]) ** (1.0 / dim)
        bound = tail_integral(K, r_om)
        for node in g.nodes:
            assert lambda_exterior(K, g, node) >= bound - 1e-8

    def test_monotone_toward_boundary(self):
        K = make_kernel("fractional", dim=1, alpha=0.5)
        g = make_grid("interval", 8, (-1.0, 1.0))
        xs = np.linspace(0.0, 0.9, 10)
        vals = [lambda_exterior(K, g, [x]) for x in xs]
        assert np.all(np.diff(vals) > 0.0)

    @pytest.mark.parametrize("shape,bounds,direction", [
        ("box", (0.0, 1.0, 0.0, 1.0), np.array([1.0, 0.3])),
        ("ball", (0.0, 0.0, 1.0), np.array([0.6, 0.8])),
    ])
    def test_monotone_along_ray_2d(self, shape, bounds, direction):
        K = make_kernel("fractional", dim=2, alpha=1.0)
        g = make_grid(shape, 8, bounds)
        direction = direction / np.linalg.norm(direction)
        ts = np.linspace(0.0, 0.4, 6)
        vals = [lambda_exterior(K, g, g.center + t * direction) for t in ts]
        assert np.all(np.diff(vals) > 0.0)

    def test_box_inside_angle_against_sampling(self):
        # count the points x + r e(theta) inside the unit box over a fine
        # uniform angle grid; each arc endpoint costs at most one grid step
        n = 200_000
        theta = (np.arange(n) + 0.5) * (2.0 * np.pi / n)
        c, s = np.cos(theta), np.sin(theta)
        for x in ([0.3, 0.45], [0.12, 0.81], [0.66, 0.07], [0.5, 0.2]):
            dists = (x[0], 1.0 - x[0], x[1], 1.0 - x[1])
            far = max(np.hypot(a, b) for a in dists[:2] for b in dists[2:])
            for r in np.linspace(min(dists), far, 9):
                px, py = x[0] + r * c, x[1] + r * s
                inside = (px > 0.0) & (px < 1.0) & (py > 0.0) & (py < 1.0)
                sampled = 2.0 * np.pi * np.count_nonzero(inside) / n
                assert _box_inside_angle(r, dists) == pytest.approx(
                    sampled, abs=8 * 2.0 * np.pi / n)

    def test_rejects_exterior_point(self):
        K = make_kernel("fractional", dim=1, alpha=0.5)
        g = make_grid("interval", 8, (-1.0, 1.0))
        with pytest.raises(ValidationError):
            lambda_exterior(K, g, [1.5])


class TestPoincareConstant:
    def test_interval_example(self):
        # inradius 1, R = 2, kernel minimum 2^-1.5, annulus measure 2
        K = make_kernel("fractional", dim=1, alpha=0.5)
        g = make_grid("interval", 8, (-1.0, 1.0))
        assert poincare_constant(K, g) == pytest.approx(2.0 ** -0.5, rel=1e-12)

    def test_shrinking_domain_grows_constant(self):
        K = make_kernel("fractional", dim=1, alpha=0.5)
        sizes = [1.0, 0.5, 0.25]
        vals = [
            poincare_constant(K, make_grid("interval", 8, (-s, s))) for s in sizes
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_nonmonotone_kernel_uses_scan(self):
        K = make_kernel("piecewise_dyadic", dim=1, mu=0.5)
        g = make_grid("interval", 8, (-0.1, 0.1))
        A = poincare_constant(K, g)
        # the scan minimum can be no larger than the profile at R
        assert A <= float(K.profile(np.array(0.2))) * 2.0 * 0.1 + 1e-12

    @pytest.mark.parametrize("shape, bounds", [
        ("interval", (-1.0, 1.759)),
        ("box", (-1.0, 1.759, -1.0, 1.759)),
        ("ball", (0.0, 0.0, 1.3795)),
    ])
    def test_annulus_has_the_bits_of_the_squares_as_products(self, shape, bounds):
        # inradius 1.3795: pow(1.3795, 2) is not the rounded 1.3795 * 1.3795
        g = make_grid(shape, 8, bounds)
        K = make_kernel("fractional", dim=g.dim, alpha=0.5)
        d = g.inradius
        R = 2.0 * d
        annulus = 2.0 * (R - d) if g.dim == 1 else np.pi * (R * R - d * d)
        assert poincare_constant(K, g) == float(K.profile(np.array(R))) * annulus

    def test_sphere_and_ball_constants_are_exact(self):
        from nlorlicz import grid
        from nlorlicz.kernels import BALL_VOLUME

        assert SPHERE_MEASURE == {1: 2.0, 2: 2.0 * np.pi}
        assert BALL_VOLUME == {1: 2.0, 2: np.pi}
        # the tables live in grid.py and stay importable from kernels
        assert SPHERE_MEASURE is grid.SPHERE_MEASURE and BALL_VOLUME is grid.BALL_VOLUME


class TestScalingProfile:
    def test_fractional_exact(self):
        K = make_kernel("fractional", dim=2, alpha=0.7)
        prof = scaling_profile(K)
        assert prof.finite
        assert prof.delta == pytest.approx(0.7, abs=1e-4)
        for lam in (1.1, 1.5, 2.0):
            assert prof.mu_eval(lam) == pytest.approx(lam ** 0.7, rel=1e-12)

    def test_mu_at_one_limit(self):
        K = make_kernel("fractional", dim=1, alpha=0.5)
        prof = scaling_profile(K)
        assert abs(prof.mu_eval(1.0 + 1e-10) - 1.0) < 1e-9

    def test_two_exponent_max_rule(self):
        K = make_kernel("two_exponent", dim=1, alpha_inner=0.3, alpha_outer=0.9)
        prof = scaling_profile(K)
        assert prof.delta == pytest.approx(0.9, abs=1e-4)
        K2 = make_kernel("two_exponent", dim=1, alpha_inner=1.1, alpha_outer=0.4)
        assert scaling_profile(K2).delta == pytest.approx(1.1, abs=1e-4)

    def test_dyadic_reports_infinite(self):
        K = make_kernel("piecewise_dyadic", dim=1, mu=0.5)
        prof = scaling_profile(K)
        assert not prof.finite
        assert prof.delta is None

    def test_rescaled_sup_monotone(self):
        # lambda^N * mu(lambda) nondecreasing for the monotone-sup families
        for K in (make_kernel("fractional", dim=1, alpha=0.5),
                  make_kernel("two_exponent", dim=1, alpha_inner=0.3, alpha_outer=0.9)):
            prof = scaling_profile(K)
            lams = np.linspace(1.05, 2.0, 12)
            vals = [lam ** K.dim * prof.mu_eval(lam) for lam in lams]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_rejects_bad_lambda_grid(self):
        K = make_kernel("fractional", dim=1, alpha=0.5)
        with pytest.raises(ValidationError):
            scaling_profile(K, lambda_grid=(0.9, 1.1))

    @pytest.mark.parametrize("family, kw, samples", [
        ("fractional", {"alpha": 0.5}, 6),  # three lambdas in two windows
        ("two_exponent", {"alpha_inner": 0.3, "alpha_outer": 0.9}, 6),
        ("piecewise_dyadic", {"mu": 0.5}, 4),  # infinite at the first lambda
    ])
    def test_each_sample_is_taken_once(self, family, kw, samples):
        # one _mu_sample, two profile calls, per (lambda, window) on the
        # default grid, and the values of the uncached samples
        K = make_kernel(family, dim=1, **kw)
        calls = []

        def profile(r):
            calls.append(1)
            return K.profile(r)

        prof = scaling_profile(dataclasses.replace(K, profile=profile))
        assert len(calls) == 2 * samples
        lams = (1.01, 1.02, 1.04)
        assert prof.mu_values == tuple(_mu_sample(K, lam) for lam in lams)
        if prof.finite:
            d1, d2, d4 = [(_mu_sample(K, 1.0 + h) - 1.0) / h for h in (0.01, 0.02, 0.04)]
            e1, e2 = 2.0 * d1 - d2, 2.0 * d2 - d4
            assert prof.delta == e1 + (e1 - e2) / 3.0


class TestSingularityEstimate:
    def test_fractional(self):
        K = make_kernel("fractional", dim=1, alpha=0.5)
        est, note = estimate_singularity_order(K)
        assert abs(est - 0.5) <= 0.01
        assert "heuristic" in note

    def test_log_kernel(self):
        K = make_kernel("log", dim=1, beta=1.0)
        est, _ = estimate_singularity_order(K)
        assert abs(est - 0.0) <= 0.011

    def test_dyadic(self):
        K = make_kernel("piecewise_dyadic", dim=2, mu=0.5)
        est, _ = estimate_singularity_order(K)
        assert abs(est - 0.5) <= 0.01

    def test_shell_masses_positive(self):
        K = make_kernel("log", dim=2, beta=-0.5)
        assert _shell_mass(K, 20) > 0.0

    def test_indeterminate_above_cap(self):
        # orders beyond N+2 are declared indeterminate rather than reported
        K = make_kernel("fractional", dim=1, alpha=3.5)
        est, note = estimate_singularity_order(K)
        assert est is None
        assert "indeterminate" in note
