import numpy as np
import pytest

from nlorlicz import (
    ValidationError,
    clarkson_gap,
    complementary,
    gamma_bounds,
    gamma_bounds_deriv,
    luxemburg_norm,
    make_young,
    sv_delta,
)
from nlorlicz.young import clarkson_conditions, gamma_plus_deriv

S_GRID = np.logspace(-4.0, 4.0, 1000)

FAMILIES = [
    make_young("power", p=2.0),
    make_young("power", p=1.5),
    make_young("power", p=3.0),
    make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)]),
    make_young("power_sum", terms=[(1.0, 1.7), (2.0, 2.5), (0.3, 3.0)]),
    make_young("log_perturbed", p=2.0, r=-0.5),
    make_young("log_perturbed", p=2.0, r=1.0),
]


@pytest.mark.parametrize("fn", FAMILIES, ids=lambda f: f"{f.family}-p{f.p:.3g}")
class TestClassMembership:
    def test_normalization_and_symmetry(self, fn):
        assert fn.value(np.array(0.0)) == 0.0
        assert abs(fn.value(np.array(1.0)) - 1.0) < 1e-12
        v = fn.value(S_GRID)
        assert np.allclose(fn.value(-S_GRID), v, rtol=1e-13, atol=0.0)

    def test_growth_ratio_bounds(self, fn):
        r = fn.ratio(S_GRID)
        assert np.all(r >= fn.q - 1e-9)
        assert np.all(r <= fn.p + 1e-9)

    def test_derivative_odd_and_nondecreasing(self, fn):
        d = fn.deriv(S_GRID)
        assert np.allclose(fn.deriv(-S_GRID), -d, rtol=1e-13, atol=0.0)
        assert np.all(np.diff(d) >= -1e-9 * (1.0 + d[1:]))

    def test_between_power_envelopes(self, fn):
        v = fn.value(S_GRID)
        lo = np.minimum(S_GRID ** fn.p, S_GRID ** fn.q)
        hi = np.maximum(S_GRID ** fn.p, S_GRID ** fn.q)
        assert np.all(v >= lo * (1.0 - 1e-9))
        assert np.all(v <= hi * (1.0 + 1e-9))


class TestConstruction:
    def test_power_sum_example_ratio(self):
        # equal-weight exponents 2 and 4: ratio (2s^2+4s^4)/(s^2+s^4)
        fn = make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)])
        assert (fn.q, fn.p) == (2.0, 4.0)
        for s in (0.1, 1.0, 10.0):
            expected = (2 * s**2 + 4 * s**4) / (s**2 + s**4)
            assert fn.ratio(np.array(s)) == pytest.approx(expected, rel=1e-12)

    def test_log_perturbed_bounds(self):
        fn = make_young("log_perturbed", p=2.0, r=-0.5)
        assert fn.q == pytest.approx(1.5)
        assert fn.p == pytest.approx(2.0)
        r = fn.ratio(np.logspace(-6, 6, 500))
        assert r.min() > fn.q
        assert r.max() < fn.p

    @pytest.mark.parametrize("r", [-0.5, 1.0])
    def test_log_perturbed_zero_without_warning(self, r):
        # at r < 1 the closed forms meet 0^(r-1) = inf at the origin
        import warnings

        fn = make_young("log_perturbed", p=2.0, r=r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fn.value(np.array(0.0)) == 0.0
            assert fn.deriv(np.array(0.0)) == 0.0
            s = np.array([-1.0, -0.0, 0.0, 0.5])
            v, d = fn.value(s), fn.deriv(s)
        assert np.array_equal(v[1:3], [0.0, 0.0]) and np.array_equal(d[1:3], [0.0, 0.0])
        assert np.all(v[[0, 3]] > 0.0) and d[0] < 0.0 < d[3]

    def test_rejections_name_the_condition(self):
        with pytest.raises(ValidationError, match="q > 1"):
            make_young("power", p=1.0)
        with pytest.raises(ValidationError, match="q > 1"):
            make_young("power_sum", terms=[(1.0, 0.8), (1.0, 2.0)])
        with pytest.raises(ValidationError, match="min\\(p, p\\+r\\) > 1"):
            make_young("log_perturbed", p=1.2, r=-0.3)
        with pytest.raises(ValidationError):
            make_young("power_sum", terms=[(-1.0, 2.0)])
        with pytest.raises(ValidationError):
            make_young("no_such_family")

    def test_custom_family_sampling_margin(self):
        fn = make_young(
            "custom",
            value=lambda s: np.abs(s) ** 2.5,
            deriv=lambda s: 2.5 * np.abs(s) ** 1.5 * np.sign(s),
        )
        assert fn.q <= 2.5 <= fn.p
        assert fn.p <= 2.5 * 1.02

    def test_custom_rejects_sublinear_growth(self):
        with pytest.raises(ValidationError, match="q > 1"):
            make_young(
                "custom",
                value=lambda s: np.abs(s),
                deriv=lambda s: np.sign(s).astype(float),
            )


class TestGammaBounds:
    def test_pure_power_homogeneity(self):
        fn = make_young("power", p=2.5)
        for s in (0.3, 2.0, 7.0):
            gm, gp = gamma_bounds(fn, s)
            assert gm == pytest.approx(s ** 2.5, rel=1e-12)
            assert gp == pytest.approx(s ** 2.5, rel=1e-12)

    @pytest.mark.parametrize("fn", FAMILIES, ids=lambda f: f"{f.family}-p{f.p:.3g}")
    def test_identity_at_one(self, fn):
        gm, gp = gamma_bounds(fn, 1.0)
        assert gm == pytest.approx(1.0, abs=1e-9)
        assert gp == pytest.approx(1.0, abs=1e-9)

    def test_power_sum_limits(self):
        fn = make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)])
        gm, gp = gamma_bounds(fn, 2.0)
        assert gm == pytest.approx(4.0, rel=1e-9)   # attained as x -> 0
        assert gp == pytest.approx(16.0, rel=1e-9)  # attained as x -> inf

    @pytest.mark.parametrize("fn", FAMILIES, ids=lambda f: f"{f.family}-p{f.p:.3g}")
    def test_power_envelope(self, fn):
        for s in (0.25, 0.8, 3.0, 20.0):
            gm, gp = gamma_bounds(fn, s)
            lo, hi = min(s**fn.p, s**fn.q), max(s**fn.p, s**fn.q)
            assert lo * (1 - 1e-9) <= gm <= gp <= hi * (1 + 1e-9)

    def test_monotone_in_s(self):
        fn = make_young("log_perturbed", p=2.0, r=1.0)
        ss = np.linspace(0.2, 5.0, 15)
        gms, gps = zip(*(gamma_bounds(fn, s) for s in ss))
        assert np.all(np.diff(gms) >= -1e-10)
        assert np.all(np.diff(gps) >= -1e-10)

    def test_submultiplicativity(self):
        fn = make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)])
        rng = np.random.default_rng(11)
        for s, t in rng.uniform(0.2, 5.0, (25, 2)):
            _, gp_st = gamma_bounds(fn, s * t)
            _, gp_s = gamma_bounds(fn, s)
            _, gp_t = gamma_bounds(fn, t)
            assert gp_st <= gp_s * gp_t * (1 + 1e-9)
            gm_st, _ = gamma_bounds(fn, s * t)
            gm_s, _ = gamma_bounds(fn, s)
            gm_t, _ = gamma_bounds(fn, t)
            assert gm_st >= gm_s * gm_t * (1 - 1e-9)

    def test_derivative_bounds_relation(self):
        # q/p * gm(s)/s <= gm_deriv(s) <= gp_deriv(s) <= p/q * gp(s)/s
        fn = make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)])
        for s in (0.3, 2.0, 6.0):
            gm, gp = gamma_bounds(fn, s)
            dm, dp = gamma_bounds_deriv(fn, s)
            assert dm >= fn.q / fn.p * gm / s * (1 - 1e-9)
            assert dp <= fn.p / fn.q * gp / s * (1 + 1e-9)

    def test_vectorized_gamma_plus_deriv(self):
        fn = make_young("log_perturbed", p=2.0, r=0.5)
        s = np.array([0.0, 0.5, 2.0])
        out = gamma_plus_deriv(fn, s)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(gamma_bounds_deriv(fn, 0.5)[1], rel=1e-9)

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValidationError):
            gamma_bounds(FAMILIES[0], 0.0)


class TestComplementary:
    def test_quadratic_self_conjugate(self):
        conj = complementary(make_young("power", p=2.0))
        b = np.linspace(0.1, 3.0, 7)
        assert np.allclose(conj.phi(b), b ** 2, rtol=1e-10)

    def test_power_conjugate_exponent(self):
        p = 3.0
        conj = complementary(make_young("power", p=p))
        pc = p / (p - 1.0)
        assert conj.p_conj == pytest.approx(pc)
        assert conj.q_conj == pytest.approx(pc)
        b = np.linspace(0.2, 4.0, 9)
        assert np.allclose(conj.phi(b), b ** pc, rtol=1e-9)

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
    def test_power_closed_form_matches_bisection(self, p):
        from nlorlicz.young import _deriv_inverse, _normalize_scale

        fn = make_young("power", p=p)
        conj = complementary(fn)
        b = np.logspace(-3.0, 3.0, 200)

        def legendre(b):
            a = _deriv_inverse(fn, b)
            return a * b - fn.value(a)

        ref = legendre(b)
        assert np.all(np.abs(conj.phi_raw(b) - ref) <= 1e-13 * ref)
        b0 = _normalize_scale(lambda t: float(legendre(np.array([t]))[0]))
        assert conj.arg_scale == pytest.approx(b0, rel=1e-13)
        assert conj.phi(1.0) == pytest.approx(1.0, rel=1e-14)
        a = conj.deriv_inverse(b)
        assert np.allclose(fn.deriv(a), b, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_power_conjugate_needs_no_root_finding(self, p, monkeypatch):
        import nlorlicz.young

        fn = make_young("power", p=p)

        def refuse(*args, **kwargs):
            raise AssertionError("brentq called")

        monkeypatch.setattr(nlorlicz.young, "brentq", refuse)
        conj = complementary(fn)
        assert conj.phi_raw(np.array(2.0)) > 0.0

    def test_young_inequality_with_equality_witness(self):
        fn = make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)])
        conj = complementary(fn)
        rng = np.random.default_rng(5)
        a = rng.uniform(-10, 10, 10000)
        b = rng.uniform(-10, 10, 10000)
        resid = fn.value(a) + conj.phi_raw(b) - a * b
        assert resid.min() >= -1e-8
        aw = rng.uniform(-5, 5, 1000)
        bw = fn.deriv(aw)
        gap = np.abs(fn.value(aw) + conj.phi_raw(bw) - aw * bw)
        assert gap.max() < 1e-8

    def test_normalized_phi_keeps_young_inequality(self):
        fn = make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)])
        conj = complementary(fn)
        assert conj.arg_scale >= 1.0
        rng = np.random.default_rng(6)
        a = rng.uniform(-10, 10, 1000)
        b = rng.uniform(-10, 10, 1000)
        assert np.min(fn.value(a) + conj.phi(b) - a * b) >= -1e-8

    def test_conjugate_class_membership(self):
        # conjugation swaps the roles: the conjugate's growth ratio lives in
        # [p', q'] (p' <= q' since p >= q)
        fn = make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)])
        conj = complementary(fn)
        assert conj.phi(np.array(1.0)) == pytest.approx(1.0, abs=1e-9)
        s = np.logspace(-3, 3, 200)
        ratio = s * conj.deriv_inverse(s) / conj.phi_raw(s)
        assert np.all(ratio >= conj.p_conj - 1e-6)
        assert np.all(ratio <= conj.q_conj + 1e-6)


class TestLuxemburgNorm:
    def test_zero_function(self):
        assert luxemburg_norm(lambda k: 0.0) == 0.0

    def test_constant_on_measure_closed_form(self):
        # u = c on a set of measure m with a pure power: k = c * m^(1/p)
        c, m, p = 2.0, 0.5, 3.0
        fn = make_young("power", p=p)
        k = luxemburg_norm(lambda k: m * float(fn.value(np.array(c / k))))
        assert k == pytest.approx(c * m ** (1.0 / p), rel=1e-9)


class TestClarkson:
    def test_equal_arguments_vanish(self):
        rep = clarkson_gap(make_young("power", p=2.0), 0.7, 0.7)
        assert rep.left == 0.0
        assert rep.rhs_convex_sqrt == 0.0

    def test_quadratic_example(self):
        rep = clarkson_gap(make_young("power", p=2.0), 1.0, -1.0)
        assert rep.left == pytest.approx(8.0)
        assert rep.rhs_convex_sqrt == pytest.approx(4.0)
        assert rep.left >= rep.rhs_convex_sqrt

    def test_conditions_by_exponent(self):
        conds_3 = clarkson_conditions(make_young("power", p=3.0))
        assert conds_3["sqrt_convex"] and not conds_3["power_pinch"]
        conds_15 = clarkson_conditions(make_young("power", p=1.5))
        assert not conds_15["sqrt_convex"]
        assert conds_15["deriv_concave"] and conds_15["power_pinch"]

    def test_convex_case_holds_on_samples(self):
        fn = make_young("power", p=3.0)
        rng = np.random.default_rng(12)
        for a, b in rng.uniform(-4, 4, (200, 2)):
            rep = clarkson_gap(fn, a, b)
            assert rep.left >= rep.rhs_convex_sqrt - 1e-9 * (1 + abs(rep.left))

    def test_concave_case_holds_on_samples(self):
        fn = make_young("power", p=1.5)
        rng = np.random.default_rng(13)
        for a, b in rng.uniform(-4, 4, (200, 2)):
            rep = clarkson_gap(fn, a, b)
            assert rep.rhs_concave is not None
            assert rep.left >= rep.rhs_concave - 1e-9 * (1 + abs(rep.left))

    def test_singular_case_with_calibrated_constant(self):
        fn = make_young("power", p=1.5)
        rng = np.random.default_rng(14)
        a = rng.uniform(-5, 5, 10000)
        b = rng.uniform(-5, 5, 10000)
        failures = 0
        for ai, bi in zip(a, b):
            rep = clarkson_gap(fn, ai, bi)
            if rep.rhs_singular is None:
                continue
            if rep.left < rep.rhs_singular - 1e-9 * (1 + abs(rep.left)):
                failures += 1
        assert failures == 0


class TestCharacteristicBundle:
    def test_maps_agree_with_gamma_bounds(self):
        from nlorlicz.young import characteristic_bounds

        fn = make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)])
        ch = characteristic_bounds(fn)
        for s in (0.5, 2.0):
            gm, gp = gamma_bounds(fn, s)
            assert ch.gamma_minus(s) == gm
            assert ch.gamma_plus(s) == gp


class TestSvDelta:
    def test_pure_power(self):
        assert sv_delta(make_young("power", p=3.0)) == pytest.approx(3.0)

    def test_power_sum_matches_extreme_coefficients(self):
        fn = make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)])
        kt = fn.params["terms"]
        expected = min(k * p for k, p in (kt[0], kt[-1]))
        assert sv_delta(fn) == pytest.approx(expected, rel=1e-6)
