from dataclasses import asdict, replace

import numpy as np
import pytest

from nlorlicz import (
    BracketingError,
    CorpusSpec,
    ValidationError,
    assemble,
    bump,
    check_reaction_conditions,
    clarkson_gap,
    complementary,
    gamma_bounds,
    gamma_bounds_deriv,
    luxemburg_norm,
    make_young,
    pohozaev_check,
    power_reaction,
    run_battery,
    sv_delta,
)
from nlorlicz.young import _CHECK_GRID, clarkson_conditions, gamma_plus_deriv

S_GRID = np.logspace(-4.0, 4.0, 1000)

FAMILIES = [
    make_young("power", p=2.0),
    make_young("power", p=1.5),
    make_young("power", p=3.0),
    make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)]),
    make_young("power_sum", terms=[(1.0, 1.7), (2.0, 2.5), (0.3, 3.0)]),
    make_young("log_perturbed", p=2.0, r=-0.5),
    make_young("log_perturbed", p=2.0, r=1.0),
    # |s|^3 spelled as a one-term power sum and as a log perturbation with r = 0
    pytest.param(make_young("power_sum", terms=[(1.0, 3.0)]), id="power_sum-p3-one-term"),
    pytest.param(make_young("log_perturbed", p=3.0, r=0.0), id="log_perturbed-p3-r0"),
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

    @pytest.mark.parametrize("family, params, terms", [
        ("power", {"p": 4.0}, ((4, 1.0),)),
        ("power", {"p": 6.0}, ((6, 1.0),)),
        # |s|^2 is the polynomial of degree 2, however it is spelled
        ("power", {"p": 2.0}, ((2, 1.0),)),
        ("power", {"p": 3.0}, None),
        ("power", {"p": 8.0}, None),
        ("power_sum", {"terms": [(1.0, 2.0), (1.0, 6.0)]}, (2, 6)),
        ("power_sum", {"terms": [(1.0, 2.0)]}, (2,)),
        ("power_sum", {"terms": [(0.5, 2.0), (0.5, 2.0)]}, (2, 2)),
        ("power_sum", {"terms": [(0.5, 2.0), (0.5, 3.0)]}, None),
        ("power_sum", {"terms": [(0.5, 4.0), (0.5, 8.0)]}, None),
        ("log_perturbed", {"p": 2.0, "r": 1.0}, None),
    ])
    def test_even_terms(self, family, params, terms):
        fn = make_young(family, **params)
        if terms is None or family == "power":
            assert fn.even_terms == terms
            return
        assert tuple(d for d, _ in fn.even_terms) == terms
        s = np.linspace(-3.0, 3.0, 61)
        poly = sum(c * s ** d for d, c in fn.even_terms)
        assert np.allclose(poly, fn.value(s), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("family, params, quadratic, homogeneous", [
        ("power", {"p": 2.0}, True, True),
        ("power_sum", {"terms": [(1.0, 2.0)]}, True, True),
        ("power_sum", {"terms": [(0.3, 2.0), (0.7, 2.0)]}, True, True),
        ("power", {"p": 2.0 + 1e-13}, False, True),
        ("power", {"p": 4.0}, False, True),
        ("power_sum", {"terms": [(0.5, 3.0), (0.5, 3.0)]}, False, True),
        ("log_perturbed", {"p": 3.0, "r": 0.0}, False, True),
        ("power_sum", {"terms": [(0.5, 2.0), (0.5, 4.0)]}, False, False),
        ("log_perturbed", {"p": 2.0, "r": 1.0}, False, False),
    ])
    def test_structure_is_read_off_the_function(self, family, params, quadratic,
                                                homogeneous):
        # quadratic and homogeneous depend on what psi is, not on its family
        fn = make_young(family, **params)
        assert (fn.quadratic, fn.homogeneous) == (quadratic, homogeneous)

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

    def test_custom_rejects_a_derivative_that_is_not_odd(self):
        # |s|^1.5 without the sign is even: the pair passes and the
        # interaction form need psi' odd
        with pytest.raises(ValidationError, match=r"deriv\(-s\) = -deriv\(s\)"):
            make_young(
                "custom",
                value=lambda s: np.abs(s) ** 2.5,
                deriv=lambda s: 2.5 * np.abs(s) ** 1.5,
            )

    def test_custom_rejects_a_derivative_offset_at_zero(self):
        # the energy pass takes E = 0 and a zero gradient at x = 0 with no
        # walk, which needs psi'(0) = 0; off 0 this psi' is |s|^2.5's
        with pytest.raises(ValidationError, match=r"deriv\(0\) = 0"):
            make_young(
                "custom",
                value=lambda s: np.abs(s) ** 2.5,
                deriv=lambda s: np.where(s == 0.0, 1e-3, 2.5 * np.abs(s) ** 1.5 * np.sign(s)),
            )

    def test_custom_rejects_sublinear_growth(self):
        with pytest.raises(ValidationError, match="q > 1"):
            make_young(
                "custom",
                value=lambda s: np.abs(s),
                deriv=lambda s: np.sign(s).astype(float),
            )


@pytest.mark.parametrize("fn", FAMILIES + [
    pytest.param(make_young("custom", value=lambda s: np.abs(s) ** 2.5,
                            deriv=lambda s: 2.5 * np.abs(s) ** 1.5 * np.sign(s)), id="custom"),
], ids=lambda f: f"{f.family}-p{f.p:.3g}")
def test_joint_evaluator_has_the_bits_of_value_and_deriv(fn):
    # on the construction-time check grid, both signs and 0, and on scalars
    # and 2D arrays: the pair walk calls it on blocks of differences
    grid = np.concatenate([-_CHECK_GRID[::-1], [0.0], _CHECK_GRID])
    for s in (grid, grid.reshape(3, -1)[:, ::-1], np.array(0.0), np.array(-2.5)):
        v, d = fn.value_and_deriv(s)
        assert type(v) is type(fn.value(s)) and type(d) is type(fn.deriv(s))
        assert np.asarray(v).tobytes() == np.asarray(fn.value(s)).tobytes()
        assert np.asarray(d).tobytes() == np.asarray(fn.deriv(s)).tobytes()



def _plain_log_perturbed(fn):
    """value, deriv, joint, deriv2 and curvature of a log_perturbed fn as
    plain formulas, each operation on a fresh array, with a = t0 |s| and
    L = log1p(a): the in-place evaluators keep their operations and order."""
    t0, c, p, r = (fn.params[k] for k in ("arg_scale", "c", "p", "r"))

    def value(s):
        a = t0 * np.abs(np.asarray(s, dtype=float))
        out = np.where(a > 0.0, c * a ** p * np.log1p(a) ** r, 0.0)
        return out if out.ndim else float(out)

    def slope(a, L):
        return t0 * c * a ** (p - 1.0) * L ** (r - 1.0) * (p * L + r * a / (1.0 + a))

    def deriv(s):
        s = np.asarray(s, dtype=float)
        a = t0 * np.abs(s)
        out = np.where(a > 0.0, slope(a, np.log1p(a)), 0.0) * np.sign(s)
        return out if out.ndim else float(out)

    def joint(s):
        s = np.asarray(s, dtype=float)
        a = t0 * np.abs(s)
        L = np.log1p(a)
        v = np.where(a > 0.0, c * a ** p * L ** r, 0.0)
        d = np.where(a > 0.0, slope(a, L), 0.0) * np.sign(s)
        return (v, d) if v.ndim else (float(v), float(d))

    def pair(a):
        L = np.log1p(a)
        a1 = 1.0 + a
        g = a / a1
        A = t0 ** 2 * c * a ** (p - 2.0)
        Lr = L ** (r - 2.0)
        pL, rg = p * L, r * g
        pLrg = pL + rg
        d2 = A * Lr * ((p - 1.0) * L * pLrg + rg * (pL + (r - 1.0) * g) + r * L * g / a1)
        return d2, A * pLrg * (Lr * L)

    def deriv2(s):
        a = t0 * np.abs(np.asarray(s, dtype=float))
        out = np.zeros_like(a)
        nz = a > 0.0
        out[nz] = pair(a[nz])[0]
        return out if out.ndim else float(out)

    def curvature(t):
        return np.maximum(*pair(t0 * t))

    return {"value": value, "deriv": deriv, "joint": joint, "deriv2": deriv2,
            "curvature": curvature}


def _same_bits(got, ref):
    """got and ref are equal bit for bit, signed zeros included, where ref
    is a number; where ref is NaN, got is NaN too, of either sign."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    nan = np.isnan(ref)
    return (got.shape == ref.shape and np.array_equal(np.isnan(got), nan)
            and np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, ref).tobytes())


_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-8, -1e-8, 1.0, -1.0,
                   1e8, -1e8, 1e300, -1e300, 0.75, 0.75, -0.75, 3.0, 3.0, -3.0, -3.0])


@pytest.mark.parametrize("p, r", [(p, r) for p in (1.5, 2.0, 3.0) for r in (-0.5, 1.0, 2.5)
                                  if min(p, p + r) > 1.0])
def test_log_perturbed_evaluators_keep_the_plain_bits(p, r):
    # at 0 and from |s| = 1e-100 up; between, the single powers take over
    # (test_log_perturbed_evaluators_take_single_powers_at_tiny_arguments),
    # so _EDGES' 5e-324 and 1e-300 are 1e-100 and 1e-17 here.  At 0
    # deriv2 is its limit, which the plain formula's 0 is only for p + r > 2
    import warnings

    fn = make_young("log_perturbed", p=p, r=r)
    plain, limit = _plain_log_perturbed(fn), _single_powers(fn)
    edges = np.concatenate([_EDGES[:2], [1e-100, -1e-100, 1e-17, -1e-17], _EDGES[6:]])
    rng = np.random.default_rng(11)
    spread = rng.choice([-1.0, 1.0], 399) * 10.0 ** rng.uniform(-12.0, 12.0, 399)
    full = np.concatenate([edges, spread])
    arrays = [edges, full, full.reshape(-1, 7), full.reshape(7, -1)[:, ::-1]]
    for s in arrays + [np.array(v) for v in edges]:
        with np.errstate(all="ignore"):
            ref = {name: plain[name](s) for name in ("value", "deriv", "joint", "deriv2")}
            ref["deriv2"] = np.where(s == 0.0, limit["deriv2"](s), ref["deriv2"])
            t = np.abs(s)[np.abs(s) > 0.0] if s.ndim else None
            if t is not None:
                ref["curvature"] = plain["curvature"](t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = {"value": fn.value(s), "deriv": fn.deriv(s), "joint": fn.joint(s),
                   "deriv2": fn.deriv2(s)}
            if t is not None:
                got["curvature"] = fn.curvature(t)
        for name in ref:
            if name == "joint":
                assert all(_same_bits(g, f) for g, f in zip(got[name], ref[name])), (name, s)
            else:
                assert _same_bits(got[name], ref[name]), (name, s)
        if s.ndim == 0:  # 0-d inputs return floats
            assert type(got["value"]) is float and type(got["deriv"]) is float
            assert type(got["deriv2"]) is float
            assert all(type(x) is float for x in got["joint"])
            if s == 0.0:  # +0 at either zero, deriv's too
                assert all(str(x) == "0.0" for x in (got["value"], got["deriv"], *got["joint"]))
            if s > 0.0:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert isinstance(fn.curvature(s), float)


# the last pair has p + r near 1, so deriv2 and curvature ~ a^(p+r-2) grow
# as a -> 0 and leave the double range below a ~ 4e-312
_TINY_PAIRS = [(2.0, -0.5), (3.0, -0.5), (2.0, 1.0), (3.0, 1.0), (1.5, -0.49)]


def _single_powers(fn):
    """The log_perturbed evaluators' limits at small a = t0 |s|, where
    log1p(a) ~ a: the single powers of a with exponent P = p + r."""
    t0, c, p, r = (fn.params[k] for k in ("arg_scale", "c", "p", "r"))
    P = p + r
    return {"value": lambda s: c * (t0 * np.abs(s)) ** P,
            "deriv": lambda s: t0 * c * P * (t0 * np.abs(s)) ** (P - 1.0) * np.sign(s),
            "deriv2": lambda s: t0 ** 2 * c * P * (P - 1.0) * (t0 * np.abs(s)) ** (P - 2.0),
            "curvature": lambda s: (t0 ** 2 * c * P * max(P - 1.0, 1.0)
                                    * (t0 * np.abs(s)) ** (P - 2.0))}


@pytest.mark.parametrize("p, r", _TINY_PAIRS)
def test_log_perturbed_evaluators_take_single_powers_at_tiny_arguments(p, r):
    # the two-factor forms a^(p-k) L^(r-j) over- or underflow there: at
    # 1e-250, (2, -0.5)'s deriv read inf and (3, -0.5)'s NaN; curvature is
    # defined for t > 0 only
    import warnings

    fn = make_young("log_perturbed", p=p, r=r)
    limit = _single_powers(fn)
    t = np.logspace(-320.0, -17.0, 607)
    s = np.concatenate([t, -t])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {"value": fn.value(s), "deriv": fn.deriv(s), "deriv2": fn.deriv2(s),
               "curvature": fn.curvature(t)}
        joint = fn.joint(s)
        scalars = [(fn.value(x), fn.deriv(x), fn.deriv2(x)) for x in (1e-300, -1e-300)]
    for name, out in got.items():
        x = t if name == "curvature" else s
        with np.errstate(over="ignore"):
            ref = limit[name](x)
        # finite wherever the limit is, and that is everywhere but where
        # a^(p+r-2) leaves the range
        assert np.array_equal(np.isfinite(out), np.isfinite(ref)), name
        assert np.all(np.isfinite(ref)) or (name in ("deriv2", "curvature") and p + r < 2.0)
        np.testing.assert_allclose(out, ref, rtol=1e-13, atol=np.finfo(float).tiny,
                                   err_msg=name)
    assert all(_same_bits(j, got[k]) for j, k in zip(joint, ("value", "deriv")))
    for x, values in zip((1e-300, -1e-300), scalars):
        assert all(type(v) is float for v in values)
        assert values == tuple(float(limit[k](x)) for k in ("value", "deriv", "deriv2"))
    # at 0 the single powers are the limits: value and deriv 0 (+0 at -0)
    zero = np.array([0.0, -0.0])
    assert _same_bits(fn.value(zero), [0.0, 0.0]) and _same_bits(fn.deriv(zero), [0.0, 0.0])
    assert all(_same_bits(j, [0.0, 0.0]) for j in fn.joint(zero))
    with np.errstate(divide="ignore"):
        assert _same_bits(fn.deriv2(zero), limit["deriv2"](zero))
    # and the same among other tiny entries
    mixed = np.array([0.0, -0.0, 1e-300, -1e-300])
    for name in ("value", "deriv", "deriv2"):
        with np.errstate(divide="ignore"):
            assert _same_bits(getattr(fn, name)(mixed), limit[name](mixed)), name


@pytest.mark.parametrize("p, r", _TINY_PAIRS)
def test_log_perturbed_keeps_the_plain_bits_down_to_1e_100(p, r):
    fn = make_young("log_perturbed", p=p, r=r)
    plain = _plain_log_perturbed(fn)
    t = np.logspace(-100.0, 8.0, 1081)
    s = np.concatenate([t, -t])
    for name in ("value", "deriv", "deriv2"):
        assert _same_bits(getattr(fn, name)(s), plain[name](s)), name
    assert all(_same_bits(g, f) for g, f in zip(fn.joint(s), plain["joint"](s)))
    assert _same_bits(fn.curvature(t), plain["curvature"](t))


_POWERS = (1.1, 1.3, 1.5, 2.0, 3.0, 3.7, 4.0, 6.0)


def _plain_power(p):
    """value, deriv, deriv2 and curvature of |s|^p as the power family wrote
    them in closed form, before it became the one-term power sum."""
    return {
        "value": lambda s: np.abs(s) ** p,
        "deriv": lambda s: p * np.abs(s) ** (p - 1.0) * np.sign(s),
        "deriv2": lambda s: p * (p - 1.0) * np.abs(s) ** (p - 2.0),
        "curvature": (lambda t: p * (p - 1.0) * t ** (p - 2.0)) if p >= 2.0
        else (lambda t: p * t ** (p - 1.0) / t),
    }


def _einsum_power_sum(fn):
    """value, deriv, deriv2 and curvature of a power sum whose exponents are
    all at least 2, as the power_sum family wrote them before one body built
    every sum of powers: each term's power along a new leading axis,
    contracted with the coefficients by einsum."""
    ps = np.array([d for d, _ in fn.power_terms])
    kt = np.array([c for _, c in fn.power_terms])
    c1, c2 = kt * ps, kt * ps * (ps - 1.0)

    def powers(t, shift):
        return t[None] ** (ps - shift).reshape((-1,) + (1,) * np.ndim(t))

    def series(c, t, shift):
        return np.einsum("i,i...->...", c, powers(t, shift))

    return {
        "value": lambda s: series(kt, np.abs(s), 0.0),
        "deriv": lambda s: np.sign(s) * series(c1, np.abs(s), 1.0),
        "deriv2": lambda s: series(c2, np.abs(s), 2.0),
        "curvature": lambda t: series(c2, t, 2.0),
    }


def _bits_inputs(with_scalars=True):
    """The edge values, a seeded spread over 24 decades in 1-D and 2-D
    layouts, and, with_scalars, each edge value as a 0-d array."""
    rng = np.random.default_rng(12)
    spread = rng.choice([-1.0, 1.0], 399) * 10.0 ** rng.uniform(-12.0, 12.0, 399)
    full = np.concatenate([_EDGES, spread])
    arrays = [_EDGES, full, full.reshape(-1, 7), full.reshape(7, -1)[:, ::-1]]
    return arrays + ([np.array(v) for v in _EDGES] if with_scalars else [])


def _evaluations(evaluators, s):
    """Each evaluator at s, and the curvature at the nonzero |s|."""
    with np.errstate(all="ignore"):
        out = {name: evaluators[name](s) for name in ("value", "deriv", "deriv2")}
        t = np.abs(s)[np.abs(s) > 0.0] if s.ndim else np.abs(s)
        if np.all(t > 0.0):
            out["curvature"] = evaluators["curvature"](t)
    return out


def _evaluators(fn):
    return {name: getattr(fn, name) for name in ("value", "deriv", "deriv2", "curvature")}


class TestPowerSumBits:
    """One body builds every sum of powers, and power is its one-term case."""

    @pytest.mark.parametrize("p", _POWERS)
    def test_power_keeps_its_closed_form_bits(self, p):
        fn, plain = make_young("power", p=p), _plain_power(p)
        for s in _bits_inputs():
            got, ref = _evaluations(_evaluators(fn), s), _evaluations(plain, s)
            assert got.keys() == ref.keys()
            for name in ref:
                assert type(got[name]) is type(ref[name]), (name, s)
                assert _same_bits(got[name], ref[name]), (name, s)

    @pytest.mark.parametrize("p", _POWERS)
    def test_one_term_power_sum_is_power_bit_for_bit(self, p):
        power, one = make_young("power", p=p), make_young("power_sum", terms=[(1.0, p)])
        assert one.params["arg_scale"] == 1.0
        assert one.power_terms == power.power_terms == ((p, 1.0),)
        assert (power.family, power.params) == ("power", {"p": p})
        for s in _bits_inputs():
            got, ref = _evaluations(_evaluators(one), s), _evaluations(_evaluators(power), s)
            for name in ref:
                assert type(got[name]) is type(ref[name]), (name, s)
                assert _same_bits(got[name], ref[name]), (name, s)

    @pytest.mark.parametrize("terms", [[(0.5, 2.0), (0.5, 4.0)], [(1.0, 2.5), (1.0, 3.0)],
                                       [(2.0, 3.7), (1.0, 6.0)]])
    def test_power_sums_of_exponents_from_2_keep_their_bits(self, terms):
        # on arrays: a 0-d input, and a sum of three or more terms on arrays
        # below some thousand entries, took numpy's vectorized pow in the
        # einsum form, whose |s|^2 is not always the rounded square
        fn = make_young("power_sum", terms=terms)
        plain = _einsum_power_sum(fn)
        for s in _bits_inputs(with_scalars=False):
            got, ref = _evaluations(_evaluators(fn), s), _evaluations(plain, s)
            for name in ref:
                assert _same_bits(got[name], ref[name]), (name, s)

    def test_relaxed_weight_reads_only_the_larger_side(self):
        # all exponents >= 2: deriv2 alone; all < 2: deriv(t)/t alone; mixed:
        # the larger of the two at each t
        t = np.logspace(-6.0, 6.0, 97)
        for terms in ([(1.0, 2.0), (1.0, 3.5)], [(1.0, 1.2), (1.0, 1.8)],
                      [(1.0, 1.5), (1.0, 2.5)]):
            fn = make_young("power_sum", terms=terms)
            slope = sum(c * d * t ** (d - 1.0) for d, c in fn.power_terms) / t
            ref = np.maximum(fn.deriv2(t), slope)
            np.testing.assert_allclose(fn.curvature(t), ref, rtol=1e-14, atol=0.0)
            if fn.q >= 2.0:
                assert fn.curvature(t).tobytes() == fn.deriv2(t).tobytes()
            if fn.p < 2.0:
                assert fn.curvature(t).tobytes() == (fn.deriv(t) / t).tobytes()


class TestGammaBounds:
    def test_pure_power_homogeneity(self):
        fn = make_young("power", p=2.5)
        for s in (0.3, 2.0, 7.0):
            gm, gp = gamma_bounds(fn, s)
            assert gm == pytest.approx(s ** 2.5, rel=1e-12)
            assert gp == pytest.approx(s ** 2.5, rel=1e-12)

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0])
    def test_pure_power_bounds_are_exact_powers(self, p):
        fn = make_young("power", p=p)
        s = np.array([1e-6, 0.3, 1.0, 2.0, 7.0, 1e6])
        for x in s:
            assert gamma_bounds(fn, x) == (x ** p, x ** p)
            assert gamma_bounds_deriv(fn, x) == (x ** (p - 1.0), x ** (p - 1.0))
        assert np.array_equal(gamma_plus_deriv(fn, np.append(s, 0.0)),
                              np.append(s ** (p - 1.0), 0.0))

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

    def test_interior_extremum_matches_a_dense_scan(self):
        # psi(s) = s^2 (1 + s^2) / (1 + s^2 / 100), normalized: its growth
        # ratio rises from 2 and falls back, so gamma+(2) and gamma-(1/2)
        # sit inside the x-range, where the grid's best is 6.5e-5 off
        c = 2.0 / 1.01

        def value(s):
            a = np.asarray(s, dtype=float) ** 2
            return a * (1.0 + a) / (1.0 + 0.01 * a) / c

        def deriv(s):
            s = np.asarray(s, dtype=float)
            a = s * s
            return (2.0 * s * ((1.0 + 2.0 * a) * (1.0 + 0.01 * a) - 0.01 * a * (1.0 + a))
                    / (1.0 + 0.01 * a) ** 2 / c)

        fn = make_young("custom", value=value, deriv=deriv)
        x = np.logspace(-6.0, 6.0, 10 ** 6)
        for s in (0.5, 2.0):
            ratio = value(s * x) / value(x)
            gm, gp = gamma_bounds(fn, s)
            assert gm == pytest.approx(ratio.min(), rel=1e-10)
            assert gp == pytest.approx(ratio.max(), rel=1e-10)

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

    @pytest.mark.parametrize("raw, message", [
        (lambda t: 2.0, "does not drop below 1"),
        (lambda t: 0.5, "does not exceed 1"),
    ])
    def test_normalization_without_a_crossing(self, raw, message):
        from nlorlicz.young import _normalize_scale

        with pytest.raises(ValidationError, match=message):
            _normalize_scale(raw)

    @pytest.mark.parametrize("fn", [
        pytest.param(make_young("power_sum", terms=[(0.5, 1.2), (0.5, 2.0)]), id="sum-1.2-2"),
        pytest.param(make_young("log_perturbed", p=1.1, r=0.5), id="log-1.1-0.5"),
    ])
    def test_deriv_inverse_relative_accuracy(self, fn):
        # small inverses keep their relative accuracy: bisection on an
        # absolute interval left the power sum 9.4x off at t = 1e-6
        from nlorlicz.young import _deriv_inverse

        t = np.logspace(-12.0, 6.0, 1001)
        assert np.max(np.abs(fn.deriv(_deriv_inverse(fn, t)) / t - 1.0)) <= 1e-12

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
        # the zero modular is below 1 at every scale: the search halves down
        # to 2^-1000 once, taking each scale once
        scales = []

        def zero(k):
            scales.append(k)
            return 0.0

        assert luxemburg_norm(zero) == 0.0
        assert len(scales) == len(set(scales)) <= 1001

    def test_bounded_modular_raises(self):
        # a modular that never falls to 1 has no norm
        with pytest.raises(BracketingError, match="does not drop below 1"):
            luxemburg_norm(lambda k: 2.0 + 1.0 / k)

    @pytest.mark.parametrize("fn", [
        pytest.param(make_young("log_perturbed", p=2.0, r=1.0), id="log-2-1"),
        pytest.param(make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)]), id="sum-2+4"),
    ])
    @pytest.mark.parametrize("norm", [0.1, 1.0, 10.0])
    def test_few_modular_evaluations(self, fn, norm):
        # u = norm on a set of unit measure has modular k -> psi(norm / k):
        # bracketing from k = 1 and brentq take at most 20 of them at
        # rel_tol 1e-14, where bisection took 48 to 55
        calls = []

        def modular(k):
            calls.append(k)
            return float(fn.value(np.array(norm / k)))

        assert luxemburg_norm(modular, rel_tol=1e-14) == pytest.approx(norm, rel=1e-13)
        assert len(calls) <= 20

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


class TestSvDelta:
    def test_pure_power(self):
        assert sv_delta(make_young("power", p=3.0)) == pytest.approx(3.0)

    def test_power_sum_matches_extreme_coefficients(self):
        fn = make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)])
        kt = fn.params["terms"]
        expected = min(k * p for k, p in (kt[0], kt[-1]))
        assert sv_delta(fn) == pytest.approx(expected, rel=1e-6)


class TestRespelledPower:
    """|s|^3 spelled as a one-term power sum, or as p = 3 under another
    family label, gets every closed form of the power family and the same
    battery, reaction cross-check and scaling check."""

    @pytest.fixture(params=["power_sum", "relabelled"])
    def fn(self, request):
        if request.param == "power_sum":
            return make_young("power_sum", terms=[[1, 3]])
        return replace(make_young("power", p=3.0), family="relabelled")

    def test_closed_forms(self, fn, monkeypatch):
        import nlorlicz.young as young_module

        def refuse(*args, **kwargs):
            raise AssertionError("inverted the derivative by bisection")

        power = make_young("power", p=3.0)
        b = np.linspace(0.0, 5.0, 10001)
        monkeypatch.setattr(young_module, "_deriv_inverse", refuse)
        assert np.array_equal(complementary(fn).phi(b), complementary(power).phi(b))
        assert sv_delta(fn) == 3.0
        for s in (0.3, 1.0, 7.0):
            assert gamma_bounds(fn, s) == gamma_bounds(power, s)
            assert gamma_bounds_deriv(fn, s) == gamma_bounds_deriv(power, s)

    def test_reaction_checks_and_battery(self, fn, g1d_small, frac05_1d):
        power = make_young("power", p=3.0)
        cross = [check_reaction_conditions(y, power_reaction(4.0), dim=1, alpha_order=0.5)
                 .get("power_cross_check") for y in (fn, power)]
        assert cross[0] is not None and cross[0] == cross[1]
        asms = [assemble(g1d_small, frac05_1d, y) for y in (fn, power)]
        u = bump(g1d_small, g1d_small.center, 0.5, 1.0)
        checks = [pohozaev_check(asm, power_reaction(2.5), u) for asm in asms]
        assert checks[0].applicable and checks[0] == checks[1]
        spec = CorpusSpec(seed=3, trials=8, pair_samples=500)
        rows = [[repr({**asdict(r), "config_digest": None}) for r in run_battery(asm, spec)]
                for asm in asms]
        assert rows[0] == rows[1]
