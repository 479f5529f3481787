import math

import numpy as np
import pytest
from scipy.integrate import quad

from nlorlicz import (
    BudgetExceededError,
    E_value,
    F_value,
    GridFunction,
    apply_operator,
    assemble,
    gradient_E,
    interaction,
    luxemburg_norm_of,
    make_grid,
    make_kernel,
    make_young,
)
from nlorlicz.energy import _lattice_filter, _pair_pass, _stencil_product, central_gradient_norm
from nlorlicz.grid import bump, random_function
from nlorlicz.kernels import BALL_VOLUME, poincare_constant, tail_integral
from nlorlicz.young import gamma_bounds, gamma_plus_deriv, luxemburg_norm, sv_delta


def gf(asm, values):
    return GridFunction(asm.grid, np.asarray(values, dtype=float))


def F_of_gradient(asm, u):
    """Modular of the central-difference gradient magnitude."""
    g = central_gradient_norm(u.grid, u.values)
    return float(np.sum(asm.young.value(g)) * asm.h_pow_dim)


def poincare_lower_bound_ok(asm, tol=1e-8):
    """Check the exterior weights against the equimeasurable-ball tail bound."""
    r_om = (asm.grid.volume / BALL_VOLUME[asm.grid.dim]) ** (1.0 / asm.grid.dim)
    bound = tail_integral(asm.kernel, r_om)
    return bool(np.all(asm.exterior >= bound - tol))


class TestAssembly:
    def test_weights_symmetric_positive(self, asm_quad):
        W = asm_quad.weights
        assert np.array_equal(W, W.T)
        off = ~np.eye(W.shape[0], dtype=bool)
        assert np.all(W[off] > 0.0)
        assert np.all(np.diag(W) == 0.0)

    def test_budget_guard(self, g1d, frac05_1d, y_p2):
        # the budget is checked where W is built: assemble builds no W, and
        # the FFT route runs over the budget
        asm = assemble(g1d, frac05_1d, y_p2, pair_budget=10)
        assert asm.pair_budget == 10 and "weights" not in vars(asm)
        E_value(asm, random_function(g1d, seed=1))
        with pytest.raises(BudgetExceededError, match="pairs, budget is 10"):
            asm.weights
        assert "weights" not in vars(asm)

    def test_near_weight_against_quadrature(self):
        # two cells of width 1 at distance 1: the weight is the kernel's cell
        # average; the 5-point scheme must match adaptive quadrature to its
        # own truncation accuracy, and an independent 5-point evaluation to
        # roundoff
        g = make_grid("interval", 4, (0.0, 4.0))
        K = make_kernel("fractional", dim=1, alpha=0.5)
        Y = make_young("power", p=2.0)
        asm = assemble(g, K, Y)
        w01 = asm.weights[0, 1]

        exact, _ = quad(lambda r: r ** -1.5, 0.5, 1.5, epsabs=1e-14, epsrel=1e-13)
        assert w01 == pytest.approx(exact, rel=5e-4)

        xg, wg = np.polynomial.legendre.leggauss(5)
        gl5 = float(np.sum(wg * (1.0 + 0.5 * xg) ** -1.5) * 0.5)
        assert w01 == pytest.approx(gl5, rel=1e-13)

    def test_far_weight_is_midpoint(self):
        g = make_grid("interval", 8, (0.0, 8.0))
        K = make_kernel("fractional", dim=1, alpha=0.5)
        asm = assemble(g, K, make_young("power", p=2.0))
        # offset 5 cells: distance 5 >= 3h
        assert asm.weights[0, 5] == pytest.approx(5.0 ** -1.5, rel=1e-14)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_node_mass_consistency(self, dim):
        from nlorlicz.oracles import node_mass_consistency

        if dim == 1:
            g = make_grid("interval", 16, (-1.0, 1.0))
            K = make_kernel("fractional", dim=1, alpha=0.5)
        else:
            g = make_grid("box", 8, (0.0, 1.0, 0.0, 1.0))
            K = make_kernel("fractional", dim=2, alpha=1.0)
        asm = assemble(g, K, make_young("power", p=2.0))
        total, ref = node_mass_consistency(asm, g.n_nodes // 2)
        assert total == pytest.approx(ref, rel=1e-2)

    def test_assembly_needs_no_adaptive_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature called during assembly")

        monkeypatch.setattr("nlorlicz.kernels.quad", refuse)
        Y = make_young("power", p=2.0)
        for g, K in [
            (make_grid("interval", 64, (-1.0, 1.0)), make_kernel("fractional", dim=1, alpha=0.5)),
            (make_grid("interval", 64, (-1.0, 1.0)),
             make_kernel("two_exponent", dim=1, alpha_inner=0.3, alpha_outer=0.9)),
            (make_grid("box", 24, (-1.0, 1.0, -1.0, 1.0)),
             make_kernel("fractional", dim=2, alpha=0.5)),
            (make_grid("ball", 16, (0.0, 0.0, 1.0)), make_kernel("log", dim=2, beta=1.0)),
        ]:
            assert np.all(assemble(g, K, Y).exterior > 0.0)

    def test_exterior_weights_above_ball_bound(self, asm_quad):
        assert poincare_lower_bound_ok(asm_quad)


class TestOffsetWeights:
    GRIDS = [("interval", 9, (-1.0, 1.0)), ("interval", 16, (0.0, 3.0)),
             ("box", 6, (-1.0, 1.0, -1.0, 1.0)), ("box", 7, (0.0, 1.0, 0.0, 1.0)),
             ("ball", 8, (0.0, 0.0, 1.0)), ("ball", 9, (0.3, -0.2, 0.7))]

    @staticmethod
    def _lattice(grid):
        # offsets from the first node, in cells
        return np.rint((grid.nodes - grid.nodes[0]) / grid.spacing).astype(np.int64)

    @pytest.mark.parametrize("spec", GRIDS + [("interval", 512, (-1.0, 1.0)),
                                              ("box", 24, (-1.0, 1.0, -1.0, 1.0))],
                             ids=lambda s: f"{s[0]}-{s[1]}")
    @pytest.mark.parametrize("family,kw", [("fractional", {"alpha": 0.5}),
                                           ("log", {"beta": 1.0}),
                                           ("two_exponent",
                                            {"alpha_inner": 0.3, "alpha_outer": 0.9}),
                                           ("piecewise_dyadic", {"mu": 0.5})])
    def test_every_weight_is_the_sorted_offset_weight(self, spec, family, kw):
        grid = make_grid(*spec)
        kern = make_kernel(family, dim=grid.dim, **kw)
        asm = assemble(grid, kern, make_young("power", p=2.0))
        table, h = asm.offset_weights, grid.spacing
        hN = h ** grid.dim
        np.testing.assert_array_equal(table, table.T)  # a weight is its sorted offset's
        assert table[(0,) * grid.dim] == 0.0
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(5)
        for offset in np.ndindex(table.shape):
            if not any(offset):
                continue
            delta = [d * h for d in sorted(offset)]
            dist = np.linalg.norm(delta)
            if dist >= 3.0 * h:
                # a far pair: the midpoint weight, exactly
                assert table[offset] == kern.profile(np.array([dist]))[0] * hN * hN, offset
                continue
            # a near pair: the kernel's average over the offset cell, by the
            # 5-point Gauss rule on each axis
            nodes = [[d + 0.5 * h * x for x in gauss_x] for d in delta]
            if grid.dim == 1:
                r = [abs(z) for z in nodes[0]]
                w = list(gauss_w)
            else:
                r = [math.hypot(z1, z2) for z1 in nodes[0] for z2 in nodes[1]]
                w = [w1 * w2 for w1 in gauss_w for w2 in gauss_w]
            avg = sum(wi * fi for wi, fi in zip(w, kern.profile(np.array(r)))) / 2 ** grid.dim
            assert table[offset] == pytest.approx(avg * hN * hN, rel=1e-15, abs=0.0), offset
        lat = self._lattice(grid)
        delta = np.abs(lat[:, None, :] - lat[None, :, :])
        np.testing.assert_array_equal(asm.weights, table[tuple(np.moveaxis(delta, -1, 0))])

    def test_profile_calls_do_not_grow_with_the_grid(self):
        # the offset table calls the kernel profile a fixed number of times
        Y = make_young("power", p=2.0)
        for shape, sizes, bounds in [("interval", (64, 512), (-1.0, 1.0)),
                                     ("box", (8, 24), (-1.0, 1.0, -1.0, 1.0))]:
            dim = 1 if shape == "interval" else 2
            calls = []

            def profile(r, N=dim):
                calls.append(1)
                return np.asarray(r, dtype=float) ** (-N - 0.5)

            kern = make_kernel("custom_radial", dim=dim, profile=profile)
            counts = []
            for n in sizes:
                grid = make_grid(shape, n, bounds)
                calls.clear()
                assemble(grid, kern, Y)
                counts.append(len(calls))
            assert counts[0] == counts[1], (shape, counts)

    @pytest.mark.parametrize("spec", [("ball", 24, (0.0, 0.0, 1.0)),
                                      ("box", 7, (0.0, 1.0, 0.0, 1.0)),
                                      ("interval", 10, (-1.0, 1.0))],
                             ids=["ball-24", "box-7", "interval-10"])
    def test_neighbor_indices_match_a_dict_lookup(self, spec):
        from nlorlicz.energy import _neighbor_indices

        grid = make_grid(*spec)
        lat = self._lattice(grid)
        index = {tuple(c): i for i, c in enumerate(lat)}
        plus, minus = _neighbor_indices(grid)
        for i, c in enumerate(lat):
            for ax in range(grid.dim):
                step = np.eye(grid.dim, dtype=np.int64)[ax]
                assert plus[i, ax] == index.get(tuple(c + step), -1)
                assert minus[i, ax] == index.get(tuple(c - step), -1)
        assert (plus == -1).sum() == (minus == -1).sum() > 0

    def test_assembly_allocates_no_n_by_n_index_arrays(self):
        import tracemalloc

        grid = make_grid("box", 40, (-1.0, 1.0, -1.0, 1.0))
        kern = make_kernel("fractional", dim=2, alpha=0.5)
        n = grid.n_nodes
        tracemalloc.start()
        try:
            asm = assemble(grid, kern, make_young("power", p=2.0))
            W = asm.weights  # built on first read
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert W.shape == (n, n)
        assert peak < 2 * n * n * 8


class TestFunctionals:
    def test_f_trivials(self, asm_quad):
        zero = gf(asm_quad, np.zeros(asm_quad.grid.n_nodes))
        assert F_value(asm_quad, zero) == 0.0
        ones = gf(asm_quad, np.ones(asm_quad.grid.n_nodes))
        # normalization: modular of the constant 1 is the domain volume
        assert F_value(asm_quad, ones) == pytest.approx(2.0, rel=1e-12)

    def test_f_scaling_bound(self, asm_sum):
        rng = np.random.default_rng(21)
        gp2 = gamma_bounds(asm_sum.young, 2.0)[1]
        for _ in range(20):
            u = gf(asm_sum, rng.uniform(-1, 1, asm_sum.grid.n_nodes))
            u2 = gf(asm_sum, 2.0 * u.values)
            assert F_value(asm_sum, u2) <= gp2 * F_value(asm_sum, u) * (1 + 1e-12)

    def test_e_trivials(self, asm_quad):
        n = asm_quad.grid.n_nodes
        assert E_value(asm_quad, gf(asm_quad, np.zeros(n))) == 0.0
        c = 1.7
        const = gf(asm_quad, np.full(n, c))
        expected = float(
            np.sum(asm_quad.young.value(np.array(c)) * asm_quad.exterior)
            * asm_quad.h_pow_dim
        )
        assert E_value(asm_quad, const) == pytest.approx(expected, rel=1e-12)

    def test_sandwich_200_random(self, asm_sum):
        q, p = asm_sum.young.q, asm_sum.young.p
        for seed in range(200):
            u = random_function(asm_sum.grid, seed=seed)
            E = E_value(asm_sum, u)
            I = interaction(asm_sum, u, u)
            assert I >= q * E - 1e-9 * abs(I)
            assert I <= p * E + 1e-9 * abs(I)

    def test_interaction_linear_in_test_function(self, asm_sum):
        u = random_function(asm_sum.grid, seed=3)
        phi = random_function(asm_sum.grid, seed=4)
        psi = random_function(asm_sum.grid, seed=5)
        combo = gf(asm_sum, 2.0 * phi.values - 0.5 * psi.values)
        lhs = interaction(asm_sum, u, combo)
        rhs = 2.0 * interaction(asm_sum, u, phi) - 0.5 * interaction(asm_sum, u, psi)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        zero = gf(asm_sum, np.zeros(asm_sum.grid.n_nodes))
        assert interaction(asm_sum, u, zero) == 0.0
        assert interaction(asm_sum, zero, phi) == 0.0

    def test_directional_derivative_richardson(self, asm_sum):
        u = random_function(asm_sum.grid, seed=6)
        phi = random_function(asm_sum.grid, seed=7)
        E0 = E_value(asm_sum, u)
        I = interaction(asm_sum, u, phi)

        def diff(t):
            return (E_value(asm_sum, gf(asm_sum, u.values + t * phi.values)) - E0) / t

        d4, d5 = diff(1e-4), diff(1e-5)
        richardson = (10.0 * d5 - d4) / 9.0
        assert richardson == pytest.approx(I, rel=1e-6)

    def test_duality_to_roundoff(self, g1d, frac05_1d):
        # interaction is gradient_E . phi; check it against the double-difference
        # form written out here, and against the operator
        for family, params in [
            ("power", {"p": 1.5}),
            ("power_sum", {"terms": [(0.5, 2.0), (0.5, 4.0)]}),
            ("log_perturbed", {"p": 2.0, "r": 1.0}),
        ]:
            asm = assemble(g1d, frac05_1d, make_young(family, **params))
            hN = asm.h_pow_dim
            deriv = asm.young.deriv
            for seed in range(50):
                u = random_function(asm.grid, seed=seed)
                phi = random_function(asm.grid, seed=seed + 1000)
                v, w = u.values, phi.values
                pairs = deriv(v[:, None] - v[None, :]) * (w[:, None] - w[None, :])
                explicit = (0.5 * float(np.sum(pairs * asm.weights))
                            + float(np.sum(deriv(v) * w * asm.exterior)) * hN)
                lhs = interaction(asm, u, phi)
                assert lhs == pytest.approx(explicit, rel=1e-12, abs=1e-13), family
                rhs = float(apply_operator(asm, u).values @ w) * hN
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13), family

    def test_operator_trivials(self, asm_quad):
        n = asm_quad.grid.n_nodes
        assert not np.any(apply_operator(asm_quad, gf(asm_quad, np.zeros(n))).values)
        c = 0.8
        Lc = apply_operator(asm_quad, gf(asm_quad, np.full(n, c)))
        expected = asm_quad.young.deriv(np.array(c)) * asm_quad.exterior
        assert np.allclose(Lc.values, expected, rtol=1e-12)
        assert np.all(Lc.values > 0.0)


class TestGradient:
    def test_matches_central_differences(self, asm_sum):
        rng = np.random.default_rng(8)
        for seed in range(20):
            u = random_function(asm_sum.grid, seed=seed)
            grad = gradient_E(asm_sum, u).values
            for k in rng.choice(asm_sum.grid.n_nodes, 20, replace=False):
                h0 = 1e-6
                up, um = u.values.copy(), u.values.copy()
                up[k] += h0
                um[k] -= h0
                fd = (E_value(asm_sum, gf(asm_sum, up))
                      - E_value(asm_sum, gf(asm_sum, um))) / (2 * h0)
                assert fd == pytest.approx(grad[k], rel=1e-6, abs=1e-10)

    def test_zero_and_odd(self, asm_sum):
        n = asm_sum.grid.n_nodes
        assert not np.any(gradient_E(asm_sum, gf(asm_sum, np.zeros(n))).values)
        u = random_function(asm_sum.grid, seed=33)
        gu = gradient_E(asm_sum, u).values
        gm = gradient_E(asm_sum, gf(asm_sum, -u.values)).values
        assert np.array_equal(gu, -gm)


class TestWeightsOnFirstRead:
    """W is built on first read, once, and only by the routes that walk the
    pairs: assemble, the quadratic route and the even polynomial FFT route
    allocate no n x n array."""

    @staticmethod
    def _peak(fn):
        import tracemalloc

        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("spec", [("interval", 2048, (-1.0, 1.0)),
                                      ("box", 48, (-1.0, 1.0, -1.0, 1.0))],
                             ids=["interval-2048", "box-48"])
    def test_assemble_allocates_no_n_by_n_array(self, spec):
        grid = make_grid(*spec)
        kern = make_kernel("fractional", dim=grid.dim, alpha=0.5)
        n = grid.n_nodes
        out = []
        peak = self._peak(lambda: out.append(assemble(grid, kern, make_young("power", p=2.0))))
        assert peak < n * n * 8 / 8
        assert "weights" not in vars(out[0])

    def test_built_once_and_by_the_triangle_walk(self, g1d, frac05_1d):
        asm = assemble(g1d, frac05_1d, make_young("power", p=1.5))
        assert "weights" not in vars(asm)
        E_value(asm, random_function(g1d, seed=2))
        assert "weights" in vars(asm)
        W = asm.weights
        assert W is asm.weights and W.shape == (g1d.n_nodes,) * 2

    @pytest.mark.parametrize("solve", ["dirichlet", "eigen", "sublinear"])
    def test_quadratic_solves_allocate_no_n_by_n_array(self, frac05_1d, solve):
        from nlorlicz import power_reaction, solve_dirichlet, solve_eigen, solve_sublinear

        n = 256
        grid = make_grid("interval", n, (-1.0, 1.0))
        asm = assemble(grid, frac05_1d, make_young("power", p=2.0))
        run = {"dirichlet": lambda: solve_dirichlet(asm, bump(grid, grid.center, 0.5, 1.0)),
               "eigen": lambda: solve_eigen(asm),
               "sublinear": lambda: solve_sublinear(asm, power_reaction(1.5))}[solve]
        out = []
        peak = self._peak(lambda: out.append(run()))
        assert out[0].converged
        assert peak < n * n * 8
        assert "weights" not in vars(asm)

    @pytest.mark.parametrize("young", [("power", {"p": 4.0}),
                                       ("power_sum", {"terms": [(0.5, 2.0), (0.5, 4.0)]})],
                             ids=["power-4", "power_sum-2+4"])
    def test_even_polynomial_passes_allocate_no_n_by_n_array(self, frac05_1d, young):
        from nlorlicz.energy import _EVEN_MIN_NODES, E_and_gradient, even_newton_product

        for n in (_EVEN_MIN_NODES, 1024):
            grid = make_grid("interval", n, (-1.0, 1.0))
            asm = assemble(grid, frac05_1d, make_young(young[0], **young[1]))
            u = random_function(grid, seed=3)

            def passes():
                E_and_gradient(asm, u)
                even_newton_product(asm, u.values, 0.1)[1](u.values)
            assert self._peak(passes) < n * n * 8, n
            assert "weights" not in vars(asm)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("spec", [("interval", 64, (-1.0, 1.0)),
                                      ("interval", 1001, (-1.0, 1.0)),
                                      ("box", 16, (0.0, 1.0, 0.0, 1.0)),
                                      ("box", 24, (-1.0, 1.0, -1.0, 1.0)),
                                      ("ball", 24, (0.0, 0.0, 1.0))],
                             ids=["interval-64", "interval-1001", "box-16", "box-24", "ball-24"])
    def test_rowsum_is_the_row_sums_of_W(self, spec, alpha):
        grid = make_grid(*spec)
        asm = assemble(grid, make_kernel("fractional", dim=grid.dim, alpha=alpha),
                       make_young("power", p=2.0))
        ref = asm.weights.sum(axis=1)
        np.testing.assert_allclose(asm.rowsum, ref, rtol=1e-14, atol=0.0)


class TestPairPass:
    @pytest.mark.parametrize("shape", ["interval", "box", "ball"])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_laplacian_form_matches_double_sum(self, shape, alpha):
        # the p = 2 pass takes the graph-Laplacian form; the elementwise
        # double sum of the differences is the reference
        if shape == "interval":
            grid = make_grid("interval", 2048, (-1.0, 1.0))
        elif shape == "box":
            grid = make_grid("box", 40, (-1.0, 1.0, -1.0, 1.0))
        else:
            grid = make_grid("ball", 24, (0.0, 0.0, 1.0))
        asm = assemble(grid, make_kernel("fractional", dim=grid.dim, alpha=alpha),
                       make_young("power", p=2.0))
        hN, W, lam = asm.h_pow_dim, asm.weights, asm.exterior
        for u in (bump(grid, grid.center, 0.5 * grid.inradius, 1.0),
                  random_function(grid, seed=3)):
            x = u.values
            D = x[:, None] - x[None, :]
            E_ref = 0.5 * np.sum(D * D * W) + np.sum(x * x * lam) * hN
            g_ref = 2.0 * np.sum(D * W, axis=1) + 2.0 * x * lam * hN
            del D
            assert abs(_pair_pass(asm, x, grad=False) - E_ref) <= 1e-11 * E_ref
            g = _pair_pass(asm, x, grad=True)
            assert np.max(np.abs(g - g_ref)) <= 1e-10 * np.max(np.abs(g_ref))

    @pytest.mark.parametrize("shape", [
        pytest.param(("interval", 300, (-1.0, 1.0)), id="interval-300"),
        pytest.param(("box", 20, (-1.0, 1.0, -1.0, 1.0)), id="box-20"),
        pytest.param(("ball", 24, (0.0, 0.0, 1.0)), id="ball-24"),
    ])
    @pytest.mark.parametrize("young", [
        pytest.param(make_young("power", p=1.5), id="power-1.5"),
        pytest.param(make_young("power", p=3.0), id="power-3"),
        pytest.param(make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)]),
                     id="power_sum-2+4"),
        pytest.param(make_young("log_perturbed", p=2.0, r=1.0), id="log_perturbed-2-1"),
        pytest.param(make_young("custom", value=lambda s: np.abs(s) ** 2.5,
                                deriv=lambda s: 2.5 * np.abs(s) ** 1.5 * np.sign(s)),
                     id="custom-2.5"),
    ])
    def test_one_triangle_matches_full_square(self, shape, young):
        # the pass evaluates psi on the pairs of one triangle; the reference
        # is the elementwise double sum over the whole square
        grid = make_grid(*shape)
        asm = assemble(grid, make_kernel("fractional", dim=grid.dim, alpha=0.5), young)
        hN, W, lam = asm.h_pow_dim, asm.weights, asm.exterior
        for u in (bump(grid, grid.center, 0.5 * grid.inradius, 1.0),
                  random_function(grid, seed=4)):
            x = u.values
            D = x[:, None] - x[None, :]
            E_ref = 0.5 * np.sum(young.value(D) * W) + np.sum(young.value(x) * lam) * hN
            terms = young.deriv(D) * W
            g_ref = terms.sum(axis=1) + young.deriv(x) * lam * hN
            g_abs = np.abs(terms).sum(axis=1) + np.abs(young.deriv(x)) * lam * hN
            del D, terms
            assert abs(_pair_pass(asm, x, grad=False) - E_ref) <= 1e-13 * E_ref
            g = _pair_pass(asm, x, grad=True)
            assert np.all(np.abs(g - g_ref) <= 1e-13 * g_abs)

    @pytest.mark.parametrize("grid", [
        pytest.param(("interval", 127, (-1.0, 1.0)), id="interval-127"),
        pytest.param(("interval", 128, (-1.0, 1.0)), id="interval-128"),
        pytest.param(("interval", 1001, (-1.0, 1.0)), id="interval-1001"),
        pytest.param(("box", 24, (-1.0, 1.0, -1.0, 1.0)), id="box-24"),
        pytest.param(("box", 40, (-1.0, 1.0, -1.0, 1.0)), id="box-40"),
        pytest.param(("ball", 24, (0.0, 0.0, 1.0)), id="ball-24"),
    ])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_convolution_matches_dense_product(self, grid, alpha):
        # W @ x by FFT of the offset stencil; the ball leaves holes in its
        # bounding lattice
        grid = make_grid(*grid)
        asm = assemble(grid, make_kernel("fractional", dim=grid.dim, alpha=alpha),
                       make_young("power", p=2.0))
        W = asm.weights
        for seed in (0, 1):
            x = np.random.default_rng(seed).standard_normal(grid.n_nodes)
            err = np.abs(_stencil_product(asm, x) - (W * x).sum(axis=1))
            assert np.all(err <= 1e-13 * (np.abs(W) @ np.abs(x)))

    def test_stencil_built_only_by_the_quadratic_pass(self, frac05_1d):
        grid = make_grid("interval", 64, (-1.0, 1.0))
        asm = assemble(grid, frac05_1d, make_young("power", p=1.5))
        u = random_function(grid, seed=2)
        E_value(asm, u)
        gradient_E(asm, u)
        assert "stencil" not in vars(asm)
        quad = assemble(grid, frac05_1d, make_young("power", p=2.0))
        assert "stencil" not in vars(quad)
        E_value(quad, u)
        assert "stencil" in vars(quad)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_no_n_by_n_temporaries(self, frac05_1d, p):
        import tracemalloc

        n = 1024
        asm = assemble(make_grid("interval", n, (-1.0, 1.0)), frac05_1d,
                       make_young("power", p=p))
        u = random_function(asm.grid, seed=1)
        asm.weights  # built on first read: the passes themselves are traced
        for fn in (E_value, gradient_E):
            tracemalloc.start()
            try:
                fn(asm, u)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < n * n * 8, fn.__name__

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_power_luxemburg_closed_form(self, g1d, frac05_1d, p):
        asm = assemble(g1d, frac05_1d, make_young("power", p=p))
        for seed in range(5):
            u = random_function(g1d, seed=seed, amplitude=3.0)
            norm = luxemburg_norm_of(asm, u)
            bisected = luxemburg_norm(
                lambda k: F_value(asm, gf(asm, u.values / k)), rel_tol=1e-15)
            assert norm == pytest.approx(bisected, rel=1e-13)
            assert abs(F_value(asm, gf(asm, u.values / norm)) - 1.0) <= 4 * np.finfo(float).eps


EVEN_YOUNG = [
    pytest.param(make_young("power", p=4.0), id="power-4"),
    pytest.param(make_young("power", p=6.0), id="power-6"),
    pytest.param(make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)]), id="power_sum-2+4"),
]


class TestEvenPowerPass:
    """E and its gradient for an even polynomial psi (young.even_terms) from
    W z^j by FFT, against the triangle pass with that route switched off."""

    @pytest.mark.parametrize("grid, kernel", [
        pytest.param(("interval", 16, (-1.0, 1.0)), ("fractional", {"alpha": 0.5}),
                     id="interval-16"),
        pytest.param(("interval", 64, (-1.0, 1.0)), ("fractional", {"alpha": 0.5}),
                     id="interval-64"),
        pytest.param(("box", 16, (0.0, 1.0, 0.0, 1.0)), ("fractional", {"alpha": 1.0}),
                     id="box-16"),
        pytest.param(("ball", 24, (0.0, 0.0, 1.0)), ("log", {"beta": 1.0}), id="ball-24"),
        pytest.param(("interval", 2048, (-1.0, 1.0)), ("fractional", {"alpha": 1.5}),
                     id="interval-2048-alpha-1.5"),
    ])
    @pytest.mark.parametrize("young", EVEN_YOUNG)
    def test_matches_the_triangle_pass(self, grid, kernel, young, monkeypatch):
        from dataclasses import replace

        monkeypatch.setattr("nlorlicz.energy._EVEN_MIN_NODES", 0)
        grid = make_grid(*grid)
        asm = assemble(grid, make_kernel(kernel[0], dim=grid.dim, **kernel[1]), young)
        off = replace(asm, young=replace(young, power_terms=None))
        b = bump(grid, grid.center, 0.5 * grid.inradius, 1.0).values
        for x in (b, b + 0.3, random_function(grid, seed=5).values):
            E_ref = _pair_pass(off, x, grad=False)
            assert abs(_pair_pass(asm, x, grad=False) - E_ref) <= 1e-11 * E_ref
            g_ref = _pair_pass(off, x, grad=True)
            g = _pair_pass(asm, x, grad=True)
            assert np.max(np.abs(g - g_ref)) <= 1e-10 * np.max(np.abs(g_ref))

    @pytest.mark.parametrize("young", EVEN_YOUNG)
    def test_triangle_pass_below_the_node_threshold(self, young):
        # below _EVEN_MIN_NODES the FFT's fixed cost outweighs the pairs
        from dataclasses import replace

        from nlorlicz.energy import _EVEN_MIN_NODES

        for n in (_EVEN_MIN_NODES - 1, _EVEN_MIN_NODES):
            grid = make_grid("interval", n, (-1.0, 1.0))
            asm = assemble(grid, make_kernel("fractional", dim=1, alpha=0.5), young)
            off = replace(asm, young=replace(young, power_terms=None))
            x = random_function(grid, seed=5).values
            same = [np.array_equal(_pair_pass(asm, x, grad), _pair_pass(off, x, grad))
                    for grad in (False, True)]
            assert same == [n < _EVEN_MIN_NODES] * 2

    def test_batched_filter_has_the_bits_of_single_calls(self):
        for grid in (make_grid("interval", 1024, (-1.0, 1.0)),
                     make_grid("ball", 24, (0.0, 0.0, 1.0))):
            asm = assemble(grid, make_kernel("fractional", dim=grid.dim, alpha=0.5),
                           make_young("power", p=2.0))
            xs = np.random.default_rng(7).standard_normal((3, grid.n_nodes))
            batch = _lattice_filter(asm, xs, asm.stencil[2])
            assert batch.tobytes() == np.array([_stencil_product(asm, x) for x in xs]).tobytes()

    @pytest.mark.parametrize("grid, kernel", [
        pytest.param(("interval", 256, (-1.0, 1.0)), ("fractional", {"alpha": 0.5}),
                     id="interval-256"),
        pytest.param(("interval", 512, (-1.0, 1.0)), ("fractional", {"alpha": 0.5}),
                     id="interval-512"),
        pytest.param(("box", 24, (-1.0, 1.0, -1.0, 1.0)), ("fractional", {"alpha": 0.5}),
                     id="box-24"),
        pytest.param(("ball", 24, (0.0, 0.0, 1.0)), ("log", {"beta": 1.0}), id="ball-24"),
    ])
    def test_degree_two_newton_product_is_exact(self, grid, kernel):
        # at p = 2 the polynomial product is the quadratic Newton product
        # 2 (d0 v - W v), d0 = rowsum + Lambda h^N, bit for bit
        from nlorlicz.energy import _powers, _powers_product, even_newton_product

        grid = make_grid(*grid)
        young = make_young("power", p=2.0)
        asm = assemble(grid, make_kernel(kernel[0], dim=grid.dim, **kernel[1]), young)
        rng = np.random.default_rng(3)
        x, v = rng.standard_normal((2, grid.n_nodes))
        diag, apply = even_newton_product(asm, x, 0.25)
        d0 = asm.rowsum + asm.exterior * asm.h_pow_dim
        assert diag.tobytes() == (2.0 * d0).tobytes()
        assert apply(v).tobytes() == (2.0 * (d0 * v - _stencil_product(asm, v))).tobytes()
        rows = _powers_product(asm, _powers(x, 0), 0)
        assert rows.shape == (1, grid.n_nodes) and rows[0].tobytes() == asm.rowsum.tobytes()


class TestStackedPairPass:
    """_pair_pass on a (k, n) stack gives, row for row and bit for bit, the
    k single calls, on every route; both FFT routes take the stack whole."""

    @pytest.fixture(scope="class")
    def ball(self):
        return make_grid("ball", 16, (0.0, 0.0, 1.0))

    @pytest.mark.parametrize("grid, young, route", [
        ("g1d", ("power", {"p": 2.0}), "quadratic"),
        ("g2d_box", ("power", {"p": 2.0}), "quadratic"),
        ("ball", ("power", {"p": 2.0}), "quadratic"),
        ("g2d_box", ("power_sum", {"terms": [(0.5, 2.0), (0.5, 4.0)]}), "even"),
        ("ball", ("power", {"p": 4.0}), "even"),
        ("g1d", ("power_sum", {"terms": [(0.5, 2.0), (0.5, 4.0)]}), "triangle"),
        ("g1d", ("power", {"p": 1.5}), "triangle"),
        ("g1d_small", ("log_perturbed", {"p": 2.0, "r": 1.0}), "triangle"),
    ])
    def test_rows_have_the_bits_of_single_calls(self, request, monkeypatch, grid, young,
                                                route):
        from nlorlicz import energy

        grid = request.getfixturevalue(grid)
        young = make_young(young[0], **young[1])
        kern = make_kernel("fractional", dim=grid.dim, alpha=0.5)
        if grid.shape == "ball":
            kern = make_kernel("log", dim=2, beta=1.0)
        asm = assemble(grid, kern, young)
        even = young.even_terms is not None and grid.n_nodes >= energy._EVEN_MIN_NODES
        assert route == ("quadratic" if young.quadratic else "even" if even else "triangle")
        rng = np.random.default_rng(11)
        xs = np.vstack([rng.uniform(-1.0, 1.0, (3, grid.n_nodes)),
                        bump(grid, grid.center, 0.5 * grid.inradius, 1.0).values])
        asm.rowsum  # one stencil product on first use: the passes' filters are counted
        calls = []
        filt = energy._lattice_filter
        monkeypatch.setattr(energy, "_lattice_filter", lambda *a: calls.append(1) or filt(*a))
        E = _pair_pass(asm, xs, grad=False)
        G = _pair_pass(asm, xs, grad=True)
        # one batched filter for each whole stack on both FFT routes, none
        # on the triangle walk
        assert len(calls) == (0 if route == "triangle" else 2)
        assert E.shape == (len(xs),) and G.shape == xs.shape
        assert E.tolist() == [_pair_pass(asm, x, grad=False) for x in xs]
        assert G.tobytes() == np.array([_pair_pass(asm, x, grad=True) for x in xs]).tobytes()
        empty = np.empty((0, grid.n_nodes))
        assert _pair_pass(asm, empty, False).shape == (0,)
        assert _pair_pass(asm, empty, True).shape == empty.shape


class TestJointPass:
    """E_and_gradient gives E_value and gradient_E, bit for bit, from one
    pass on every route, and _pass asked for both on a stack gives each
    row those bits: one filter pair for quadratic psi, one batched
    stencil product for even polynomial psi from _EVEN_MIN_NODES nodes up,
    and one triangle walk below it and for every other psi."""

    @pytest.mark.parametrize("grid, young, route", [
        (("interval", 64, (-1.0, 1.0)), ("power", {"p": 2.0}), "quadratic"),
        (("box", 12, (-1.0, 1.0, -1.0, 1.0)), ("power", {"p": 2.0}), "quadratic"),
        (("ball", 16, (0.0, 0.0, 1.0)), ("power", {"p": 2.0}), "quadratic"),
        (("interval", 300, (-1.0, 1.0)), ("power", {"p": 4.0}), "even"),
        (("interval", 128, (-1.0, 1.0)), ("power_sum", {"terms": [(0.5, 2.0), (0.5, 6.0)]}),
         "even"),
        (("ball", 16, (0.0, 0.0, 1.0)), ("power_sum", {"terms": [(0.5, 2.0), (0.5, 4.0)]}),
         "even"),
        (("interval", 64, (-1.0, 1.0)), ("power", {"p": 4.0}), "triangle"),
        (("interval", 300, (-1.0, 1.0)), ("log_perturbed", {"p": 2.0, "r": 1.0}), "triangle"),
        (("box", 8, (-1.0, 1.0, -1.0, 1.0)), ("log_perturbed", {"p": 2.0, "r": -0.5}),
         "triangle"),
        (("interval", 200, (-1.0, 1.0)), ("power", {"p": 1.5}), "triangle"),
        (("interval", 64, (-1.0, 1.0)), ("custom", {}), "triangle"),
    ])
    def test_bits_of_the_two_passes(self, monkeypatch, grid, young, route):
        from nlorlicz import energy
        from nlorlicz.energy import E_and_gradient

        grid = make_grid(*grid)
        if young[0] == "custom":
            young = make_young("custom", value=lambda s: np.abs(s) ** 2.5,
                               deriv=lambda s: 2.5 * np.abs(s) ** 1.5 * np.sign(s))
        else:
            young = make_young(young[0], **young[1])
        asm = assemble(grid, make_kernel("fractional", dim=grid.dim, alpha=0.5), young)
        even = young.even_terms is not None and grid.n_nodes >= energy._EVEN_MIN_NODES
        assert route == ("quadratic" if young.quadratic else "even" if even else "triangle")
        asm.rowsum  # one stencil product on first use: the passes' filters are counted
        calls = []
        filt = energy._lattice_filter
        monkeypatch.setattr(energy, "_lattice_filter", lambda *a: calls.append(1) or filt(*a))
        rng = np.random.default_rng(5)
        points = [rng.uniform(-1.0, 1.0, grid.n_nodes), np.zeros(grid.n_nodes),
                  bump(grid, grid.center, 0.5 * grid.inradius, 1.0).values]
        points[0][::4] = 0.0
        for x in points:
            u = gf(asm, x)
            calls.clear()
            E, G = E_and_gradient(asm, u)
            # at x = 0 no route runs
            assert len(calls) == (route != "triangle" and bool(x.any()))
            assert E == E_value(asm, u)
            assert G.values.tobytes() == gradient_E(asm, u).values.tobytes()
        # a stack, as the battery asks for both: one filter for the whole
        # stack, and each row keeps its bits
        X = np.array(points)
        calls.clear()
        E, G = energy._pass(asm, X, True, True)
        assert len(calls) == (route != "triangle")
        assert E.tolist() == [E_value(asm, gf(asm, x)) for x in X]
        assert G.tobytes() == _pair_pass(asm, X, True).tobytes()


class TestZeroPoint:
    """At x = 0 the pass returns E = 0.0 and a +0.0 gradient with no walk and
    no stencil product, the bits that every route gives there."""

    @staticmethod
    def _custom():
        return make_young("custom", value=lambda s: np.abs(s) ** 2.5,
                          deriv=lambda s: 2.5 * np.abs(s) ** 1.5 * np.sign(s))

    @pytest.mark.parametrize("young, n, route", [
        (("power", {"p": 1.5}), 64, "triangle"),
        (("log_perturbed", {"p": 2.0, "r": 1.0}), 64, "triangle"),
        (("custom", {}), 64, "triangle"),
        (("power", {"p": 2.0}), "even_min", "quadratic"),
        (("power", {"p": 2.0}), 512, "quadratic"),
        (("power_sum", {"terms": [(0.5, 2.0), (0.5, 4.0)]}), "even_min", "even"),
        (("power_sum", {"terms": [(0.5, 2.0), (0.5, 4.0)]}), 512, "even"),
    ])
    def test_every_route_gives_zero(self, monkeypatch, young, n, route):
        from nlorlicz import energy
        from nlorlicz.energy import E_and_gradient

        n = energy._EVEN_MIN_NODES if n == "even_min" else n
        grid = make_grid("interval", n, (-1.0, 1.0))
        young = self._custom() if young[0] == "custom" else make_young(young[0], **young[1])
        asm = assemble(grid, make_kernel("fractional", dim=1, alpha=0.5), young)
        even = young.even_terms is not None and n >= energy._EVEN_MIN_NODES
        assert route == ("quadratic" if young.quadratic else "even" if even else "triangle")
        # a stack with a nonzero row runs its route whole, and each row has
        # the bits of its own call: row 0 is the route's value at 0
        stack = np.stack([np.zeros(n), bump(grid, grid.center, 0.5, 1.0).values])
        E_route, G_route = energy._pass(asm, stack, True, True)
        assert E_route[0] == 0.0 and not np.any(G_route[0])
        assert not np.any(np.signbit(G_route[0]))

        def refuse(*args):
            raise AssertionError("walked or filtered at x = 0")

        monkeypatch.setattr(energy, "_pair_blocks", refuse)
        monkeypatch.setattr(energy, "_lattice_filter", refuse)
        for zero in (np.zeros(n), -np.zeros(n)):
            u = gf(asm, zero)
            E, G = E_and_gradient(asm, u)
            assert type(E) is float and E == 0.0
            assert E_value(asm, u) == 0.0
            for g in (G.values, gradient_E(asm, u).values):
                assert g.tobytes() == G_route[0].tobytes()
        Es = energy._pair_pass(asm, np.zeros((3, n)), grad=False)
        assert Es.shape == (3,) and not np.any(Es)


class TestQuadraticFormProduct:
    @pytest.mark.parametrize("grid", [
        ("interval", 128, (-1.0, 1.0)), ("box", 12, (-1.0, 1.0, -1.0, 1.0)),
        ("ball", 16, (0.0, 0.0, 1.0))])
    def test_is_the_quadratic_energy_matrix(self, grid):
        # v . A v is E at psi = |s|^2, whatever the assembly's psi, and A v
        # agrees with the dense product
        from nlorlicz.energy import quadratic_form_product

        grid = make_grid(*grid)
        kern = make_kernel("fractional", dim=grid.dim, alpha=0.5)
        asm = assemble(grid, kern, make_young("power", p=3.0))
        quad_asm = assemble(grid, kern, make_young("power", p=2.0))
        d0, apply = quadratic_form_product(asm)
        v = random_function(grid, seed=4).values
        dense = (d0 * v - asm.weights @ v)
        Av = apply(v)
        assert np.max(np.abs(Av - dense)) <= 1e-13 * np.max(np.abs(dense))
        assert np.dot(v, Av) == pytest.approx(E_value(quad_asm, gf(quad_asm, v)), rel=1e-12)


class TestInequalities:
    def test_kato_simple(self, asm_sum):
        for seed in range(200):
            u = random_function(asm_sum.grid, seed=seed)
            up = gf(asm_sum, np.maximum(u.values, 0.0))
            iu = interaction(asm_sum, u, up)
            iup = interaction(asm_sum, up, up)
            assert iu >= iup - 1e-9 * (1.0 + abs(iu))
            E = E_value(asm_sum, u)
            Ea = E_value(asm_sum, gf(asm_sum, np.abs(u.values)))
            assert E >= Ea - 1e-9 * (1.0 + E)

    @pytest.mark.parametrize("family,kw", [
        ("power", {"p": 2.0}),
        ("power", {"p": 1.5}),
        ("power_sum", {"terms": [(0.5, 2.0), (0.5, 4.0)]}),
    ])
    def test_kato_pointwise(self, g1d, frac05_1d, family, kw):
        asm = assemble(g1d, frac05_1d, make_young(family, **kw))
        for seed in range(50):
            u = np.abs(random_function(asm.grid, seed=seed).values)
            Au = gf(asm, u ** 2)
            lhs = apply_operator(asm, Au).values
            rhs = gamma_plus_deriv(asm.young, 2.0 * u) * apply_operator(asm, gf(asm, u)).values
            assert np.all(lhs <= rhs + 1e-9 * (1.0 + np.abs(rhs)))

    def test_stroock_varopoulos_general(self, asm_sum):
        # G' = value(A'(s)) with A(s) = s^2, via 64-point quadrature
        xg, wg = np.polynomial.legendre.leggauss(64)
        nodes = 0.5 * (xg + 1.0)
        delta = sv_delta(asm_sum.young)
        coef = delta * asm_sum.young.q / asm_sum.young.p
        for seed in range(100):
            u = np.abs(random_function(asm_sum.grid, seed=seed).values)
            G = u * 0.5 * (asm_sum.young.value(2.0 * u[:, None] * nodes[None, :]) @ wg)
            lhs = interaction(asm_sum, gf(asm_sum, u), gf(asm_sum, G))
            rhs = coef * E_value(asm_sum, gf(asm_sum, u ** 2))
            assert lhs >= rhs - 1e-9 * (1.0 + abs(lhs))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_stroock_varopoulos_power_form(self, g1d, frac05_1d, p, r):
        asm = assemble(g1d, frac05_1d, make_young("power", p=p))
        beta = (r + p - 1.0) / p
        coef = sv_delta(asm.young) * asm.young.q / p * r / beta ** p
        for seed in range(40):
            u = random_function(asm.grid, seed=seed).values
            lhs = interaction(asm, gf(asm, u), gf(asm, np.abs(u) ** (r - 1.0) * u))
            rhs = coef * E_value(asm, gf(asm, np.abs(u) ** beta))
            assert lhs >= rhs - 1e-9 * (1.0 + abs(lhs))

    def test_quadratic_sv_is_sharp(self, asm_quad):
        # p = 2, r = 1: coefficient 2 and interaction(u,u) = 2 E(u) exactly
        u = random_function(asm_quad.grid, seed=1)
        assert interaction(asm_quad, u, u) == pytest.approx(
            2.0 * E_value(asm_quad, u), rel=1e-12)

    def test_poincare(self, asm_sum):
        A = poincare_constant(asm_sum.kernel, asm_sum.grid)
        for seed in range(200):
            u = random_function(asm_sum.grid, seed=seed)
            assert E_value(asm_sum, u) >= A * F_value(asm_sum, u) * (1 - 1e-12)

    def test_luxemburg_sandwich(self, asm_sum):
        for seed in range(100):
            u = random_function(asm_sum.grid, seed=seed)
            norm = luxemburg_norm_of(asm_sum, u)
            F = F_value(asm_sum, u)
            gm, gp = gamma_bounds(asm_sum.young, norm)
            assert gm <= F * (1 + 1e-8) + 1e-8
            assert F <= gp * (1 + 1e-8) + 1e-8

    def test_gradient_bound_calibrate_validate(self, asm_sum):
        rng = np.random.default_rng(55)

        def bumps(count):
            out = []
            for _ in range(count):
                c = asm_sum.grid.center + rng.uniform(-0.15, 0.15, 1)
                out.append(bump(asm_sum.grid, c, rng.uniform(0.25, 0.8), rng.uniform(0.2, 2.0)))
            return out

        train, test = bumps(14), bumps(6)
        C = max(E_value(asm_sum, u) / (F_value(asm_sum, u) + F_of_gradient(asm_sum, u))
                for u in train)
        for u in test:
            E = E_value(asm_sum, u)
            assert E <= 1.05 * C * (F_value(asm_sum, u) + F_of_gradient(asm_sum, u))

    def test_interpolation_fractional(self, asm_quad):
        alpha = asm_quad.kernel.alpha_order
        p, q = asm_quad.young.p, asm_quad.young.q
        rng = np.random.default_rng(56)

        def shape(u):
            F, Fg = F_value(asm_quad, u), F_of_gradient(asm_quad, u)
            return F * min((Fg / F) ** (alpha / p), (Fg / F) ** (alpha / q))

        def bumps(count):
            out = []
            for _ in range(count):
                c = asm_quad.grid.center + rng.uniform(-0.15, 0.15, 1)
                out.append(bump(asm_quad.grid, c, rng.uniform(0.25, 0.8), rng.uniform(0.2, 2.0)))
            return out

        train, test = bumps(14), bumps(6)
        C = max(E_value(asm_quad, u) / shape(u) for u in train)
        for u in test:
            assert E_value(asm_quad, u) <= 1.05 * C * shape(u)

    def test_symmetrization_1d(self, asm_sum):
        from nlorlicz import decreasing_rearrangement

        for seed in range(100):
            u = random_function(asm_sum.grid, seed=seed)
            us = decreasing_rearrangement(u)
            E, Es = E_value(asm_sum, u), E_value(asm_sum, us)
            assert E >= Es - 1e-8 * (1.0 + E)
            assert F_value(asm_sum, u) == pytest.approx(F_value(asm_sum, us), rel=1e-12)


class TestDiscreteGradientHelper:
    def test_central_difference_on_linear_function(self):
        g = make_grid("interval", 16, (0.0, 1.0))
        u = GridFunction(g, 3.0 * g.nodes.ravel())
        gn = central_gradient_norm(g, u.values)
        # interior nodes see the exact slope; the two boundary nodes see the
        # zero exterior
        assert np.allclose(gn[1:-1], 3.0)
