import numpy as np
import pytest

from nlorlicz import (
    GridFunction,
    ReactionSpec,
    assemble,
    check_reaction_conditions,
    make_grid,
    make_kernel,
    make_young,
    moser_integrability_report,
    mountain_pass_search,
    pohozaev_check,
    poincare_constant,
    power_reaction,
    random_function,
    solve_dirichlet,
    solve_eigen,
    solve_sublinear,
    uniqueness_gap,
)
from nlorlicz.oracles import (
    dense_dirichlet_solve,
    dense_min_eigenvalue,
    nehari_ground_state,
)


@pytest.fixture(scope="module")
def asm16(frac05_1d, y_p2):
    return assemble(make_grid("interval", 16, (-1.0, 1.0)), frac05_1d, y_p2)


@pytest.fixture(scope="module")
def asm_mp(y_p2):
    # subcritical configuration for the superlinear search: m=4 < 1*q/(1-alpha)
    return assemble(
        make_grid("interval", 64, (-1.0, 1.0)),
        make_kernel("fractional", dim=1, alpha=0.75),
        y_p2,
    )


class TestDirichlet:
    def test_zero_data_gives_zero(self, asm16):
        f = GridFunction(asm16.grid, np.zeros(asm16.grid.n_nodes))
        rep = solve_dirichlet(asm16, f)
        assert rep.converged
        assert rep.objective == 0.0
        assert not np.any(rep.solution.values)

    def test_matches_dense_solve(self, asm16):
        f = random_function(asm16.grid, seed=12)
        rep = solve_dirichlet(asm16, f, tol=1e-10)
        ref = dense_dirichlet_solve(asm16, f)
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - ref.values)) < 1e-8

    def test_converged_residual_within_scaled_tolerance(self, asm16):
        f = random_function(asm16.grid, seed=13)
        tol = 1e-9
        rep = solve_dirichlet(asm16, f, tol=tol)
        assert rep.converged
        assert rep.residual_inf <= tol * (1.0 + np.max(np.abs(f.values)))
        assert rep.extras["weak_form_residual"] <= tol * 10.0

    def test_maximum_principle(self, asm16):
        for seed in range(10):
            f = GridFunction(asm16.grid,
                             np.abs(random_function(asm16.grid, seed=seed).values))
            rep = solve_dirichlet(asm16, f)
            assert rep.converged
            assert rep.solution.values.min() >= -1e-10

    def test_singular_exponent_solves(self, g1d_small, frac05_1d):
        asm = assemble(g1d_small, frac05_1d, make_young("power", p=1.5))
        f = random_function(asm.grid, seed=8)
        rep = solve_dirichlet(asm, f, tol=2e-8, max_iter=30000)
        assert rep.converged
        assert rep.extras["weak_form_residual"] < 1e-8

    def test_far_subquadratic_reports_honest_nonconvergence(self, g1d_small,
                                                            frac05_1d):
        # a run cut short by max_iter must say so while its weak residual
        # is already small
        asm = assemble(g1d_small, frac05_1d, make_young("power", p=1.5))
        f = random_function(asm.grid, seed=8)
        rep = solve_dirichlet(asm, f, tol=1e-8, max_iter=8)
        assert not rep.converged
        assert rep.iterations == 8
        assert rep.extras["weak_form_residual"] < 1e-2
        assert np.isfinite(rep.objective)
        # far below quadratic growth the solve itself converges
        asm12 = assemble(g1d_small, frac05_1d, make_young("power", p=1.2))
        rep = solve_dirichlet(asm12, f, tol=1e-8, max_iter=1500)
        assert rep.converged
        assert rep.residual_inf <= 1e-8 * (1.0 + np.max(np.abs(f.values)))

    def test_descent_monotone(self, asm16):
        # nonincreasing objective is part of the line-search contract
        from nlorlicz.oracles import _descent
        from nlorlicz.energy import E_value, gradient_E

        f = random_function(asm16.grid, seed=14).values
        hN = asm16.h_pow_dim

        def value(x):
            return E_value(asm16, GridFunction(asm16.grid, x)) - float(f @ x) * hN

        def grad(x):
            return gradient_E(asm16, GridFunction(asm16.grid, x)).values - f * hN

        _, _, _, info = _descent(value, grad, np.zeros(asm16.grid.n_nodes),
                                 lambda x, g: np.max(np.abs(g)) / hN < 1e-8, 5000)
        hist = info["objective_history"]
        assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))


class TestRelaxedNewton:
    @staticmethod
    def _bump_problem(p, n):
        from nlorlicz.grid import bump

        grid = make_grid("interval", n, (-1.0, 1.0))
        asm = assemble(grid, make_kernel("fractional", dim=1, alpha=0.5),
                       make_young("power", p=p))
        return asm, bump(grid, grid.center, 0.5 * grid.inradius, 1.0)

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("p", [1.5, 1.7])
    def test_singular_growth_converges(self, p, n):
        asm, f = self._bump_problem(p, n)
        rep = solve_dirichlet(asm, f)
        assert rep.converged
        assert rep.iterations < 100
        assert rep.residual_inf <= 1e-8 * (1.0 + np.max(np.abs(f.values)))
        assert not rep.extras["line_search_failure"]

    def test_relaxation_keeps_weights_finite(self):
        # letting the relaxation reach 0 makes psi'' infinite at equal pairs
        asm, f = self._bump_problem(1.3, 64)
        rep = solve_dirichlet(asm, f)
        assert np.all(np.isfinite(rep.solution.values))
        assert np.isfinite(rep.objective)
        assert rep.converged

    def test_quadratic_is_one_step_of_the_dense_solve(self, asm_quad):
        for seed in (1, 2):
            f = random_function(asm_quad.grid, seed=seed)
            rep = solve_dirichlet(asm_quad, f)
            ref = dense_dirichlet_solve(asm_quad, f)
            assert rep.converged
            assert rep.iterations == 1
            assert np.max(np.abs(rep.solution.values - ref.values)) < 1e-12

    @pytest.mark.parametrize("objective, p", [
        pytest.param("dirichlet", 1.5, id="1.5"),
        pytest.param("dirichlet", 3.0, id="3.0"),
        pytest.param("sublinear", 1.5, id="sublinear-1.5"),
        pytest.param("peak", 2.0, id="peak-2.0"),
    ])
    def test_objective_never_increases(self, objective, p):
        # the Dirichlet objective, the sublinear objective (m = 1.2) and the
        # mountain-pass peak level (m = 3) go through the same step loop
        from nlorlicz.energy import E_value, gradient_E
        from nlorlicz.solvers import _ray_peak, _reaction_objective, _relaxed_newton

        asm, f = self._bump_problem(p, 64)
        hN = asm.h_pow_dim
        x0, retract = np.zeros(asm.grid.n_nodes), None
        if objective == "dirichlet":
            def value(x):
                return E_value(asm, GridFunction(asm.grid, x)) - float(f.values @ x) * hN

            def gradient(x):
                return gradient_E(asm, GridFunction(asm.grid, x)).values - f.values * hN

            def stop(x, g):
                return np.max(np.abs(g)) / hN <= 1e-8 * (1.0 + np.max(np.abs(f.values)))
        else:
            m = 1.2 if objective == "sublinear" else 3.0
            value, gradient, stop = _reaction_objective(asm, power_reaction(m), 1e-8)
            x0 = f.values
        if objective == "peak":
            def retract(y):
                t = _ray_peak(gradient, y)
                return None if t is None else t * y

            x0 = retract(x0)
        _, _, conv, info = _relaxed_newton(asm, value, gradient, x0, stop, 200,
                                           retract=retract)
        hist = info["objective_history"]
        assert conv and len(hist) > 5
        # up to the rounding of the objective itself
        ulp = 4.0 * np.finfo(float).eps
        assert all(b <= a + ulp * abs(a) for a, b in zip(hist, hist[1:]))

    def test_custom_young_without_second_derivative(self):
        # the secant weight alone is a Kacanov iteration: slower, same limit
        asm, f = self._bump_problem(2.5, 64)
        custom = make_young("custom", value=lambda s: np.abs(s) ** 2.5,
                            deriv=lambda s: 2.5 * np.abs(s) ** 1.5 * np.sign(s))
        assert custom.deriv2 is None
        ref = solve_dirichlet(asm, f)
        rep = solve_dirichlet(assemble(asm.grid, asm.kernel, custom), f)
        assert ref.converged and rep.converged
        assert rep.iterations > ref.iterations
        scale = np.max(np.abs(ref.solution.values))
        assert np.max(np.abs(rep.solution.values - ref.solution.values)) < 1e-6 * scale

    def test_matvec_panels(self):
        from nlorlicz.linalg import matvec

        rng = np.random.default_rng(1)
        # whole-row panels, and single rows cut into column chunks
        for shape in ((1, 1), (50, 1001), (5, 20000)):
            A = rng.standard_normal(shape)
            x = rng.standard_normal(shape[1])
            ref = A @ x
            assert np.max(np.abs(matvec(A, x) - ref)) <= 1e-13 * np.sum(np.abs(A) @ np.abs(x))

    def test_tiled_cholesky_solves(self):
        from nlorlicz.linalg import cholesky_inplace, cholesky_solve

        rng = np.random.default_rng(0)
        for n in (1, 47, 48, 49, 200):
            M = rng.standard_normal((n, n))
            A = M @ M.T + n * np.eye(n)
            b = rng.standard_normal(n)
            L = A.copy()
            x = cholesky_solve(L, cholesky_inplace(L), b)
            assert np.allclose(np.tril(L) @ np.tril(L).T, A, rtol=0, atol=1e-10 * n)
            assert np.max(np.abs(A @ x - b)) < 1e-10


def _power_25(deriv2):
    extra = {"deriv2": lambda s: 3.75 * np.abs(s) ** 0.5} if deriv2 else {}
    return make_young("custom", value=lambda s: np.abs(s) ** 2.5,
                      deriv=lambda s: 2.5 * np.abs(s) ** 1.5 * np.sign(s), **extra)


class TestNewtonMatrix:
    """The relaxed-Newton matrix: young.curvature, evaluated on one triangle
    of the pairs and mirrored."""

    @pytest.mark.parametrize("young", [
        *(pytest.param(make_young("power", p=p), id=f"power-{p}")
          for p in (1.05, 1.5, 2.0, 3.0)),
        pytest.param(make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)]),
                     id="power_sum-2+4"),
        pytest.param(make_young("power_sum", terms=[(0.5, 1.5), (0.5, 3.0)]),
                     id="power_sum-1.5+3"),
        *(pytest.param(make_young("log_perturbed", p=p, r=r), id=f"log_perturbed-{p}-{r}")
          for p, r in ((2.0, 1.0), (1.5, 1.0), (3.0, -0.5))),
        pytest.param(_power_25(deriv2=False), id="custom"),
        pytest.param(_power_25(deriv2=True), id="custom-deriv2"),
    ])
    def test_curvature_is_max_of_deriv2_and_secant(self, young):
        t = np.logspace(-12.0, 6.0, 1001)
        ref = young.deriv(t) / t
        if young.deriv2 is not None:
            ref = np.maximum(young.deriv2(t), ref)
        assert np.all(np.abs(young.curvature(t) - ref) <= 4 * np.spacing(ref))

    def test_curvature_on_one_triangle(self, frac05_1d):
        from dataclasses import replace

        from nlorlicz.linalg import BLOCK
        from nlorlicz.solvers import _newton_matrix

        n = 200
        young = make_young("power", p=1.5)
        sizes = []

        def counted(t):
            sizes.append(np.size(t))
            return young.curvature(t)

        asm = assemble(make_grid("interval", n, (-1.0, 1.0)), frac05_1d,
                       replace(young, curvature=counted))
        _newton_matrix(asm, random_function(asm.grid, seed=3).values, 1e-3)
        # the upper triangle, the lower halves of the diagonal tiles and the
        # n exterior terms; a full-square build passes n^2 + n
        tiles = [min(BLOCK, n - k) for k in range(0, n, BLOCK)]
        assert sum(sizes) <= n * (n + 1) // 2 + sum(b * (b - 1) // 2 for b in tiles) + n

    @pytest.mark.parametrize("family, params", [
        pytest.param("power", {"p": 1.5}, id="power-1.5"),
        pytest.param("log_perturbed", {"p": 2.0, "r": 1.0}, id="log_perturbed-2-1"),
    ])
    def test_bits_of_the_full_square_build(self, frac05_1d, family, params):
        from nlorlicz.solvers import _newton_matrix

        n, eps = 200, 1e-3
        asm = assemble(make_grid("interval", n, (-1.0, 1.0)), frac05_1d,
                       make_young(family, **params))
        young = asm.young
        x = random_function(asm.grid, seed=4).values
        x[::7] = x[0]  # equal pairs, which sit on the eps floor

        def c(t):
            return np.maximum(young.deriv2(t), young.deriv(t) / t)

        Wc = c(np.maximum(np.abs(x[:, None] - x[None, :]), eps)) * asm.weights
        ref = -Wc
        np.fill_diagonal(ref, Wc.sum(axis=1)
                         + c(np.maximum(np.abs(x), eps)) * asm.exterior * asm.h_pow_dim)
        assert _newton_matrix(asm, x, eps).tobytes() == ref.tobytes()

    def test_no_temporaries_beyond_the_matrix(self, frac05_1d):
        import tracemalloc

        from nlorlicz.solvers import _newton_matrix

        n = 1024
        asm = assemble(make_grid("interval", n, (-1.0, 1.0)), frac05_1d,
                       make_young("log_perturbed", p=2.0, r=1.0))
        x = random_function(asm.grid, seed=1).values
        tracemalloc.start()
        try:
            _newton_matrix(asm, x, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * n * 8  # H itself, plus 8 MB


class TestDirichletRounding:
    """Convergence must not hinge on the last bits of the data: the step test
    stays decidable once the decrease of E falls below its rounding."""

    @staticmethod
    def _moser(n, p):
        return assemble(make_grid("interval", n, (-1.0, 1.0)),
                        make_kernel("fractional", dim=1, alpha=0.75),
                        make_young("power", p=p))

    @pytest.mark.parametrize("n, p", [(48, 2.0), (48, 3.0), (32, 3.0)])
    def test_ulp_perturbed_exterior_weights_converge(self, n, p):
        from dataclasses import replace

        asm = self._moser(n, p)
        for draw in range(5):
            up = np.random.default_rng(draw).random(asm.grid.n_nodes) < 0.5
            lam = np.where(up, np.nextafter(asm.exterior, np.inf),
                           np.nextafter(asm.exterior, -np.inf))
            perturbed = replace(asm, exterior=lam)
            for level in (1.0, 8.0):
                f = GridFunction(asm.grid, np.full(asm.grid.n_nodes, level))
                rep = solve_dirichlet(perturbed, f, tol=1e-9, max_iter=3000)
                assert rep.converged, (draw, level, rep.residual_inf)


class TestUniquenessGap:
    def test_identical_solutions(self, asm16):
        u = random_function(asm16.grid, seed=1)
        rep = uniqueness_gap(asm16, u, u)
        assert rep.gap == 0.0
        assert rep.bound == 0.0

    def test_two_runs_same_data(self, asm16):
        f = random_function(asm16.grid, seed=2)
        u1 = solve_dirichlet(asm16, f, tol=1e-9).solution
        u2 = solve_dirichlet(asm16, f, tol=1e-12).solution
        rep = uniqueness_gap(asm16, u1, u2)
        from nlorlicz.energy import E_value

        assert rep.gap <= 1e-8 * (1.0 + E_value(asm16, u1))

    def test_quadratic_identity(self, asm16):
        u1 = random_function(asm16.grid, seed=3)
        u2 = random_function(asm16.grid, seed=4)
        rep = uniqueness_gap(asm16, u1, u2)
        # for the quadratic function the interaction difference is exactly
        # twice the energy of the difference
        assert rep.interaction_difference == pytest.approx(2.0 * rep.gap, rel=1e-12)
        assert rep.case == "difference_convexity"

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_certificate_bounds_arbitrary_pairs(self, g1d_small, frac05_1d, p):
        asm = assemble(g1d_small, frac05_1d, make_young("power", p=p))
        for seed in range(20):
            u1 = random_function(asm.grid, seed=seed)
            u2 = random_function(asm.grid, seed=seed + 500)
            rep = uniqueness_gap(asm, u1, u2)
            assert rep.bound is not None
            assert rep.gap <= rep.bound * (1.0 + 1e-6) + 1e-12


class TestReactionConditions:
    def test_power_sublinear_exponent(self, y_p2):
        rep = check_reaction_conditions(y_p2, power_reaction(1.5), dim=1,
                                        alpha_order=0.5)
        assert rep["sub_ok"]
        assert rep["sub_mu"] == pytest.approx(0.25, abs=1e-3)
        assert not rep["rho_clause1_ok"]

    def test_boundary_exponent_fails_both(self, y_p2):
        rep = check_reaction_conditions(y_p2, power_reaction(2.0), dim=1,
                                        alpha_order=0.5)
        assert not rep["sub_ok"]
        assert not rep["rho_ok"]

    def test_superlinear_range_passes_rho(self, y_p2):
        rep = check_reaction_conditions(y_p2, power_reaction(4.0), dim=1,
                                        alpha_order=0.75)
        assert rep["rho_ok"]
        assert rep["rho"] == pytest.approx(4.0, rel=1e-9)
        assert 1.0 < rep["r"] < rep["r_star"]
        assert rep["power_cross_check"]["rho_expected"]

    def test_rho_needs_fractional_bound(self, y_p2):
        rep = check_reaction_conditions(y_p2, power_reaction(4.0))
        assert rep["rho_clause2_ok"] is None
        assert not rep["rho_ok"]

    def test_sub_constants_bound_reaction(self, y_p2):
        reaction = power_reaction(1.5)
        rep = check_reaction_conditions(y_p2, reaction)
        t = np.logspace(1.0, 4.0, 60)
        bound = rep["sub_c1"] + rep["sub_c2"] * y_p2.value(t) ** rep["sub_mu"]
        assert np.all(reaction.f(t) <= bound * (1.0 + 1e-12))


class TestSublinear:
    @pytest.mark.parametrize("m", [1.5, 1.8])
    def test_nontrivial_nonnegative_solution(self, asm_quad, m):
        rep = solve_sublinear(asm_quad, power_reaction(m), tol=1e-8)
        assert rep.converged
        assert rep.objective < 0.0
        assert rep.extras["negative_level"]
        assert not rep.extras["trivial_solution"]
        assert rep.solution.values.min() >= 0.0
        assert rep.solution.values.max() > 0.0

    def test_supercritical_exponent_flags_trivial(self, asm_quad):
        rep = solve_sublinear(asm_quad, power_reaction(2.5), tol=1e-8)
        assert rep.extras["trivial_solution"]
        assert not rep.extras["condition_report"]["sub_ok"]

    def test_zero_reaction_collapses_to_zero(self, asm_quad):
        zero = ReactionSpec(
            f=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            G=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            name="zero",
        )
        rep = solve_sublinear(asm_quad, zero, tol=1e-8)
        assert rep.objective == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(rep.solution.values)) < 1e-6

    def test_singular_growth_converges(self, frac05_1d):
        asm = assemble(make_grid("interval", 64, (-1.0, 1.0)), frac05_1d,
                       make_young("power", p=1.5))
        rep = solve_sublinear(asm, power_reaction(1.2), tol=1e-8)
        assert rep.converged
        assert rep.objective < 0.0
        assert not rep.extras["line_search_failure"]

    def test_resolution_stability(self, frac05_1d, y_p2):
        levels = []
        for n in (64, 128):
            asm = assemble(make_grid("interval", n, (-1.0, 1.0)), frac05_1d, y_p2)
            levels.append(solve_sublinear(asm, power_reaction(1.5), tol=1e-9).objective)
        assert abs(levels[1] - levels[0]) < 0.05 * abs(levels[0])


class TestMountainPass:
    def test_against_ground_state_oracle(self, asm_mp):
        rep = mountain_pass_search(asm_mp, power_reaction(4.0), tol=1e-6)
        level, _ = nehari_ground_state(asm_mp, 4.0)
        assert rep.converged
        assert rep.extras["eta"] > 0.0
        assert rep.extras["eta"] == pytest.approx(level, rel=1e-3)
        assert rep.residual_inf <= 1e-6 * (1.0 + np.max(np.abs(
            power_reaction(4.0).f(rep.solution.values))))
        assert np.max(np.abs(rep.solution.values)) > 0.1

    def test_never_raises_initial_maximum(self, asm_mp):
        rep = mountain_pass_search(asm_mp, power_reaction(4.0), tol=1e-4,
                                   max_iter=200)
        assert rep.extras["eta"] <= rep.extras["eta_initial"] + 1e-12

    def test_singular_growth_converges(self, frac05_1d):
        asm = assemble(make_grid("interval", 64, (-1.0, 1.0)), frac05_1d,
                       make_young("power", p=1.5))
        rep = mountain_pass_search(asm, power_reaction(2.5), tol=1e-6)
        assert rep.converged
        assert 0.0 < rep.extras["eta"] <= rep.extras["eta_initial"]
        assert rep.residual_inf <= 1e-6 * (1.0 + np.max(np.abs(
            power_reaction(2.5).f(rep.solution.values))))

    def test_above_subcritical_cap_is_flagged(self, frac05_1d, y_p2):
        # 1D, alpha = 0.5, p = 2: the subcritical cap on m is 1 * 2 / 0.5 = 4
        asm = assemble(make_grid("interval", 64, (-1.0, 1.0)), frac05_1d, y_p2)
        for m, outside in ((5.0, True), (3.0, False)):
            rep = mountain_pass_search(asm, power_reaction(m), tol=1e-6)
            assert rep.extras["outside_admissible_range"] is outside
            assert rep.extras["condition_report"]["rho_clause2_ok"] is (not outside)
            assert "condition_report" in rep.to_dict()["extras"]

    def test_sublinear_reaction_has_no_mountain(self, asm_mp):
        rep = mountain_pass_search(asm_mp, power_reaction(1.5), tol=1e-4,
                                   max_iter=50)
        assert rep.extras["no_mountain_geometry"]
        assert not rep.converged


class TestEigen:
    def test_matches_dense_eigendecomposition(self, asm_quad):
        rep = solve_eigen(asm_quad)
        lam_ref, _ = dense_min_eigenvalue(asm_quad)
        assert rep.converged
        assert rep.extras["lambda1"] == pytest.approx(lam_ref, rel=1e-6)

    def test_above_poincare_constant(self, asm_quad):
        rep = solve_eigen(asm_quad)
        A = poincare_constant(asm_quad.kernel, asm_quad.grid)
        assert rep.extras["lambda1"] >= A

    def test_single_sign(self, asm_quad):
        rep = solve_eigen(asm_quad)
        assert rep.extras["min_value"] >= -1e-10

    def test_unit_modular_at_convergence(self, asm_quad):
        from nlorlicz.energy import F_value

        rep = solve_eigen(asm_quad)
        assert F_value(asm_quad, rep.solution) == pytest.approx(1.0, rel=1e-9)

    def test_scale_invariance_pure_power(self, g1d_small, frac05_1d):
        from nlorlicz.energy import E_value, F_value

        asm = assemble(g1d_small, frac05_1d, make_young("power", p=3.0))
        rep = solve_eigen(asm, tol=1e-7)
        u = rep.solution
        for c in (0.5, 2.0):
            cu = GridFunction(asm.grid, c * u.values)
            assert E_value(asm, cu) / F_value(asm, cu) == pytest.approx(
                rep.objective, rel=1e-10)

    def test_nonlinear_eigenproblem_converges(self, g1d_small, frac05_1d, y_sum):
        asm = assemble(g1d_small, frac05_1d, y_sum)
        rep = solve_eigen(asm, tol=1e-9, max_iter=5000)
        assert rep.converged
        assert rep.extras["lambda1"] >= poincare_constant(asm.kernel, asm.grid)
        assert rep.extras["min_value"] >= -1e-10

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("p", [1.5, 1.7])
    def test_singular_growth_converges(self, frac05_1d, p, n):
        asm = assemble(make_grid("interval", n, (-1.0, 1.0)), frac05_1d,
                       make_young("power", p=p))
        rep = solve_eigen(asm)
        assert rep.converged
        assert rep.iterations < 100
        assert not rep.extras["line_search_failure"]
        assert rep.extras["min_value"] >= -1e-10
        assert rep.extras["lambda1"] >= poincare_constant(asm.kernel, asm.grid)

    def test_quadratic_matches_dense_to_rounding(self, asm_quad):
        # the unit Newton step is exact inverse iteration at p = 2
        rep = solve_eigen(asm_quad)
        lam_ref, _ = dense_min_eigenvalue(asm_quad)
        assert rep.converged
        assert abs(rep.extras["lambda1"] - lam_ref) <= 1e-12
        assert abs(rep.extras["lambda_weak"] - lam_ref) <= 1e-12

    def test_grid_refinement_stability(self, frac05_1d, y_p2):
        # the discrete eigenvalue moves by well under 5% between n and 2n
        # (it creeps slightly upward as the near-diagonal mass is refined)
        lams = []
        for n in (32, 64):
            asm = assemble(make_grid("interval", n, (-1.0, 1.0)), frac05_1d, y_p2)
            lams.append(solve_eigen(asm).extras["lambda1"])
        assert abs(lams[1] - lams[0]) < 0.05 * lams[0]


class TestPohozaev:
    def test_ratio_matches_analytic(self, asm_quad):
        m = 1.5
        rep = solve_sublinear(asm_quad, power_reaction(m), tol=1e-8)
        check = pohozaev_check(asm_quad, power_reaction(m), rep.solution)
        assert check.applicable
        analytic = m * (1.0 - check.delta) / (1.0 * 2.0)
        assert check.ratio == pytest.approx(analytic, rel=1e-9)
        assert check.ratio == pytest.approx(m * 0.5 / 2.0, rel=1e-3)  # delta = alpha
        assert check.ratio < 1.0

    def test_threshold_at_critical_exponent(self, asm_quad):
        # the ratio is value-independent for power reactions, so the
        # threshold is checked on a bump profile
        from nlorlicz.grid import bump

        u = bump(asm_quad.grid, asm_quad.grid.center, 0.5, 1.0)
        m_star = asm_quad.grid.dim * 2.0 / (asm_quad.grid.dim - 0.5)  # = 4
        for m, expect_above in ((3.5, False), (3.9, False), (4.1, True), (4.5, True)):
            check = pohozaev_check(asm_quad, power_reaction(m), u)
            assert (check.ratio > 1.0) == expect_above
        assert pohozaev_check(asm_quad, power_reaction(4.0), u).critical_exponent == \
            pytest.approx(m_star, rel=1e-3)

    def test_critical_exponent_2d(self, y_p2):
        # N=2, p=2, fractional order 1: delta = 1 and the cap sits at 4
        asm = assemble(make_grid("box", 8, (0.0, 1.0, 0.0, 1.0)),
                       make_kernel("fractional", dim=2, alpha=1.0), y_p2)
        u = GridFunction(asm.grid, np.ones(asm.grid.n_nodes))
        check = pohozaev_check(asm, power_reaction(3.0), u)
        assert check.applicable
        assert check.delta == pytest.approx(1.0, abs=1e-4)
        assert check.critical_exponent == pytest.approx(4.0, rel=1e-4)

    def test_trivial_solution_reported(self, asm_quad):
        zero = GridFunction(asm_quad.grid, np.zeros(asm_quad.grid.n_nodes))
        check = pohozaev_check(asm_quad, power_reaction(1.5), zero)
        assert not check.applicable
        assert "trivial" in check.note

    def test_inapplicable_cases(self, g1d, frac05_1d, y_sum, y_p2):
        asm = assemble(g1d, frac05_1d, y_sum)
        u = random_function(g1d, seed=0)
        assert not pohozaev_check(asm, power_reaction(1.5), u).applicable
        asm_dyadic = assemble(
            make_grid("interval", 16, (-1.0, 1.0)),
            make_kernel("piecewise_dyadic", dim=1, mu=0.5),
            y_p2,
        )
        check = pohozaev_check(asm_dyadic, power_reaction(1.5),
                               random_function(asm_dyadic.grid, seed=0))
        assert not check.applicable
        assert "infinite" in check.note


class TestMoser:
    def test_scaling_exponent_quadratic(self, y_p2):
        asm = assemble(make_grid("interval", 48, (-1.0, 1.0)),
                       make_kernel("fractional", dim=1, alpha=0.75), y_p2)
        f = GridFunction(asm.grid, np.ones(asm.grid.n_nodes))
        rep = moser_integrability_report(asm, f, m=3.0)
        assert rep.applicable
        assert rep.fitted_exponent == pytest.approx(rep.target_exponent, rel=0.02)
        assert len(rep.sobolev_norms) == 0 or min(rep.sobolev_norms) > 0.0

    def test_scaling_exponent_cubic(self):
        asm = assemble(make_grid("interval", 32, (-1.0, 1.0)),
                       make_kernel("fractional", dim=1, alpha=0.75),
                       make_young("power", p=3.0))
        f = GridFunction(asm.grid, np.ones(asm.grid.n_nodes))
        rep = moser_integrability_report(asm, f, m=3.0, tol=1e-9)
        assert rep.applicable
        assert rep.target_exponent == pytest.approx(0.5)
        assert rep.fitted_exponent == pytest.approx(0.5, rel=0.02)

    def test_small_m_inapplicable(self, asm_quad):
        f = GridFunction(asm_quad.grid, np.ones(asm_quad.grid.n_nodes))
        rep = moser_integrability_report(asm_quad, f, m=1.5)
        assert not rep.applicable

    def test_zero_data_gives_zero_norms(self, asm16):
        f = GridFunction(asm16.grid, np.zeros(asm16.grid.n_nodes))
        rep = moser_integrability_report(asm16, f, m=3.0)
        assert rep.applicable
        assert max(rep.norms) == 0.0
        assert max(rep.sup_norms) == 0.0

    def test_not_power_like_inapplicable(self, asm_sum):
        f = GridFunction(asm_sum.grid, np.ones(asm_sum.grid.n_nodes))
        assert not moser_integrability_report(asm_sum, f, m=3.0).applicable


class TestEvaluationCounts:
    @staticmethod
    def _count(monkeypatch, names):
        import nlorlicz.solvers as solvers

        calls = dict.fromkeys(names, 0)

        def counted(name):
            fn = getattr(solvers, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(solvers, name, counted(name))
        return calls

    def test_one_gradient_pass_per_iteration(self, asm16, monkeypatch):
        calls = self._count(monkeypatch, ("gradient_E", "interaction"))
        rep = solve_eigen(asm16)
        assert rep.iterations > 2
        assert calls["gradient_E"] <= rep.iterations + 2
        solve_dirichlet(asm16, random_function(asm16.grid, seed=12))
        assert calls["interaction"] == 0

    def test_mountain_pass_gradient_passes(self, frac05_1d, y_p2, monkeypatch):
        # the benchmark's superlinear config: 1D n = 128, alpha = 0.5, m = 3
        asm = assemble(make_grid("interval", 128, (-1.0, 1.0)), frac05_1d, y_p2)
        calls = self._count(monkeypatch, ("gradient_E",))
        rep = mountain_pass_search(asm, power_reaction(3.0), tol=1e-6)
        assert rep.converged
        assert calls["gradient_E"] < 1000

    def test_quadratic_matrix_factored_once(self, asm_quad, frac05_1d, monkeypatch):
        # at p = 2 the Newton matrix does not depend on the iterate: one
        # build and one factorization per solve, however many steps it takes
        calls = self._count(monkeypatch, ("_newton_matrix", "cholesky_inplace"))
        for solve in (lambda: solve_sublinear(asm_quad, power_reaction(1.5)),
                      lambda: mountain_pass_search(asm_quad, power_reaction(3.0)),
                      lambda: solve_eigen(asm_quad)):
            calls.update(dict.fromkeys(calls, 0))
            rep = solve()
            assert rep.converged and rep.iterations > 1
            assert calls == {"_newton_matrix": 1, "cholesky_inplace": 1}
        # any other psi builds and factors a fresh matrix at every step
        from nlorlicz.grid import bump

        grid = asm_quad.grid
        asm = assemble(grid, frac05_1d, make_young("power", p=1.5))
        for solve in (lambda: solve_dirichlet(asm, bump(grid, grid.center, 0.5, 1.0)),
                      lambda: solve_eigen(asm)):
            calls.update(dict.fromkeys(calls, 0))
            rep = solve()
            assert rep.converged and rep.iterations > 1
            assert calls == dict.fromkeys(calls, rep.iterations)


class TestOracleIndependence:
    def test_oracles_import_nothing_from_solvers(self):
        import ast
        import inspect

        import nlorlicz.oracles

        tree = ast.parse(inspect.getsource(nlorlicz.oracles))
        imported = [node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)]
        imported += [alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.Import) for alias in node.names]
        assert not [name for name in imported if name and "solvers" in name]

    def test_oracles_take_only_the_assembly_from_energy(self):
        # the superlinear oracle check must not run the production pair pass
        import ast
        import inspect

        import nlorlicz.oracles

        tree = ast.parse(inspect.getsource(nlorlicz.oracles))
        from_energy = [alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       and node.module in ("energy", "nlorlicz.energy")
                       for alias in node.names]
        assert from_energy == ["EnergyAssembly"]
        assert not [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names if "energy" in alias.name]


class TestReports:
    def test_solve_report_serializes(self, asm16):
        rep = solve_dirichlet(asm16, random_function(asm16.grid, seed=5))
        doc = rep.to_dict()
        assert doc["spec_version"] == 1
        assert set(doc) >= {"objective", "residual_inf", "iterations",
                            "converged", "energy_E", "integral_F", "extras"}
        import json

        json.dumps(doc)  # must be serializable
