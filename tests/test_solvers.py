import numpy as np
import pytest

from nlorlicz import (
    E_value,
    GridFunction,
    ReactionSpec,
    assemble,
    check_reaction_conditions,
    gradient_E,
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

    def test_eps_schedule(self, monkeypatch):
        # eps is capped at max|x| after every step, shortened ones included,
        # and falls by _EPS_DECAY after a unit step unless the ulp floor binds
        import nlorlicz.solvers as solvers

        steps, directions = [], []
        build, solve = solvers._newton_matrix, solvers.cholesky_solve

        def recorded_build(asm, x, eps):
            steps.append((x, eps))
            return build(asm, x, eps)

        def recorded_solve(L, b):
            directions.append(solve(L, b))
            return directions[-1]

        monkeypatch.setattr(solvers, "_newton_matrix", recorded_build)
        monkeypatch.setattr(solvers, "cholesky_solve", recorded_solve)
        asm, f = self._bump_problem(1.5, 64)
        rep = solve_dirichlet(asm, f)
        assert rep.converged and len(steps) == len(directions) == rep.iterations
        units = 0
        for (x, eps), d, (x_next, eps_next) in zip(steps, directions, steps[1:]):
            size = np.max(np.abs(x_next))
            assert eps_next <= size
            if np.array_equal(x_next, x + d):
                units += 1
                floor = np.finfo(float).eps * size
                assert eps_next <= solvers._EPS_DECAY * eps or eps_next == floor
        # both kinds of step were checked: the first step, from 0, is shortened
        assert units > 0 and units < len(steps) - 1

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

    @pytest.mark.parametrize("objective, p, steps", [
        pytest.param("dirichlet", 1.5, 5, id="1.5"),
        pytest.param("dirichlet", 3.0, 5, id="3.0"),
        pytest.param("sublinear", 1.5, 5, id="sublinear-1.5"),
        pytest.param("peak", 2.0, 5, id="peak-2.0"),
        pytest.param("sublinear+df", 1.5, 5, id="sublinear-1.5-df"),
        pytest.param("peak+df", 2.0, 4, id="peak-2.0-df"),
    ])
    def test_objective_never_increases(self, objective, p, steps):
        # the Dirichlet objective, the sublinear objective (m = 1.2) and the
        # mountain-pass peak level (m = 3) go through the same step loop,
        # with the steps of E alone and (+df) with the reaction's curvature;
        # each takes at least `steps` steps, so the history has some length
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
            m = 1.2 if objective.startswith("sublinear") else 3.0
            value, gradient, stop, curvature = _reaction_objective(asm, power_reaction(m),
                                                                   1e-8)
            x0 = f.values
        if not objective.endswith("+df"):
            curvature = None
        if objective.startswith("peak"):
            def retract(y):
                t = _ray_peak(lambda t: float(gradient(t * y) @ y))
                return None if t is None else t * y

            x0 = retract(x0)
        _, _, conv, info = _relaxed_newton(asm, value, gradient, x0, stop, 200,
                                           retract=retract, curvature=curvature,
                                           tangent=retract is not None)
        hist = info["objective_history"]
        assert conv and len(hist) > steps
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

    def test_tiled_cholesky_solves(self):
        from nlorlicz.linalg import cholesky_inplace, cholesky_solve

        rng = np.random.default_rng(0)
        for n in (1, 47, 48, 49, 200):
            M = rng.standard_normal((n, n))
            A = M @ M.T + n * np.eye(n)
            b = rng.standard_normal(n)
            L = A.copy()
            cholesky_inplace(L)
            x = cholesky_solve(L, b)
            assert np.allclose(np.tril(L) @ np.tril(L).T, A, rtol=0, atol=1e-10 * n)
            assert np.max(np.abs(A @ x - b)) < 1e-10

    def test_cholesky_solve_does_not_copy_the_factor(self):
        import tracemalloc

        from nlorlicz.linalg import cholesky_inplace, cholesky_solve

        n = 1024
        rng = np.random.default_rng(1)
        L = np.eye(n) + 1e-3 * rng.standard_normal((n, n))
        L = L @ L.T
        cholesky_inplace(L)
        b = rng.standard_normal(n)
        tracemalloc.start()
        try:
            x = cholesky_solve(L, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(x))
        assert peak < n * n * 8 / 8


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
        # read off W, with no curvature evaluated
        pytest.param("power", {"p": 2.0}, id="power-2"),
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

    @pytest.mark.parametrize("grid, kernel, tol", [
        pytest.param(("interval", 16, (-1.0, 1.0)), ("fractional", {"alpha": 0.5}), 1e-12,
                     id="interval-16"),
        pytest.param(("interval", 64, (-1.0, 1.0)), ("fractional", {"alpha": 0.5}), 1e-12,
                     id="interval-64"),
        pytest.param(("box", 16, (0.0, 1.0, 0.0, 1.0)), ("fractional", {"alpha": 1.0}), 1e-12,
                     id="box-16"),
        pytest.param(("ball", 24, (0.0, 0.0, 1.0)), ("log", {"beta": 1.0}), 1e-12,
                     id="ball-24"),
        # the binomial terms cancel more with the kernel's singularity: at
        # p = 6 on the bump, H v reached 1.3e-11 of max|H v| and the
        # diagonal 1.8e-11 of its largest entry, above the 1e-12 of the
        # test grids
        pytest.param(("interval", 2048, (-1.0, 1.0)), ("fractional", {"alpha": 1.5}), 3e-11,
                     id="interval-2048-alpha-1.5"),
    ])
    @pytest.mark.parametrize("young", [
        pytest.param(make_young("power", p=4.0), id="power-4"),
        pytest.param(make_young("power", p=6.0), id="power-6"),
        pytest.param(make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)]),
                     id="power_sum-2+4"),
    ])
    def test_matrix_free_product_of_even_powers(self, grid, kernel, tol, young):
        # the relaxed weight c(t) + c(eps) - c(0) is a polynomial in t, so
        # H v needs no matrix
        from nlorlicz.energy import _even_newton_product
        from nlorlicz.grid import bump
        from nlorlicz.solvers import _curvature_shift, _newton_matrix

        grid = make_grid(*grid)
        asm = assemble(grid, make_kernel(kernel[0], dim=grid.dim, **kernel[1]), young)
        b = bump(grid, grid.center, 0.5 * grid.inradius, 1.0).values
        v = random_function(grid, seed=8).values
        for x in (b, b + 0.3, random_function(grid, seed=9).values):
            for eps in (1.0, 1e-3, 1e-9):
                H = _newton_matrix(asm, x, eps)
                diag, apply = _even_newton_product(asm, x, _curvature_shift(young, eps))
                ref = H @ v
                assert np.max(np.abs(apply(v) - ref)) <= tol * np.max(np.abs(ref))
                assert np.max(np.abs(diag - H.diagonal())) <= tol * np.max(H.diagonal())

    def test_even_powers_relax_by_a_polynomial(self, frac05_1d):
        from nlorlicz.solvers import _newton_matrix

        young = make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)])
        asm = assemble(make_grid("interval", 64, (-1.0, 1.0)), frac05_1d, young)
        x = random_function(asm.grid, seed=10).values
        eps = 0.3
        t = np.abs(x[:, None] - x[None, :])
        c = young.curvature
        relaxed = c(t) + c(np.array(eps)) - c(np.array(0.0))
        H = _newton_matrix(asm, x, eps)
        off = ~np.eye(x.size, dtype=bool)
        assert np.allclose(-H[off], (relaxed * asm.weights)[off], rtol=1e-14, atol=0.0)
        # between the weights c(max(t, eps)) of the other psi and twice them
        lower = c(np.maximum(t, eps))
        assert np.all(relaxed >= lower * (1.0 - 1e-15))
        assert np.all(relaxed <= 2.0 * lower)

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


class TestPCG:
    """solvers._pcg, the one conjugate-gradient routine of the Newton steps,
    on small dense systems."""

    @staticmethod
    def _spd(n, lo, hi, seed):
        Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        return (Q * np.geomspace(lo, hi, n)) @ Q.T

    @staticmethod
    def _run(A, b, solve, rtol, tangent=None):
        # the solve, with every search direction it applied A to
        from nlorlicz.solvers import _pcg

        directions = []

        def apply(v):
            directions.append(v.copy())
            return A @ v

        return _pcg(apply, b, solve, rtol, tangent), directions

    @staticmethod
    def _iterate(A, b, directions):
        # CG's iterate after these directions: the minimizer of
        # d.Ad/2 - b.d over their span
        P = np.array(directions).T
        return P @ np.linalg.solve(P.T @ A @ P, P.T @ b)

    def test_stops_at_the_first_iterate_within_rtol(self):
        n, rtol = 12, 1e-6
        A = self._spd(n, 1.0, 30.0, 1) + np.diag(np.linspace(1.0, 50.0, n))
        b = np.random.default_rng(2).standard_normal(n)
        jacobi = A.diagonal().copy()
        d, directions = self._run(A, b, lambda r: r / jacobi, rtol)
        goal = rtol * np.linalg.norm(b)
        assert 1 < len(directions) < n
        assert np.linalg.norm(b - A @ d) <= goal
        for k in range(1, len(directions)):
            assert np.linalg.norm(b - A @ self._iterate(A, b, directions[:k])) > goal

    def test_exact_preconditioner_takes_one_product(self):
        A = self._spd(10, 1.0, 1e3, 3)
        b = np.random.default_rng(4).standard_normal(10)
        d, directions = self._run(A, b, lambda r: np.linalg.solve(A, r), 1e-10)
        assert len(directions) == 1
        assert np.allclose(d, np.linalg.solve(A, b), rtol=1e-10, atol=0.0)

    def test_negative_curvature_at_once_returns_the_preconditioned_b(self):
        A = self._spd(8, 1.0, 10.0, 5) - 20.0 * np.eye(8)
        b = np.random.default_rng(6).standard_normal(8)
        scale = np.abs(A.diagonal())

        def solve(r):
            return r / scale

        d, directions = self._run(A, b, solve, 1e-8)
        z = solve(b)
        assert float(z @ A @ z) <= 0.0
        assert len(directions) == 1 and np.array_equal(d, z)

    def test_negative_curvature_later_returns_a_descent_iterate(self):
        n = 12
        Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((n, n)))
        A = (Q * np.concatenate([[-20.0], np.geomspace(1.0, 30.0, n - 1)])) @ Q.T
        b = Q @ np.ones(n)
        d, directions = self._run(A, b, lambda r: r, 1e-12)
        last = directions[-1]
        assert len(directions) > 1
        assert float(last @ A @ last) <= 0.0
        assert float(b @ d) > 0.0
        assert np.allclose(d, self._iterate(A, b, directions[:-1]), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("tangent", [False, True])
    def test_at_most_cap_products(self, tangent):
        from nlorlicz.solvers import _CG_CAP

        n = 60
        A = self._spd(n, 1.0, 1e6, 8)
        b = np.random.default_rng(9).standard_normal(n)
        x = np.random.default_rng(10).random(n)
        d, directions = self._run(A, b, lambda r: r, 1e-14,
                                  (x, A @ x) if tangent else None)
        assert len(directions) == _CG_CAP
        assert float(b @ d) > 0.0

    def test_tangent_iterates_stay_orthogonal(self):
        # H-orthogonal to x, as the mountain pass asks of its steps; the
        # residual off the subspace cannot reach rtol, the projected one does
        n, rtol = 12, 1e-8
        H = self._spd(n, 1.0, 20.0, 11) + 5.0 * np.eye(n)
        A = H - np.diag(np.linspace(0.0, 2.0, n))
        x = np.random.default_rng(12).random(n) + 0.5
        b = np.random.default_rng(13).standard_normal(n)
        Hx = H @ x
        d, directions = self._run(A, b, lambda r: r / H.diagonal(), rtol, (x, Hx))
        for p in [*directions, d]:
            assert abs(float(Hx @ p)) <= 1e-12 * np.linalg.norm(Hx) * np.linalg.norm(p)

        def project(r):
            return r - Hx * (float(x @ r) / float(x @ Hx))

        assert len(directions) < n
        assert np.linalg.norm(project(b - A @ d)) <= rtol * np.linalg.norm(project(b))
        # the least residual over the subspace: a basis of {v : Hx . v = 0}
        basis = np.linalg.svd(Hx[None, :])[2][1:].T
        c = np.linalg.lstsq(A @ basis, b, rcond=None)[0]
        assert np.linalg.norm(b - A @ basis @ c) > 1e3 * rtol * np.linalg.norm(b)


class TestConjugateGradientSteps:
    """Newton steps by preconditioned CG: from 256 nodes and growth 2 up,
    wherever the dense factor would serve one solve only."""

    @staticmethod
    def _count_factors(monkeypatch):
        import nlorlicz.solvers as solvers
        from nlorlicz.linalg import cholesky_inplace

        calls = []

        def counted(A):
            calls.append(A.shape[0])
            return cholesky_inplace(A)

        monkeypatch.setattr(solvers, "cholesky_inplace", counted)
        return calls

    @staticmethod
    def _bump(grid):
        from nlorlicz.grid import bump

        return bump(grid, grid.center, 0.5 * grid.inradius, 1.0)

    @pytest.mark.parametrize("grid, kernel, young", [
        pytest.param(("interval", 512, (-1.0, 1.0)), ("fractional", {"alpha": 0.5}),
                     ("log_perturbed", {"p": 2.0, "r": 1.0}), id="log_perturbed-512"),
        pytest.param(("interval", 256, (-1.0, 1.0)), ("fractional", {"alpha": 0.5}),
                     ("power", {"p": 3.0}), id="power-3-256"),
        pytest.param(("ball", 24, (0.0, 0.0, 1.0)), ("log", {"beta": 1.0}),
                     ("power_sum", {"terms": [(0.5, 2.0), (0.5, 4.0)]}), id="power_sum-ball"),
    ])
    def test_matches_the_dense_path(self, monkeypatch, grid, kernel, young):
        import nlorlicz.solvers as solvers

        g = make_grid(*grid)
        asm = assemble(g, make_kernel(kernel[0], dim=g.dim, **kernel[1]),
                       make_young(young[0], **young[1]))
        f = self._bump(g)
        calls = self._count_factors(monkeypatch)
        rep = solve_dirichlet(asm, f)
        assert rep.converged and calls == []
        monkeypatch.setattr(solvers, "_PCG_MIN_NODES", g.n_nodes + 1)
        ref = solve_dirichlet(asm, f)
        assert ref.converged and len(calls) == ref.iterations
        scale = np.max(np.abs(ref.solution.values))
        assert np.max(np.abs(rep.solution.values - ref.solution.values)) < 1e-8 * scale

    def test_quadratic_matches_the_dense_solve_at_2048(self, frac05_1d, y_p2):
        asm = assemble(make_grid("interval", 2048, (-1.0, 1.0)), frac05_1d, y_p2)
        f = self._bump(asm.grid)
        rep = solve_dirichlet(asm, f)
        ref = dense_dirichlet_solve(asm, f).values
        assert rep.converged and rep.iterations == 1
        assert np.max(np.abs(rep.solution.values - ref)) < 1e-10 * np.max(np.abs(ref))

    def test_factor_only_where_it_serves(self, frac05_1d, y_p2, monkeypatch):
        import nlorlicz.solvers as solvers

        def refuse(A):
            raise AssertionError("factored")

        monkeypatch.setattr(solvers, "cholesky_inplace", refuse)
        for n in (256, 301):
            asm = assemble(make_grid("interval", n, (-1.0, 1.0)), frac05_1d, y_p2)
            rep = solve_dirichlet(asm, self._bump(asm.grid))
            assert rep.converged and rep.iterations == 1
        # a multi-step quadratic solve factors the matrix once
        calls = self._count_factors(monkeypatch)
        rep = solve_sublinear(asm, power_reaction(1.5))
        assert rep.converged and rep.iterations > 2 and calls == [301]
        # below growth 2 every step factors
        calls.clear()
        asm = assemble(make_grid("interval", 512, (-1.0, 1.0)), frac05_1d,
                       make_young("power", p=1.5))
        rep = solve_dirichlet(asm, self._bump(asm.grid), max_iter=2)
        assert rep.iterations == 2 and calls == [512, 512]

    def test_one_step_solve_keeps_cg_at_its_second_step(self, frac05_1d, y_p2, monkeypatch):
        # the step solver is chosen once: a quadratic Dirichlet solve whose
        # stop rule asks for a second step runs that step by CG too
        import nlorlicz.solvers as solvers

        def refuse(A):
            raise AssertionError("factored")

        monkeypatch.setattr(solvers, "cholesky_inplace", refuse)
        asm = assemble(make_grid("interval", 256, (-1.0, 1.0)), frac05_1d, y_p2)
        rep = solve_dirichlet(asm, self._bump(asm.grid), tol=1e-15, max_iter=4)
        assert rep.converged and rep.iterations >= 2

    def test_multi_step_quadratic_solves_factor_at_the_first_step(self, frac05_1d, y_p2,
                                                                  monkeypatch):
        # only the one-step quadratic Dirichlet solve runs CG on H alone: the
        # eigen and sublinear solves factor H at their first step and keep
        # the factor.  The eigen steps are its solves, with no CG; it
        # preconditions the sublinear solve's one CG per step on
        # H - diag(f'(u) h^N)
        import nlorlicz.solvers as solvers

        pcg = solvers._pcg
        cg_calls = []

        def counted(*args, **kwargs):
            cg_calls.append(1)
            return pcg(*args, **kwargs)

        monkeypatch.setattr(solvers, "_pcg", counted)
        calls = self._count_factors(monkeypatch)
        asm = assemble(make_grid("interval", 512, (-1.0, 1.0)), frac05_1d, y_p2)
        rep = solve_eigen(asm)
        assert rep.converged and rep.iterations > 1 and calls == [512]
        assert cg_calls == []
        calls.clear()
        asm = assemble(make_grid("interval", 256, (-1.0, 1.0)), frac05_1d, y_p2)
        rep = solve_sublinear(asm, power_reaction(1.5))
        assert rep.converged and rep.iterations > 1 and calls == [256]
        assert len(cg_calls) == rep.iterations

    def test_even_powers_step_without_a_matrix(self, frac05_1d, monkeypatch):
        # from 256 nodes up a power-sum 2 + 4 solve runs matrix-free CG
        # steps: no Newton matrix, and psi on no array of pair-block size
        from dataclasses import replace

        import nlorlicz.solvers as solvers

        young = make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)])
        sizes = []

        def counted(fn):
            def wrapper(t):
                sizes.append(np.size(t))
                return fn(t)
            return wrapper

        def refuse(*args):
            raise AssertionError("built the Newton matrix")

        monkeypatch.setattr(solvers, "_newton_matrix", refuse)
        n = 256
        asm = assemble(make_grid("interval", n, (-1.0, 1.0)), frac05_1d,
                       replace(young, value=counted(young.value), deriv=counted(young.deriv),
                               curvature=counted(young.curvature)))
        rep = solve_dirichlet(asm, self._bump(asm.grid))
        assert rep.converged and rep.iterations > 1
        assert max(sizes) <= n

    def test_quadratic_power_sum_runs_as_p2(self, frac05_1d, monkeypatch):
        # |s|^2 spelled as a power sum is quadratic: its Dirichlet solve runs
        # matrix-free CG, its eigen solve takes the closed-form norm, and
        # both solutions are those of p = 2
        import nlorlicz.solvers as solvers
        import nlorlicz.young as young_module

        def refuse(*args, **kwargs):
            raise AssertionError("built or bisected")

        grid = make_grid("interval", 512, (-1.0, 1.0))
        young = make_young("power_sum", terms=[(1.0, 2.0)])
        assert young.quadratic and young.homogeneous
        asm = assemble(grid, frac05_1d, young)
        ref = assemble(grid, frac05_1d, make_young("power", p=2.0))
        monkeypatch.setattr(solvers, "_newton_matrix", refuse)
        rep, rep2 = (solve_dirichlet(a, self._bump(grid)) for a in (asm, ref))
        monkeypatch.undo()
        monkeypatch.setattr(young_module, "luxemburg_norm", refuse)
        eig, eig2 = solve_eigen(asm), solve_eigen(ref)
        for a, b in ((rep, rep2), (eig, eig2)):
            assert a.converged and a.iterations == b.iterations
            u, u2 = a.solution.values, b.solution.values
            assert np.max(np.abs(u - u2)) <= 1e-14 * np.max(np.abs(u2))

    def test_no_circulant_without_a_positive_symbol(self, frac05_1d, y_p2, monkeypatch):
        # a stencil whose transform exceeds the largest diagonal gives no
        # SPD circulant: the steps are factored instead
        from dataclasses import replace

        import nlorlicz.solvers as solvers

        asm = assemble(make_grid("interval", 256, (-1.0, 1.0)), frac05_1d, y_p2)
        index, shape, transform = asm.stencil
        assert solvers._circulant(asm) is not None
        steep = replace(asm)
        steep.__dict__["stencil"] = (index, shape, 2.0 * transform)
        assert solvers._circulant(steep) is None
        monkeypatch.setattr(solvers, "_circulant", lambda asm: None)
        calls = self._count_factors(monkeypatch)
        rep = solve_dirichlet(asm, self._bump(asm.grid))
        assert rep.converged and calls == [256]


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


class TestStepCounts:
    """Newton steps per solve on the bump problem of TestRelaxedNewton
    (fractional kernel, alpha = 0.5)."""

    @staticmethod
    def _asm(young, n):
        return assemble(make_grid("interval", n, (-1.0, 1.0)),
                        make_kernel("fractional", dim=1, alpha=0.5), young)

    @staticmethod
    def _bump(asm):
        from nlorlicz.grid import bump

        g = asm.grid
        return bump(g, g.center, 0.5 * g.inradius, 1.0)

    @pytest.mark.parametrize("young", [
        pytest.param(make_young("log_perturbed", p=2.0, r=1.0), id="log_perturbed-2-1"),
        pytest.param(make_young("power", p=3.0), id="power-3"),
    ])
    def test_superquadratic_within_six_steps(self, young):
        # eps drops to the solution's scale after the first full steps
        # instead of halving from 1 (11 steps when it did)
        asm = self._asm(young, 256)
        rep = solve_dirichlet(asm, self._bump(asm))
        assert rep.converged
        assert rep.iterations <= 6

    @pytest.mark.parametrize("young, n, alpha, steps", [
        pytest.param(make_young("log_perturbed", p=2.0, r=1.0), 1024, 1.0, 6,
                     id="log_perturbed-1024-alpha1"),
        pytest.param(make_young("power", p=3.0), 512, 1.5, 7, id="power-3-512-alpha1.5"),
    ])
    def test_capped_cg_keeps_the_count(self, young, n, alpha, steps, monkeypatch):
        # strong kernels, where the last steps' CG solves run into _CG_CAP
        # (42 and 43 products uncapped)
        import nlorlicz.solvers as solvers

        pcg, products = solvers._pcg, []

        def counted(apply, *args, **kwargs):
            def counted_apply(v):
                products[-1] += 1
                return apply(v)
            products.append(0)
            return pcg(counted_apply, *args, **kwargs)

        monkeypatch.setattr(solvers, "_pcg", counted)
        asm = assemble(make_grid("interval", n, (-1.0, 1.0)),
                       make_kernel("fractional", dim=1, alpha=alpha), young)
        rep = solve_dirichlet(asm, self._bump(asm))
        assert rep.converged and rep.iterations <= steps
        assert max(products) == solvers._CG_CAP

    @pytest.mark.parametrize("problem, p, n, steps", [
        ("dirichlet", 1.5, 64, 27),
        ("dirichlet", 1.7, 256, 17),
        ("dirichlet", 1.5, "box16", 27),
        ("eigen", 1.5, 64, 44),
        ("eigen", 4.0, 64, 178),
        ("mountain_pass", 1.5, 64, 83),
    ])
    def test_counts_do_not_rise(self, problem, p, n, steps):
        if n == "box16":
            asm = assemble(make_grid("box", 16, (-1.0, 1.0, -1.0, 1.0)),
                           make_kernel("fractional", dim=2, alpha=0.5),
                           make_young("power", p=p))
        else:
            asm = self._asm(make_young("power", p=p), n)
        if problem == "dirichlet":
            rep = solve_dirichlet(asm, self._bump(asm))
        elif problem == "eigen":
            rep = solve_eigen(asm)
        else:
            rep = mountain_pass_search(asm, power_reaction(2.5), tol=1e-6)
        assert rep.converged
        assert rep.iterations <= steps

    @pytest.mark.parametrize("problem, p, m, n, steps", [
        # the benchmark's sublinear_m15 and superlinear_m3 (24 and 52 steps
        # with the steps of E alone), and |s|^3 (75)
        ("sublinear", 2.0, 1.5, 256, 8),
        ("mountain_pass", 2.0, 3.0, 128, 8),
        ("mountain_pass", 3.0, 4.0, 128, 12),
    ])
    def test_reaction_steps_are_second_order(self, problem, p, m, n, steps):
        asm = self._asm(make_young("power", p=p), n)
        if problem == "sublinear":
            rep = solve_sublinear(asm, power_reaction(m), tol=1e-8)
        else:
            rep = mountain_pass_search(asm, power_reaction(m), tol=1e-6)
        assert rep.converged
        assert rep.iterations <= steps

    def test_p11_count_does_not_hinge_on_the_last_bit(self):
        # p = 1.1 ends in the gradient-judged line search, where a single
        # node's rounding must not hold the steps short
        asm = self._asm(make_young("power", p=1.1), 64)
        f = self._bump(asm).values
        for k in range(3):
            rep = solve_dirichlet(asm, GridFunction(asm.grid, f * (1.0 + k * 2.0 ** -52)))
            assert rep.converged
            assert rep.iterations <= 180, k

    @pytest.mark.parametrize("young", [
        pytest.param(make_young("power", p=1.5), id="power-1.5"),
        pytest.param(make_young("log_perturbed", p=2.0, r=1.0), id="log_perturbed-2-1"),
    ])
    def test_zero_data_returns_at_once(self, young):
        asm = self._asm(young, 64)
        rep = solve_dirichlet(asm, GridFunction(asm.grid, np.zeros(asm.grid.n_nodes)))
        assert rep.converged and rep.iterations == 0
        assert not np.any(rep.solution.values)


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


class TestReactionCurvature:
    """The reaction's f' in the Newton step of the sublinear and
    mountain-pass solves."""

    @pytest.mark.parametrize("m", [1.2, 1.5, 2.0, 3.0, 4.0])
    def test_power_df_matches_central_differences(self, m):
        reaction = power_reaction(m)
        t = np.logspace(-3.0, 2.0, 41)
        h = 1e-5 * t
        diff = (reaction.f(t + h) - reaction.f(t - h)) / (2.0 * h)
        assert np.allclose(reaction.df(t), diff, rtol=1e-8, atol=0.0)
        assert not np.any(reaction.df(np.array([-2.0, -1e-3, 0.0])))

    @pytest.mark.parametrize("solve, m, steps", [
        pytest.param(solve_sublinear, 1.5, 21, id="sublinear"),
        pytest.param(mountain_pass_search, 3.0, 51, id="mountain_pass"),
    ])
    def test_reaction_without_df_takes_the_steps_of_E_alone(self, asm_quad, solve, m,
                                                            steps):
        # a reaction with no df gets no curvature: the first-order steps and
        # step counts of the Newton matrix of E alone, at the same solution
        from dataclasses import replace

        full = solve(asm_quad, power_reaction(m))
        plain = solve(asm_quad, replace(power_reaction(m), df=None))
        assert plain.converged and plain.iterations == steps
        assert full.converged and full.iterations <= 6
        assert full.objective == pytest.approx(plain.objective, rel=1e-9)


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


class TestHomogeneousSpellings:
    """|s|^3 spelled as an equal power sum or as a log perturbation with
    r = 0 is homogeneous (p = q), and the solvers treat it as |s|^3."""

    @pytest.mark.parametrize("spelling", [
        ("power_sum", {"terms": [(0.5, 3.0), (0.5, 3.0)]}),
        ("log_perturbed", {"p": 3.0, "r": 0.0}),
    ])
    def test_solves_match_the_power(self, frac05_1d, spelling, monkeypatch):
        import nlorlicz.solvers as solvers
        import nlorlicz.young as young_module

        def refuse(*args, **kwargs):
            raise AssertionError("bisected the Luxemburg norm")

        monkeypatch.setattr(young_module, "luxemburg_norm", refuse)
        calls = []

        def counted(*args):
            calls.append(1)
            return gradient_E(*args)

        monkeypatch.setattr(solvers, "gradient_E", counted)
        grid = make_grid("interval", 128, (-1.0, 1.0))
        runs = []
        for young in (make_young(*spelling[:1], **spelling[1]), make_young("power", p=3.0)):
            assert young.homogeneous
            asm = assemble(grid, frac05_1d, young)
            calls.clear()
            mp = mountain_pass_search(asm, power_reaction(4.0), tol=1e-6)
            runs.append((len(calls), mp, solve_eigen(asm)))
        (n_grad, *reps), (n_grad3, *reps3) = runs
        assert n_grad == n_grad3
        for rep, rep3 in zip(reps, reps3):
            assert rep.converged and rep.iterations == rep3.iterations
            u, u3 = rep.solution.values, rep3.solution.values
            assert np.max(np.abs(u - u3)) <= 1e-12 * np.max(np.abs(u3))
            assert rep.objective == pytest.approx(rep3.objective, rel=1e-12)


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

    @pytest.mark.parametrize("young", [
        pytest.param(make_young("power", p=2.0), id="power-2"),
        pytest.param(make_young("power", p=1.5), id="power-1.5"),
        pytest.param(make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)]),
                     id="power_sum-2+4"),
    ])
    def test_eigen_reuses_the_last_energy_pass(self, frac05_1d, young, monkeypatch):
        # the report's E is the loop's last accepted pass, taken at the
        # returned point or at its negative (E is even): no pass repeats one
        import nlorlicz.solvers as solvers

        asm = assemble(make_grid("interval", 64, (-1.0, 1.0)), frac05_1d, young)
        points = []

        def recorded(asm, u):
            points.append(u.values.copy())
            return E_value(asm, u)

        monkeypatch.setattr(solvers, "E_value", recorded)
        rep = solve_eigen(asm)
        assert rep.converged and rep.iterations > 1
        x = rep.solution.values
        assert np.array_equal(points[-1], x) or np.array_equal(points[-1], -x)
        keys = {min(p.tobytes(), (-p).tobytes()) for p in points}
        assert len(keys) == len(points)
        assert rep.energy_E == E_value(asm, rep.solution)

    def test_mountain_pass_gradient_passes(self, frac05_1d, y_p2, monkeypatch):
        # the benchmark's superlinear config: 1D n = 128, alpha = 0.5, m = 3
        asm = assemble(make_grid("interval", 128, (-1.0, 1.0)), frac05_1d, y_p2)
        calls = self._count(monkeypatch, ("gradient_E",))
        rep = mountain_pass_search(asm, power_reaction(3.0), tol=1e-6)
        assert rep.converged
        assert calls["gradient_E"] < 200

    def test_mountain_pass_reuses_the_ray_pass(self, frac05_1d, y_p2, monkeypatch):
        # for the power family E and its gradient at a ray's peak follow from
        # the ray's one gradient pass, so the loop makes no passes of its own
        asm = assemble(make_grid("interval", 128, (-1.0, 1.0)), frac05_1d, y_p2)
        calls = self._count(monkeypatch, ("gradient_E", "E_value"))
        rep = mountain_pass_search(asm, power_reaction(3.0), tol=1e-6)
        assert rep.converged and abs(rep.iterations - 4) <= 1
        assert calls["gradient_E"] <= 60 and calls["E_value"] <= 15

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


    def test_oracles_share_the_production_quadratic_test(self, frac05_1d):
        # p = 2 + 1e-13 is not quadratic for the solvers, so the dense
        # oracles must refuse it as well
        from nlorlicz import ValidationError

        young = make_young("power", p=2.0 + 1e-13)
        assert not young.quadratic
        asm = assemble(make_grid("interval", 16, (-1.0, 1.0)), frac05_1d, young)
        with pytest.raises(ValidationError, match="quadratic case only"):
            dense_min_eigenvalue(asm)
        with pytest.raises(ValidationError, match="quadratic case only"):
            dense_dirichlet_solve(asm, random_function(asm.grid, seed=1))


class TestReports:
    def test_solve_report_serializes(self, asm16):
        rep = solve_dirichlet(asm16, random_function(asm16.grid, seed=5))
        doc = rep.to_dict()
        assert doc["spec_version"] == 1
        assert set(doc) >= {"objective", "residual_inf", "iterations",
                            "converged", "energy_E", "integral_F", "extras"}
        import json

        json.dumps(doc)  # must be serializable
