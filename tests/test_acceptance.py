"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Desk scale throughout: 1D grids up to n=128, 2D up to 24^2 nodes.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from nlorlicz import (
    CorpusSpec,
    E_value,
    F_value,
    GridFunction,
    apply_operator,
    assemble,
    decreasing_rearrangement,
    gradient_E,
    interaction,
    make_grid,
    make_kernel,
    make_young,
    mountain_pass_search,
    pohozaev_check,
    poincare_constant,
    power_reaction,
    random_function,
    sobolev_embedding_check,
    solve_dirichlet,
    solve_eigen,
    solve_sublinear,
)
from nlorlicz.grid import bump
from nlorlicz.oracles import dense_dirichlet_solve, dense_min_eigenvalue
from nlorlicz.young import calibrate_singular_constant, sv_delta


def verdict(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:2d} {name:34s} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


YOUNGS = {
    "power2": lambda: make_young("power", p=2.0),
    "power_sum": lambda: make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)]),
    "log_perturbed": lambda: make_young("log_perturbed", p=2.0, r=1.0),
}
KERNELS_1D = {
    "fractional": lambda: make_kernel("fractional", dim=1, alpha=0.5),
    "two_exponent": lambda: make_kernel("two_exponent", dim=1,
                                        alpha_inner=0.3, alpha_outer=0.9),
    "log": lambda: make_kernel("log", dim=1, beta=1.0),
}


@pytest.fixture(scope="module")
def grid_1d():
    return make_grid("interval", 64, (-1.0, 1.0))


@pytest.fixture(scope="module")
def nine_assemblies(grid_1d):
    out = {}
    for yname, yfac in YOUNGS.items():
        for kname, kfac in KERNELS_1D.items():
            out[yname, kname] = assemble(grid_1d, kfac(), yfac())
    return out


def test_01_interaction_energy_sandwich(nine_assemblies):
    """q E(u) <= interaction(u,u) <= p E(u), 200 seeded u per configuration."""
    start = time.time()
    failures = 0
    worst = np.inf
    for asm in nine_assemblies.values():
        q, p = asm.young.q, asm.young.p
        for seed in range(200):
            u = random_function(asm.grid, seed=seed)
            E = E_value(asm, u)
            I = interaction(asm, u, u)
            slack = 1e-9 * max(abs(I), 1.0)
            lo, hi = I - q * E, p * E - I
            worst = min(worst, lo / max(abs(I), 1.0), hi / max(abs(I), 1.0))
            if lo < -slack or hi < -slack:
                failures += 1
    elapsed = time.time() - start
    verdict(1, "interaction/energy sandwich", failures == 0 and elapsed < 60.0,
            f"9 configs x 200 trials, worst margin {worst:.2e}, {elapsed:.1f}s")


def test_02_gradient_against_finite_differences(nine_assemblies):
    """gradient_E vs central differences, 20 coordinates x 20 functions."""
    asm = nine_assemblies["power_sum", "fractional"]
    start = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for seed in range(20):
        u = random_function(asm.grid, seed=seed)
        grad = gradient_E(asm, u).values
        for k in rng.choice(asm.grid.n_nodes, 20, replace=False):
            h0 = 1e-6
            up, um = u.values.copy(), u.values.copy()
            up[k] += h0
            um[k] -= h0
            fd = (E_value(asm, GridFunction(asm.grid, up))
                  - E_value(asm, GridFunction(asm.grid, um))) / (2 * h0)
            worst = max(worst, abs(fd - grad[k]) / max(abs(grad[k]), 1e-12))
    elapsed = time.time() - start
    verdict(2, "gradient vs finite differences", worst <= 1e-6 and elapsed < 60.0,
            f"20x20 samples, worst relative error {worst:.2e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def quadratic_configs():
    y = make_young("power", p=2.0)
    one_d = assemble(make_grid("interval", 64, (-1.0, 1.0)),
                     make_kernel("fractional", dim=1, alpha=0.5), y)
    two_d = assemble(make_grid("box", 16, (0.0, 1.0, 0.0, 1.0)),
                     make_kernel("fractional", dim=2, alpha=1.0), y)
    return one_d, two_d


@pytest.fixture(scope="module")
def eigen_runs(quadratic_configs, nine_assemblies):
    runs = []
    for asm in quadratic_configs:
        runs.append((asm, solve_eigen(asm)))
    asm_sum = nine_assemblies["power_sum", "fractional"]
    runs.append((asm_sum, solve_eigen(asm_sum)))
    return runs


def test_03_linear_case_dense_oracles(quadratic_configs, eigen_runs):
    """Quadratic case against dense solve (1e-8) and eigendecomposition (1e-6)."""
    start = time.time()
    details = []
    ok = True
    for asm in quadratic_configs:
        f = random_function(asm.grid, seed=7)
        rep = solve_dirichlet(asm, f, tol=1e-10)
        ref = dense_dirichlet_solve(asm, f)
        err = float(np.max(np.abs(rep.solution.values - ref.values)))
        ok &= rep.converged and err < 1e-8
        details.append(f"dirichlet {asm.grid.dim}D err {err:.1e}")
    for asm, rep in eigen_runs[:2]:
        lam_ref, _ = dense_min_eigenvalue(asm)
        rel = abs(rep.extras["lambda1"] - lam_ref) / lam_ref
        ok &= rep.converged and rel < 1e-6
        details.append(f"eigen {asm.grid.dim}D rel {rel:.1e}")
    elapsed = time.time() - start
    ok &= elapsed < 120.0
    verdict(3, "dense linear-case oracles", ok,
            "; ".join(details) + f", {elapsed:.1f}s")


def test_04_poincare_inequality(nine_assemblies, eigen_runs):
    """E(u) >= A F(u) with the explicit constant; lambda1 >= A for eigen runs."""
    failures = 0
    for asm in nine_assemblies.values():
        A = poincare_constant(asm.kernel, asm.grid)
        for seed in range(200):
            u = random_function(asm.grid, seed=seed)
            if E_value(asm, u) < A * F_value(asm, u) * (1.0 - 1e-12):
                failures += 1
    eig_ok = all(
        rep.converged
        and rep.extras["lambda1"] >= poincare_constant(asm.kernel, asm.grid)
        for asm, rep in eigen_runs
    )
    verdict(4, "Poincare lower bound", failures == 0 and eig_ok,
            f"9 configs x 200 trials, {len(eigen_runs)} eigen runs")


def test_05_sobolev_embedding_and_sharpness():
    """Critical-exponent embedding for 2D fractional kernels, with probes."""
    ok = True
    details = []
    for alpha in (0.5, 1.0):
        asm = assemble(make_grid("ball", 24, (0.0, 0.0, 1.0)),
                       make_kernel("fractional", dim=2, alpha=alpha),
                       make_young("power", p=2.0))
        r_star = 2.0 / (2.0 - alpha)
        res = sobolev_embedding_check(asm, r_star, CorpusSpec(seed=0, trials=20))
        ok &= res.failures == 0
        probe = sobolev_embedding_check(asm, r_star + 0.5, CorpusSpec(seed=0, trials=20))
        ratios = probe.extras["ratios"]
        growing = ratios[0] < ratios[1] < ratios[2]
        ok &= probe.failures == 0 and growing
        details.append(f"alpha={alpha}: r*={r_star:.3g} ok, probe growth "
                       f"{ratios[2]/ratios[0]:.2f}x")
    verdict(5, "Sobolev embedding + sharpness", ok, "; ".join(details))


def test_06_stroock_varopoulos_and_kato(grid_1d):
    """Pointwise/integral Kato and the generalized + power-form SV bounds."""
    from nlorlicz.young import gamma_plus_deriv

    failures = 0
    xg, wg = np.polynomial.legendre.leggauss(64)
    nodes = 0.5 * (xg + 1.0)
    K = make_kernel("fractional", dim=1, alpha=0.5)
    for young in (make_young("power", p=2.0),
                  make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)])):
        asm = assemble(grid_1d, K, young)
        delta = sv_delta(young)
        for seed in range(100):
            u = np.abs(random_function(grid_1d, seed=seed).values)
            gu = GridFunction(grid_1d, u)
            # pointwise Kato with A(s) = s^2
            lhs = apply_operator(asm, GridFunction(grid_1d, u ** 2)).values
            rhs = gamma_plus_deriv(young, 2.0 * u) * apply_operator(asm, gu).values
            if np.any(lhs > rhs + 1e-9 * (1.0 + np.abs(rhs))):
                failures += 1
            # integral Kato
            Gk = gamma_plus_deriv(young, 2.0 * u) * u ** 2
            lk = interaction(asm, gu, GridFunction(grid_1d, Gk))
            rk = young.q * E_value(asm, GridFunction(grid_1d, u ** 2))
            if lk < rk - 1e-9 * (1.0 + abs(lk)):
                failures += 1
            # generalized SV
            G = u * 0.5 * (young.value(2.0 * u[:, None] * nodes[None, :]) @ wg)
            ls = interaction(asm, gu, GridFunction(grid_1d, G))
            rs = delta * young.q / young.p * E_value(asm, GridFunction(grid_1d, u ** 2))
            if ls < rs - 1e-9 * (1.0 + abs(ls)):
                failures += 1
    power_failures = 0
    for p in (1.5, 2.0, 3.0):
        asm = assemble(grid_1d, K, make_young("power", p=p))
        for r in (1.0, 2.0):
            beta = (r + p - 1.0) / p
            coef = sv_delta(asm.young) * asm.young.q / p * r / beta ** p
            for seed in range(40):
                u = random_function(grid_1d, seed=seed).values
                lhs = interaction(asm, GridFunction(grid_1d, u),
                                  GridFunction(grid_1d, np.abs(u) ** (r - 1.0) * u))
                rhs = coef * E_value(asm, GridFunction(grid_1d, np.abs(u) ** beta))
                if lhs < rhs - 1e-9 * (1.0 + abs(lhs)):
                    power_failures += 1
    verdict(6, "Stroock-Varopoulos + Kato", failures == 0 and power_failures == 0,
            f"200 nonneg trials, power form p in {{1.5,2,3}} x r in {{1,2}}")


def test_07_clarkson_inequalities():
    """Difference-convexity case for p >= 2, singular case for p in (1,2)."""
    rng = np.random.default_rng(99)
    failures = 0
    for p in (2.0, 3.0):
        fn = make_young("power", p=p)
        a = rng.uniform(-5, 5, 10000)
        b = rng.uniform(-5, 5, 10000)
        left = (fn.deriv(a) - fn.deriv(b)) * (a - b)
        right = 4.0 * fn.value((a - b) / 2.0)
        failures += int(np.sum(left < right - 1e-9 * (1.0 + np.abs(left))))
    for p in (1.5, 1.7):
        fn = make_young("power", p=p)
        c = calibrate_singular_constant(fn)
        a = rng.uniform(-5, 5, 10000)
        b = rng.uniform(-5, 5, 10000)
        keep = np.abs(a - b) > 1e-12
        a, b = a[keep], b[keep]
        left = (fn.deriv(a) - fn.deriv(b)) * (a - b)
        right = c * fn.value(a - b) ** (2.0 / p) / (
            fn.value(a) + fn.value(b)) ** ((2.0 - p) / p)
        failures += int(np.sum(left < right - 1e-9 * (1.0 + np.abs(left))))
    verdict(7, "Clarkson difference inequalities", failures == 0,
            "10^4 pairs per family, calibrated singular constants")


def test_08_symmetrization(nine_assemblies):
    """Rearrangement never increases the energy: asserted in 1D, reported in 2D."""
    failures = 0
    for asm in (nine_assemblies["power2", "fractional"],
                nine_assemblies["power_sum", "two_exponent"]):
        for seed in range(50):
            u = random_function(asm.grid, seed=seed)
            us = decreasing_rearrangement(u)
            if E_value(asm, us) > E_value(asm, u) + 1e-8 * (1.0 + E_value(asm, u)):
                failures += 1
    asm2 = assemble(make_grid("ball", 12, (0.0, 0.0, 1.0)),
                    make_kernel("fractional", dim=2, alpha=1.0),
                    make_young("power", p=2.0))
    worst2d = 0.0
    for seed in range(20):
        u = random_function(asm2.grid, seed=seed)
        us = decreasing_rearrangement(u)
        worst2d = min(worst2d,
                      (E_value(asm2, u) - E_value(asm2, us)) / E_value(asm2, u))
    verdict(8, "symmetrization (1D assert, 2D report)", failures == 0,
            f"100 1D trials; 2D reported worst margin {worst2d:+.3f}")


def test_09_maximum_principle():
    """Nonnegative data produce nonnegative solutions, 50 solves."""
    asm = assemble(make_grid("interval", 32, (-1.0, 1.0)),
                   make_kernel("fractional", dim=1, alpha=0.5),
                   make_young("power", p=2.0))
    worst = 0.0
    ok = True
    for seed in range(50):
        f = GridFunction(asm.grid,
                         np.abs(random_function(asm.grid, seed=seed).values))
        rep = solve_dirichlet(asm, f)
        ok &= rep.converged
        worst = min(worst, float(rep.solution.values.min()))
    verdict(9, "maximum principle", ok and worst >= -1e-10,
            f"50 solves, min node value {worst:.2e}")


def test_10_sublinear_existence(quadratic_configs):
    """Nontrivial nonnegative solutions below the growth exponent, a flagged
    collapse above it."""
    asm = quadratic_configs[0]
    ok = True
    details = []
    for m in (1.5, 1.8):
        rep = solve_sublinear(asm, power_reaction(m), tol=1e-8)
        good = (rep.converged and rep.objective < 0.0
                and rep.solution.values.min() >= 0.0
                and rep.solution.values.max() > 0.0
                and not rep.extras["trivial_solution"])
        ok &= good
        details.append(f"m={m}: level {rep.objective:.2e}")
    rep = solve_sublinear(asm, power_reaction(2.5), tol=1e-8)
    flagged = rep.extras["trivial_solution"] and \
        not rep.extras["condition_report"]["sub_ok"]
    ok &= flagged
    details.append("m=2.5 flagged")
    verdict(10, "sublinear existence window", ok, "; ".join(details))


def test_11_pohozaev_ratio(quadratic_configs):
    """Scaling-identity ratio on computed solutions; threshold at the
    critical exponent."""
    asm = quadratic_configs[0]  # fractional alpha=0.5, delta = 0.5
    ok = True
    details = []
    for m in (1.5, 1.8):
        rep = solve_sublinear(asm, power_reaction(m), tol=1e-8)
        check = pohozaev_check(asm, power_reaction(m), rep.solution)
        analytic = m * (1.0 - 0.5) / 2.0
        ok &= check.applicable and abs(check.ratio - analytic) <= 0.05 * analytic
        ok &= check.ratio < 1.0
        details.append(f"m={m}: ratio {check.ratio:.4f}")
    asm_mp = assemble(make_grid("interval", 64, (-1.0, 1.0)),
                      make_kernel("fractional", dim=1, alpha=0.75),
                      make_young("power", p=2.0))
    mp = mountain_pass_search(asm_mp, power_reaction(4.0), tol=1e-6)
    check = pohozaev_check(asm_mp, power_reaction(4.0), mp.solution)
    analytic = 4.0 * (1.0 - 0.75) / 2.0
    ok &= mp.converged and abs(check.ratio - analytic) <= 0.05 * analytic
    details.append(f"mp m=4: ratio {check.ratio:.4f}")
    # the ratio is u-independent for power reactions; threshold at m* = 4
    probe = bump(asm.grid, asm.grid.center, 0.5, 1.0)
    for m, above in ((3.5, False), (3.9, False), (4.1, True), (4.5, True)):
        ratio = pohozaev_check(asm, power_reaction(m), probe).ratio
        ok &= (ratio > 1.0) == above
    verdict(11, "nonexistence-exponent ratio", ok, "; ".join(details))


def test_12_moser_scaling():
    """Data-scaling law of solution norms; sup-norm stability under refinement."""
    ok = True
    details = []
    scales, m = np.array([1.0, 2.0, 4.0, 8.0]), 3.0
    for p in (2.0, 3.0):
        asm = assemble(make_grid("interval", 48, (-1.0, 1.0)),
                       make_kernel("fractional", dim=1, alpha=0.75),
                       make_young("power", p=p))
        # the L^{m(p-1)} norm of the solution for data s * 1 grows like
        # s^(1/(p-1)): a least-squares slope over the scales
        r = m * (p - 1.0)
        norms = []
        for s in scales:
            f = GridFunction(asm.grid, np.full(asm.grid.n_nodes, s))
            u = np.abs(solve_dirichlet(asm, f, tol=1e-8).solution.values)
            norms.append((np.sum(u ** r) * asm.h_pow_dim) ** (1.0 / r))
        fitted = np.polyfit(np.log(scales), np.log(norms), 1)[0]
        target = 1.0 / (p - 1.0)
        ok &= abs(fitted - target) / target <= 0.02
        details.append(f"p={p}: exponent {fitted:.4f}")
    sups = []
    for n in (48, 96):
        asm = assemble(make_grid("interval", n, (-1.0, 1.0)),
                       make_kernel("fractional", dim=1, alpha=0.75),
                       make_young("power", p=2.0))
        f = GridFunction(asm.grid, np.ones(asm.grid.n_nodes))
        sups.append(float(np.max(np.abs(solve_dirichlet(asm, f).solution.values))))
    drift = abs(sups[1] - sups[0]) / sups[0]
    ok &= drift < 0.05
    details.append(f"sup drift {drift:.3%}")
    verdict(12, "integrability scaling law", ok, "; ".join(details))


def test_13_battery_determinism(tmp_path):
    """Equal seeds, different worker counts: byte-identical battery tables."""
    outputs = []
    for workers in ("1", "3"):
        out = tmp_path / f"det_{workers}"
        cfg = {
            "spec_version": 1,
            "kernel": {"family": "fractional", "alpha": 0.5},
            "young": {"family": "power", "p": 2.0},
            "grid": {"shape": "interval", "n_per_axis": 64, "bounds": [-1.0, 1.0]},
            "problem": {"type": "battery", "trials": 50},
            "seed": 11,
            "output_dir": str(out),
        }
        path = tmp_path / f"det_{workers}.json"
        path.write_text(json.dumps(cfg))
        env = dict(os.environ, NLORLICZ_WORKERS=workers, OMP_NUM_THREADS=workers,
                   OPENBLAS_NUM_THREADS=workers, MKL_NUM_THREADS=workers)
        proc = subprocess.run(
            [sys.executable, "-m", "nlorlicz.cli", "run", str(path)],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((out / "battery.csv").read_bytes())
    verdict(13, "battery determinism", outputs[0] == outputs[1],
            f"{len(outputs[0])} bytes, workers 1 vs 3")
