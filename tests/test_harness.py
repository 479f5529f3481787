import numpy as np
import pytest

from nlorlicz import (
    BATTERY_MANIFEST,
    CorpusSpec,
    assemble,
    battery_csv,
    make_grid,
    make_kernel,
    make_young,
    run_battery,
    sobolev_embedding_check,
)


@pytest.fixture(scope="module")
def asm_ref(g1d, frac05_1d, y_p2):
    return assemble(g1d, frac05_1d, y_p2)


@pytest.fixture(scope="module")
def battery_ref(asm_ref):
    return run_battery(asm_ref, CorpusSpec(seed=0, trials=60, pair_samples=4000))


class TestBattery:
    def test_reference_config_all_pass(self, battery_ref):
        failed = [r for r in battery_ref if not r.passed]
        assert not failed, [f"{r.name}: {r.note} {r.worst_margin}" for r in failed]

    def test_manifest_coverage_complete(self, battery_ref):
        # every inequality of the calculus appears exactly once
        expected = {
            "equiv_Ee", "young_inequality", "luxemburg_sandwich", "poincare",
            "kato_pointwise", "kato_integral", "kato_simple",
            "stroock_varopoulos", "sv_power", "clarkson1", "clarkson3",
            "symmetrization", "gradient_bound", "interpolation",
            "sobolev_r_star", "pohozaev",
        }
        assert set(BATTERY_MANIFEST) == expected
        assert len(BATTERY_MANIFEST) == len(expected)
        assert [r.name for r in battery_ref] == list(BATTERY_MANIFEST)
        # every property runs through the one runner table, in manifest order
        from nlorlicz.harness import _PROPERTY_RUNNERS, DEFAULT_TOLERANCES

        assert list(_PROPERTY_RUNNERS) == list(DEFAULT_TOLERANCES) == list(BATTERY_MANIFEST)

    def test_deterministic_bit_identical(self, asm_ref, battery_ref):
        again = run_battery(asm_ref, CorpusSpec(seed=0, trials=60, pair_samples=4000))
        assert battery_csv(again) == battery_csv(battery_ref)

    @pytest.mark.parametrize("young, grid", [
        (("power", {"p": 2.0}), "g2d_box"),
        (("log_perturbed", {"p": 1.8, "r": -0.2}), "g1d_small"),
    ], ids=["box-p2", "interval-log-perturbed"])
    def test_stacks_match_single_function_calls(self, request, monkeypatch, young, grid):
        # the battery evaluates each corpus as a stack; the reference takes
        # every function through E_value or gradient_E on its own
        import json

        import nlorlicz.harness as hz
        from nlorlicz import E_value, F_value, GridFunction, gradient_E, interaction

        grid = request.getfixturevalue(grid)

        def assembled():
            return assemble(grid, make_kernel("fractional", dim=grid.dim, alpha=0.5),
                            make_young(young[0], **young[1]))

        asm = assembled()
        spec = CorpusSpec(seed=5, trials=10, pair_samples=500)
        margins = []  # every margin, not only each property's worst

        def recorded(runner):
            def run(*args):
                row = runner(*args)
                margins.append(np.asarray(row[1], dtype=float).tobytes())
                return row
            return run

        for name, runner in list(hz._PROPERTY_RUNNERS.items()):
            monkeypatch.setitem(hz._PROPERTY_RUNNERS, name, recorded(runner))

        def tables(asm):
            margins.clear()
            results = run_battery(asm, spec)
            assert not any(r.note.startswith("error") for r in results)
            return battery_csv(results), json.dumps([vars(r) for r in results],
                                                    sort_keys=True, default=repr), list(margins)

        stacked = tables(asm)
        # the row-wise pairings and modulars keep the bits of the single calls
        U = np.random.default_rng(1).uniform(-1.0, 1.0, (4, grid.n_nodes))
        fs = [GridFunction(asm.grid, u) for u in U]
        assert hz._dots(hz._pair_pass(asm, U, True), U[::-1]).tolist() == [
            interaction(asm, u, v) for u, v in zip(fs, fs[::-1])]
        assert hz._modular(asm, U).tolist() == [F_value(asm, u) for u in fs]

        def one_at_a_time(asm, X, grad):
            if grad:
                return np.array([gradient_E(asm, GridFunction(asm.grid, x)).values for x in X])
            return np.array([E_value(asm, GridFunction(asm.grid, x)) for x in X])

        monkeypatch.setattr(hz, "_pair_pass", one_at_a_time)
        monkeypatch.setattr(hz, "_pass", lambda asm, X, energy, grad: (
            one_at_a_time(asm, X, False) if energy else None,
            one_at_a_time(asm, X, True) if grad else None))
        # a fresh assembly, so that the calibration rows, kept per
        # assembly, go through one_at_a_time too
        assert tables(assembled()) == stacked

    def test_calibration_is_evaluated_once_per_assembly(self, g1d_small, frac05_1d, y_p2,
                                                         monkeypatch):
        # gradient_bound, interpolation and sobolev_r_star share the training
        # bumps: one battery builds them once and sends them once, as one
        # stack, through the pair pass, the modular and the gradient norm; a
        # second assembly builds them again
        import nlorlicz.harness as hz

        seen = {"built": 0, "_pair_pass": [], "_modular": [], "central_gradient_norm": []}
        build = hz._training_bumps

        def counted_build(asm):
            seen["built"] += 1
            return build(asm)

        def recorded(name, fn):
            def run(first, X, *args, **kwargs):
                seen[name].append([row.tobytes() for row in np.atleast_2d(X)])
                return fn(first, X, *args, **kwargs)
            return run

        monkeypatch.setattr(hz, "_training_bumps", counted_build)
        for name in ("_pair_pass", "_modular", "central_gradient_norm"):
            monkeypatch.setattr(hz, name, recorded(name, getattr(hz, name)))
        spec = CorpusSpec(seed=0, trials=10, pair_samples=200)
        asm = assemble(g1d_small, frac05_1d, y_p2)
        results = run_battery(asm, spec)
        rows = {r.name: r for r in results}
        for name in ("gradient_bound", "interpolation", "sobolev_r_star"):
            assert rows[name].trials > 0 and rows[name].passed, rows[name].note
        assert seen["built"] == 1
        training = [row.tobytes() for row in build(asm)]
        for name in ("_pair_pass", "_modular", "central_gradient_norm"):
            stacks = seen[name]
            assert stacks.count(training) == 1, name
            # no other stack holds more than one training row (sobolev's
            # smallest probe has the node values of one training bump)
            assert all(sum(row in training for row in rows) <= 1
                       for rows in stacks if rows != training), name
        assert battery_csv(run_battery(asm, spec)) == battery_csv(results)
        assert seen["built"] == 1
        run_battery(assemble(g1d_small, frac05_1d, y_p2), spec)
        assert seen["built"] == 2

    def test_calibration_does_not_keep_the_assembly_alive(self, g1d_small, frac05_1d, y_p2):
        import gc
        import weakref

        asm = assemble(g1d_small, frac05_1d, y_p2)
        run_battery(asm, CorpusSpec(seed=0, trials=5, pair_samples=100))
        ref = weakref.ref(asm)
        del asm
        gc.collect()
        assert ref() is None

    def test_seed_changes_table(self, asm_ref, battery_ref):
        other = run_battery(asm_ref, CorpusSpec(seed=1, trials=60, pair_samples=4000))
        assert battery_csv(other) != battery_csv(battery_ref)

    def test_zero_tolerance_exposes_roundoff(self, asm_ref):
        # with zero tolerances the roundoff-level margins surface as failures,
        # showing the default margins are tight rather than slack
        tight = run_battery(
            asm_ref,
            CorpusSpec(seed=0, trials=60, pair_samples=4000),
            tolerances={name: 0.0 for name in BATTERY_MANIFEST},
        )
        assert any(r.failures > 0 for r in tight if not r.note.startswith("skipped"))

    def test_power_sum_two_exponent_config(self, g1d_small):
        asm = assemble(
            g1d_small,
            make_kernel("two_exponent", dim=1, alpha_inner=0.3, alpha_outer=0.9),
            make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)]),
        )
        results = run_battery(asm, CorpusSpec(seed=2, trials=30, pair_samples=2000))
        failed = [r for r in results if not r.passed]
        assert not failed, [f"{r.name}: {r.note} {r.worst_margin}" for r in failed]
        by_name = {r.name: r for r in results}
        assert by_name["sv_power"].note.startswith("skipped")
        assert by_name["pohozaev"].note.startswith("skipped")

    def test_log_perturbed_singular_young_config(self, g1d_small, frac05_1d):
        asm = assemble(g1d_small, frac05_1d,
                       make_young("log_perturbed", p=1.8, r=-0.2))
        results = run_battery(asm, CorpusSpec(seed=3, trials=20, pair_samples=1500))
        failed = [r for r in results if not r.passed]
        assert not failed, [f"{r.name}: {r.note} {r.worst_margin}" for r in failed]

    def test_dyadic_kernel_skips_and_reports(self, g1d_small, y_p2):
        asm = assemble(
            g1d_small, make_kernel("piecewise_dyadic", dim=1, mu=0.5), y_p2
        )
        results = run_battery(asm, CorpusSpec(seed=4, trials=20, pair_samples=1500))
        by_name = {r.name: r for r in results}
        assert by_name["sobolev_r_star"].note == "skipped: condition (alpha) fails"
        assert by_name["symmetrization"].report_only
        assert by_name["pohozaev"].note.startswith("skipped")
        hard_failures = [
            r for r in results
            if not r.passed and not r.report_only
        ]
        assert not hard_failures, [f"{r.name}: {r.note}" for r in hard_failures]

    @pytest.mark.parametrize("kernel_spec", [
        ("fractional", {"alpha": 1.2}),
        ("log", {"beta": -0.5}),
    ])
    @pytest.mark.parametrize("young_spec", [
        ("power", {"p": 1.5}),
        ("log_perturbed", {"p": 2.0, "r": 1.0}),
    ])
    def test_cross_family_matrix(self, g1d_small, kernel_spec, young_spec):
        kfam, kkw = kernel_spec
        yfam, ykw = young_spec
        asm = assemble(g1d_small, make_kernel(kfam, dim=1, **kkw),
                       make_young(yfam, **ykw))
        results = run_battery(asm, CorpusSpec(seed=17, trials=14, pair_samples=800))
        failed = [r for r in results if not r.passed]
        assert not failed, [f"{r.name}: {r.note} {r.worst_margin}" for r in failed]

    def test_fuzzed_configurations(self, g1d_small):
        # seeded draws across the admissible parameter space; every drawn
        # configuration must battery-clean
        rng = np.random.default_rng(2718)
        for trial in range(8):
            roll = rng.integers(0, 4)
            if roll == 0:
                kern = make_kernel("fractional", dim=1,
                                   alpha=float(rng.uniform(0.15, 1.6)))
            elif roll == 1:
                kern = make_kernel("two_exponent", dim=1,
                                   alpha_inner=float(rng.uniform(0.0, 1.2)),
                                   alpha_outer=float(rng.uniform(0.3, 1.5)))
            elif roll == 2:
                kern = make_kernel("log", dim=1, beta=float(rng.uniform(-0.9, 2.0)))
            else:
                kern = make_kernel("piecewise_dyadic", dim=1,
                                   mu=float(rng.uniform(0.2, 1.0)))
            roll = rng.integers(0, 3)
            if roll == 0:
                young = make_young("power", p=float(rng.uniform(1.3, 3.5)))
            elif roll == 1:
                p1 = float(rng.uniform(1.2, 2.2))
                p2 = p1 + float(rng.uniform(0.3, 2.0))
                young = make_young("power_sum",
                                   terms=[(float(rng.uniform(0.2, 2.0)), p1),
                                          (float(rng.uniform(0.2, 2.0)), p2)])
            else:
                p = float(rng.uniform(1.6, 2.8))
                r = float(rng.uniform(1.05 - p + 0.05, 1.5))
                young = make_young("log_perturbed", p=p, r=r)
            asm = assemble(g1d_small, kern, young)
            results = run_battery(asm, CorpusSpec(seed=trial, trials=10,
                                                  pair_samples=600))
            failed = [r for r in results if not r.passed]
            assert not failed, (
                f"trial {trial}: {kern.family}{kern.params} x "
                f"{young.family}(q={young.q:.3g}, p={young.p:.3g}): "
                + "; ".join(f"{r.name}: {r.note} {r.worst_margin}" for r in failed)
            )

    def test_csv_layout(self, battery_ref):
        text = battery_csv(battery_ref)
        lines = text.strip().splitlines()
        assert lines[0] == "property,trials,failures,worst_margin,config_digest"
        assert len(lines) == len(BATTERY_MANIFEST) + 1

    def test_errors_captured_not_raised(self, asm_ref, monkeypatch):
        import nlorlicz.harness as hz

        def boom(*a, **k):
            raise RuntimeError("synthetic property crash")

        monkeypatch.setitem(hz._PROPERTY_RUNNERS, "poincare", boom)
        results = run_battery(asm_ref, CorpusSpec(seed=0, trials=5, pair_samples=100))
        row = {r.name: r for r in results}["poincare"]
        assert row.note.startswith("error: RuntimeError")
        assert not row.passed

    def test_pohozaev_fails_past_its_tolerance(self, asm_ref, monkeypatch):
        # a ratio 1.5 tolerances off the analytic value fails the row: the
        # margin is the relative deviation itself, with no tolerance folded in
        import dataclasses

        import nlorlicz.harness as hz

        exact = hz.pohozaev_check

        def off_by(asm, reaction, u):
            check = exact(asm, reaction, u)
            N, p, m = asm.grid.dim, asm.young.p, asm.young.p - 0.3
            analytic = m * (N - check.delta) / (N * p)
            return dataclasses.replace(check, ratio=analytic * (1.0 + 1.5e-9))

        monkeypatch.setattr(hz, "pohozaev_check", off_by)
        row = run_battery(asm_ref, CorpusSpec(seed=0, trials=5, pair_samples=100))[-1]
        assert row.name == "pohozaev" and row.trials == 1
        assert row.failures == 1 and not row.passed

    def test_battery_does_not_call_the_public_sobolev_check(self, asm_ref, monkeypatch):
        # the battery row and sobolev_embedding_check share one private body,
        # so a traced battery times the property once
        import nlorlicz.harness as hz

        def boom(*a, **k):
            raise RuntimeError("public sobolev check called")

        monkeypatch.setattr(hz, "sobolev_embedding_check", boom)
        results = run_battery(asm_ref, CorpusSpec(seed=0, trials=5, pair_samples=100))
        row = {r.name: r for r in results}["sobolev_r_star"]
        assert not row.note.startswith("error")
        assert row.trials == 10 and row.passed


@pytest.fixture(scope="module")
def asm_2d(y_p2):
    return assemble(
        make_grid("ball", 24, (0.0, 0.0, 1.0)),
        make_kernel("fractional", dim=2, alpha=1.0),
        y_p2,
    )


class TestSobolevCheck:
    def test_critical_exponent_passes(self, asm_2d):
        res = sobolev_embedding_check(asm_2d, 2.0, CorpusSpec(seed=0, trials=20))
        assert res.failures == 0
        assert res.extras["constant"] > 0.0

    def test_subcritical_reduces_to_bounded(self, asm_2d):
        res = sobolev_embedding_check(asm_2d, 1.0, CorpusSpec(seed=0, trials=20))
        assert res.failures == 0

    def test_sharpness_probe_above_critical(self, asm_2d):
        res = sobolev_embedding_check(asm_2d, 2.5, CorpusSpec(seed=0, trials=20))
        assert res.failures == 0  # monotone ratio growth along shrinking bumps
        ratios = res.extras["ratios"]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_two_exponents_on_one_assembly_match_fresh_assemblies(self, g1d_small,
                                                                 frac05_1d, y_p2):
        # the second check at r <= r* reads the calibration the first one made
        import json

        spec = CorpusSpec(seed=0, trials=10)
        asm = assemble(g1d_small, frac05_1d, y_p2)
        shared = [sobolev_embedding_check(asm, r, spec) for r in (1.5, 2.0)]
        fresh = [sobolev_embedding_check(assemble(g1d_small, frac05_1d, y_p2), r, spec)
                 for r in (1.5, 2.0)]
        assert [r.trials for r in shared] == [10, 10]
        assert (json.dumps([vars(r) for r in shared], sort_keys=True)
                == json.dumps([vars(r) for r in fresh], sort_keys=True))

    def test_constant_is_the_largest_calibration_ratio(self, g1d, frac05_1d, y_p2):
        # the constant is the largest ||psi(u)||_r / E(u) over the training
        # bumps and the first 10 random draws, each taken on its own
        import nlorlicz.harness as hz
        from nlorlicz import E_value, GridFunction

        asm = assemble(g1d, frac05_1d, y_p2)
        rows = np.concatenate([hz._training_bumps(asm),
                               np.random.default_rng([0, 777]).uniform(-1.0, 1.0,
                                                                       (10, g1d.n_nodes))])
        ratios = [hz._psi_r_norms(asm, u[None], 1.5)[0] / E_value(asm, GridFunction(g1d, u))
                  for u in rows]
        res = sobolev_embedding_check(asm, 1.5, CorpusSpec(seed=0))
        assert res.extras["constant"] == max(ratios)

    def test_alpha_condition_required(self, g1d_small, y_p2):
        asm = assemble(g1d_small, make_kernel("log", dim=1, beta=1.0), y_p2)
        res = sobolev_embedding_check(asm, 1.5, CorpusSpec(seed=0))
        assert res.note == "skipped: condition (alpha) fails"


# the two grids of the mutation table: the benchmark's 24^2 box at p = 2
# and a 1D interval at p = 1.5, both under the fractional alpha = 0.5 kernel
_MUTATION_GRIDS = {
    "box24-p2": (("box", 24, (-1.0, 1.0, -1.0, 1.0)), 2.0),
    "interval128-p15": (("interval", 128, (-1.0, 1.0)), 1.5),
}


def _mutated(asm, mutation):
    import dataclasses

    young = asm.young
    if mutation == "lambda_zero":
        return dataclasses.replace(asm, exterior=np.zeros_like(asm.exterior))
    if mutation == "lambda_x0.01":
        return dataclasses.replace(asm, exterior=0.01 * asm.exterior)
    if mutation == "deriv_x0.8":
        young = dataclasses.replace(young, deriv=lambda s: 0.8 * asm.young.deriv(s))
    elif mutation == "value_x1.2":
        young = dataclasses.replace(young, value=lambda s: 1.2 * asm.young.value(s))
    return dataclasses.replace(asm, young=young)


@pytest.fixture(scope="module", params=list(_MUTATION_GRIDS))
def mutation_asm(request):
    (shape, n, bounds), p = _MUTATION_GRIDS[request.param]
    grid = make_grid(shape, n, bounds)
    asm = assemble(grid, make_kernel("fractional", dim=grid.dim, alpha=0.5),
                   make_young("power", p=p))
    return request.param, asm


class TestMutations:
    """Faults planted in an assembly, and the asserted property that
    catches each.  The quadratic route of the box evaluates psi and psi' on
    no pair, so only young_inequality's equality witnesses catch its psi
    mutations.  W assembled at the wrong alpha is not listed: no property
    catches it yet."""

    SPEC = CorpusSpec(seed=1, trials=10)
    CAUGHT_BY = {
        "box24-p2": {
            "lambda_zero": {"poincare"},
            "lambda_x0.01": {"poincare"},
            "deriv_x0.8": {"young_inequality"},
            "value_x1.2": {"young_inequality"},
        },
        "interval128-p15": {
            "lambda_zero": {"poincare"},
            "lambda_x0.01": {"poincare"},
            "deriv_x0.8": {"equiv_Ee", "stroock_varopoulos", "young_inequality"},
            "value_x1.2": {"equiv_Ee", "young_inequality"},
        },
    }

    def test_unmutated_battery_passes(self, mutation_asm):
        _, asm = mutation_asm
        failed = [r for r in run_battery(asm, self.SPEC) if not r.passed]
        assert not failed, [f"{r.name}: {r.note} {r.worst_margin}" for r in failed]

    def test_each_mutation_fails_its_property(self, mutation_asm):
        grid_id, asm = mutation_asm
        missed = {}
        for mutation, props in self.CAUGHT_BY[grid_id].items():
            rows = {r.name: r for r in run_battery(_mutated(asm, mutation), self.SPEC)}
            caught = {name for name in props
                      if not rows[name].passed and not rows[name].report_only
                      and not rows[name].note.startswith("error")}
            if caught != props:
                missed[mutation] = sorted(props - caught)
        assert not missed, missed

    def test_battery_makes_no_newton_step(self, mutation_asm, monkeypatch):
        # the battery is pure evaluation: a property that ran a solve would
        # reach the Newton loop and carry an error row
        import nlorlicz.solvers as solvers

        def no_solve(*args, **kwargs):
            raise AssertionError("the battery reached the Newton loop")

        monkeypatch.setattr(solvers, "_relaxed_newton", no_solve)
        rows = {r.name: r for r in run_battery(mutation_asm[1], self.SPEC)}
        assert not [r.note for r in rows.values() if r.note.startswith("error")]
        assert rows["pohozaev"].trials == 1
