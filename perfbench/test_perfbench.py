"""Tests of the benchmark's own logic.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import json
import re
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402
import probes  # noqa: E402
import spans  # noqa: E402
from nlorlicz import cli, energy, harness  # noqa: E402
from workloads import Item, all_items, solver_item_names  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def fake_clock(*times):
    ticks = iter(times)
    return lambda: next(ticks)


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer(clock=fake_clock(0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0))
    leaf = tracer.wrap("leaf", lambda: None)
    child = tracer.wrap("child", lambda: leaf())
    with tracer.span("root"):
        child()           # 1.0 .. 3.0, with a leaf 2.0 .. 2.5
        tracer.wrap("other", lambda: None)()  # 4.0 .. 6.0
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert spans.self_times(tracer.spans) == pytest.approx([6.0, 1.5, 0.5, 2.0])


def _tree():
    """One traced command: set-up, a solver with energy calls, and output time."""
    S = spans.Span
    return [
        S("cli.run", -1, 0.0, 10.0, {"item": "dirichlet_p2", "ptype": "dirichlet"}),
        S("energy.assemble", 0, 0.5, 2.5),
        S("kernels.lambda_exterior", 1, 1.0, 2.0),
        S("solvers.solve_dirichlet", 0, 3.0, 9.0,
          {"iterations": 7, "converged": True, "residual_inf": 1e-9}),
        S("energy.E_value", 3, 3.5, 4.5, {"n": 10}),
        S("young.value", 4, 3.6, 4.0),
        S("energy.gradient_E", 3, 5.0, 6.0, {"n": 10}),
        S("energy.E_value", 3, 7.0, 8.0, {"n": 10}),
    ]


def test_layer_metrics_from_span_tree():
    out = spans.layer_metrics(_tree(), ["dirichlet_p2", "eigen_p2"], properties=("poincare",))
    assert out["solvers.dirichlet_p2.E_evals"] == 2
    assert out["solvers.dirichlet_p2.grad_evals"] == 1
    assert out["solvers.dirichlet_p2.iterations"] == 7
    assert out["solvers.dirichlet_p2.converged"] == 1
    assert out["solvers.dirichlet_p2.self_s"] == pytest.approx(6.0 - 3.0)
    assert out["solvers.eigen_p2.E_evals"] == 0
    assert out["energy.assemble.table_s"] == pytest.approx(1.0)
    assert out["energy.E_value.calls"] == 2
    assert out["energy.pair_ns"] == pytest.approx(1e9 * 3.0 / 300)
    assert out["young.value.s"] == pytest.approx(0.4)
    # 10 s command minus 2 s of set-up and 6 s of solver
    assert out["cli.overhead_s"] == pytest.approx(2.0)
    assert out["harness.poincare.s"] == 0.0


def test_tracing_restores_the_package():
    before = (cli.assemble, cli.solve_dirichlet, energy.F_value,
              dict(harness._PROPERTY_RUNNERS))
    with spans.traced(spans.Tracer()):
        assert cli.assemble is not before[0]
        assert cli.solve_dirichlet is not before[1]
    assert (cli.assemble, cli.solve_dirichlet, energy.F_value,
            dict(harness._PROPERTY_RUNNERS)) == before


# ---------------------------------------------------------------------------
# probe scaling


def test_scaled_times_use_the_probes_of_each_phase():
    nominal = dict(probes.NOMINAL)
    slow = {c: 2.0 * t for c, t in nominal.items()}
    sample = bench.Sample(_tiny("x"), wall=3.0, setup=1.0, exit_code=0, digests={},
                          setup_probes=[nominal, slow], rest_probes=[slow, slow, slow])
    setup, wall = sample.scaled()
    # set-up between a nominal and a twice-slow probe: 1.5 times slow
    assert setup == pytest.approx(1.0 / 1.5)
    # the 2 s after set-up ran among twice-slow probes
    assert wall == pytest.approx(1.0 / 1.5 + 1.0)
    assert bench.Sample(_tiny("x"), 3.0, 1.0, 0, {}).scaled() == (1.0, 3.0)


def test_sampler_leaves_probe_time_out_of_its_clock():
    sampler = probes.Sampler(interval=0.01)
    with sampler:
        start = sampler.now()
        wall = time.perf_counter()
        while time.perf_counter() - wall < 0.3:
            pass
        stamp, _ = sampler.take()
        end = sampler.now()
    assert len(sampler.ticks) >= 2
    assert sampler.paused > 0.0
    assert end - start == pytest.approx(time.perf_counter() - wall - sampler.paused, abs=0.01)
    assert len(sampler.between(start, stamp)) == len(sampler.ticks)
    assert sampler.between(stamp, end) == []


def test_setup_clock_probes_once_after_assembly(tmp_path):
    calls = []
    clock = spans.SetupClock(time.perf_counter, lambda: calls.append(1) or len(calls))
    workload = bench.Workload([_tiny("a")], tmp_path)
    with spans.setup_clock(clock):
        clock.reset()
        assert workload._command(workload.items[0]) == 0
    assert calls == [1] and clock.mid == 1 and clock.setup > 0.0


# ---------------------------------------------------------------------------
# ok_frac counting


def _tiny(name, solver=None, oracle=None):
    cfg = {"kernel": {"family": "fractional", "alpha": 0.5},
           "young": {"family": "power", "p": 2.0},
           "grid": {"shape": "interval", "n_per_axis": 8, "bounds": [-1.0, 1.0]},
           "problem": {"type": "dirichlet"}, "seed": 0}
    if solver:
        cfg["solver"] = solver
    return Item(name, cfg, oracle)


def test_nonconverged_exit_zero_is_not_ok_and_exit_3_is_failed(tmp_path):
    items = [
        _tiny("converged", oracle="dense_dirichlet"),
        _tiny("allowed", {"max_iter": 1, "tol": 1e-14, "allow_nonconverged": True}),
        _tiny("refused", {"max_iter": 1, "tol": 1e-14}),
    ]
    workload = bench.Workload(items, tmp_path)
    samples, _ = workload.run_pass()
    assert [s.exit_code for s in samples] == [0, 0, 3]
    first = [checks.check_first(s.item, tmp_path / s.item.name / "out", s.exit_code, s.digests)
             for s in samples]
    converged, allowed, refused = first
    assert converged.ok and not converged.failed and converged.rel_err < 1e-6
    assert not allowed.ok and not allowed.failed
    assert refused.failed and not refused.ok
    assert checks.tally(first) == (3, 1, pytest.approx(1 / 3))

    repeat = [checks.check_repeat(o, s.digests, s.exit_code, s.digests)
              for o, s in zip(first, samples)]
    assert checks.tally(first + repeat) == (6, 2, pytest.approx(1 / 3))
    changed = checks.check_repeat(converged, samples[0].digests, 0, {"solution.csv": "x"})
    assert changed.failed and "outputs differ from the first pass" in changed.problems


# ---------------------------------------------------------------------------
# BENCHMARK.json and metric names


def test_benchmark_file_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert set(w["name"] for w in BENCHMARK["workloads"]) == set(bench.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in BENCHMARK["end_to_end"])
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


@pytest.mark.parametrize("section", ["workloads", "end_to_end", "per_layer"])
def test_metric_names_are_valid_and_unique(section):
    names = [m["name"] for m in BENCHMARK[section]]
    assert len(names) == len(set(names))
    for m in BENCHMARK[section]:
        assert NAME.fullmatch(m["name"]), m["name"]
        if "unit" in m:
            assert UNIT.fullmatch(m["unit"]), m["unit"]
            assert m["better"] in ("lower", "higher")


def test_emitted_names_match_benchmark_file():
    pass_names = set(bench.pass_metrics([]))
    end_to_end = {n for n in pass_names if not n.startswith("cli.")} | {"ok_frac", "peak_rss_mb"}
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == end_to_end
    layer = set(spans.layer_metrics([], solver_item_names()))
    run_level = {n for n in pass_names if n.startswith("cli.")} | {"trace_overhead_frac"}
    oracles = {f"oracles.{i.name}.rel_err" for i in all_items() if i.oracle}
    assert {m["name"] for m in BENCHMARK["per_layer"]} == layer | run_level | oracles
