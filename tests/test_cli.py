import ast
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlorlicz import cli
from nlorlicz.cli import main

BASE = {
    "spec_version": 1,
    "kernel": {"family": "fractional", "alpha": 0.5},
    "young": {"family": "power", "p": 2.0},
    "grid": {"shape": "interval", "n_per_axis": 16, "bounds": [-1.0, 1.0]},
    "problem": {"type": "eigen"},
    "seed": 3,
}


_DIRICHLET_BUMP = {"type": "dirichlet", "data": {"kind": "bump", "radius": 0.5, "height": 1.0}}


_BOX_256 = {"shape": "box", "n_per_axis": 256, "bounds": [-1.0, 1.0, -1.0, 1.0]}


def _sections(young, problem, n):
    grid = {"shape": "interval", "n_per_axis": n, "bounds": [-1.0, 1.0]}
    return {"young": young, "problem": problem, "grid": grid}


# the solves of TestDeterminism's thread-count check, by case id
_THREAD_CASES = {
    "dirichlet_p15": _sections({"family": "power", "p": 1.5}, _DIRICHLET_BUMP, 256),
    "superlinear_m3": _sections({"family": "power", "p": 2.0},
                                {"type": "superlinear", "reaction_m": 3.0}, 256),
    "eigen_p2": _sections({"family": "power", "p": 2.0}, {"type": "eigen"}, 512),
    "eigen_p15": _sections({"family": "power", "p": 1.5}, {"type": "eigen"}, 256),
    # growth below 2 factors a fresh matrix at every step
    "dirichlet_p15_512": _sections({"family": "power", "p": 1.5}, _DIRICHLET_BUMP, 512),
    "dirichlet_log": _sections({"family": "log_perturbed", "p": 2.0, "r": 1.0},
                               _DIRICHLET_BUMP, 256),
    # the benchmark's 2D solve: log kernel on the 24-ball
    "dirichlet_ball": {"kernel": {"family": "log", "beta": 1.0},
                       "young": {"family": "power_sum", "terms": [[0.5, 2.0], [0.5, 4.0]]},
                       "grid": {"shape": "ball", "n_per_axis": 24, "bounds": [0.0, 0.0, 1.0]},
                       "problem": _DIRICHLET_BUMP},
    # quadratic eigen solves: projected CG on the circulant at the largest
    # size the tests run, and on the kept factor below 256 nodes, its only
    # route left
    "eigen_p2_2048": _sections({"family": "power", "p": 2.0}, {"type": "eigen"}, 2048),
    "eigen_p2_128": _sections({"family": "power", "p": 2.0}, {"type": "eigen"}, 128),
    # eigen solves start from the torsion function, one CG solve by FFT
    # products and the circulant (or diagonal) preconditioner, then step
    # on fresh factors below 256 nodes and on the circulant above
    "eigen_log_128": _sections({"family": "log_perturbed", "p": 2.0, "r": 1.0},
                               {"type": "eigen"}, 128),
    "eigen_log_512": _sections({"family": "log_perturbed", "p": 2.0, "r": 1.0},
                               {"type": "eigen"}, 512),
    # projected CG with the tangent psi'(u) h^N on the matrix-free product
    "eigen_p4_256": _sections({"family": "power", "p": 4.0}, {"type": "eigen"}, 256),
    # conjugate-gradient steps: by FFT with no matrix, and on the built
    # matrix through np.einsum; at n = 700 a BLAS H @ v is threaded and
    # moves in its last bits
    "dirichlet_p2_2048": _sections({"family": "power", "p": 2.0}, _DIRICHLET_BUMP, 2048),
    "dirichlet_log_512": _sections({"family": "log_perturbed", "p": 2.0, "r": 1.0},
                                   _DIRICHLET_BUMP, 512),
    "dirichlet_log_700": _sections({"family": "log_perturbed", "p": 2.0, "r": 1.0},
                                   _DIRICHLET_BUMP, 700),
    # matrix-free CG steps for an even polynomial psi: batched FFTs
    "dirichlet_power_sum_512": _sections(
        {"family": "power_sum", "terms": [[0.5, 2.0], [0.5, 4.0]]}, _DIRICHLET_BUMP, 512),
    # |s|^2 spelled as a power sum: the quadratic CG solve on the circulant
    "dirichlet_power_sum_p2_512": _sections({"family": "power_sum", "terms": [[1.0, 2.0]]},
                                            _DIRICHLET_BUMP, 512),
    # truncated CG steps of a reaction solve on the circulant: with the FFT
    # product, and with the einsum product
    "sublinear_m15": _sections({"family": "power", "p": 2.0},
                               {"type": "sublinear", "reaction_m": 1.5}, 256),
    "sublinear_p3_m2_512": _sections({"family": "power", "p": 3.0},
                                     {"type": "sublinear", "reaction_m": 2.0}, 512),
    # the projected CG of the mountain pass on the circulant, with the
    # einsum product
    "superlinear_p3_m4_256": _sections({"family": "power", "p": 3.0},
                                       {"type": "superlinear", "reaction_m": 4.0}, 256),
    # above 10 000 elements OpenBLAS threads a dot product, which then
    # changes its last bits with the thread count: the solves' node sums
    # must not go through BLAS
    "eigen_p2_12000": _sections({"family": "power", "p": 2.0}, {"type": "eigen"}, 12000),
    "superlinear_m3_12000": _sections({"family": "power", "p": 2.0},
                                      {"type": "superlinear", "reaction_m": 3.0}, 12000),
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg and isinstance(cfg[key], dict):
            cfg[key] = value
        else:
            cfg[key] = value
    cfg.setdefault("output_dir", str(tmp_path / "out"))
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestRun:
    def test_eigen_matches_oracle_file(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        assert main(["oracle", str(path)]) == 0
        out = tmp_path / "out"
        rep = json.loads((out / "report.json").read_text())
        orc = json.loads((out / "oracle.json").read_text())
        assert rep["extras"]["lambda1"] == pytest.approx(
            orc["lambda1_dense"], rel=1e-6)
        assert rep["converged"]
        assert (out / "solution.csv").read_text().startswith("x,value")

    def test_dirichlet_solution_matches_dense_csv(self, tmp_path):
        path, _ = write_config(
            tmp_path, problem={"type": "dirichlet",
                               "data": {"kind": "bump", "radius": 0.5, "height": 1.0}})
        assert main(["run", str(path)]) == 0
        assert main(["oracle", str(path)]) == 0
        out = tmp_path / "out"
        got = np.array([float(l.rsplit(",", 1)[1])
                        for l in (out / "solution.csv").read_text().splitlines()[1:]])
        ref = np.array([float(l.rsplit(",", 1)[1])
                        for l in (out / "oracle_solution.csv").read_text().splitlines()[1:]])
        assert np.max(np.abs(got - ref)) < 1e-7

    def test_ball_grid_eigen_2d(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            kernel={"family": "fractional", "alpha": 1.0},
            grid={"shape": "ball", "n_per_axis": 8, "bounds": [0.0, 0.0, 1.0]},
        )
        assert main(["run", str(path)]) == 0
        assert main(["oracle", str(path)]) == 0
        out = tmp_path / "out"
        rep = json.loads((out / "report.json").read_text())
        orc = json.loads((out / "oracle.json").read_text())
        assert rep["extras"]["lambda1"] == pytest.approx(
            orc["lambda1_dense"], rel=1e-6)
        assert (out / "solution.csv").read_text().startswith("x,y,value")

    def test_oracle_note_outside_the_quadratic_case(self, tmp_path):
        # the oracle command takes "quadratic" from the Young function, as
        # the solvers do: p = 2 + 1e-13 gets the note and no dense results
        path, _ = write_config(tmp_path, young={"family": "power", "p": 2.0 + 1e-13})
        assert main(["oracle", str(path)]) == 0
        out = tmp_path / "out"
        orc = json.loads((out / "oracle.json").read_text())
        assert orc["note"] == "dense oracles are available for the quadratic case only"
        assert "lambda1_dense" not in orc
        assert not (out / "oracle_eigenfunction.csv").exists()

    def test_oracle_takes_quadratic_psi_however_spelled(self, tmp_path):
        # |s|^2 written as a power sum is quadratic: the dense eigenvalue is
        # that of p = 2
        lams = []
        for name, young in (("sum", {"family": "power_sum", "terms": [[1.0, 2.0]]}),
                            ("power", {"family": "power", "p": 2.0})):
            path, _ = write_config(tmp_path, name=f"{name}.json", young=young,
                                     output_dir=str(tmp_path / name))
            assert main(["oracle", str(path)]) == 0
            lams.append(json.loads((tmp_path / name / "oracle.json").read_text())["lambda1_dense"])
        assert lams[0] == lams[1]

    def test_battery_run_and_schema(self, tmp_path):
        path, _ = write_config(tmp_path, problem={"type": "battery", "trials": 20})
        assert main(["run", str(path)]) == 0
        out = tmp_path / "out"
        text = (out / "battery.csv").read_text()
        assert text.splitlines()[0] == "property,trials,failures,worst_margin,config_digest"
        assert main(["schema-check", str(out)]) == 0

    def test_malformed_config_exits_2_no_outputs(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, kernel={"family": "fractional",
                                                 "alpha": 0.5, "bogus": 1})
        assert main(["run", str(path)]) == 2
        assert not (tmp_path / "out").exists()
        assert "error:" in capsys.readouterr().err

    def test_unknown_problem_type_exits_2(self, tmp_path):
        path, _ = write_config(tmp_path, problem={"type": "heat_flow"})
        assert main(["run", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["run", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_superlinear_run(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            kernel={"family": "fractional", "alpha": 0.75},
            grid={"shape": "interval", "n_per_axis": 24, "bounds": [-1.0, 1.0]},
            problem={"type": "superlinear", "reaction_m": 4.0},
            solver={"tol": 1e-5},
        )
        assert main(["run", str(path)]) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["extras"]["eta"] > 0.0

    def test_path_points_is_an_unknown_key(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path, problem={"type": "superlinear", "reaction_m": 4.0},
            solver={"path_points": 33},
        )
        assert main(["run", str(path)]) == 2
        assert not (tmp_path / "out").exists()
        assert "path_points" in capsys.readouterr().err

    @pytest.mark.parametrize("section, spec, key", [
        # q is read by no family: this config would otherwise run as p = 2
        ("young", {"family": "power", "p": 2.0, "q": 3.0}, "q"),
        ("young", {"family": "power", "p": 2.0, "r": 1.0}, "r"),
        ("young", {"family": "power_sum", "terms": [[1.0, 2.0]], "p": 2.0}, "p"),
        ("kernel", {"family": "log", "beta": 1.0, "alpha": 0.5}, "alpha"),
        ("kernel", {"family": "fractional", "alpha": 0.5, "mu": 1.0}, "mu"),
    ])
    def test_key_of_another_family_is_unknown(self, tmp_path, capsys, section, spec, key):
        path, _ = write_config(tmp_path, **{section: spec})
        assert main(["run", str(path)]) == 2
        assert not (tmp_path / "out").exists()
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["young", "kernel"])
    def test_unknown_family_exits_2(self, tmp_path, capsys, section):
        path, _ = write_config(tmp_path, **{section: {"family": "no_such_family"}})
        assert main(["run", str(path)]) == 2
        assert "no_such_family" in capsys.readouterr().err

    @pytest.mark.parametrize("section, spec, key", [
        ("kernel", {"family": "fractional"}, "alpha"),
        ("kernel", {"family": "two_exponent", "alpha_inner": 0.3}, "alpha_outer"),
        ("kernel", {"family": "log"}, "beta"),
        ("young", {"family": "power"}, "p"),
        ("young", {"family": "power_sum"}, "terms"),
        ("young", {"family": "log_perturbed", "p": 2.0}, "r"),
        ("grid", {"shape": "interval", "bounds": [-1.0, 1.0]}, "n_per_axis"),
        ("grid", {"n_per_axis": 16}, "shape"),
    ])
    def test_missing_required_key_exits_2(self, tmp_path, capsys, section, spec, key):
        path, _ = write_config(tmp_path, **{section: spec})
        assert main(["run", str(path)]) == 2
        assert not (tmp_path / "out").exists()
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"kernel": 5}, "'kernel' section"),
        ({"problem": [1]}, "'problem' section"),
        ({"solver": 5}, "solver must be a JSON object"),
        ({"problem": {"type": "sweep", "values": [1.5], "inner": [1]}},
         "problem.inner must be a JSON object"),
        ({"grid": {"shape": "interval", "n_per_axis": "abc"}}, "'abc'"),
        ({"grid": {"shape": "interval", "n_per_axis": 16, "bounds": "ab"}}, "bad config value"),
        ({"grid": {"shape": "interval", "n_per_axis": 16, "bounds": [0.0, 1.0, 2.0]}},
         "interval bounds (a_1, b_1, ...) need 2 numbers, got 3"),
        ({"grid": {"shape": "ball", "n_per_axis": 16, "bounds": [0.0, 1.0]}},
         "ball bounds (c_1, ..., c_N, R) need 3 numbers, got 2"),
        ({"kernel": {"family": "fractional", "alpha": "x"}}, "'x'"),
        ({"young": {"family": "power_sum", "terms": 5}}, "bad config value"),
        ({"seed": "x"}, "seed = 'x'"),
        ({"solver": {"tol": "x"}}, "solver.tol = 'x'"),
        ({"solver": {"max_iter": "x"}}, "solver.max_iter = 'x'"),
        ({"solver": {"pair_budget": "x"}}, "solver.pair_budget = 'x'"),
        ({"problem": {"type": "sublinear", "reaction_m": "x"}}, "problem.reaction_m = 'x'"),
        ({"problem": {"type": "battery", "trials": "x"}}, "problem.trials = 'x'"),
        ({"problem": {"type": "eigen", "r": 3.0}}, "unknown keys in problem: ['r']"),
        ({"problem": {"type": "eigen", "reaction_m": 3.0}},
         "unknown keys in problem: ['reaction_m']"),
        ({"problem": {"type": "superlinear", "reaction_m": 3.0, "trials": 5}},
         "unknown keys in problem: ['trials']"),
        ({"problem": {"type": "sublinear", "reaction_m": 1.5, "data": {"kind": "bump"}}},
         "unknown keys in problem: ['data']"),
        ({"problem": {"type": "dirichlet", "values": [1.0]}},
         "unknown keys in problem: ['values']"),
        ({"problem": {"type": "sweep", "parameter": "kernel_alpha", "values": [0.5],
                      "inner": {"type": "eigen", "trials": 5}}},
         "unknown keys in problem.inner: ['trials']"),
        ({"problem": {"type": "dirichlet", "data": {"kind": "bump", "radius": "x"}}},
         "problem.data.radius = 'x'"),
        ({"problem": {"type": "dirichlet", "data": "bump"}}, "problem.data must be a JSON object"),
        ({"problem": {"type": "sweep", "values": [1.5, "x"],
                      "inner": {"type": "sublinear", "reaction_m": 2.0}}},
         "problem.values = 'x'"),
        ({"problem": {"type": "sweep", "values": 5,
                      "inner": {"type": "sublinear", "reaction_m": 2.0}}}, "'values' list"),
        ({"problem": {"type": "sweep", "parameter": "kernel_alpha", "values": [0.5],
                      "inner": {"type": "sublinear", "reaction_m": "x"}}},
         "problem.inner.reaction_m = 'x'"),
        ({"problem": {"type": "dirichlet", "data": {"kind": "bump", "hieght": 5.0}}},
         "unknown keys in problem.data (bump): ['hieght']"),
        ({"problem": {"type": "dirichlet", "data": {"kind": "random", "height": 5.0}}},
         "unknown keys in problem.data (random): ['height']"),
        ({"problem": {"type": "sweep", "parameter": "kernel_alpha", "values": [0.5],
                      "inner": {"type": "dirichlet", "data": {"kind": "constant", "val": 2.0}}}},
         "unknown keys in problem.inner.data (constant): ['val']"),
        ({"problem": {"type": "dirichlet", "data": {"kind": "sine"}}}, "unknown data kind 'sine'"),
        ({"problem": {"type": "dirichlet", "data": {"kind": ["bump"]}}},
         "unknown data kind ['bump']"),
        ({"solver": {"allow_nonconverged": "no"}}, "solver.allow_nonconverged = 'no'"),
        ({"solver": {"allow_nonconverged": 1}}, "solver.allow_nonconverged = 1"),
        # out of range: each would crash, run on, or fail to converge
        ({"seed": -1, "problem": {"type": "dirichlet", "data": {"kind": "random"}}}, "seed = -1"),
        ({"problem": {"type": "battery", "trials": -3}}, "problem.trials = -3"),
        ({"problem": {"type": "battery", "trials": 0}}, "problem.trials = 0"),
        ({"solver": {"tol": 0}}, "solver.tol = 0"),
        ({"solver": {"tol": -1e-3}}, "solver.tol = -0.001"),
        ({"solver": {"max_iter": -1}}, "solver.max_iter = -1"),
        ({"solver": {"pair_budget": -1}}, "solver.pair_budget = -1"),
        ({"spec_version": 2}, "spec_version = 2"),
        # an integer key takes no fraction and no JSON boolean
        ({"grid": {"shape": "interval", "n_per_axis": 16.9}}, "grid.n_per_axis = 16.9"),
        ({"solver": {"max_iter": 2.5}}, "solver.max_iter = 2.5"),
        ({"seed": 1.7}, "seed = 1.7"),
        ({"seed": True}, "seed = True"),
        ({"spec_version": True}, "spec_version = True"),
        ({"output_dir": 5}, "output_dir = 5"),
    ], ids=["kernel-int", "problem-list", "solver-int", "inner-list", "n_per_axis-str",
            "bounds-str", "bounds-interval-3", "bounds-ball-2", "alpha-str", "terms-int",
            "seed-str", "tol-str", "max_iter-str", "pair_budget-str", "reaction_m-str", "trials-str", "r-unknown",
            "eigen-reaction_m", "superlinear-trials", "sublinear-data", "dirichlet-values",
            "inner-eigen-trials", "radius-str",
            "data-str", "values-item-str", "values-int", "inner-reaction_m-str",
            "data-key-unknown", "data-key-of-other-kind", "inner-data-key-unknown",
            "data-kind-unknown", "data-kind-list", "allow_nonconverged-str",
            "allow_nonconverged-int", "seed-negative", "trials-negative", "trials-0",
            "tol-0", "tol-negative", "max_iter-negative", "pair_budget-negative",
            "spec_version-2", "n_per_axis-fraction", "max_iter-fraction", "seed-fraction",
            "seed-bool", "spec_version-bool", "output_dir-int"])
    def test_malformed_value_exits_2(self, tmp_path, capsys, overrides, message):
        # a section that is not a JSON object, a value that does not
        # convert to its parameter's type, or a key that no run reads, is a
        # config error, not a crash
        path, _ = write_config(tmp_path, **overrides)
        assert main(["run", str(path)]) == 2
        assert not (tmp_path / "out").exists()
        assert message in capsys.readouterr().err

    def test_numeric_strings_and_integral_values_run_as_numbers(self, tmp_path):
        # "0.5" and 0.5 are the same radius, and 16.0, "16" and 16 the same
        # size; each config writes the same solution
        solutions = []
        for name, radius, n in (("plain", 0.5, 16), ("strings", "0.5", "16"),
                                ("integral", 0.5, 16.0)):
            path, _ = write_config(
                tmp_path, name=f"{name}.json", output_dir=str(tmp_path / name),
                grid={"shape": "interval", "n_per_axis": n, "bounds": [-1.0, 1.0]},
                problem={"type": "dirichlet", "data": {"kind": "bump", "radius": radius}})
            assert main(["run", str(path)]) == 0
            solutions.append((tmp_path / name / "solution.csv").read_bytes())
        assert solutions[0] == solutions[1] == solutions[2]

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_sweep_config_exits_2_on_other_commands(self, tmp_path, capsys, command):
        # a kernel_alpha sweep may leave out alpha, which only its points set
        path, _ = write_config(
            tmp_path, kernel={"family": "fractional"},
            problem={"type": "sweep", "parameter": "kernel_alpha", "values": [0.4],
                     "inner": {"type": "eigen"}})
        assert main([command, str(path)]) == 2
        assert not (tmp_path / "out").exists()
        assert "'sweep' subcommand" in capsys.readouterr().err

    def test_output_dir_that_cannot_be_written_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        path, _ = write_config(tmp_path, output_dir=str(tmp_path / "file" / "out"))
        assert main(["run", str(path)]) == 2
        assert "Not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("ptype, solve", [("sublinear", "solve_sublinear"),
                                              ("superlinear", "mountain_pass_search")])
    def test_solver_settings_reach_the_solve_as_written(self, tmp_path, monkeypatch,
                                                         ptype, solve):
        # tol and max_iter pass to the reaction solves unclamped; the stand-in
        # solve stops the run once it has recorded them
        import nlorlicz.cli as cli
        from nlorlicz.errors import ValidationError

        seen = {}

        def record(asm, reaction, tol, max_iter):
            seen.update(tol=tol, max_iter=max_iter)
            raise ValidationError("recorded")

        monkeypatch.setattr(cli, solve, record)
        path, _ = write_config(tmp_path, problem={"type": ptype, "reaction_m": 2.0},
                               solver={"tol": 1e-10, "max_iter": 5000})
        assert main(["run", str(path)]) == 2
        assert seen == {"tol": 1e-10, "max_iter": 5000}

    def test_optional_keys_may_be_left_out(self, tmp_path):
        # log_perturbed's c defaults to 1 and the grid's bounds to the unit domain
        path, _ = write_config(tmp_path, young={"family": "log_perturbed", "p": 2.0, "r": 1.0},
                               grid={"shape": "interval", "n_per_axis": 16})
        assert main(["run", str(path)]) == 0

    @pytest.mark.parametrize("problem", [_DIRICHLET_BUMP, {"type": "eigen"}],
                             ids=["dirichlet", "eigen"])
    def test_quadratic_solves_on_a_256_box(self, tmp_path, problem):
        # 2.1e9 pairs, past the default pair budget, which only the first
        # build of W checks: a p = 2 solve never builds it
        import time

        path, cfg = write_config(tmp_path, grid=_BOX_256, problem=problem)
        assert "solver" not in cfg
        start = time.perf_counter()
        assert main(["run", str(path)]) == 0
        assert time.perf_counter() - start < 2.0
        assert json.loads((tmp_path / "out" / "report.json").read_text())["converged"]

    def test_pair_walk_over_the_budget_exits_3(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, grid=_BOX_256, young={"family": "power", "p": 1.5},
                               problem=_DIRICHLET_BUMP)
        assert main(["run", str(path)]) == 3
        assert "2.15e+09 pairs, budget is 1e+08" in capsys.readouterr().err

    def test_missing_reaction_exponent_exits_2(self, tmp_path):
        path, _ = write_config(tmp_path, problem={"type": "sublinear"})
        assert main(["run", str(path)]) == 2

    def test_nonconvergence_exit_3_and_downgrade(self, tmp_path):
        # p = 1.5 takes dozens of Newton steps, so one step cannot converge
        young = {"family": "power", "p": 1.5}
        path, _ = write_config(
            tmp_path, young=young,
            problem={"type": "dirichlet", "data": {"kind": "random"}},
            solver={"max_iter": 1, "tol": 1e-14},
        )
        assert main(["run", str(path)]) == 3
        path2, _ = write_config(
            tmp_path, name="c2.json", young=young,
            problem={"type": "dirichlet", "data": {"kind": "random"}},
            solver={"max_iter": 1, "tol": 1e-14, "allow_nonconverged": True},
        )
        assert main(["run", str(path2)]) == 0

    def test_nonconvergence_downgrade_needs_a_boolean(self, tmp_path, capsys):
        # a truthy string does not downgrade the non-converged run of
        # test_nonconvergence_exit_3_and_downgrade: it is a config error,
        # and false keeps exit 3
        young = {"family": "power", "p": 1.5}
        problem = {"type": "dirichlet", "data": {"kind": "random"}}
        path, _ = write_config(tmp_path, young=young, problem=problem,
                               solver={"max_iter": 1, "tol": 1e-14, "allow_nonconverged": "no"})
        assert main(["run", str(path)]) == 2
        assert not (tmp_path / "out").exists()
        assert "allow_nonconverged" in capsys.readouterr().err
        path2, _ = write_config(tmp_path, name="c2.json", young=young, problem=problem,
                                solver={"max_iter": 1, "tol": 1e-14, "allow_nonconverged": False})
        assert main(["run", str(path2)]) == 3

    def test_failed_line_search_exit_3_and_downgrade(self, tmp_path):
        # p = 1.001 Dirichlet on the bump stops at step 0: its first
        # relaxation underflows, eps stays 1, and no step of the first
        # direction passes the line search
        young = {"family": "power", "p": 1.001}
        path, _ = write_config(tmp_path, young=young, problem=_DIRICHLET_BUMP)
        assert main(["run", str(path)]) == 3
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["iterations"] == 0 and rep["extras"]["line_search_failure"]
        path2, _ = write_config(tmp_path, name="c2.json", young=young,
                                problem=_DIRICHLET_BUMP,
                                solver={"allow_nonconverged": True})
        assert main(["run", str(path2)]) == 0

    @pytest.mark.parametrize("n, p", [(24, 1.005), (96, 1.01)])
    def test_failed_factorization_exit_3_and_downgrade(self, tmp_path, n, p):
        # near p = 1 the Newton matrix stops factoring after some hundred
        # steps: the run still writes its report and solution, and exits 3
        young = {"family": "power", "p": p}
        grid = {"shape": "interval", "n_per_axis": n, "bounds": [-1.0, 1.0]}
        path, _ = write_config(tmp_path, young=young, grid=grid, problem=_DIRICHLET_BUMP)
        assert main(["run", str(path)]) == 3
        out = tmp_path / "out"
        rep = json.loads((out / "report.json").read_text())
        assert not rep["converged"] and rep["iterations"] > 0
        assert rep["extras"]["factorization_failure"] is True
        assert rep["extras"]["line_search_failure"] is False
        assert len((out / "solution.csv").read_text().strip().splitlines()) == n + 1
        path2, _ = write_config(tmp_path, name="c2.json", young=young, grid=grid,
                                problem=_DIRICHLET_BUMP,
                                solver={"allow_nonconverged": True})
        assert main(["run", str(path2)]) == 0


class TestSweep:
    def test_sweep_rows_and_resume(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            grid={"shape": "interval", "n_per_axis": 24, "bounds": [-1.0, 1.0]},
            problem={"type": "sweep", "parameter": "reaction_m",
                     "values": [1.5, 1.8], "inner": {"type": "sublinear"}},
        )
        assert main(["sweep", str(path)]) == 0
        out = tmp_path / "out"
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        points = sorted(out.glob("point_*.json"))
        assert len(points) == 2
        stamps = {p.name: p.stat().st_mtime_ns for p in points}
        # second run loads the finished points instead of recomputing
        assert main(["sweep", str(path)]) == 0
        assert {p.name: p.stat().st_mtime_ns for p in points} == stamps
        assert (out / "sweep.csv").read_text().strip().splitlines() == lines

    def test_resume_does_not_assemble_finished_points(self, tmp_path, monkeypatch):
        import nlorlicz.cli as cli

        values = [1.5, 1.8]
        path, cfg = write_config(
            tmp_path,
            grid={"shape": "interval", "n_per_axis": 24, "bounds": [-1.0, 1.0]},
            problem={"type": "sweep", "parameter": "reaction_m",
                     "values": values, "inner": {"type": "sublinear"}},
        )
        assert main(["sweep", str(path)]) == 0
        out = tmp_path / "out"
        lines = (out / "sweep.csv").read_text()
        # the point names of earlier releases, so their sweeps still resume
        assert sorted(p.name for p in out.glob("point_*.json")) == [
            "point_7c0b60abed1a.json", "point_be1629d2eca4.json"]

        def refuse(*args, **kwargs):
            raise AssertionError("a finished point was assembled")

        monkeypatch.setattr(cli, "assemble", refuse)
        rows = [cli._sweep_point((cfg, "reaction_m", v, i, str(out)))[1]
                for i, v in enumerate(values)]
        assert [row["recomputed"] for row in rows] == [False, False]
        assert main(["sweep", str(path)]) == 0
        assert (out / "sweep.csv").read_text() == lines

    @pytest.mark.parametrize("content", [b"", b"[1]", b"\xff",
                                         b'{"spec_version": 1, "digest": "000000000000"}'])
    def test_broken_point_file_is_recomputed(self, tmp_path, content):
        # an interrupted write leaves an empty or partial point file: the
        # sweep recomputes that point and writes it anew
        path, _ = write_config(
            tmp_path,
            grid={"shape": "interval", "n_per_axis": 24, "bounds": [-1.0, 1.0]},
            problem={"type": "sweep", "parameter": "reaction_m",
                     "values": [1.5, 1.8], "inner": {"type": "sublinear"}},
        )
        assert main(["sweep", str(path)]) == 0
        out = tmp_path / "out"
        sweep = (out / "sweep.csv").read_bytes()
        points = {p: p.read_bytes() for p in sorted(out.glob("point_*.json"))}
        broken = next(iter(points))
        broken.write_bytes(content)
        assert main(["sweep", str(path)]) == 0
        assert {p: p.read_bytes() for p in points} == points
        assert (out / "sweep.csv").read_bytes() == sweep

    def test_sweep_row_content(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            grid={"shape": "interval", "n_per_axis": 24, "bounds": [-1.0, 1.0]},
            problem={"type": "sweep", "parameter": "reaction_m",
                     "values": [1.5], "inner": {"type": "sublinear"}},
        )
        assert main(["sweep", str(path)]) == 0
        row = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()[1]
        cells = row.split(",")
        assert cells[1] == "reaction_m"
        assert float(cells[2]) == 1.5
        assert cells[3] == "True"
        # the scaling-identity ratio for the power reaction
        assert float(cells[9]) == pytest.approx(1.5 * 0.5 / 2.0, rel=1e-3)

    def test_point_over_the_budget_is_an_in_row_error(self, tmp_path):
        # the budget is met where W is built, inside the point's solve
        path, _ = write_config(
            tmp_path, young={"family": "power", "p": 1.5}, solver={"pair_budget": 100},
            problem={"type": "sweep", "parameter": "kernel_alpha",
                     "values": [0.5], "inner": _DIRICHLET_BUMP},
        )
        assert main(["sweep", str(path)]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as f:
            header, row = csv.reader(f)
        # the error cell, last, is quoted: its comma splits no field
        assert len(row) == len(header) == 11
        assert row[-1] == ("BudgetExceededError: assembly needs 120 pairs, budget is 100; "
                           "lower the resolution or raise the budget explicitly")
        assert main(["schema-check", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("value, cell", [
        (None, ""), (1.5, "1.5"), (True, "True"), ("reaction_m", "reaction_m"),
        ("a, b", '"a, b"'), ('say "x"', '"say ""x"""'), ("two\nlines", '"two\nlines"'),
        ("cr\r", '"cr\r"'),
    ])
    def test_cells_are_quoted_as_rfc_4180_says(self, value, cell):
        assert cli._csv_cell(value) == cell
        if cell:
            assert next(csv.reader([f"{cell},x"])) == [str(value), "x"]

    def test_kernel_alpha_sweep_with_eigen(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            problem={"type": "sweep", "parameter": "kernel_alpha",
                     "values": [0.4, 0.6], "inner": {"type": "eigen"}},
        )
        assert main(["sweep", str(path)]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        lam = [float(l.split(",")[8]) for l in lines[1:]]
        assert lam[0] > 0.0 and lam[1] > 0.0

    def test_kernel_alpha_sweep_needs_no_base_alpha(self, tmp_path):
        # every point sets alpha, so the kernel section may leave it out
        path, _ = write_config(
            tmp_path, kernel={"family": "fractional"},
            problem={"type": "sweep", "parameter": "kernel_alpha",
                     "values": [0.4], "inner": {"type": "eigen"}},
        )
        assert main(["sweep", str(path)]) == 0

    def test_resume_keys_on_inner_problem_and_solver(self, tmp_path):
        # points of another inner problem or other solver settings in the
        # same output_dir must not be loaded as finished
        sweep = {"type": "sweep", "parameter": "kernel_alpha", "values": [0.4, 0.6]}
        out = tmp_path / "out"
        path, _ = write_config(tmp_path, "dirichlet.json",
                               problem=dict(sweep, inner={"type": "dirichlet"}))
        assert main(["sweep", str(path)]) == 0
        path, _ = write_config(tmp_path, "eigen.json",
                               problem=dict(sweep, inner={"type": "eigen"}))
        assert main(["sweep", str(path)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        lam = [float(l.split(",")[8]) for l in lines[1:]]
        assert lam[0] > 0.0 and lam[1] > 0.0
        assert len(list(out.glob("point_*.json"))) == 4
        path, _ = write_config(tmp_path, "eigen_tol.json", solver={"tol": 1e-6},
                               problem=dict(sweep, inner={"type": "eigen"}))
        assert main(["sweep", str(path)]) == 0
        assert len(list(out.glob("point_*.json"))) == 6

    @pytest.mark.parametrize("workers", ["abc", "1.5", ""])
    def test_bad_worker_count_exits_2_before_writing(self, tmp_path, capsys, monkeypatch,
                                                     workers):
        monkeypatch.setenv("NLORLICZ_WORKERS", workers)
        path, _ = write_config(
            tmp_path, problem={"type": "sweep", "parameter": "reaction_m", "values": [1.5],
                               "inner": {"type": "sublinear"}})
        assert main(["sweep", str(path)]) == 2
        assert not (tmp_path / "out").exists()
        assert "NLORLICZ_WORKERS" in capsys.readouterr().err

    @pytest.mark.parametrize("values, pools", [([1.5, 1.8], [2]), ([1.5], [])])
    def test_pool_is_capped_at_the_points(self, tmp_path, monkeypatch, values, pools):
        # a pool starts all its workers at once, so it gets no more workers
        # than points, and one point runs with no pool; the fake pool starts
        # no process and maps in this one
        seen = []

        class FakePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setenv("NLORLICZ_WORKERS", "1000")
        path, _ = write_config(
            tmp_path,
            grid={"shape": "interval", "n_per_axis": 24, "bounds": [-1.0, 1.0]},
            problem={"type": "sweep", "parameter": "reaction_m", "values": values,
                     "inner": {"type": "sublinear"}})
        assert main(["sweep", str(path)]) == 0
        assert seen == pools
        assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == len(values) + 1

    def test_empty_values_rejected(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            problem={"type": "sweep", "parameter": "reaction_m", "values": [],
                     "inner": {"type": "sublinear"}},
        )
        assert main(["sweep", str(path)]) == 2

    def test_run_rejects_sweep_config(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            problem={"type": "sweep", "parameter": "reaction_m", "values": [1.5],
                     "inner": {"type": "sublinear"}},
        )
        assert main(["run", str(path)]) == 2


# a superlinear run with m < 2 finds no mountain-pass geometry: its residual
# is not finite
_NO_GEOMETRY = {"grid": {"shape": "interval", "n_per_axis": 32, "bounds": [-1.0, 1.0]},
                "solver": {"allow_nonconverged": True}}


def _strict_json(path):
    """The JSON document at path, which may hold no NaN or Infinity."""
    def refuse(constant):
        raise AssertionError(f"{path} holds {constant}")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestStrictJson:
    def test_a_run_without_mountain_geometry_writes_null(self, tmp_path):
        path, _ = write_config(tmp_path, problem={"type": "superlinear", "reaction_m": 1.5},
                               **_NO_GEOMETRY)
        assert main(["run", str(path)]) == 0
        doc = _strict_json(tmp_path / "out" / "report.json")
        assert doc["extras"]["no_mountain_geometry"] is True
        assert doc["residual_inf"] is None
        assert main(["schema-check", str(tmp_path / "out")]) == 0

    def test_a_resumed_sweep_writes_the_bytes_of_a_fresh_one(self, tmp_path):
        path, _ = write_config(tmp_path, problem={
            "type": "sweep", "parameter": "reaction_m", "values": [1.5, 3.0],
            "inner": {"type": "superlinear"}}, **_NO_GEOMETRY)
        out = tmp_path / "out"
        assert main(["sweep", str(path)]) == 0
        fresh = (out / "sweep.csv").read_bytes()
        rows = [_strict_json(p) for p in sorted(out.glob("point_*.json"))]
        assert sorted(r["residual_inf"] is None for r in rows) == [False, True]
        assert main(["schema-check", str(out)]) == 0
        assert main(["sweep", str(path)]) == 0
        assert (out / "sweep.csv").read_bytes() == fresh
        # a point file holding Infinity, as a writer of non-strict JSON left
        # it, is unfinished: it is written anew, null and all
        point, = (q for q in out.glob("point_*.json") if "null" in q.read_text())
        point.write_text(point.read_text().replace('"residual_inf": null',
                                                   '"residual_inf": Infinity'))
        assert "Infinity" in point.read_text()
        assert main(["sweep", str(path)]) == 0
        assert (out / "sweep.csv").read_bytes() == fresh
        assert _strict_json(point)["residual_inf"] is None

    def test_a_battery_row_that_raised_writes_null(self, tmp_path, monkeypatch):
        from nlorlicz import harness

        def fail(asm, spec, rng):
            raise RuntimeError("no margins")

        name = harness.BATTERY_MANIFEST[0]
        monkeypatch.setitem(harness._PROPERTY_RUNNERS, name, fail)
        path, _ = write_config(tmp_path, problem={"type": "battery", "trials": 10})
        assert main(["run", str(path)]) == 3
        rows = _strict_json(tmp_path / "out" / "battery.json")["results"]
        assert [r["worst_margin"] for r in rows if r["name"] == name] == [None]
        assert main(["schema-check", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
    def test_a_non_finite_number_is_a_problem(self, tmp_path, capsys, constant):
        path, _ = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        report = tmp_path / "out" / "report.json"
        doc = json.loads(report.read_text())
        doc["residual_inf"] = float(constant.lower().replace("infinity", "inf"))
        report.write_text(json.dumps(doc))
        assert main(["schema-check", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{report}: invalid JSON ({constant} is not strict JSON)" in err


class TestSchemaCheck:
    def test_flags_corrupted_outputs(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").write_text('{"no_version": true}')
        assert main(["schema-check", str(out)]) == 2
        assert main(["schema-check", str(tmp_path / "missing")]) == 2

    def test_accepts_valid_outputs(self, tmp_path):
        path, _ = write_config(tmp_path, problem={"type": "battery", "trials": 10})
        assert main(["run", str(path)]) == 0
        assert main(["schema-check", str(tmp_path / "out")]) == 0

    def test_accepts_quoted_sweep_cells(self, tmp_path):
        # RFC 4180: a comma, a doubled quote and a line break inside quotes
        head = ",".join(cli._SWEEP_COLUMNS)
        error = cli._csv_cell('Err: a, "b"\nc')
        (tmp_path / "sweep.csv").write_text(f"{head}\n0,reaction_m,1.5,,,,,,,,{error}\n")
        assert main(["schema-check", str(tmp_path)]) == 0

    @pytest.mark.parametrize("problem", [{"type": "eigen"}, _DIRICHLET_BUMP])
    def test_accepts_a_run_and_an_oracle_in_one_directory(self, tmp_path, problem):
        # solution.csv, report.json, oracle.json and one or two oracle CSVs
        path, _ = write_config(tmp_path, problem=problem)
        assert main(["run", str(path)]) == 0
        assert main(["oracle", str(path)]) == 0
        assert main(["schema-check", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("problem, name", [
        (_DIRICHLET_BUMP, "solution.csv"),
        (_DIRICHLET_BUMP, "oracle_solution.csv"),
        (_DIRICHLET_BUMP, "oracle_eigenfunction.csv"),
        ({"type": "battery", "trials": 10}, "battery.csv"),
    ])
    def test_a_file_cut_at_a_row_end_is_a_problem(self, tmp_path, capsys, problem, name):
        # report.json and oracle.json record n_nodes, one row per node; the
        # battery's rows are its manifest
        path, _ = write_config(tmp_path, problem=problem)
        assert main(["run", str(path)]) == 0
        if problem["type"] == "dirichlet":
            assert main(["oracle", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["schema-check", str(out)]) == 0
        for _ in range(2):
            lines = (out / name).read_text().splitlines(keepends=True)
            (out / name).write_text("".join(lines[:-1]))
            assert main(["schema-check", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"{out / name}: " in err and "(cut short?)" in err
            assert err.count("error: ") == 1

    @pytest.mark.parametrize("n_nodes", [None, 17, "16"])
    def test_a_report_without_the_node_count_is_a_problem(self, tmp_path, capsys, n_nodes):
        path, _ = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        report = tmp_path / "out" / "report.json"
        doc = json.loads(report.read_text())
        assert doc["n_nodes"] == 16
        if n_nodes is None:
            del doc["n_nodes"]
        else:
            doc["n_nodes"] = n_nodes
        report.write_text(json.dumps(doc))
        assert main(["schema-check", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert (f"{tmp_path / 'out' / 'solution.csv'}: 16 data rows against n_nodes "
                f"{n_nodes!r} (cut short?)") in err

    @pytest.mark.parametrize("name, content, problem", [
        ("report.json", b"[1]", "not a JSON object"),
        ("report.json", b'"str"', "not a JSON object"),
        ("report.json", b'{"spec_version": 1, "note": "\xff"}', "not UTF-8"),
        ("solution.csv", b"x,u\n0.0,\xff\n", "not UTF-8"),
        # a solution cut mid-row, with no report beside it
        ("solution.csv", b"x,value\n-0.9,0.12\n-0.8,0.", "ends without a newline"),
        ("solution.csv", b"x,value\n-0.9,0.12\n-0.8,0.", "no report.json beside it"),
        ("solution.csv", b"x,value\n-0.9,0.12\n-0.8\n", "line 3: 1 fields, the header has 2"),
        ("solution.csv", b"x,y,value\n-0.9,0.1,0.12,3\n", "line 2: 4 fields, the header has 3"),
        ("solution.csv", b"x,value\n-0.9,0.12\n\n", "line 3: 1 fields, the header has 2"),
        ("solution.csv", b"x,value\n-0.9,abc\n", "a field is not a number"),
        ("oracle_solution.csv", b"x,value\n-0.9,\n", "a field is not a number"),
        ("oracle_eigenfunction.csv", b"x,value\n-0.9,0.1\n", "no oracle.json beside it"),
        ("report.json", b'{"spec_version": 1}\n', "no solution.csv beside it"),
        ("battery.json", b'{"spec_version": 1}\n', "no battery.csv beside it"),
        ("battery.csv", b"property,trials,failures,worst_margin,config_digest\nkato,3,0\n",
         "line 2: 3 fields, the header has 5"),
        ("battery.csv", b"property,trials,failures,worst_margin,config_digest\n",
         "no battery.json beside it"),
        ("sweep.csv", b"index,parameter,value,converged,objective,residual_inf,energy_E,"
         b"integral_F,lambda1,pohozaev_ratio,error\n0,reaction_m,1.5", "line 2: 3 fields"),
        # an error cell cut inside its quotes
        ("sweep.csv", b"index,parameter,value,converged,objective,residual_inf,energy_E,"
         b"integral_F,lambda1,pohozaev_ratio,error\n0,reaction_m,1.5,,,,,,,,\"Err: a, b\n",
         "line 2: not CSV (unexpected end of data)"),
    ])
    def test_malformed_files_are_problems(self, tmp_path, capsys, name, content, problem):
        # each is reported by file name, with no traceback, and exits 2
        (tmp_path / name).write_bytes(content)
        assert main(["schema-check", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / name}: {problem}" in err and "Traceback" not in err


# the method names that write a whole file, and the os.open flags that write
_WRITE_METHODS = {"write_text", "write_bytes"}
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def _writes_a_file(call: ast.Call) -> bool:
    """Whether the call writes a file: a write_text or write_bytes, or an
    open with a literal write mode ("w", "a", "x" or "+") or write flags."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in _WRITE_METHODS:
        return True
    if name != "open":
        return False
    args = call.args + [kw.value for kw in call.keywords]
    modes = [a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)
             and set(a.value) <= set("rwxabt+")]
    flags = {n.attr for a in args for n in ast.walk(a) if isinstance(n, ast.Attribute)}
    return any(set(mode) & set("wax+") for mode in modes) or bool(flags & _WRITE_FLAGS)


def _file_writes(source: str) -> list:
    """The (function, line) of each call in source that writes a file, the
    function by its dotted name, "" at module level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Call) and _writes_a_file(node):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


_WRITES_FIXTURE = '''
import os
from pathlib import Path

def reads(p):
    open(p).read(), open("data.txt"), open(p, "rb"), Path(p).open(encoding="utf-8")

class Out:
    def writes(self, p):
        open(p, "w")
        Path(p).open(mode="a")
        os.open(p, os.O_WRONLY | os.O_CREAT)
        Path(p).write_bytes(b"")

        def inner():
            return open(p, "r+b")

Path("x").write_text("")
'''


# a command and its config's overrides, by case: eigen and battery runs,
# the oracle of a Dirichlet solve, and a sweep of two points
_RERUNS = {
    "run": ("run", {}),
    "battery": ("run", {"problem": {"type": "battery", "trials": 10}}),
    "oracle": ("oracle", {"problem": _DIRICHLET_BUMP}),
    "sweep": ("sweep", {"problem": {"type": "sweep", "parameter": "kernel_alpha",
                                    "values": [0.4, 0.6], "inner": {"type": "eigen"}}}),
}


class TestOutputs:
    @pytest.mark.parametrize("case", list(_RERUNS))
    def test_rerun_writes_fresh_files(self, tmp_path, case):
        # a rerun replaces each output by a new file with the same bytes: a
        # hard link to the old one keeps the old file.  A finished sweep
        # point is loaded, not written again.
        command, overrides = _RERUNS[case]
        path, _ = write_config(tmp_path, **overrides)
        argv, out = [command, str(path)], tmp_path / "out"
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        links = tmp_path / "links"
        links.mkdir()
        for name in first:
            os.link(out / name, links / name)
        assert main(argv) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first
        fresh = {name for name in first if not os.path.samefile(out / name, links / name)}
        assert fresh == {name for name in first if not name.startswith("point_")}
        assert {name: (links / name).read_bytes() for name in first} == first

    def test_symlink_at_an_output_is_not_written_through(self, tmp_path):
        path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        target = tmp_path / "target.json"
        target.write_text("kept\n")
        (out / "report.json").symlink_to(target)
        assert main(["run", str(path)]) == 0
        assert not (out / "report.json").is_symlink()
        assert json.loads((out / "report.json").read_text())["converged"]
        assert target.read_text() == "kept\n"

    def test_read_only_output_in_a_writable_directory_is_replaced(self, tmp_path):
        path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").write_text("old\n")
        (out / "report.json").chmod(0o444)
        assert main(["run", str(path)]) == 0
        assert json.loads((out / "report.json").read_text())["converged"]

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write into any directory")
    def test_existing_output_in_an_unwritable_directory_exits_2(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(path)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        out.chmod(0o555)
        try:
            assert main(["run", str(path)]) == 2
        finally:
            out.chmod(0o755)
        assert "Permission denied" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_write_finder_on_a_fixture(self):
        assert _file_writes(_WRITES_FIXTURE) == [
            ("Out.writes", 10), ("Out.writes", 11), ("Out.writes", 12), ("Out.writes", 13),
            ("Out.writes.inner", 16), ("", 18)]

    def test_the_package_has_one_writer(self):
        # every output goes through cli._write, which replaces the old file
        # rather than truncating it
        package = Path(cli.__file__).parent
        found = [(module.name, where) for module in sorted(package.glob("*.py"))
                 for where, _ in _file_writes(module.read_text(encoding="utf-8"))]
        assert found == [("cli.py", "_write")]


# a value the checks accept, for each kind of required key
_SAMPLE = {cli._INTEGER: 4, cli._NUMBER: 1.5, cli._NUMBERS: [1.5], cli._PAIRS: [[1.0, 2.0]],
           cli._STRING: "interval"}
# values of the wrong type, for each kind; a number must be finite, and
# json writes and reads NaN, Infinity and -Infinity
_NONFINITE = [float("nan"), float("inf"), -float("inf")]
_WRONG = {cli._INTEGER: ["x", 1.5, True], cli._NUMBER: ["x", True, "nan", *_NONFINITE],
          cli._BOOLEAN: ["no", 1], cli._STRING: [5],
          cli._NUMBERS: [5, [], ["x"], *([v] for v in _NONFINITE), [1.5, float("nan")]],
          cli._PAIRS: [5, [], [[1.0]], [[True, 2.0]], *([[v, 2.0]] for v in _NONFINITE),
                       [[1.0, float("inf")]]]}
# a value just outside each bound, of the bound's type
_OUTSIDE = {"above": lambda limit: limit, "at least": lambda limit: limit - 1,
            "in": lambda limit: max(limit) + 1 if isinstance(limit[0], int) else "x"}


def _section(kind, variant=None) -> dict:
    """A section of this kind (of variant, or the first, for cli._Variants)
    that the checks accept: every required key, and no other."""
    table, section = kind, {}
    if isinstance(kind, cli._Variants):
        variant = variant or next(iter(kind.table))
        table, section = kind.table[variant], {kind.key: variant}
        if variant == "sweep":
            # its points set the fractional kernel's alpha, which leaves any
            # inner problem valid
            section["parameter"] = "kernel_alpha"
    for key, entry in table.items():
        if entry.default is cli._REQUIRED:
            section[key] = (_SAMPLE[entry.kind] if isinstance(entry.kind, cli._Kind)
                            else _section(entry.kind))
    return section


def _bad_values(entry) -> list:
    if not isinstance(entry.kind, cli._Kind):
        return [5]
    outside = [_OUTSIDE[entry.bound[0]](entry.bound[1])] if entry.bound else []
    return _WRONG[entry.kind] + outside


def _malformed(kind=cli._CONFIG.kind, where="", place=lambda cfg: cfg):
    """(dotted key, config, value) for every key of the table below a
    section of this kind at where, and each bad value of the key: the
    config is valid but for that value.  place(section) is a config with
    section at where."""
    tables = {None: kind}
    if isinstance(kind, cli._Variants):
        tables = kind.table
        yield f"{where}.{kind.key}", place(dict(_section(kind), **{kind.key: 5})), 5
    for variant, table in tables.items():
        section = _section(kind, variant)
        for key, entry in table.items():
            dotted = f"{where}.{key}" if where else key

            def put(value, section=section, key=key):
                return place(dict(section, **{key: value}))

            for value in _bad_values(entry):
                yield dotted, put(value), value
            if not isinstance(entry.kind, cli._Kind):
                yield from _malformed(entry.kind, dotted, put)


_MALFORMED = list(_malformed())


def _formats_rows(kind=cli._CONFIG.kind, where="config") -> list:
    """The rows that FORMATS.md's config table must hold for the keys below a
    section of this kind: (section, key, type, default, range), with a
    section's variant in parentheses.  A sweep's inner problem is not
    repeated: it takes the problem types but sweep and battery."""
    def default(value):
        return "required" if value is cli._REQUIRED else "library" if value is None else (
            tuple(sorted(value.items())) if isinstance(value, dict) else value)

    tables, rows = {where: kind}, []
    if isinstance(kind, cli._Variants):
        tables = {f"{where} ({variant})": table for variant, table in kind.table.items()}
        rows.append((where, kind.key, "a string", default(kind.default or cli._REQUIRED),
                     "in " + ", ".join(kind.table)))
    for section, table in tables.items():
        if not table:
            rows.append((section, "", "", "", ""))
        for key, entry in table.items():
            words = ("a JSON object" if not isinstance(entry.kind, cli._Kind) else
                     f"a non-empty list, each {entry.kind.what}" if entry.kind.many
                     else entry.kind.what)
            bound = entry.bound and (f"{entry.bound[0]} " + (
                ", ".join(map(str, entry.bound[1])) if entry.bound[0] == "in"
                else str(entry.bound[1])))
            rows.append((section, key, words, default(entry.default), bound or ""))
            if not isinstance(entry.kind, cli._Kind) and key != "inner":
                rows += _formats_rows(entry.kind, key if where == "config" else
                                      f"{where}.{key}")
    return rows


def _documented_rows() -> list:
    """FORMATS.md's config table, in the form of _formats_rows."""
    text = (Path(__file__).parents[1] / "FORMATS.md").read_text()
    text = text.split("## Experiment config", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in text.splitlines():
        cells = [c.strip().replace("`", "") for c in line.strip().strip("|").split("|")]
        if not line.startswith("| ") or cells[0] == "section":
            continue
        section, key, words, default, bound = cells
        if default not in ("required", "library", ""):
            if "," in default:  # a default by problem type
                default = {t: json.loads(v) for t, v in (p.split() for p in default.split(", "))}
            else:
                default = json.loads(default)
            if isinstance(default, dict):
                default = tuple(sorted(default.items()))
        rows.append((section, key, words, default, bound))
    return rows


class TestConfigTable:
    @pytest.mark.parametrize("dotted, cfg, value", _MALFORMED,
                             ids=[f"{i}-{d}={v!r}" for i, (d, _, v) in enumerate(_MALFORMED)])
    def test_every_bad_value_of_every_key_exits_2(self, tmp_path, capsys, dotted, cfg, value):
        # a wrong type for every key, and a value out of range for every
        # bounded one: exit 2 naming the key, before anything is written
        cfg = dict(cfg)
        cfg.setdefault("output_dir", str(tmp_path / "out"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 2
        assert dotted in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_key_has_a_case(self):
        # every section, family, type and kind of the table is walked,
        # a sweep's inner problem included
        keys = {dotted for dotted, _, _ in _MALFORMED}
        assert {"spec_version", "kernel.mu", "young.c", "grid.bounds", "problem.trials",
                "problem.inner.reaction_m", "problem.inner.data.value", "solver.pair_budget",
                "output_dir"} <= keys

    def test_inner_problems_are_the_problem_types_but_sweep_and_battery(self):
        problem = cli._CONFIG.kind["problem"].kind
        inner = problem.table["sweep"]["inner"].kind
        assert inner.table == {t: k for t, k in problem.table.items()
                               if t not in ("sweep", "battery")}

    def test_formats_md_lists_the_table(self):
        # FORMATS.md's key table against the table in cli.py: every section,
        # family, problem type and data kind, each key's type, default and range
        assert sorted(_documented_rows(), key=repr) == sorted(_formats_rows(), key=repr)


class TestDeterminism:
    def test_battery_bytes_identical_across_worker_counts(self, tmp_path):
        # determinism contract: equal seeds, different thread counts,
        # byte-identical tables; exercised through real subprocesses
        digests = []
        for workers in ("1", "4"):
            out = tmp_path / f"out_{workers}"
            cfg = json.loads(json.dumps(BASE))
            cfg["problem"] = {"type": "battery", "trials": 25}
            cfg["output_dir"] = str(out)
            path = tmp_path / f"cfg_{workers}.json"
            path.write_text(json.dumps(cfg))
            env = dict(os.environ, NLORLICZ_WORKERS=workers,
                       OMP_NUM_THREADS=workers)
            proc = subprocess.run(
                [sys.executable, "-m", "nlorlicz.cli", "run", str(path)],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            digests.append((out / "battery.csv").read_bytes())
        assert digests[0] == digests[1]

    @staticmethod
    def _battery_files_at_1_and_3_blas_threads(tmp_path, grid, trials):
        """battery.csv and battery.json of BASE's battery on grid, run at 1
        and at 3 BLAS threads."""
        files = []
        for threads in ("1", "3"):
            out = tmp_path / f"out_{threads}"
            cfg = json.loads(json.dumps(BASE))
            cfg["grid"] = grid
            cfg["problem"] = {"type": "battery", "trials": trials}
            cfg["output_dir"] = str(out)
            path = tmp_path / f"cfg_{threads}.json"
            path.write_text(json.dumps(cfg))
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "nlorlicz.cli", "run", str(path)],
                                  capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            files.append([(out / name).read_bytes()
                          for name in ("battery.csv", "battery.json")])
        return files

    def test_battery_bytes_identical_across_blas_threads_at_12000(self, tmp_path):
        # above 10 000 elements OpenBLAS threads a dot product, which then
        # changes its last bits with the thread count: interaction and the
        # battery's stacked dots must sum in a fixed order
        grid = dict(BASE["grid"], n_per_axis=12000)
        one, three = self._battery_files_at_1_and_3_blas_threads(tmp_path, grid, 6)
        assert one == three

    def test_box_battery_bytes_identical_across_blas_threads(self, tmp_path):
        # the benchmark's 2D battery: fractional alpha = 0.5, p = 2 on the
        # 24^2 box, where every stack takes the quadratic FFT route
        grid = {"shape": "box", "n_per_axis": 24, "bounds": [-1.0, 1.0, -1.0, 1.0]}
        one, three = self._battery_files_at_1_and_3_blas_threads(tmp_path, grid, 10)
        assert one == three

    def test_convolution_bits_identical_across_blas_threads(self):
        # the p = 2 pair pass computes W @ x by FFT; its bits must not
        # depend on the BLAS thread count
        script = (
            "import hashlib, numpy as np\n"
            "from nlorlicz import assemble, make_grid, make_kernel, make_young\n"
            "from nlorlicz.energy import _stencil_product\n"
            "for shape, n, bounds in (('interval', 1001, (-1.0, 1.0)),\n"
            "                         ('ball', 24, (0.0, 0.0, 1.0))):\n"
            "    grid = make_grid(shape, n, bounds)\n"
            "    asm = assemble(grid, make_kernel('fractional', dim=grid.dim, alpha=0.5),\n"
            "                   make_young('power', p=2.0))\n"
            "    x = np.random.default_rng(0).standard_normal(grid.n_nodes)\n"
            "    print(hashlib.sha256(_stencil_product(asm, x).tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "3"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            digests.append(proc.stdout)
        assert digests[0] == digests[1]

    def test_oracle_agrees_across_blas_threads(self, tmp_path):
        # the dense oracles call threaded LAPACK (np.linalg.solve, eigh), so
        # their last bits may change with the BLAS thread count: the oracle
        # is held to 1e-12 relative, not to its bytes
        outputs = []
        for threads in ("1", "3"):
            out = tmp_path / f"out_{threads}"
            cfg = json.loads(json.dumps(BASE))
            cfg.update(_sections({"family": "power", "p": 2.0}, _DIRICHLET_BUMP, 512),
                       output_dir=str(out))
            path = tmp_path / f"cfg_{threads}.json"
            path.write_text(json.dumps(cfg))
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "nlorlicz.cli", "oracle", str(path)],
                                  capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            lam = json.loads((out / "oracle.json").read_text())["lambda1_dense"]
            u = np.loadtxt(out / "oracle_solution.csv", delimiter=",", skiprows=1)
            outputs.append((lam, u))
        (lam1, u1), (lam3, u3) = outputs
        assert abs(lam1 - lam3) <= 1e-12 * abs(lam1)
        assert u1.shape == u3.shape == (512, 2)
        assert np.max(np.abs(u1 - u3)) <= 1e-12 * np.max(np.abs(u1))

    @pytest.fixture(scope="class")
    def solve_digests(self, tmp_path_factory):
        # one interpreter per BLAS thread count runs every case of
        # _THREAD_CASES and prints "<id> <converged> <digest>" per case: the
        # digest is of solution.csv and report.json
        script = (
            "import hashlib, json, sys\n"
            "from pathlib import Path\n"
            "from nlorlicz.cli import main\n"
            "root = Path(sys.argv[1])\n"
            "for case, cfg in json.loads(sys.argv[2]).items():\n"
            "    out = root / case\n"
            "    cfg['output_dir'] = str(out)\n"
            "    path = root / (case + '.json')\n"
            "    path.write_text(json.dumps(cfg))\n"
            "    assert main(['run', str(path)]) == 0, case\n"
            "    data = [(out / name).read_bytes() for name in ('solution.csv', 'report.json')]\n"
            "    print(case, json.loads(data[1])['converged'],\n"
            "          hashlib.sha256(b''.join(data)).hexdigest())\n"
        )
        configs = {}
        for case, sections in _THREAD_CASES.items():
            cfg = json.loads(json.dumps(BASE))
            cfg.update(sections)
            configs[case] = cfg
        digests = {}
        for threads in ("1", "3"):
            root = tmp_path_factory.mktemp(f"threads_{threads}")
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script, str(root),
                                   json.dumps(configs)], capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            digests[threads] = {case: (conv, digest) for case, conv, digest in
                                (line.split() for line in proc.stdout.decode().splitlines())}
        return digests

    @pytest.mark.parametrize("case", list(_THREAD_CASES))
    def test_dirichlet_bytes_identical_across_blas_threads(self, solve_digests, case):
        # the Newton solves factor a dense matrix and solve with the whole
        # factor, or run CG on it; LAPACK's Cholesky and a BLAS matrix-vector
        # product change their last bits with the BLAS thread count
        one, three = solve_digests["1"][case], solve_digests["3"][case]
        assert one[0] == "True", f"{case} did not converge"
        assert one == three, f"{case}: outputs differ between 1 and 3 BLAS threads"
