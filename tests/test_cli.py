import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
    # kept-factor solves at the largest size the tests run
    "eigen_p2_2048": _sections({"family": "power", "p": 2.0}, {"type": "eigen"}, 2048),
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
    # |s|^2 spelled as a power sum: the quadratic one-step CG solve
    "dirichlet_power_sum_p2_512": _sections({"family": "power_sum", "terms": [[1.0, 2.0]]},
                                            _DIRICHLET_BUMP, 512),
    # truncated CG steps of a reaction solve: preconditioned by the kept
    # factor, and by the circulant on the einsum product
    "sublinear_m15": _sections({"family": "power", "p": 2.0},
                               {"type": "sublinear", "reaction_m": 1.5}, 256),
    "sublinear_p3_m2_512": _sections({"family": "power", "p": 3.0},
                                     {"type": "sublinear", "reaction_m": 2.0}, 512),
    # the projected CG of the mountain pass on the circulant, with the
    # einsum product
    "superlinear_p3_m4_256": _sections({"family": "power", "p": 3.0},
                                       {"type": "superlinear", "reaction_m": 4.0}, 256),
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

    def test_optional_keys_may_be_left_out(self, tmp_path):
        # log_perturbed's c defaults to 1 and the grid's bounds to the unit domain
        path, _ = write_config(tmp_path, young={"family": "log_perturbed", "p": 2.0, "r": 1.0},
                               grid={"shape": "interval", "n_per_axis": 16})
        assert main(["run", str(path)]) == 0

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
