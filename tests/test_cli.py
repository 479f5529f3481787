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

    def test_matvec_bits_identical_across_blas_threads(self):
        # a whole-matrix W @ x differs in its last bits between 1 and 2
        # OpenBLAS threads at n = 1001; the panelled product must not
        script = (
            "import hashlib, numpy as np\n"
            "from nlorlicz.linalg import matvec\n"
            "rng = np.random.default_rng(0)\n"
            "for shape in ((1001, 1001), (3, 20000)):\n"
            "    A = rng.random(shape); x = rng.standard_normal(shape[1])\n"
            "    print(hashlib.sha256(matvec(A, x).tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "3"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            digests.append(proc.stdout)
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("young, problem, n", [
        pytest.param({"family": "power", "p": 1.5},
                     {"type": "dirichlet",
                      "data": {"kind": "bump", "radius": 0.5, "height": 1.0}},
                     256, id="dirichlet_p15"),
        pytest.param({"family": "power", "p": 2.0},
                     {"type": "superlinear", "reaction_m": 3.0},
                     256, id="superlinear_m3"),
        pytest.param({"family": "power", "p": 2.0}, {"type": "eigen"},
                     512, id="eigen_p2"),
        pytest.param({"family": "power", "p": 1.5}, {"type": "eigen"},
                     256, id="eigen_p15"),
        pytest.param({"family": "log_perturbed", "p": 2.0, "r": 1.0},
                     {"type": "dirichlet",
                      "data": {"kind": "bump", "radius": 0.5, "height": 1.0}},
                     256, id="dirichlet_log"),
    ])
    def test_dirichlet_bytes_identical_across_blas_threads(self, tmp_path, young,
                                                           problem, n):
        # the Newton solves factor a dense matrix; LAPACK's Cholesky changes
        # its last bits with the BLAS thread count at this size, and so does
        # a whole-matrix GEMV, which the p = 2 energy pass would otherwise use
        outputs = []
        for threads in ("1", "3"):
            out = tmp_path / f"out_{threads}"
            cfg = json.loads(json.dumps(BASE))
            cfg["young"] = young
            cfg["grid"] = {"shape": "interval", "n_per_axis": n, "bounds": [-1.0, 1.0]}
            cfg["problem"] = problem
            cfg["output_dir"] = str(out)
            path = tmp_path / f"cfg_{threads}.json"
            path.write_text(json.dumps(cfg))
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "nlorlicz.cli", "run", str(path)],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append([(out / name).read_bytes()
                            for name in ("solution.csv", "report.json")])
        assert json.loads(outputs[0][1])["converged"]
        assert outputs[0] == outputs[1]
