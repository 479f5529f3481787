"""Command-line front end: declarative JSON configs in, CSV/JSON results out.

Subcommands:
  run <config>          solve one problem or run the inequality battery
  sweep <config>        one run per parameter value, resumable by digest
  oracle <config>       dense/quadrature reference outputs for the same config
  schema-check <dir>    validate previously written outputs

Exit codes: 0 success, 2 config/validation error, 3 solver non-convergence
(downgraded to a warning when the solver section sets allow_nonconverged).
Thread count for sweeps comes from NLORLICZ_WORKERS (default 1); results are
byte-identical regardless of worker count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .energy import PAIR_BUDGET, assemble
from .errors import NlorliczError, ValidationError
from .grid import CSV_HEADERS, GridFunction, bump, make_grid, random_function, to_csv
from .harness import (
    BATTERY_CSV_HEADER,
    CorpusSpec,
    battery_csv,
    config_digest,
    parts_digest,
    run_battery,
)
from .kernels import make_kernel, poincare_constant
from .oracles import (
    dense_dirichlet_solve,
    dense_min_eigenvalue,
    node_mass_consistency,
)
from .solvers import (
    mountain_pass_search,
    pohozaev_check,
    power_reaction,
    solve_dirichlet,
    solve_eigen,
    solve_sublinear,
)
from .young import make_young

SPEC_VERSION = 1

_TOP_KEYS = {"spec_version", "kernel", "young", "grid", "problem", "solver",
             "seed", "output_dir"}
# the keys each family reads, besides "family"
_KERNEL_KEYS = {"fractional": {"alpha"}, "two_exponent": {"alpha_inner", "alpha_outer"},
                "log": {"beta"}, "piecewise_dyadic": {"mu"}}
_YOUNG_KEYS = {"power": {"p"}, "power_sum": {"terms"}, "log_perturbed": {"p", "r", "c"}}
_GRID_KEYS = {"shape", "n_per_axis", "bounds"}
# the keys a section must give: every key its family reads but log_perturbed's
# c (default 1), and a grid's shape and size (bounds have defaults)
_REQUIRED_KEYS = {**_KERNEL_KEYS, **_YOUNG_KEYS, "log_perturbed": {"p", "r"},
                  "grid": {"shape", "n_per_axis"}}
# the keys each problem type reads, besides "type"
_PROBLEM_KEYS = {"dirichlet": {"data"}, "sublinear": {"reaction_m"},
                 "superlinear": {"reaction_m"}, "eigen": set(), "battery": {"trials"},
                 "sweep": {"parameter", "values", "inner"}}
_SOLVER_KEYS = {"tol", "max_iter", "allow_nonconverged", "pair_budget"}
# the scalars of each section, with the type each must convert to
_SOLVER_SCALARS = {"tol": float, "max_iter": int, "pair_budget": int}
_PROBLEM_SCALARS = {"reaction_m": float, "trials": int}
# the scalars each data kind reads, besides "kind"; every one is a number
_DATA_KEYS = {"bump": ("radius", "height"), "random": ("amplitude",), "constant": ("value",)}


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _check_keys(section: dict, allowed: set, where: str, required: set = frozenset()):
    if not isinstance(section, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ValidationError(f"missing keys in {where}: {sorted(missing)}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    for key in ("kernel", "young", "grid", "problem"):
        if not isinstance(cfg.get(key), dict):
            raise ValidationError(f"config needs a {key!r} section, a JSON object")
    if cfg.get("spec_version", SPEC_VERSION) != SPEC_VERSION:
        raise ValidationError(f"unsupported spec_version {cfg['spec_version']}")
    for key, families in (("kernel", _KERNEL_KEYS), ("young", _YOUNG_KEYS)):
        family = cfg[key].get("family")
        if not isinstance(family, str) or family not in families:
            raise ValidationError(f"unknown {key} family {family!r}")
        required = _REQUIRED_KEYS[family]
        if cfg["problem"].get("parameter") == "kernel_alpha":
            required = required - {"alpha"}  # each sweep point sets it
        _check_keys(cfg[key], {"family"} | families[family], f"{key} ({family})", required)
    _check_keys(cfg["grid"], _GRID_KEYS, "grid", _REQUIRED_KEYS["grid"])
    ptype = cfg["problem"].get("type")
    if ptype not in _PROBLEM_KEYS:
        raise ValidationError(f"unknown problem type {ptype!r}")
    _check_keys(cfg["problem"], {"type"} | _PROBLEM_KEYS[ptype], "problem")
    _check_keys(cfg.get("solver", {}), _SOLVER_KEYS, "solver")
    if ptype in ("sublinear", "superlinear") and "reaction_m" not in cfg["problem"]:
        raise ValidationError(f"{ptype} needs a 'reaction_m' exponent")
    if ptype == "sweep":
        values = cfg["problem"].get("values")
        if not values or not isinstance(values, list):
            raise ValidationError("sweep needs a non-empty 'values' list")
        inner = cfg["problem"].get("inner")
        if not isinstance(inner, dict):
            raise ValidationError("problem.inner must be a JSON object")
        if inner.get("type") not in (set(_PROBLEM_KEYS) - {"sweep", "battery"}):
            raise ValidationError("sweep needs an 'inner' problem section")
        _check_keys(inner, {"type"} | _PROBLEM_KEYS[inner["type"]], "problem.inner")
        parameter = cfg["problem"].get("parameter", "reaction_m")
        if parameter == "reaction_m":
            if inner["type"] not in ("sublinear", "superlinear"):
                raise ValidationError(
                    "reaction_m sweeps need a sublinear or superlinear inner problem")
        elif parameter == "kernel_alpha":
            if cfg["kernel"].get("family") != "fractional":
                raise ValidationError("kernel_alpha sweeps need a fractional kernel")
            if inner["type"] in ("sublinear", "superlinear") and "reaction_m" not in inner:
                raise ValidationError(f"{inner['type']} needs a 'reaction_m' exponent")
        else:
            raise ValidationError(f"unknown sweep parameter {parameter!r}")
    _check_scalars(cfg)
    return cfg


def _check_scalars(cfg: dict):
    """Raise a ValidationError unless every scalar of the config converts to
    the type that the runs convert it to: the seed, the solver settings, each
    problem's numbers and data fields (a sweep's inner problem included)
    and a sweep's values; unless allow_nonconverged, when present, is a JSON
    boolean; or when a data section has a key its kind does not read.
    Checked before anything runs or is written."""
    def present(where, section, kinds):
        return [(f"{where}.{key}", section[key], kind)
                for key, kind in kinds.items() if key in section]

    problem = cfg["problem"]
    solver = cfg.get("solver", {})
    if not isinstance(solver.get("allow_nonconverged", False), bool):
        raise ValidationError("bad config value: solver.allow_nonconverged = "
                              f"{solver['allow_nonconverged']!r} is not true or false")
    checks = [("seed", cfg.get("seed", 0), int)]
    checks += present("solver", solver, _SOLVER_SCALARS)
    sections = {"problem": problem}
    if problem["type"] == "sweep":
        sections["problem.inner"] = problem["inner"]
        checks += [("problem.values", value, float) for value in problem["values"]]
    for where, section in sections.items():
        data = section.get("data", {})
        if not isinstance(data, dict):
            raise ValidationError(f"{where}.data must be a JSON object")
        kind = data.get("kind", "bump")
        if not isinstance(kind, str) or kind not in _DATA_KEYS:
            raise ValidationError(f"unknown data kind {kind!r}")
        _check_keys(data, {"kind", *_DATA_KEYS[kind]}, f"{where}.data ({kind})")
        checks += present(where, section, _PROBLEM_SCALARS)
        checks += present(f"{where}.data", data, dict.fromkeys(_DATA_KEYS[kind], float))
    for where, value, kind in checks:
        try:
            kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"bad config value: {where} = {value!r} is not "
                                  f"{'an integer' if kind is int else 'a number'}") from None


def _parts(cfg: dict):
    """The kernel, Young function and grid of a config, not yet assembled.
    A value that does not convert to its parameter's type is a
    ValidationError."""
    kspec = dict(cfg["kernel"])
    yspec = dict(cfg["young"])
    gspec = dict(cfg["grid"])
    grid_dim = 1 if gspec["shape"] == "interval" else 2
    try:
        kern = make_kernel(kspec.pop("family"), dim=grid_dim, **kspec)
        yng = make_young(yspec.pop("family"), **yspec)
        bounds = tuple(gspec["bounds"]) if "bounds" in gspec else None
        return kern, yng, make_grid(gspec["shape"], int(gspec["n_per_axis"]), bounds)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad config value: {exc}") from exc


def _build(cfg: dict):
    kern, yng, g = _parts(cfg)
    budget = int(cfg.get("solver", {}).get("pair_budget", PAIR_BUDGET))
    return assemble(g, kern, yng, pair_budget=budget)


def _problem_data(cfg: dict, asm) -> GridFunction:
    """The problem's data, of a kind that load_config has checked."""
    data = cfg["problem"].get("data", {"kind": "bump"})
    kind = data.get("kind", "bump")
    if kind == "bump":
        return bump(asm.grid, asm.grid.center,
                    data.get("radius", 0.5) * asm.grid.inradius,
                    data.get("height", 1.0))
    if kind == "random":
        return random_function(asm.grid, int(cfg.get("seed", 0)),
                               data.get("amplitude", 1.0))
    return GridFunction(asm.grid, np.full(asm.grid.n_nodes, float(data.get("value", 1.0))))


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _report_json(cfg, asm, rep, extra=None) -> str:
    doc = rep.to_dict()
    doc["config_digest"] = config_digest(asm, int(cfg.get("seed", 0)))
    doc["package_version"] = __version__
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True, default=repr) + "\n"


def _run_problem(cfg: dict, asm, ptype: str, problem: dict):
    """The solve of one problem, with the solver section's tol and max_iter
    as written; absent, they are 1e-6 and 3000 for superlinear problems and
    1e-8 and 20000 for the others."""
    solver = cfg.get("solver", {})
    superlinear = ptype == "superlinear"
    tol = float(solver.get("tol", 1e-6 if superlinear else 1e-8))
    max_iter = int(solver.get("max_iter", 3000 if superlinear else 20000))
    if ptype == "dirichlet":
        return solve_dirichlet(asm, _problem_data(cfg, asm), tol=tol, max_iter=max_iter)
    if ptype == "sublinear":
        return solve_sublinear(asm, power_reaction(float(problem["reaction_m"])),
                               tol=tol, max_iter=max_iter)
    if ptype == "superlinear":
        return mountain_pass_search(asm, power_reaction(float(problem["reaction_m"])),
                                    tol=tol, max_iter=max_iter)
    if ptype == "eigen":
        return solve_eigen(asm, tol=tol, max_iter=max_iter)
    raise ValidationError(f"unhandled problem type {ptype!r}")


def _pohozaev_fields(asm, problem: dict, rep) -> dict:
    """Scaling-identity ratio and note of a reaction solve, for report.json
    and sweep rows."""
    check = pohozaev_check(asm, power_reaction(float(problem["reaction_m"])), rep.solution)
    return {"pohozaev_ratio": check.ratio if check.applicable else None,
            "pohozaev_note": check.note}


def cmd_run(config_path: str) -> int:
    cfg = load_config(config_path)
    asm = _build(cfg)
    out = Path(cfg.get("output_dir", "."))
    ptype = cfg["problem"]["type"]
    seed = int(cfg.get("seed", 0))

    if ptype == "battery":
        spec = CorpusSpec(seed=seed, trials=int(cfg["problem"].get("trials", 100)))
        results = run_battery(asm, spec)
        _write(out / "battery.csv", battery_csv(results))
        doc = {
            "spec_version": SPEC_VERSION,
            "package_version": __version__,
            "config_digest": config_digest(asm, seed),
            "results": [vars(r) | {"passed": r.passed, "extras": None} for r in results],
        }
        _write(out / "battery.json", json.dumps(doc, indent=2, sort_keys=True,
                                                default=repr) + "\n")
        failed = [r.name for r in results if not r.passed]
        if failed:
            print(f"error: battery failures in {failed}", file=sys.stderr)
            return 3
        return 0

    if ptype == "sweep":
        return _fail(2, "sweep configs go through the 'sweep' subcommand")

    rep = _run_problem(cfg, asm, ptype, cfg["problem"])
    extra = {"problem_type": ptype,
             "poincare_constant": poincare_constant(asm.kernel, asm.grid)}
    if ptype in ("sublinear", "superlinear"):
        extra.update(_pohozaev_fields(asm, cfg["problem"], rep))
    _write(out / "solution.csv", to_csv(rep.solution))
    _write(out / "report.json", _report_json(cfg, asm, rep, extra))
    if not rep.converged and not cfg.get("solver", {}).get("allow_nonconverged"):
        print(f"error: solver did not converge (residual {rep.residual_inf:.3e})",
              file=sys.stderr)
        return 3
    return 0


def _sweep_point(args):
    """Worker for one sweep point (top level so process pools can pickle it)."""
    cfg, parameter, value, index, out_dir = args
    point_cfg = json.loads(json.dumps(cfg))
    problem = dict(point_cfg["problem"]["inner"])
    if parameter == "reaction_m":
        problem["reaction_m"] = value
    elif parameter == "kernel_alpha":
        point_cfg["kernel"]["alpha"] = value
    else:
        raise ValidationError(f"unknown sweep parameter {parameter!r}")
    point_cfg["problem"] = problem
    # the config digest covers the kernel, Young function, grid and seed; the
    # point's problem and the solver section decide the rest of its row.  A
    # finished point is found without assembling the offset weights and Lambda.
    digest = hashlib.sha256(
        json.dumps([parameter, value, parts_digest(*_parts(point_cfg), int(cfg.get("seed", 0))),
                    problem, cfg.get("solver", {})], sort_keys=True).encode()
    ).hexdigest()[:12]
    point_path = Path(out_dir) / f"point_{digest}.json"
    if point_path.exists():
        row = json.loads(point_path.read_text())
        row["recomputed"] = False
        return index, row

    asm = _build(point_cfg)
    row = {"spec_version": SPEC_VERSION, "parameter": parameter, "value": value,
           "index": index, "digest": digest, "recomputed": True}
    try:
        rep = _run_problem(point_cfg, asm, problem["type"], problem)
        row.update(
            objective=rep.objective,
            residual_inf=rep.residual_inf,
            converged=rep.converged,
            energy_E=rep.energy_E,
            integral_F=rep.integral_F,
        )
        if problem["type"] == "eigen":
            row["lambda1"] = rep.extras["lambda1"]
        if problem["type"] in ("sublinear", "superlinear"):
            row.update(_pohozaev_fields(asm, problem, rep))
    except NlorliczError as exc:
        row.update(error=f"{type(exc).__name__}: {exc}", converged=False)
    _write(point_path, json.dumps({k: v for k, v in row.items() if k != "recomputed"},
                                  indent=2, sort_keys=True, default=repr) + "\n")
    return index, row


_SWEEP_COLUMNS = ("index", "parameter", "value", "converged", "objective",
                  "residual_inf", "energy_E", "integral_F", "lambda1",
                  "pohozaev_ratio", "error")


def cmd_sweep(config_path: str) -> int:
    cfg = load_config(config_path)
    if cfg["problem"]["type"] != "sweep":
        return _fail(2, "sweep subcommand needs a problem of type 'sweep'")
    out = Path(cfg.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    parameter = cfg["problem"].get("parameter", "reaction_m")
    values = cfg["problem"]["values"]
    workers = int(os.environ.get("NLORLICZ_WORKERS", "1"))
    jobs = [(cfg, parameter, v, i, str(out)) for i, v in enumerate(values)]
    rows = {}
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            for index, row in pool.map(_sweep_point, jobs):
                rows[index] = row
    else:
        for job in jobs:
            index, row = _sweep_point(job)
            rows[index] = row

    lines = [",".join(_SWEEP_COLUMNS)]
    for i in sorted(rows):
        row = rows[i]
        lines.append(",".join(_csv_cell(row.get(c)) for c in _SWEEP_COLUMNS))
    _write(out / "sweep.csv", "\n".join(lines) + "\n")
    bad = [r for r in rows.values() if r.get("error")]
    if bad:
        print(f"error: {len(bad)} sweep points failed (recorded in-row)",
              file=sys.stderr)
    return 0


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def cmd_oracle(config_path: str) -> int:
    cfg = load_config(config_path)
    asm = _build(cfg)
    out = Path(cfg.get("output_dir", "."))
    doc = {"spec_version": SPEC_VERSION, "package_version": __version__,
           "config_digest": config_digest(asm, int(cfg.get("seed", 0)))}
    total, reference = node_mass_consistency(asm, asm.grid.n_nodes // 2)
    doc["node_mass_total"] = total
    doc["node_mass_reference"] = reference
    if asm.young.quadratic:
        lam, vec = dense_min_eigenvalue(asm)
        doc["lambda1_dense"] = lam
        _write(out / "oracle_eigenfunction.csv", to_csv(vec))
        if cfg["problem"]["type"] == "dirichlet":
            u = dense_dirichlet_solve(asm, _problem_data(cfg, asm))
            _write(out / "oracle_solution.csv", to_csv(u))
    else:
        doc["note"] = "dense oracles are available for the quadratic case only"
    _write(out / "oracle.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_schema_check(directory: str) -> int:
    root = Path(directory)
    if not root.is_dir():
        return _fail(2, f"not a directory: {directory}")
    problems = []
    for path in sorted(root.rglob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            problems.append(f"{path}: invalid JSON ({exc})")
            continue
        if doc.get("spec_version") != SPEC_VERSION:
            problems.append(f"{path}: missing or wrong spec_version")
    for path in sorted(root.rglob("*.csv")):
        head = path.read_text().splitlines()[0] if path.read_text() else ""
        expected = {"battery.csv": BATTERY_CSV_HEADER,
                    "sweep.csv": ",".join(_SWEEP_COLUMNS)}.get(path.name)
        if expected and head != expected:
            problems.append(f"{path}: unexpected header {head!r}")
        if path.name.startswith("solution") or path.name.startswith("oracle_"):
            if head not in CSV_HEADERS.values():
                problems.append(f"{path}: unexpected header {head!r}")
    for msg in problems:
        print(f"error: {msg}", file=sys.stderr)
    return 2 if problems else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="nlorlicz",
        description="Nonlocal Orlicz-growth energies: solvers and inequality battery",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "oracle"):
        sp = sub.add_parser(name)
        sp.add_argument("config")
    sp = sub.add_parser("schema-check")
    sp.add_argument("directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "sweep":
            return cmd_sweep(args.config)
        if args.command == "oracle":
            return cmd_oracle(args.config)
        return cmd_schema_check(args.directory)
    except ValidationError as exc:
        return _fail(2, str(exc))
    except NlorliczError as exc:
        return _fail(3, str(exc))


if __name__ == "__main__":
    sys.exit(main())
