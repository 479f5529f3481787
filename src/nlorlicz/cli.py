"""Command-line front end: declarative JSON configs in, CSV/JSON results out.

Subcommands:
  run <config>          solve one problem or run the inequality battery
  sweep <config>        one run per parameter value, resumable by digest
  oracle <config>       dense/quadrature reference outputs for the same config
  schema-check <dir>    validate previously written outputs

Exit codes: 0 success; 2 config/validation error, before anything is
written: a key the config table does not list, a required key left out, a
value not of its key's type or out of its range, an output_dir that cannot
be written, or a bad NLORLICZ_WORKERS; 3 solver non-convergence (downgraded
to a warning when the solver section sets allow_nonconverged).  No config
makes the CLI exit 1: a traceback is a bug.
Thread count for sweeps comes from NLORLICZ_WORKERS (default 1); results are
byte-identical regardless of worker count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import hashlib
import io
import json
import math
import operator
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .energy import PAIR_BUDGET, assemble
from .errors import NlorliczError, ValidationError
from .grid import CSV_HEADERS, GridFunction, bump, make_grid, random_function, to_csv
from .harness import (BATTERY_CSV_HEADER, BATTERY_MANIFEST, CorpusSpec, battery_csv,
                      config_digest, parts_digest, run_battery)
from .kernels import make_kernel, poincare_constant
from .oracles import dense_dirichlet_solve, dense_min_eigenvalue, node_mass_consistency
from .solvers import (mountain_pass_search, pohozaev_check, power_reaction, solve_dirichlet,
                      solve_eigen, solve_sublinear)
from .young import make_young

SPEC_VERSION = 1

# the default of a key that the config must give
_REQUIRED = object()


class _Kind(NamedTuple):
    """A type of config value: the words that name it, and its conversion,
    which raises TypeError or ValueError on a value not of the type.  A
    `many` kind is a non-empty list of such values.  `_check` takes a value
    of bool or str only as it is, and a JSON boolean for no other kind."""

    what: str
    convert: Callable
    many: bool = False


def _integer(value) -> int:
    # int() would cut 16.9 to 16
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _number(value) -> float:
    # json reads NaN and Infinity, and float() reads "nan" and "inf"
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(value)
    return number


def _pair(value) -> tuple:
    k, p = value
    if isinstance(k, bool) or isinstance(p, bool):
        raise TypeError(value)
    return _number(k), _number(p)


_INTEGER = _Kind("an integer", _integer)
_NUMBER = _Kind("a number", _number)
_NUMBERS = _NUMBER._replace(many=True)
_PAIRS = _Kind("a [k, p] pair", _pair, many=True)
_BOOLEAN = _Kind("true or false", bool)
_STRING = _Kind("a string", str)


class _Key(NamedTuple):
    """One key of the config: its kind (a _Kind, or for a section the table
    of its keys), its default (_REQUIRED when it has none, None when the
    library supplies it) and the bound its value must meet, as (words, limit)
    with words a key of _BOUNDS."""

    kind: object
    default: object = _REQUIRED
    bound: tuple = ()


class _Variants(NamedTuple):
    """A section whose keys depend on its `key`, a family, type or kind:
    `table` maps each variant to its keys.  `default` is the variant of a
    section that leaves the key out (None: the section must give it)."""

    key: str
    default: Optional[str]
    table: dict


class _PerType(dict):
    """A default by problem type; the types it does not name take "other"."""


_BOUNDS = {"above": operator.gt, "at least": operator.ge, "in": lambda v, limit: v in limit}

_DATA = _Variants("kind", "bump", {
    "bump": {"radius": _Key(_NUMBER, 0.5), "height": _Key(_NUMBER, 1.0)},
    "random": {"amplitude": _Key(_NUMBER, 1.0)},
    "constant": {"value": _Key(_NUMBER, 1.0)},
})
# the problems of a run that solves, which are those of a sweep point
_SOLVES = {"dirichlet": {"data": _Key(_DATA, {})}, "sublinear": {"reaction_m": _Key(_NUMBER)},
           "superlinear": {"reaction_m": _Key(_NUMBER)}, "eigen": {}}
# the key that each point of a sweep sets, as (section, key), by parameter
_SWEPT = {"reaction_m": ("problem.inner", "reaction_m"), "kernel_alpha": ("kernel", "alpha")}
_SWEEP = {"parameter": _Key(_STRING, "reaction_m", ("in", tuple(_SWEPT))),
          "values": _Key(_NUMBERS), "inner": _Key(_Variants("type", None, _SOLVES))}

_CONFIG = _Key({
    "spec_version": _Key(_INTEGER, SPEC_VERSION, ("in", (SPEC_VERSION,))),
    "kernel": _Key(_Variants("family", None, {
        "fractional": {"alpha": _Key(_NUMBER)},
        "two_exponent": {"alpha_inner": _Key(_NUMBER), "alpha_outer": _Key(_NUMBER)},
        "log": {"beta": _Key(_NUMBER)},
        "piecewise_dyadic": {"mu": _Key(_NUMBER)},
    })),
    "young": _Key(_Variants("family", None, {
        "power": {"p": _Key(_NUMBER)},
        "power_sum": {"terms": _Key(_PAIRS)},
        "log_perturbed": {"p": _Key(_NUMBER), "r": _Key(_NUMBER), "c": _Key(_NUMBER, None)},
    })),
    "grid": _Key({"shape": _Key(_STRING), "n_per_axis": _Key(_INTEGER),
                  "bounds": _Key(_NUMBERS, None)}),
    "problem": _Key(_Variants("type", None, {
        **_SOLVES, "sweep": _SWEEP,
        "battery": {"trials": _Key(_INTEGER, CorpusSpec.trials, ("at least", 1))},
    })),
    "solver": _Key({
        "tol": _Key(_NUMBER, _PerType(superlinear=1e-6, other=1e-8), ("above", 0)),
        "max_iter": _Key(_INTEGER, _PerType(superlinear=3000, other=20000), ("at least", 0)),
        "allow_nonconverged": _Key(_BOOLEAN, False),
        "pair_budget": _Key(_INTEGER, PAIR_BUDGET, ("at least", 0)),
    }, {}),
    "seed": _Key(_INTEGER, 0, ("at least", 0)),
    "output_dir": _Key(_STRING, "."),
})


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _entries(kind, section: dict) -> dict:
    """The keys of a section of this kind: for _Variants, its key and the
    keys of the variant that the section names."""
    if not isinstance(kind, _Variants):
        return kind
    variant = section.get(kind.key, kind.default)
    return {kind.key: _Key(_STRING, kind.default), **kind.table[variant]}


def _get(cfg: dict, *path: str):
    """The config's value at path, such as ("solver", "tol"), converted to
    its kind in the table, or the table's default when the config leaves it
    out.  A section comes as written, {} when left out."""
    value, entry = cfg, _CONFIG
    for key in path:
        section, entry = value, _entries(entry.kind, value)[key]
        value = section.get(key, entry.default)
    kind = entry.kind
    if isinstance(value, _PerType):  # a default, which no JSON value is
        return value.get(cfg["problem"]["type"], value["other"])
    if key not in section or not isinstance(kind, _Kind):
        return value
    return tuple(map(kind.convert, value)) if kind.many else kind.convert(value)


def _check(value, entry: _Key, where: str, swept: tuple):
    """Raise a ValidationError unless value, the config's part at where, is
    of entry's kind and meets its bound.  A section must hold only the keys
    of its table (for _Variants, of its variant), each valid in turn, and
    every key the table requires but the one that each sweep point sets:
    swept, as (section, key)."""
    kind, name = entry.kind, where or "config"
    leaf, label = name.rpartition(".")[2], ""
    if isinstance(kind, _Kind):
        if kind.many and not (isinstance(value, list) and value):
            raise ValidationError(
                f"bad config value: {name} = {value!r} is not a non-empty {leaf!r} list")
        exact = kind.convert in (bool, str)
        for item in value if kind.many else [value]:
            try:
                # only bool takes a JSON boolean, and only str a string as it is
                if isinstance(item, kind.convert if exact else bool) != exact:
                    raise TypeError(item)
                converted = kind.convert(item)
                if entry.bound and not _BOUNDS[entry.bound[0]](converted, entry.bound[1]):
                    raise ValueError(item)
            except (TypeError, ValueError, OverflowError):
                bound = " %s %r" % entry.bound if entry.bound else ""
                raise ValidationError(
                    f"bad config value: {name} = {item!r} is not {kind.what}{bound}") from None
        return
    if not isinstance(value, dict):
        raise ValidationError(f"{name} must be a JSON object (the {leaf!r} section is {value!r})")
    if isinstance(kind, _Variants):
        variant, variants = value.get(kind.key, kind.default), list(kind.table)
        if variant not in variants:
            raise ValidationError(
                f"unknown {leaf} {kind.key} {variant!r}: {name}.{kind.key} is one of {variants}")
        # name the variant where the section may have left it out
        label = f" ({variant})" if kind.default else ""
    entries = _entries(kind, value)
    unknown = set(value) - set(entries)
    if unknown:
        raise ValidationError(f"unknown keys in {name}{label}: {sorted(unknown)}")
    missing = {key for key, sub in entries.items() if sub.default is _REQUIRED} - set(value)
    if swept[0] == where:
        if swept[1] not in entries:
            raise ValidationError(
                f"the sweep sets {where}.{swept[1]}, which {name} = {value!r} does not read")
        missing.discard(swept[1])
    if missing:
        raise ValidationError(f"missing keys in {name}{label}: {sorted(missing)}")
    for key, sub in entries.items():
        if key in value:
            _check(value[key], sub, f"{where}.{key}" if where else key, swept)


def load_config(path: str, sweep: bool = False) -> dict:
    """The config at path, checked against the table: a sweep config for
    the sweep subcommand, and any other for the rest."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"config is not valid JSON: {exc}")
    # the key that each sweep point sets, read before the config is checked
    problem = cfg.get("problem") if isinstance(cfg, dict) else None
    is_sweep = isinstance(problem, dict) and problem.get("type") == "sweep"
    parameter = problem.get("parameter", _SWEEP["parameter"].default) if is_sweep else None
    swept = _SWEPT.get(parameter, (None, None)) if isinstance(parameter, str) else (None, None)
    _check(cfg, _CONFIG, "", swept)
    if is_sweep != sweep:
        raise ValidationError("sweep subcommand needs a problem of type 'sweep'" if sweep
                              else "sweep configs go through the 'sweep' subcommand")
    return cfg


def _parts(cfg: dict):
    """The kernel, Young function and grid of a config, not yet assembled.
    A value that the library rejects is a ValidationError."""
    kernel, young, grid = ({key: _get(cfg, name, key) for key in cfg[name]}
                           for name in ("kernel", "young", "grid"))
    try:
        g = make_grid(**grid)
        return make_kernel(dim=g.dim, **kernel), make_young(**young), g
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad config value: {exc}") from exc


def _build(cfg: dict):
    kern, yng, g = _parts(cfg)
    return assemble(g, kern, yng, pair_budget=_get(cfg, "solver", "pair_budget"))


def _problem_data(cfg: dict, asm) -> GridFunction:
    """The problem's data, with the table's defaults for its fields."""
    field = functools.partial(_get, cfg, "problem", "data")
    kind = field("kind")
    if kind == "bump":
        return bump(asm.grid, asm.grid.center, field("radius") * asm.grid.inradius,
                    field("height"))
    if kind == "random":
        return random_function(asm.grid, _get(cfg, "seed"), field("amplitude"))
    return GridFunction(asm.grid, np.full(asm.grid.n_nodes, field("value")))


def _write(path: Path, text: str):
    """Write text to path as a new file, the package's only writer.  An old
    file is removed first.  On ext4 (default `auto_da_alloc`), truncating a
    file in place allocates its new blocks on close, and the next rerun's
    truncation frees them, which stalls for tens of ms per file on a disk
    mounted with `discard`.  A new file stays unallocated until writeback,
    so a quick rerun frees nothing.  For a first run, or a rerun after the
    writeback interval, paired timings showed no difference (ROADMAP)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    path.write_text(text)


def _not_strict(constant: str):
    raise ValueError(f"{constant} is not strict JSON")


def _strict(doc):
    """doc as a JSON output holds it: JSON has no NaN or Infinity, so each
    number that is not finite, at any depth, is None (null)."""
    return json.loads(json.dumps(doc, default=repr), parse_constant=lambda _: None)


def _write_json(path: Path, doc: dict):
    _write(path, json.dumps(_strict(doc), indent=2, sort_keys=True, allow_nan=False) + "\n")


def _stamp(cfg: dict, asm) -> dict:
    """The fields that every JSON output of a run carries."""
    return {"spec_version": SPEC_VERSION, "package_version": __version__,
            "config_digest": config_digest(asm, _get(cfg, "seed"))}


def _run_problem(cfg: dict, asm):
    """The solve of the config's problem, with the solver section's tol and
    max_iter, or the table's defaults for the problem type; and the fields
    that a reaction solve adds to report.json and its sweep row, the
    scaling-identity ratio and note."""
    ptype = cfg["problem"]["type"]
    tol, max_iter = _get(cfg, "solver", "tol"), _get(cfg, "solver", "max_iter")
    if ptype == "dirichlet":
        return solve_dirichlet(asm, _problem_data(cfg, asm), tol=tol, max_iter=max_iter), {}
    if ptype == "eigen":
        return solve_eigen(asm, tol=tol, max_iter=max_iter), {}
    reaction = power_reaction(_get(cfg, "problem", "reaction_m"))
    solve = mountain_pass_search if ptype == "superlinear" else solve_sublinear
    rep = solve(asm, reaction, tol=tol, max_iter=max_iter)
    check = pohozaev_check(asm, reaction, rep.solution)
    return rep, {"pohozaev_ratio": check.ratio if check.applicable else None,
                 "pohozaev_note": check.note}


def cmd_run(config_path: str) -> int:
    cfg = load_config(config_path)
    asm = _build(cfg)
    out = Path(_get(cfg, "output_dir"))
    ptype = cfg["problem"]["type"]

    if ptype == "battery":
        spec = CorpusSpec(seed=_get(cfg, "seed"), trials=_get(cfg, "problem", "trials"))
        results = run_battery(asm, spec)
        _write(out / "battery.csv", battery_csv(results))
        _write_json(out / "battery.json", _stamp(cfg, asm) | {"results": [
            vars(r) | {"passed": r.passed, "extras": None} for r in results]})
        failed = [r.name for r in results if not r.passed]
        return _fail(3, f"battery failures in {failed}") if failed else 0

    rep, fields = _run_problem(cfg, asm)
    doc = rep.to_dict() | _stamp(cfg, asm) | fields | {
        "problem_type": ptype, "poincare_constant": poincare_constant(asm.kernel, asm.grid),
        "n_nodes": asm.grid.n_nodes}
    _write(out / "solution.csv", to_csv(rep.solution))
    _write_json(out / "report.json", doc)
    if not rep.converged and not _get(cfg, "solver", "allow_nonconverged"):
        return _fail(3, f"solver did not converge (residual {rep.residual_inf:.3e})")
    return 0


def _sweep_point(args):
    """Worker for one sweep point (top level so process pools can pickle it)."""
    cfg, parameter, value, index, out_dir = args
    point_cfg = json.loads(json.dumps(cfg))
    section, key = _SWEPT[parameter]
    functools.reduce(operator.getitem, section.split("."), point_cfg)[key] = value
    problem = point_cfg["problem"] = point_cfg["problem"]["inner"]
    # the config digest covers the kernel, Young function, grid and seed; the
    # point's problem and the solver section, as written, decide the rest of
    # its row.  A finished point is found without assembling the offset
    # weights and Lambda.
    digest = hashlib.sha256(
        json.dumps([parameter, value, parts_digest(*_parts(point_cfg), _get(cfg, "seed")),
                    problem, _get(cfg, "solver")], sort_keys=True).encode()
    ).hexdigest()[:12]
    point_path = Path(out_dir) / f"point_{digest}.json"
    try:
        done = json.loads(point_path.read_text(), parse_constant=_not_strict)
    except (FileNotFoundError, ValueError):  # no point yet, one cut short, or
        done = None                          # one holding NaN or Infinity
    # anything but this point's own row is unfinished, and is written anew
    if (isinstance(done, dict) and done.get("spec_version") == SPEC_VERSION
            and done.get("digest") == digest):
        return index, done | {"recomputed": False}

    asm = _build(point_cfg)
    row = {"spec_version": SPEC_VERSION, "parameter": parameter, "value": value,
           "index": index, "digest": digest}
    try:
        rep, fields = _run_problem(point_cfg, asm)
        row.update(fields, **{name: getattr(rep, name) for name in (
            "objective", "residual_inf", "converged", "energy_E", "integral_F")})
        if problem["type"] == "eigen":
            row["lambda1"] = rep.extras["lambda1"]
    except NlorliczError as exc:
        row.update(error=f"{type(exc).__name__}: {exc}", converged=False)
    # the row as its file holds it, so a resumed sweep writes the same cells
    row = _strict(row)
    _write_json(point_path, row)
    return index, row | {"recomputed": True}


_SWEEP_COLUMNS = ("index", "parameter", "value", "converged", "objective",
                  "residual_inf", "energy_E", "integral_F", "lambda1",
                  "pohozaev_ratio", "error")


def cmd_sweep(config_path: str) -> int:
    cfg = load_config(config_path, sweep=True)
    workers = os.environ.get("NLORLICZ_WORKERS", "1")
    _check(workers, _Key(_INTEGER), "NLORLICZ_WORKERS", (None, None))
    out = Path(_get(cfg, "output_dir"))
    out.mkdir(parents=True, exist_ok=True)
    # each value as written, which its point's digest hashes
    jobs = [(cfg, _get(cfg, "problem", "parameter"), v, i, str(out))
            for i, v in enumerate(cfg["problem"]["values"])]
    # a pool starts all its processes at once (fork): no more than the points
    workers = min(_integer(workers), len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for _, row in pool.map(_sweep_point, jobs)]
    else:
        rows = [row for _, row in map(_sweep_point, jobs)]
    lines = [",".join(_SWEEP_COLUMNS)]
    lines += [",".join(_csv_cell(row.get(c)) for c in _SWEEP_COLUMNS) for row in rows]
    _write(out / "sweep.csv", "\n".join(lines) + "\n")
    bad = [r for r in rows if r.get("error")]
    if bad:
        print(f"error: {len(bad)} sweep points failed (recorded in-row)",
              file=sys.stderr)
    return 0


def _csv_cell(v) -> str:
    """One sweep.csv cell: empty for None, 17 significant digits for a
    float, else str(v), in double quotes with each double quote doubled
    (RFC 4180) where it holds a comma, a double quote or a line break."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    text = str(v)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def cmd_oracle(config_path: str) -> int:
    cfg = load_config(config_path)
    asm = _build(cfg)
    out = Path(_get(cfg, "output_dir"))
    total, reference = node_mass_consistency(asm, asm.grid.n_nodes // 2)
    doc = _stamp(cfg, asm) | {"node_mass_total": total, "node_mass_reference": reference,
                              "n_nodes": asm.grid.n_nodes}
    if asm.young.quadratic:
        lam, vec = dense_min_eigenvalue(asm)
        doc["lambda1_dense"] = lam
        _write(out / "oracle_eigenfunction.csv", to_csv(vec))
        if cfg["problem"]["type"] == "dirichlet":
            u = dense_dirichlet_solve(asm, _problem_data(cfg, asm))
            _write(out / "oracle_solution.csv", to_csv(u))
    else:
        doc["note"] = "dense oracles are available for the quadratic case only"
    _write_json(out / "oracle.json", doc)
    return 0


# the output that must lie beside each output, by file name pattern
_PARTNERS = {"solution.csv": "report.json", "report.json": "solution.csv",
             "battery.csv": "battery.json", "battery.json": "battery.csv",
             "oracle_*.csv": "oracle.json"}


def _csv_problems(name: str, text: str, record: Optional[dict] = None) -> list:
    """The problems of a CSV output, chosen by its file name: its header, a
    newline at its end, each data row's field count and, for the solution
    layout (solution*.csv, oracle_*.csv), each field a number and, where
    record (the partner JSON object) is given, as many rows as its
    n_nodes.  battery.csv's property column is the battery manifest, in
    order.  sweep.csv is read by the csv module, since its error cell may
    be quoted (_csv_cell); the others hold no quotes.  Other CSV files are
    not checked."""
    numeric = name.startswith(("solution", "oracle_"))
    headers = ({BATTERY_CSV_HEADER} if name == "battery.csv"
               else {",".join(_SWEEP_COLUMNS)} if name == "sweep.csv"
               else set(CSV_HEADERS.values()) if numeric else None)
    if headers is None:
        return []
    head, *rows = text.removesuffix("\n").split("\n")
    if head not in headers:
        return [f"unexpected header {head!r}"]
    problems = [] if text.endswith("\n") else ["ends without a newline (cut short)"]
    width = head.count(",") + 1
    if name == "sweep.csv":
        reader = csv.reader(io.StringIO(text, newline=""), strict=True)
        try:
            fields = [(reader.line_num, row) for row in reader][1:]
        except csv.Error as exc:
            return problems + [f"line {reader.line_num}: not CSV ({exc})"]
    else:
        fields = [(line, row.split(",")) for line, row in enumerate(rows, 2)]
    for line, row in fields:
        if len(row) != width:
            return problems + [f"line {line}: {len(row)} fields, the header has {width}"]
    if numeric:
        try:
            np.array([row for _, row in fields], dtype=float)
        except ValueError as exc:
            problems.append(f"a field is not a number ({exc})")
    if numeric and record is not None and record.get("n_nodes") != len(fields):
        problems.append(f"{len(fields)} data rows against n_nodes {record.get('n_nodes')!r}"
                        " (cut short?)")
    if name == "battery.csv" and tuple(row[0] for _, row in fields) != BATTERY_MANIFEST:
        problems.append("the property column is not the battery manifest (cut short?)")
    return problems


def cmd_schema_check(directory: str) -> int:
    root = Path(directory)
    if not root.is_dir():
        return _fail(2, f"not a directory: {directory}")
    problems, docs = [], {}
    # the JSON files first: a solution-layout CSV is held to its partner's n_nodes
    for path in sorted(root.rglob("*.json")) + sorted(root.rglob("*.csv")):
        partner = next((p for pattern, p in _PARTNERS.items() if path.match(pattern)), None)
        if partner and not (path.parent / partner).is_file():
            problems.append(f"{path}: no {partner} beside it")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            problems.append(f"{path}: not UTF-8")
            continue
        if path.suffix == ".json":
            try:
                doc = json.loads(text, parse_constant=_not_strict)
            except ValueError as exc:  # json.JSONDecodeError among them
                problems.append(f"{path}: invalid JSON ({exc})")
                continue
            if not isinstance(doc, dict):
                problems.append(f"{path}: not a JSON object")
            elif doc.get("spec_version") != SPEC_VERSION:
                problems.append(f"{path}: missing or wrong spec_version")
            else:
                docs[path] = doc
            continue
        record = docs.get(path.parent / partner) if partner else None
        problems += [f"{path}: {msg}" for msg in _csv_problems(path.name, text, record)]
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
    except (ValidationError, OSError) as exc:
        return _fail(2, str(exc))
    except NlorliczError as exc:
        return _fail(3, str(exc))


if __name__ == "__main__":
    sys.exit(main())
