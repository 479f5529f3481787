"""Correctness checks on the outputs of `nlorlicz run` commands.

They run outside the timed region, on the outputs of the first pass over a
workload; later passes must reproduce those outputs byte for byte.  The
oracles come from `nlorlicz.oracles`, with tolerances fixed here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from nlorlicz import cli
from nlorlicz.oracles import dense_dirichlet_solve, dense_min_eigenvalue, nehari_ground_state

# relative deviation from the oracle that still counts as correct
TOLERANCES = {"dense_dirichlet": 1e-6, "dense_eigen": 1e-6, "nehari": 1e-3}


@dataclass
class Outcome:
    """Verdict on one command in one pass.

    `problems` lists failed checks: an unexpected exit code, missing or
    malformed outputs, a deviation from an oracle, a failed battery property,
    or outputs that differ from the first pass.  A solve that ends without
    converging but exits 0 (under `allow_nonconverged`) has no problem, yet
    it is not ok: it produced no solution.
    """

    item: str
    problems: list = field(default_factory=list)
    converged: bool = True
    rel_err: Optional[float] = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def ok(self) -> bool:
        return not self.problems and self.converged


def tally(outcomes) -> tuple:
    """(attempted, failed, ok_frac) over a list of outcomes."""
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    return attempted, failed, sum(o.ok for o in outcomes) / attempted


def output_digests(out_dir: Path, ptype: str) -> dict:
    """sha256 of each output file of a command; None for a missing file."""
    names = ("battery.csv", "battery.json") if ptype == "battery" else ("solution.csv", "report.json")
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            if (out_dir / name).is_file() else None for name in names}


def check_first(item, out_dir: Path, exit_code: int, digests: dict) -> Outcome:
    """Full checks on the outputs of an item's first run."""
    outcome = Outcome(item.name)
    if exit_code != 0:
        outcome.problems.append(f"exit code {exit_code}")
    missing = [name for name, digest in digests.items() if digest is None]
    if missing:
        outcome.problems.append(f"missing outputs {missing}")
        outcome.converged = False
        return outcome
    if cli.main(["schema-check", str(out_dir)]) != 0:
        outcome.problems.append("schema-check failed")
    if item.ptype == "battery":
        doc = json.loads((out_dir / "battery.json").read_text())
        failing = [r["name"] for r in doc["results"] if not r["passed"]]
        if failing:
            outcome.problems.append(f"battery properties failed: {failing}")
        return outcome
    report = json.loads((out_dir / "report.json").read_text())
    outcome.converged = bool(report["converged"])
    if item.oracle:
        try:
            outcome.rel_err = oracle_error(item, report, out_dir)
        except (KeyError, ValueError) as exc:  # malformed report or solution
            outcome.problems.append(f"{item.oracle} oracle check failed: {exc!r}")
            return outcome
        if not outcome.rel_err <= TOLERANCES[item.oracle]:
            outcome.problems.append(
                f"{item.oracle} oracle deviation {outcome.rel_err:.3e} "
                f"above {TOLERANCES[item.oracle]:.0e}")
    return outcome


def check_repeat(first: Outcome, first_digests: dict, exit_code: int, digests: dict) -> Outcome:
    """A later run of the same item: same exit code and byte-identical outputs."""
    outcome = Outcome(first.item, list(first.problems), first.converged, first.rel_err)
    if exit_code != 0:
        outcome.problems.append(f"exit code {exit_code}")
    if digests != first_digests:
        outcome.problems.append("outputs differ from the first pass")
    return outcome


def oracle_error(item, report: dict, out_dir: Path) -> float:
    """Relative deviation of the command's result from its oracle."""
    cfg = item.config
    asm = cli._build(cfg)
    if item.oracle == "dense_dirichlet":
        ref = dense_dirichlet_solve(asm, cli._problem_data(cfg, asm)).values
        got = np.loadtxt(out_dir / "solution.csv", delimiter=",", skiprows=1, ndmin=2)[:, -1]
        return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    if item.oracle == "dense_eigen":
        lam, _ = dense_min_eigenvalue(asm)
        return abs(report["extras"]["lambda1"] - lam) / abs(lam)
    if item.oracle == "nehari":
        level, _ = nehari_ground_state(asm, float(cfg["problem"]["reaction_m"]))
        return abs(report["extras"]["eta"] - level) / abs(level)
    raise ValueError(f"unknown oracle {item.oracle!r}")
