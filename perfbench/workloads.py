"""The benchmark's workloads: each is a short list of `nlorlicz run` configs.

Sizes are chosen so that one pass over a workload takes about five seconds
on a 2-core machine, which lets a 30-second run repeat it often enough for
steady medians:

- solve-1d: the pair kernel at 512 nodes (2.6e5 pairs per call) dominates.
  A quadratic psi, where a `W @ x` fast path would apply, sits next to a
  log-perturbed psi that bypasses it.
- domain-2d: set-up is box Lambda arc quadrature (24^2 box) and a log kernel
  with no closed-form tail (ball).  The battery drives `interaction(u, phi)`
  with phi != u, `apply_operator` and `E_value` on many functions, unlike the
  solvers.
- reaction-1d: n is small, so cost comes from solver logic (evaluation
  counts, path re-scoring, the saddle polish, BB stalls at p < 2) rather
  than from the pair kernel.  The p = 1.5 Dirichlet solve runs to its
  iteration limit without converging, which keeps that known failure
  visible in `ok_frac`.

The seed is every config's `seed`: it draws the battery's corpus and enters
the config digest written into every output.  The solve data stay fixed,
because BB iteration counts jump with small changes of the data: with the
bump height and radius drawn from the seed (within 10%), the log-perturbed
Dirichlet solve at n = 512 took from 1.2 s to 3.9 s, which would make the
benchmark's spread over seeds a property of the data rather than of the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

FRACTIONAL = {"family": "fractional", "alpha": 0.5}
QUADRATIC = {"family": "power", "p": 2.0}


@dataclass(frozen=True)
class Item:
    """One `nlorlicz run` command of a workload."""

    name: str
    config: dict            # an `nlorlicz run` config without output_dir
    oracle: Optional[str] = None  # "dense_dirichlet", "dense_eigen" or "nehari"

    @property
    def ptype(self) -> str:
        return self.config["problem"]["type"]


def _interval(n: int) -> dict:
    return {"shape": "interval", "n_per_axis": n, "bounds": [-1.0, 1.0]}


BUMP = {"kind": "bump", "radius": 0.5, "height": 1.0}


def _config(seed, kernel, young, grid, problem, solver=None) -> dict:
    cfg = {"spec_version": 1, "kernel": kernel, "young": young, "grid": grid,
           "problem": problem, "seed": seed}
    if solver:
        cfg["solver"] = solver
    return cfg


def solve_1d(seed: int) -> list[Item]:
    grid = _interval(512)
    return [
        Item("dirichlet_p2", _config(seed, FRACTIONAL, QUADRATIC, grid,
                                     {"type": "dirichlet", "data": BUMP}),
             oracle="dense_dirichlet"),
        Item("eigen_p2", _config(seed, FRACTIONAL, QUADRATIC, grid, {"type": "eigen"}),
             oracle="dense_eigen"),
        Item("dirichlet_log", _config(
            seed, FRACTIONAL, {"family": "log_perturbed", "p": 2.0, "r": 1.0}, grid,
            {"type": "dirichlet", "data": BUMP})),
    ]


def domain_2d(seed: int) -> list[Item]:
    return [
        Item("battery_box", _config(
            seed, FRACTIONAL, QUADRATIC,
            {"shape": "box", "n_per_axis": 24, "bounds": [-1.0, 1.0, -1.0, 1.0]},
            {"type": "battery", "trials": 10})),
        Item("dirichlet_ball", _config(
            seed, {"family": "log", "beta": 1.0},
            {"family": "power_sum", "terms": [[0.5, 2.0], [0.5, 4.0]]},
            {"shape": "ball", "n_per_axis": 24, "bounds": [0.0, 0.0, 1.0]},
            {"type": "dirichlet", "data": BUMP})),
    ]


def reaction_1d(seed: int) -> list[Item]:
    return [
        Item("superlinear_m3", _config(seed, FRACTIONAL, QUADRATIC, _interval(128),
                                       {"type": "superlinear", "reaction_m": 3.0}),
             oracle="nehari"),
        Item("sublinear_m15", _config(seed, FRACTIONAL, QUADRATIC, _interval(256),
                                      {"type": "sublinear", "reaction_m": 1.5})),
        Item("dirichlet_p15", _config(
            seed, FRACTIONAL, {"family": "power", "p": 1.5}, _interval(64),
            {"type": "dirichlet", "data": BUMP},
            solver={"allow_nonconverged": True})),
    ]


WORKLOADS = {
    "solve-1d": solve_1d,
    "domain-2d": domain_2d,
    "reaction-1d": reaction_1d,
}

PROBLEM_TYPES = ("dirichlet", "eigen", "sublinear", "superlinear", "battery")


def all_items() -> list[Item]:
    """Every item of every workload (seed 0), for naming per-item metrics."""
    return [item for make in WORKLOADS.values() for item in make(0)]


def solver_item_names() -> list[str]:
    return [item.name for item in all_items() if item.ptype != "battery"]
