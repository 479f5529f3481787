"""In-memory spans around the calls into each nlorlicz layer.

The tracer wraps the public functions of each module at every place the
package imports them, and puts the originals back afterwards; nothing under
`src/` changes.  A span records a name, start, end and its parent span (the
innermost traced call that was running when it started).  The Young
function's `value` and `deriv` callables are wrapped by replacing them on the
`YoungFunction` handed to `assemble`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import defaultdict
from typing import Callable, Optional

from nlorlicz import cli, energy, grid, harness, kernels, oracles, solvers, young

PAIR_KERNEL = ("E_value", "gradient_E", "interaction", "apply_operator")
ENERGY_FUNCTIONS = PAIR_KERNEL + ("F_value", "luxemburg_norm_of")
SOLVERS = ("solve_dirichlet", "solve_eigen", "solve_sublinear", "mountain_pass_search")
SOLVER_FIELDS = ("iterations", "E_evals", "grad_evals", "self_s", "converged",
                 "residual_inf")
SETUP = ("energy.assemble", "grid.make_grid")

_MODULES = (cli, energy, grid, harness, kernels, oracles, solvers, young)


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    parent: int            # index of the parent span, -1 for a root
    start: float
    end: float = 0.0
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `wrap` makes a traced version of a callable."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = self._open(name)
        self.spans[index].attrs = attrs or None
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, name: str, fn, record=None):
        """Traced `fn`; `record(args, result)` may return attributes to keep."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if record is not None:
                self.spans[index].attrs = record(args, result)
            return result

        return traced

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, self.clock()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index].end = self.clock()
        self._stack.pop()


@contextlib.contextmanager
def _patched(replacements):
    """Set (object, attribute, value) triples, restoring the old values on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def _import_sites(fn, name: str, wrapper):
    """(module, name, wrapper) for every package module that holds `fn`."""
    return [(m, name, wrapper) for m in _MODULES if getattr(m, name, None) is fn]


def _record_solve(args, report):
    return {"iterations": report.iterations, "converged": bool(report.converged),
            "residual_inf": float(report.residual_inf)}


def _record_battery(args, results):
    return {"failures": sum(r.failures for r in results if not r.passed)}


def _record_pairs(args, result):
    return {"n": args[1].values.size}


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every call into the traced layers through `tracer`."""
    targets = [(grid, "make_grid", None), (kernels, "tail_integral", None),
               (kernels, "lambda_exterior", None), (harness, "run_battery", _record_battery)]
    targets += [(energy, f, _record_pairs if f in PAIR_KERNEL else None)
                for f in ENERGY_FUNCTIONS]
    targets += [(solvers, f, _record_solve) for f in SOLVERS]
    replacements = []
    for module, name, record in targets:
        fn = getattr(module, name)
        layer = module.__name__.rsplit(".", 1)[-1]
        replacements += _import_sites(fn, name, tracer.wrap(f"{layer}.{name}", fn, record))

    inner_assemble = tracer.wrap("energy.assemble", energy.assemble)

    def assemble(grid_, kern, yng, *args, **kwargs):
        yng = dataclasses.replace(yng, value=tracer.wrap("young.value", yng.value),
                                  deriv=tracer.wrap("young.deriv", yng.deriv))
        return inner_assemble(grid_, kern, yng, *args, **kwargs)

    replacements += _import_sites(energy.assemble, "assemble", assemble)
    replacements += _import_sites(harness.sobolev_embedding_check, "sobolev_embedding_check",
                                  tracer.wrap("harness.sobolev_r_star",
                                              harness.sobolev_embedding_check))
    runners = harness._PROPERTY_RUNNERS
    saved_runners = dict(runners)
    runners.update({prop: tracer.wrap(f"harness.{prop}", fn) for prop, fn in runners.items()})
    try:
        with _patched(replacements):
            yield tracer
    finally:
        runners.update(saved_runners)


class SetupClock:
    """Untraced runs: set-up seconds of the current command on the clock
    `now`, and the result of one call of `after_setup` once its assembly
    returns.  `now` should leave out the time `after_setup` takes."""

    def __init__(self, now: Callable[[], float], after_setup: Callable):
        self.now = now
        self.after_setup = after_setup
        self.reset()

    def reset(self):
        self.setup = 0.0
        self.mid = None


@contextlib.contextmanager
def setup_clock(clock: SetupClock):
    """Add the time spent in the CLI's set-up calls to clock.setup."""

    def timed(fn, last):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock.now()
            try:
                return fn(*args, **kwargs)
            finally:
                clock.setup += clock.now() - start
                if last and clock.mid is None:
                    clock.mid = clock.after_setup()
        return wrapper

    with _patched([(cli, "assemble", timed(cli.assemble, True)),
                   (cli, "make_grid", timed(cli.make_grid, False))]):
        yield


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest, so the children of a span never
    overlap and their summed duration is the part of it they cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def _enclosing(spans: list[Span], index: int, prefix: str) -> int:
    """Index of the nearest ancestor whose name starts with prefix, or -1."""
    index = spans[index].parent
    while index >= 0 and not spans[index].name.startswith(prefix):
        index = spans[index].parent
    return index


def layer_metrics(spans: list[Span], item_names, properties=harness.BATTERY_MANIFEST) -> dict:
    """Per-layer metrics from the spans of one traced pass.

    The pass's root spans are named `cli.run` and carry an `item` attribute;
    per-item metrics of items that did not run read 0."""
    calls = defaultdict(int)
    total = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.duration
    out = {}

    def counted(name):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]

    for f in ("tail_integral", "lambda_exterior"):
        counted(f"kernels.{f}")
    out["energy.assemble.table_s"] = total["energy.assemble"] - sum(
        s.duration for s in spans
        if s.name == "kernels.lambda_exterior" and s.parent >= 0
        and spans[s.parent].name == "energy.assemble")
    for f in ENERGY_FUNCTIONS:
        counted(f"energy.{f}")
    pair_s = sum(total[f"energy.{f}"] for f in PAIR_KERNEL)
    pairs = sum(s.attrs["n"] ** 2 for s in spans if s.attrs and "n" in s.attrs)
    out["energy.pair_ns"] = 1e9 * pair_s / pairs if pairs else 0.0
    for f in ("value", "deriv"):
        counted(f"young.{f}")

    own = self_times(spans)
    solver_of = {}
    for i, s in enumerate(spans):
        if s.name in ("energy.E_value", "energy.gradient_E"):
            solver_of.setdefault(_enclosing(spans, i, "solvers."), []).append(s.name)
    items = {name: {field: 0 for field in SOLVER_FIELDS} for name in item_names}
    overhead = 0.0
    for i, s in enumerate(spans):
        if s.parent < 0:
            overhead += s.duration
            continue
        root = spans[s.parent]
        if root.parent >= 0 or root.name != "cli.run":
            continue
        if s.name in SETUP or s.name == "harness.run_battery" or s.name.startswith("solvers."):
            overhead -= s.duration
        if s.name.startswith("solvers.") and root.attrs["item"] in items:
            evals = solver_of.get(i, [])
            items[root.attrs["item"]].update(
                s.attrs, self_s=own[i], converged=int(s.attrs["converged"]),
                E_evals=evals.count("energy.E_value"),
                grad_evals=evals.count("energy.gradient_E"))
    for name, fields in items.items():
        for field, value in fields.items():
            out[f"solvers.{name}.{field}"] = value
    for prop in properties:
        out[f"harness.{prop}.s"] = total[f"harness.{prop}"]
    out["harness.failures"] = sum(s.attrs["failures"] for s in spans
                                  if s.name == "harness.run_battery")
    out["cli.overhead_s"] = overhead
    return out
