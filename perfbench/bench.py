"""Measurement loop, metrics and result output of the benchmark (see run.py)."""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

import checks
import nlorlicz
import probes
import spans
from nlorlicz import cli
from workloads import PROBLEM_TYPES, WORKLOADS, Item, all_items, solver_item_names

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"


def git_commit(root: Path) -> str:
    """Commit of a git checkout at root, read without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest(package: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class Sample:
    """One command in one pass: raw wall and set-up seconds, and the probes
    taken during its set-up and during the rest of it (see probes.py)."""

    item: Item
    wall: float
    setup: float
    exit_code: int
    digests: dict
    setup_probes: list = field(default_factory=list)
    rest_probes: list = field(default_factory=list)

    def scaled(self) -> tuple:
        """(set-up, wall) in probe-scaled seconds."""
        if not self.rest_probes:
            return self.setup, self.wall
        setup = self.setup * probes.scale(probes.SETUP_MIX, *self.setup_probes)
        rest = (self.wall - self.setup) * probes.scale(probes.SOLVE_MIX, *self.rest_probes)
        return setup, setup + rest

    def as_dict(self):
        setup, wall = self.scaled()
        return {"item": self.item.name, "wall_s": self.wall, "setup_s": self.setup,
                "scaled_wall_s": wall, "scaled_setup_s": setup,
                "setup_probes": self.setup_probes, "rest_probes": self.rest_probes,
                "exit_code": self.exit_code, "digests": self.digests}


class Workload:
    """The items of a workload, with their config files and output dirs."""

    def __init__(self, items, work_dir: Path):
        self.items = items
        self.dirs = {}
        for item in items:
            d = work_dir / item.name
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
            cfg = dict(item.config, output_dir=str(d / "out"))
            (d / "config.json").write_text(json.dumps(cfg, indent=2) + "\n")
            self.dirs[item.name] = d

    def run_pass(self, trace=False) -> tuple:
        """One pass over the workload: (samples, tracer or None).  Spans are
        timed on the sampler's clock, so they leave the probes out."""
        sampler = probes.Sampler()
        if not trace:
            clock = spans.SetupClock(sampler.now, sampler.take)
            with sampler, spans.setup_clock(clock):
                return [self._run(item, sampler, clock) for item in self.items], None
        tracer = spans.Tracer(clock=sampler.now)
        with sampler, spans.traced(tracer):
            return [self._run_traced(item, sampler, tracer) for item in self.items], tracer

    def _command(self, item) -> int:
        try:
            return cli.main(["run", str(self.dirs[item.name] / "config.json")])
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            return -1

    def _digests(self, item) -> dict:
        return checks.output_digests(self.dirs[item.name] / "out", item.ptype)

    def _run(self, item, sampler, clock):
        """Runs one command between probes, with the timer's probes inside."""
        _, before = sampler.take()
        clock.reset()
        start = sampler.now()
        code = self._command(item)
        end, after = sampler.take()
        mid_stamp, mid = clock.mid or (end, after)
        setup_probes = [before, *sampler.between(start, mid_stamp), mid]
        rest_probes = [mid, *sampler.between(mid_stamp, end), after]
        return Sample(item, end - start, clock.setup, code, self._digests(item),
                      setup_probes, rest_probes)

    def _run_traced(self, item, sampler, tracer):
        """Runs one traced command between probes, with the timer's probes
        inside; both phases are scaled by all of them."""
        _, before = sampler.take()
        root = len(tracer.spans)
        with tracer.span("cli.run", item=item.name, ptype=item.ptype) as span:
            code = self._command(item)
        _, after = sampler.take()
        setup = sum(s.duration for s in tracer.spans[root:]
                    if s.parent == root and s.name in spans.SETUP)
        around = [before, *sampler.between(span.start, span.end), after]
        return Sample(item, span.duration, setup, code, self._digests(item), around, around)


def pass_metrics(samples, raw=False) -> dict:
    """End-to-end times of one pass, plus the per-problem-type times, in
    probe-scaled seconds, or in wall seconds with raw."""
    times = [(s.setup, s.wall) if raw else s.scaled() for s in samples]
    run = sum(wall for _, wall in times)
    setup = sum(setup for setup, _ in times)
    out = {"run_s": run, "setup_s": setup, "solve_s": run - setup}
    for ptype in PROBLEM_TYPES:
        out[f"cli.{ptype}_s"] = sum(wall - setup for s, (setup, wall) in zip(samples, times)
                                    if s.item.ptype == ptype)
    return out


def measure(workload: Workload, seconds: float, trace: bool):
    """Warm-up pass with full checks, then repeats for `seconds`.

    Returns (outcomes of every command, warm-up samples, their outcomes,
    untraced pass samples, traced passes as (samples, tracer))."""
    first, _ = workload.run_pass()
    reference = {}
    for s in first:
        outcome = checks.check_first(s.item, workload.dirs[s.item.name] / "out",
                                     s.exit_code, s.digests)
        reference[s.item.name] = (outcome, s.digests)
    outcomes = [o for o, _ in reference.values()]
    untraced, traced = [], []
    spent = 0.0
    last = {False: 0.0, True: 0.0}
    while True:
        use_trace = trace and len(traced) < len(untraced)
        have_all = bool(untraced) and (bool(traced) or not trace)
        if have_all and spent + last[use_trace] > seconds:
            break
        start = time.perf_counter()
        samples, tracer = workload.run_pass(use_trace)
        last[use_trace] = time.perf_counter() - start
        spent += last[use_trace]
        for s in samples:
            ref_outcome, ref_digests = reference[s.item.name]
            outcomes.append(checks.check_repeat(ref_outcome, ref_digests, s.exit_code, s.digests))
        if use_trace:
            traced.append((samples, tracer))
        else:
            untraced.append(samples)
    return outcomes, first, [o for o, _ in reference.values()], untraced, traced


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def medians(rows: list) -> dict:
    """Per-key (median, q1, q3, n) over a list of metric dicts."""
    out = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        out[key] = (statistics.median(values), *quartiles(values), len(values))
    return out


def environment(args, threads: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(ROOT),
        "source_digest": source_digest(Path(nlorlicz.__file__).parent),
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nlorlicz": nlorlicz.__version__,
    }


def run(args, threads: int) -> int:
    """Run one workload as run.py's arguments ask and print the result."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args, threads)
    print("# env " + json.dumps(env, sort_keys=True))
    workload = Workload(WORKLOADS[args.workload](args.seed), WORK / args.workload)
    outcomes, warmup, checked, untraced, traced = measure(workload, args.seconds, bool(args.trace))
    attempted, failed, ok_frac = checks.tally(outcomes)

    stats = medians([pass_metrics(samples) for samples in untraced])
    if args.trace:
        layer = medians([spans.layer_metrics(tracer.spans, solver_item_names())
                         for _, tracer in traced])
        stats.update(layer)
        traced_run = statistics.median(sum(s.scaled()[1] for s in samples)
                                       for samples, _ in traced)
        stats["trace_overhead_frac"] = (traced_run / stats["run_s"][0] - 1.0, None, None, 1)
        rel_errs = {o.item: o.rel_err for o in checked}
        for item in all_items():
            if item.oracle:
                value = rel_errs.get(item.name)
                stats[f"oracles.{item.name}.rel_err"] = (value or 0.0, None, None, 1)
    else:
        stats["ok_frac"] = (ok_frac, None, None, attempted)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        stats["peak_rss_mb"] = (peak, None, None, 1)

    section = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": stats[m["name"]][0], "unit": m["unit"]} for m in section}

    for o in checked:
        verdict = "FAILED " + "; ".join(o.problems) if o.failed else (
            "ok" if o.converged else "ok exit, NOT CONVERGED")
        err = "" if o.rel_err is None else f" (oracle rel_err {o.rel_err:.3e})"
        print(f"# item {o.item}: {verdict}{err}")
    differing = sorted({o.item for o in outcomes if "outputs differ from the first pass" in o.problems})
    print(f"# passes: 1 checked warm-up, {len(untraced)} untraced, {len(traced)} traced; "
          f"outputs differing between passes: {differing or 'none'}")
    for m in section:
        value, q1, q3, n = stats[m["name"]]
        spread = "" if q1 is None else f"  q1 {q1:.6g} q3 {q3:.6g}"
        print(f"# {m['name']:<40s} {value:.6g} {m['unit']}  n={n}{spread}")
    raw = medians([pass_metrics(samples, raw=True) for samples in untraced])
    print("# unscaled wall time: " + ", ".join(
        f"{name} {raw[name][0]:.6g} s (q1 {raw[name][1]:.6g} q3 {raw[name][2]:.6g})"
        for name in ("run_s", "setup_s", "solve_s")))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "env": env, "correct": failed == 0, "attempted": attempted, "failed": failed,
        "nonconverged": sorted({o.item for o in outcomes if not o.converged}),
        "outputs_differ": differing,
        "checks": [vars(o) for o in checked],
        "stats": {k: dict(zip(("median", "q1", "q3", "n"), v)) for k, v in stats.items()},
        "unscaled": {k: dict(zip(("median", "q1", "q3", "n"), v)) for k, v in raw.items()},
        "warmup_pass": [s.as_dict() for s in warmup],
        "untraced_passes": [[s.as_dict() for s in samples] for samples in untraced],
        "traced_passes": [[s.as_dict() for s in samples] for samples, _ in traced],
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=repr) + "\n")
    if traced:
        with gzip.open(results / f"{tag}-spans.json.gz", "wt") as fh:
            json.dump([[[s.name, s.parent, s.start, s.end, s.attrs] for s in tracer.spans]
                       for _, tracer in traced], fh)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0

