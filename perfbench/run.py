"""Benchmark of nlorlicz: time to solution of `nlorlicz run`, end to end and
layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload solve-1d --seed 1 --seconds 30 --trace 0

A workload (see workloads.py) is a short list of `nlorlicz run` configs.
They run in this one process through `nlorlicz.cli.main`, so a command's
time covers config validation, assembly, the solve and writing the outputs.
BLAS/OpenMP threads are capped at the number of usable cores.

A run makes one warm-up pass over the workload, whose outputs are checked
against the package's oracles outside the timed region, then repeats the
workload for --seconds and reports the median over the repeats; every repeat
must reproduce the warm-up outputs byte for byte.  With --trace 1 untraced
and traced passes alternate: the per-layer metrics come from the traced
passes and `trace_overhead_frac` compares the two kinds.

The end-to-end times are probe-scaled seconds: each phase's wall time is
scaled by how fast fixed reference probes ran around and during it, so that
a busy shared host does not read as a slower program (see probes.py).  The
unscaled wall times are printed and kept in the result record as well.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics, where metrics holds the `end_to_end` metrics
of BENCHMARK.json (--trace 0) or its `per_layer` metrics (--trace 1).  The
lines before it give every metric with its unit, quartiles and sample count,
the verdict on each command and the environment.  Configs, outputs, a full
result record and the spans go under perfbench/_work/.
"""

import argparse
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable core count; returns the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        keep = current.isdigit() and 0 < int(current) < nproc
        os.environ[var] = current if keep else str(nproc)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "nlorlicz"
    if not (package / "__init__.py").is_file():
        print(f"error: no nlorlicz sources under {package}", file=sys.stderr)
        return 2
    # the caps must be in place before numpy loads its BLAS
    threads = cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import nlorlicz
    if Path(nlorlicz.__file__).resolve().parent != package:
        print(f"error: imported nlorlicz from {nlorlicz.__file__}", file=sys.stderr)
        return 2
    import bench
    return bench.run(args, threads)


if __name__ == "__main__":
    sys.exit(main())
