"""Reference probes: fixed pieces of work that gauge how fast the machine
runs while a command is measured.

On a few cores of a shared host the same code runs up to twice as slowly
while neighbours are busy, in spells from under a second to minutes, so raw
wall times of one commit spread across runs by more than any useful bound.
The benchmark therefore samples the machine's speed throughout each measured
command: a probe before it, one right after its set-up, one after it, and one
every `INTERVAL` seconds in between (from a timer signal, so nothing in the
package is touched).  Each phase's wall time, with the probes' own time left
out, is scaled by the probes' nominal time over their mean time during that
phase: the result reads as seconds on a machine where the probes take their
nominal time.  The raw wall times are kept in the result record next to the
scaled ones.

Kinds of code slow down by different amounts (on a busy host, quadrature
with Python integrands by about 1.9 times, an interpreter loop by 1.5 and
numpy on 2-MB arrays by 1.15), so each phase is scaled by the probe
components that resemble it: set-up (`tail_integral` and `Lambda`
quadrature through scipy's `quad`) by `SETUP_MIX`, and the rest of a command
(solvers, battery and output, which mix interpreter work, numpy calls on
short vectors and the pair kernel's n x n arrays) by `SOLVE_MIX`.  Among
the mixes tried, these spread least over runs of one commit on every
workload.

Probes use only Python, numpy and scipy, never nlorlicz, so a change to the
package cannot move them.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.integrate import quad

_RNG = np.random.default_rng(0)
_V = _RNG.random(512)
_W = _RNG.random((512, 512))
_FIVE = np.arange(5.0)


def _interp():
    s = 0
    for i in range(150_000):
        s += i * i
    return s


def _pairs():
    for _ in range(3):
        D = _V[:, None] - _V[None, :]
        float(np.sum(D * D * _W))


def _integrand(r):
    return float(np.exp(-np.array(r))) * r


def _quad():
    for k in range(1, 30):
        quad(_integrand, 0.01 * k, np.inf, epsrel=1e-10)


def _small():
    for _ in range(1500):
        float(np.sum(_FIVE * np.abs(np.array(0.3))))


COMPONENTS = {"interp": _interp, "pairs": _pairs, "quad": _quad, "small": _small}

# Seconds each component takes on an unloaded 2-vCPU Xeon (Sapphire Rapids)
# VM; they only fix the unit of the scaled times.
NOMINAL = {"interp": 0.0100, "pairs": 0.0050, "quad": 0.0045, "small": 0.0065}

SETUP_MIX = ("quad",)
SOLVE_MIX = ("interp", "pairs", "small")


def probe() -> dict:
    """Seconds each component takes now."""
    out = {}
    for name, fn in COMPONENTS.items():
        start = time.perf_counter()
        fn()
        out[name] = time.perf_counter() - start
    return out


def scale(mix, *measured) -> float:
    """Nominal over measured time of the components in mix, with the
    measured time averaged over the given probes."""
    nominal = sum(NOMINAL[c] for c in mix)
    taken = sum(p[c] for p in measured for c in mix) / len(measured)
    return nominal / taken


INTERVAL = 0.25


class Sampler:
    """Probes the machine during a stretch of measurement.

    Within `with sampler:` a timer signal takes a probe every `INTERVAL`
    seconds into `ticks`, and `take()` takes one on demand.  `now()` is
    perf_counter minus the time spent in probes, and stamps every probe, so
    intervals on it leave the probes out."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.paused = 0.0
        self.ticks = []          # (stamp, probe) taken by the timer
        self._busy = False

    def now(self) -> float:
        while True:
            paused = self.paused
            t = time.perf_counter()
            if paused == self.paused:  # no probe ran in between
                return t - paused

    def take(self) -> tuple:
        """(stamp, probe) of a probe taken now."""
        self._busy = True
        try:
            stamp = self.now()
            start = time.perf_counter()
            result = probe()
            self.paused += time.perf_counter() - start
        finally:
            self._busy = False
        return stamp, result

    def between(self, t0: float, t1: float) -> list:
        """Probes the timer took between stamps t0 and t1."""
        return [p for stamp, p in self.ticks if t0 < stamp < t1]

    def _on_timer(self, signum, frame):
        if not self._busy:
            self.ticks.append(self.take())

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
