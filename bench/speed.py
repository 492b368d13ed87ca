"""Calibration of the benchmark's timings against the machine's speed.

On a shared machine the speed of one core drifts by half or more within
seconds, with the same drift in the process's own CPU time, so wall times
taken at different moments are not comparable.  The benchmark runs a fixed
probe, independent of invweave, while it measures, and scales each timing by
the probe's reference time over the probe times measured during it (or, for
a timing too short to hold enough probes, nearest to it).  A timing is thus
reported at the speed at which the probe takes its reference time, which is
close to the raw wall time on the machine the benchmark was defined on when
that machine is not slowed.  The raw times are printed too.

Two probes exist because in-process work and process start-up slow down
differently: a small tree-walking evaluator in plain Python for work in the
benchmark's process, and a fresh interpreter that runs nothing for
operations that are subprocesses.  The evaluator runs from a timer signal,
so it also samples the speed in the middle of a long operation; the time it
takes there is taken out of the operation's time.  The fresh interpreter
runs between operations.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

# Reference times: the probes' medians on a 2-core Intel Xeon, Python 3.11.7,
# when the machine was not slowed.
REFERENCE_S = 0.0040
REFERENCE_PROCESS_S = 0.055
INTERVAL_S = 0.1
PROCESS_INTERVAL_S = 0.25
NEAREST = 5  # fewest probes whose mean scales one timing


@dataclass
class Num:
    value: int


@dataclass
class Var:
    name: str


@dataclass
class Bin:
    op: str
    left: object
    right: object


@dataclass
class Cond:
    test: object
    then: object
    other: object


def _tree(rng: random.Random, depth: int):
    if depth == 0:
        return Num(rng.randrange(9)) if rng.random() < 0.5 else Var("x%d" % rng.randrange(4))
    if rng.random() < 0.25:
        return Cond(_tree(rng, depth - 1), _tree(rng, depth - 1), _tree(rng, depth - 1))
    return Bin(rng.choice("+*<"), _tree(rng, depth - 1), _tree(rng, depth - 1))


_TREES = [_tree(random.Random(k), 6) for k in range(8)]


def _eval(e, env: dict):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Bin):
        left, right = _eval(e.left, env), _eval(e.right, env)
        if e.op == "+":
            return left + right
        if e.op == "*":
            return left * right
        return int(left < right)
    return _eval(e.then, env) if _eval(e.test, env) else _eval(e.other, env)


def kernel() -> int:
    acc = 0
    for j in range(25):
        env = {"x%d" % k: j + k for k in range(4)}
        for t in _TREES:
            acc += _eval(t, env) % 7
    return acc


def process_kernel() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class SpeedProbe:
    def __init__(
        self,
        probe: Callable[[], object] = kernel,
        reference_s: float = REFERENCE_S,
        interval_s: float = INTERVAL_S,
        timer: bool = True,
    ) -> None:
        self.probe = probe
        self.timer = timer  # probe from a timer signal, or between operations
        self.reference_s = reference_s
        self.interval_s = interval_s
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    @classmethod
    def for_processes(cls) -> "SpeedProbe":
        return cls(process_kernel, REFERENCE_PROCESS_S, PROCESS_INTERVAL_S, timer=False)

    def sample(self) -> None:
        if self._busy:  # a timer signal that arrives while the probe runs
            return
        self._busy = True
        t0 = time.perf_counter()
        self.probe()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        self._busy = False

    def maybe(self) -> None:
        """Between operations: probe again when the last probe is
        `interval_s` old, unless a timer does the probing."""
        if self.timer:
            return
        if not self.starts or time.perf_counter() - self.starts[-1] >= self.interval_s:
            self.sample()

    @contextlib.contextmanager
    def running(self):
        """Probe as the block starts, and with a timer also every
        `interval_s` from a timer signal and as it ends; without one, leave
        the rest to `maybe`.  The signal handler runs in this process's only
        thread, between two bytecodes of whatever that thread is doing."""
        self.sample()
        if not self.timer:
            yield self
            return
        old = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)
            self.sample()

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        """Indices of the probes that started in [t0, t1), widened around
        them to the NEAREST probes when fewer started there."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        if hi - lo < NEAREST:
            mid = (lo + hi) // 2
            lo = max(0, min(mid - NEAREST // 2, len(self.starts) - NEAREST))
            hi = lo + NEAREST
        return lo, hi

    def inside(self, t0: float, t1: float) -> float:
        """Time spent probing by probes that started in [t0, t1)."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return sum(self.durations[lo:hi])

    def factor(self, t0: float, t1: float) -> float:
        """The reference time over the mean probe time during [t0, t1)."""
        lo, hi = self._window(t0, t1)
        return self.reference_s / statistics.fmean(self.durations[lo:hi])

    def scaled(self, t0: float, elapsed: float) -> float:
        """A wall time taken from t0, less the probing in it, at reference speed."""
        return (elapsed - self.inside(t0, t0 + elapsed)) * self.factor(t0, t0 + elapsed)

    def median_s(self) -> float:
        return statistics.median(self.durations)
