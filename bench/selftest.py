#!/usr/bin/env python3
"""Smoke checks of the benchmark itself, at a size that runs in seconds.

    python3 bench/selftest.py

Exits 0 when every check holds.  The main one: the dlist oracle must reject
the seeded `remove()` defect in corpus/dlist/list.moo.
"""

from __future__ import annotations

import random
import sys
import time

import run
from speed import SpeedProbe
from tracer import ENTRY_POINTS, Tracer, invweave_modules, layer_metrics, span_cost_s
from workloads import WORKLOADS, Dlist


def expect(condition: bool, message: object) -> None:
    if not condition:
        raise SystemExit("selftest failed: %s" % (message,))


def failed_frac(w, iw, seed: int, count: int) -> float:
    w.in_process = True
    w.prepare(iw, random.Random(seed))
    try:
        _, latencies, failed = run.closed_loop(w, count=count)
    finally:
        w.close()
    return failed / len(latencies)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    iw = run.load_invweave()

    faulty = failed_frac(Dlist(checked=True, list_file="list.moo", pool=4), iw, 1, 4)
    expect(faulty > 0, "checked runs of the faulty list passed the oracle")
    print("faulty dlist, checked: failed_frac %.2f" % faulty)

    for name, make in WORKLOADS.items():
        frac = failed_frac(make(), iw, 1, 3)
        expect(frac == 0, "%s failed at smoke size" % name)
        print("%s: 3 operations pass" % name)

    tracer = Tracer(invweave_modules(), dict(ENTRY_POINTS, lexer=("tokenize", "no_such_function")))
    tracer.install()
    try:
        iw.parser.parse_unit("class A { }")
    finally:
        tracer.remove()
    expect(tracer.missing == ["lexer.no_such_function"], tracer.missing)
    unwrapped = iw.parser.tokenize is iw.lexer.tokenize and not hasattr(iw.lexer.tokenize, "__wrapped__")
    expect(unwrapped, "wrappers left in place")
    nesting = [(s.name, s.parent) for s in tracer.spans]
    expect(nesting == [("parse_unit", -1), ("tokenize", 0), ("validate_structure", 0)], nesting)
    counts = layer_metrics(tracer.spans, tuple(ENTRY_POINTS))
    expect(counts["lexer.tokens"] == 5 and counts["parser.nodes"] == 2, counts)
    expect(span_cost_s(calls=2000, repeats=3) > 0, "a traced call costs no more than an untraced one")
    print("tracer: missing entry point reported, nested spans counted, wrappers removed, overhead > 0")

    probe = SpeedProbe(interval_s=0.02)
    with probe.running():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        elapsed = time.perf_counter() - t0
    inside = probe.inside(t0, t0 + elapsed)
    expect(len(probe.durations) >= 5 and 0 < inside < elapsed, (len(probe.durations), inside, elapsed))
    expect(probe.scaled(t0, elapsed) > 0, "scaled time")
    print("speed probe: samples from the timer inside a busy loop, and its time is taken out")

    expect(run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0), "tail of 100 samples")
    expect(run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0), "tail of 3 samples")
    print("tail percentile rule holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
