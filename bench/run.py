#!/usr/bin/env python3
"""The invweave benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; invweave is imported from its `src/`.
With `--trace 0` the workload runs in a closed loop for S seconds and the
last line of stdout is a JSON object with the end-to-end metrics.  With
`--trace 1` a fixed number of operations runs traced and the JSON object
holds the per-layer metrics.  The lines before
it are a readable report.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import workloads
from speed import SpeedProbe
from tracer import ENTRY_POINTS, Tracer, invweave_modules, layer_metrics, span_cost_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

LAYERS = ("lexer", "parser", "typecheck", "invspec", "exposure", "weave", "printer", "interp", "cli")
# Set-up is repeated at least SETUP_MIN_REPEATS times and until it has taken
# SETUP_MIN_S in all, at most SETUP_MAX_REPEATS times; setup_s is the median.
SETUP_MIN_REPEATS = 7
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 31
STARTUP_REPEATS = 3

# What one operation is on each workload, under the name the docs use for it.
OP_NAMES = {
    "dlist-checked": "checked_run",
    "dlist-plain": "plain_run",
    "chain-weave": "weave",
    "gating-scripts": "script",
    "corpus-cli": "cli",
}


def load_invweave() -> SimpleNamespace:
    """Import invweave afresh, so that repeated set-ups each pay the import."""
    for name in [n for n in sys.modules if n == "invweave" or n.startswith("invweave.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {layer: importlib.import_module("invweave." + layer) for layer in LAYERS + ("syntax",)}
    return SimpleNamespace(**mods)


def set_up(name: str, seed: int):
    iw = load_invweave()
    w = workloads.WORKLOADS[name]()
    w.prepare(iw, random.Random(seed))
    workloads.warm_up(iw)
    return w


def one_op(w, i: int, tracer=None) -> tuple[float, float, bool, object]:
    """Run operation i and check it; return its start, its latency in
    seconds, whether it passed, and what to show if it did not.  An exception
    from any layer, or a result the oracle rejects, is a failed operation."""
    perf = time.perf_counter
    w.reset(i)
    t0 = perf()
    try:
        result, raised = w.op(i), False
    except Exception:
        result, raised = traceback.format_exc(), True
    latency = perf() - t0
    if tracer is not None:
        tracer.paused = True
    try:
        ok = not raised and w.check(i, result)
    except Exception:
        ok, raised, result = False, True, traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.paused = False
    return t0, latency, ok, result if raised else repr(result)[:2000]


def report_failure(failed: int, i: int, shown: object) -> int:
    if failed == 0:
        print("first failed operation (#%d):" % i, file=sys.stderr)
        print(shown, file=sys.stderr)
    return failed + 1


def closed_loop(w, seconds: float | None = None, count: int | None = None, probe=None, tracer=None):
    """Run operations one after another, for `seconds` (and on to a multiple
    of the workload's `stop_every`) or `count` times; return their start
    times and latencies in seconds, and the number that failed."""
    starts: list[float] = []
    latencies: list[float] = []
    failed = 0
    perf = time.perf_counter
    deadline = perf() + seconds if seconds is not None else math.inf
    i = 0
    while (i < count) if count is not None else (perf() < deadline or i % w.stop_every):
        t0, latency, ok, shown = one_op(w, i, tracer)
        starts.append(t0)
        latencies.append(latency)
        if not ok:
            failed = report_failure(failed, i, shown)
        if probe is not None:
            probe.maybe()
        i += 1
    return starts, latencies, failed


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile that still has at least ten samples beyond it,
    as (value, percentile); the maximum when there are fewer samples."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit(),
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_timed(args, meta: dict) -> str:
    in_subprocesses = args.workload == "corpus-cli"
    # Set-up runs in this process on every workload, so the in-process probe
    # scales it; corpus-cli's operations are subprocesses and have their own.
    setup_probe = SpeedProbe()
    probe = SpeedProbe.for_processes() if in_subprocesses else setup_probe
    setups: list[tuple[float, float]] = []

    def timed_set_up():
        gc.collect()
        with setup_probe.running():
            t0 = time.perf_counter()
            w = set_up(args.workload, args.seed)
            setups.append((t0, time.perf_counter() - t0))
        return w

    w = timed_set_up()
    try:
        with probe.running():
            starts, latencies, failed = closed_loop(w, seconds=args.seconds, probe=probe)
        w.finish()
    finally:
        w.close()
    # Peak memory is read before the further set-ups, which only time set-up.
    if in_subprocesses:
        peak_mb = w.peak_kb / 1024.0
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_MIN_REPEATS or (
        sum(d for _, d in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
    ):
        timed_set_up().close()
    raw_ms = [(x - probe.inside(t, t + x)) * 1000.0 / w.programs_per_op for t, x in zip(starts, latencies)]
    ms = [probe.scaled(t, x) * 1000.0 / w.programs_per_op for t, x in zip(starts, latencies)]
    raw_setup_s = [d - setup_probe.inside(t, t + d) for t, d in setups]
    setup_s = statistics.median(setup_probe.scaled(t, d) for t, d in setups)
    tail_ms, tail_pct = tail(ms)
    op = OP_NAMES[args.workload]
    meta.update(
        samples=len(ms),
        tail_percentile=tail_pct,
        raw_setup_s=raw_setup_s,
        raw_op_ms_p50=statistics.median(raw_ms),
        raw_op_ms_tail=tail(raw_ms)[0],
        probe_median_ms=1000 * probe.median_s(),
        probes=len(probe.durations),
        setup_probe_median_ms=1000 * setup_probe.median_s(),
        peak_len=w.peak_len or None,
    )
    print("# meta " + json.dumps(meta))
    print("times are scaled to the reference speed (bench/speed.py); raw wall times in brackets")
    print("setup_s            %12.4f s   [%.4f] median of %d set-ups"
          % (setup_s, statistics.median(raw_setup_s), len(setups)))
    print("op_ms.p50          %12.3f ms  [%.3f] %s_ms.p50 over %d operations"
          % (statistics.median(ms), statistics.median(raw_ms), op, len(ms)))
    print("op_ms.tail         %12.3f ms  [%.3f] %s_ms.tail, p%.1f of %d"
          % (tail_ms, tail(raw_ms)[0], op, tail_pct, len(ms)))
    print("woven_bytes        %12.1f bytes" % w.woven_bytes)
    print("peak_rss_mb        %12.2f MB" % peak_mb)
    print("failed_frac        %12.4f     (%d of %d)" % (failed / len(ms), failed, len(ms)))
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.tail": (tail_ms, "ms"),
        "woven_bytes": (w.woven_bytes, "bytes"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return result_line(failed == 0, len(ms), failed, metrics)


def startup_s() -> float:
    """Median wall time of a fresh interpreter that only imports the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import invweave.cli"], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_traced(args, meta: dict) -> str:
    """A fixed number of operations, traced; set-up is not traced.  The
    tracing overhead is the spans recorded times what one span adds to a
    call (`span_cost_s`)."""
    iw = load_invweave()
    t0 = time.perf_counter()
    w = workloads.WORKLOADS[args.workload]()
    w.in_process = True
    w.prepare(iw, random.Random(args.seed))
    workloads.warm_up(iw)
    setup = time.perf_counter() - t0
    tracer = Tracer(invweave_modules(), ENTRY_POINTS)
    tracer.install()
    try:
        _, latencies, failed = closed_loop(w, count=w.traced_ops, tracer=tracer)
    finally:
        tracer.remove()
        w.close()
    span_s = span_cost_s()

    layers = LAYERS + ("syntax",)
    metrics = layer_metrics(tracer.spans, layers)
    wall = sum(latencies)
    metrics.update(
        {
            "cli.startup_s": startup_s(),
            "dlist.peak_len": w.peak_len,
            "trace.wall_s": wall,
            "trace.overhead_s": len(tracer.spans) * span_s,
            "trace.unattributed_s": wall - sum(s.self_s for s in tracer.spans),
            "trace.missing": len(tracer.missing),
        }
    )
    meta.update(
        operations=w.traced_ops,
        setup_s=setup,
        spans=len(tracer.spans),
        span_cost_us=1e6 * span_s,
        missing_entry_points=tracer.missing,
    )
    print("# meta " + json.dumps(meta))
    print("set-up %.4f s (untraced); %d operations %.4f s; %d spans at %.2f us each"
          % (setup, w.traced_ops, wall, len(tracer.spans), 1e6 * span_s))
    print("layer self time over the traced operations, and its share of their wall time:")
    for layer in layers:
        key = "weave.self_s" if layer == "weave" else layer + ".s"
        print("  %-10s %10.4f s  %5.1f%%" % (layer, metrics[key], 100 * metrics[key] / wall))
    weave_s = sum(s.duration for s in tracer.spans if s.name == "weave_program")
    if weave_s:
        print("  weave_program %.4f s inclusive, of which its self-typecheck %.4f s (%.1f%%)"
              % (weave_s, metrics["weave.selfcheck_s"], 100 * metrics["weave.selfcheck_s"] / weave_s))
    print("per-layer metrics:")
    result = {}
    for key, value in sorted(metrics.items()):
        unit = "s" if key.endswith(("_s", ".s")) else "bytes" if key.endswith("bytes") else "count"
        result[key] = (value, unit)
        print("  %-26s %14.6g %s" % (key, value, unit))
    return result_line(failed == 0, w.traced_ops, failed, result)


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that peak memory is
    its own; exits non-zero if any run fails or reports a failed operation."""
    code = 0
    for name in OP_NAMES:
        print("== %s" % name, flush=True)
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__] + argv, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        if proc.returncode != 0 or not json.loads(last[0]).get("correct"):
            code = 1
    return code


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(OP_NAMES) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "invweave" / "__init__.py").is_file():
        print("no invweave sources under %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    meta = metadata(args)
    line = run_traced(args, meta) if args.trace else run_timed(args, meta)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
