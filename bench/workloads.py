"""The benchmark's workloads.

Each workload is a closed loop: one client sends the next operation only when
the last one has returned.  `prepare` is the set-up, `op(i)` is the timed
operation and `check(i, result)` compares its result against an oracle that
does not come from invweave (a Python model, a trace rule, a count the
generator knows, or the README's CLI contract).  The oracle runs outside the
timed region.  `iw` is a namespace holding the invweave modules; every call
goes through a module attribute so that the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Any

from gen import (
    GATING_PROFILES,
    ScriptStep,
    make_chain_corpus,
    make_dlist_mix,
    make_script,
    trace_mismatch,
)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
EXPECTED = Path(__file__).resolve().parent / "expected"
SCRATCH = ROOT / ".bench_out"

# `python -m invweave.cli ARGS`, writing the process's own peak resident
# memory to stderr as it exits.  The resource module cannot give it: Linux
# counts the memory of the process that started a child in the child's
# figure too.
CLI_MAIN = """\
import runpy, sys
try:
    runpy.run_module("invweave.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        sys.stderr.write("".join(line for line in status if line.startswith("VmHWM:")))
"""


def errors(diags: list) -> list:
    return [d for d in diags if d.severity == "error"]


def woven_size(files: dict[str, str]) -> int:
    return sum(len(text.encode()) for text in files.values())


def warm_up(iw: SimpleNamespace) -> None:
    """Run the README's plain dlist example through `cli.main` once, so lazy
    imports are done before timing and a broken checkout stops here."""
    out = io.StringIO()
    argv = ["run", str(CORPUS / "dlist" / "list_fixed.moo"), str(CORPUS / "dlist" / "driver_plain.moo")]
    with contextlib.redirect_stdout(out):
        code = iw.cli.main(argv)
    if code != 0 or out.getvalue() != "testRemove complete\n":
        raise RuntimeError("warm-up run gave exit %r, output %r" % (code, out.getvalue()))


class Workload:
    traced_ops = 0  # operations in a traced run, fixed so that counts repeat
    programs_per_op = 1  # reported times are per program
    stop_every = 1  # a timed run ends only after a multiple of this many operations
    woven_bytes = 0
    peak_len = 0  # longest list any dlist mix reaches

    def prepare(self, iw: SimpleNamespace, rng: random.Random) -> None:
        raise NotImplementedError

    def reset(self, i: int) -> None:
        """Untimed preparation for operation i."""

    def op(self, i: int) -> Any:
        raise NotImplementedError

    def check(self, i: int, result: Any) -> bool:
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed work after the loop, such as sizing inputs it never reached."""

    def close(self) -> None:
        """Release what `prepare` created."""


class Dlist(Workload):
    """Seeded call mixes on the fixed DLinkedList; checked or plain.

    One operation is one mix of 600 calls whose list grows to 240 elements:
    the sizing of the hot path that the checked run was first measured at
    (600 calls, 1201 checks, about 3 s), so that a change whose gain grows
    with the list length shows at a length users reach."""

    POOL = 8
    CALLS = 600
    PEAK_LEN = 240

    def __init__(self, checked: bool, list_file: str = "list_fixed.moo", pool: int = POOL):
        self.checked = checked
        self.list_file = list_file
        self.pool = pool
        self.traced_ops = 4 if checked else 8

    def prepare(self, iw, rng):
        self.iw = iw
        unit = iw.parser.parse_unit((CORPUS / "dlist" / self.list_file).read_text())
        spec = iw.invspec.load_spec((CORPUS / "dlist" / "invariants.json").read_text())
        artifacts = iw.weave.weave_program(unit, spec)
        self.woven_bytes = woven_size(iw.weave.render_artifacts(artifacts))
        base = [unit, artifacts.declarations_unit()] if self.checked else [unit]
        cls = "ExposedDLinkedList" if self.checked else "DLinkedList"
        self.mixes = [make_dlist_mix(rng, self.CALLS, self.PEAK_LEN) for _ in range(self.pool)]
        self.peak_len = max(m.peak_len for m in self.mixes)
        self.programs = [
            iw.syntax.merge_units(base + [iw.parser.parse_unit(m.driver(cls))]) for m in self.mixes
        ]

    def op(self, i):
        return self.iw.interp.run_program(self.programs[i % self.pool], check_trace=True)

    def check(self, i, result):
        mix = self.mixes[i % self.pool]
        if result.violation is not None or result.output != mix.expected_output:
            return False
        if not self.checked:
            return result.trace == []
        steps = [ScriptStep("new", "ls", "DLinkedList")]
        steps += [ScriptStep("call", "ls", "DLinkedList", m) for m in mix.calls]
        return len(result.trace) == 1 + 2 * len(mix.calls) and trace_mismatch(steps, result.trace) is None


class ChainWeave(Workload):
    """Random specified chains taken from text to rendered artifacts.

    One operation is a depth sweep: the next chain of each depth 0..8.  Weave
    time grows steeply with depth, so single chains would make the median
    depend on how many chains of each depth a seed happens to draw."""

    POOL = 500
    traced_ops = 12

    def prepare(self, iw, rng):
        self.iw = iw
        self.chains = make_chain_corpus(rng, self.POOL)
        buckets = [[i for i, c in enumerate(self.chains) if c.depth == d] for d in range(9)]
        self.buckets = [b for b in buckets if b]
        self.programs_per_op = len(self.buckets)
        self.sizes: dict[int, int] = {}

    def _sweep(self, i):
        return [b[i % len(b)] for b in self.buckets]

    def _weave(self, k):
        iw, chain = self.iw, self.chains[k]
        unit = iw.parser.parse_unit(chain.source)
        spec = iw.invspec.load_spec(chain.spec)
        diags = errors(iw.typecheck.typecheck_program(unit)) + errors(iw.invspec.validate_spec(spec, unit))
        artifacts = iw.weave.weave_program(unit, spec)
        return diags, artifacts, iw.weave.render_artifacts(artifacts)

    def op(self, i):
        return [self._weave(k) for k in self._sweep(i)]

    def check(self, i, result):
        return all(self._check_one(k, r) for k, r in zip(self._sweep(i), result))

    def _check_one(self, k, result):
        diags, artifacts, files = result
        chain = self.chains[k]
        report = artifacts.report
        ok = (
            not diags
            and report.within_bound()
            and len(artifacts.exposed_classes) == chain.depth + 1
            and all(
                report.per_class[name]["interface_signatures"] == n
                for name, n in chain.own_fields.items()
            )
        )
        if ok and k not in self.sizes:
            # First sight of this chain: the woven unit must typecheck on its own.
            ok = not errors(self.iw.typecheck.typecheck_program(artifacts.merged_unit()))
            self.sizes[k] = woven_size(files)
        return ok

    def finish(self):
        """woven_bytes is the rendered size of one depth sweep, averaged over
        the corpus: the mean size at each depth, summed over the depths."""
        for b in self.buckets:
            for k in b:
                if k not in self.sizes:
                    self.sizes[k] = woven_size(self._weave(k)[2])
        self.woven_bytes = sum(sum(self.sizes[k] for k in b) / len(b) for b in self.buckets)


class GatingScripts(Workload):
    """Many short call scripts over the three woven gating hierarchies.

    One operation is a batch of 21 scripts: for each hierarchy, one script of
    each length in LENGTHS, in seeded order.  A script's cost depends mostly
    on its hierarchy and its length, so every batch costs about the same, and
    a batch lasts long enough that a single pause does not decide the tail
    percentile."""

    BATCHES = 150
    LENGTHS = (3, 4, 6, 7, 9, 10, 12)
    programs_per_op = len(GATING_PROFILES) * len(LENGTHS)
    traced_ops = 15

    def prepare(self, iw, rng):
        self.iw = iw
        self.bases = {}
        self.woven_bytes = 0
        for g in sorted(GATING_PROFILES):
            unit = iw.parser.parse_unit((CORPUS / "gating" / (g + ".moo")).read_text())
            spec = iw.invspec.load_spec((CORPUS / "gating" / (g + ".json")).read_text())
            artifacts = iw.weave.weave_program(unit, spec)
            self.woven_bytes += woven_size(iw.weave.render_artifacts(artifacts))
            self.bases[g] = iw.syntax.merge_units([unit, artifacts.declarations_unit()])
        self.batches = []
        for _ in range(self.BATCHES):
            shape = [(g, n) for g in sorted(GATING_PROFILES) for n in self.LENGTHS]
            rng.shuffle(shape)
            self.batches.append([(g, *make_script(rng, GATING_PROFILES[g], n)) for g, n in shape])

    def _batch(self, i):
        return self.batches[i % self.BATCHES]

    def op(self, i):
        iw, out = self.iw, []
        for g, text, _ in self._batch(i):
            merged = iw.syntax.merge_units([self.bases[g], iw.parser.parse_unit(text)])
            diags = errors(iw.typecheck.typecheck_program(merged))
            out.append((diags, iw.interp.run_program(merged, check_trace=True)))
        return out

    def check(self, i, result):
        return all(
            not diags
            and res.violation is None
            and res.output == []
            and trace_mismatch(steps, res.trace) is None
            for (_, _, steps), (diags, res) in zip(self._batch(i), result)
        )


class CorpusCli(Workload):
    """`invweave weave | report | run` as one subprocess at a time over the
    shipped corpus, checked against the README's contract.  Each subprocess
    runs `invweave.cli` as `python -m` does (see CLI_MAIN).

    A timed run ends on a whole number of rounds, at least two, so that every
    run does each command equally often and the tail percentile rests on the
    same sample count."""

    in_process = False  # the traced run calls cli.main in-process instead
    peak_kb = 0  # largest peak resident memory of a CLI subprocess

    def prepare(self, iw, rng):
        self.iw = iw
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        shutil.rmtree(SCRATCH, ignore_errors=True)
        dl = CORPUS / "dlist"
        spec_dl = str(dl / "invariants.json")
        woven = {}
        for variant in ("list.moo", "list_fixed.moo"):
            out = SCRATCH / ("woven_" + variant[:-4])
            self._quiet(["weave", str(dl / variant), "--spec", spec_dl, "--out", str(out)])
            woven[variant] = sorted(str(p) for p in out.glob("*.moo"))
        testremove = (0, "testRemove complete\n")
        ops: list[tuple[list[str], Any]] = []
        for variant in ("list.moo", "list_fixed.moo"):
            src = str(dl / variant)
            ops.append((["run", src, str(dl / "driver_plain.moo")], testremove))
            checked = (
                (3, "VIOLATION DLinkedList 0 exit remove\n") if variant == "list.moo" else testremove
            )
            ops.append((["run", src] + woven[variant] + [str(dl / "driver_checked.moo")], checked))
            ops += self._weave_and_report(src, spec_dl, variant[:-4])
        for t in sorted((CORPUS / "transparency").glob("t*.moo")):
            expected = (EXPECTED / (t.stem + ".out")).read_text()
            ops.append((["run", str(t)], (0, expected)))
            ops += self._weave_and_report(str(t), str(t.with_suffix(".json")), t.stem)
        for g in sorted((CORPUS / "gating").glob("g*.moo")):
            ops += self._weave_and_report(str(g), str(g.with_suffix(".json")), g.stem)
        self.round = ops
        self.traced_ops = len(ops)
        self.stop_every = 2 * len(ops)
        self.rng = rng
        self.order: list[int] = []
        self.sizes: dict[str, int] = {}

    def _weave_and_report(self, src, spec, tag):
        classes = [c["name"] for c in json.loads(Path(spec).read_text())["classes"]]
        files = {"InvV.moo", "report.json"}
        files |= {p + c + ".moo" for c in classes for p in ("IExposed", "Exposed")}
        out = SCRATCH / "weave" / tag
        weave = ["weave", src, "--spec", spec, "--out", str(out)]
        return [(weave, ("files", out, sorted(files))), (["report", src, "--spec", spec], ("report", classes))]

    def _quiet(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            if self.iw.cli.main(argv) != 0:
                raise RuntimeError("set-up step failed: invweave %s" % " ".join(argv))

    def _round_op(self, i):
        """Operations come in whole rounds over the corpus, each round in a
        seeded order."""
        while len(self.order) <= i:
            perm = list(range(len(self.round)))
            self.rng.shuffle(perm)
            self.order += perm
        return self.round[self.order[i]]

    def reset(self, i):
        argv, expect = self._round_op(i)
        if expect[0] == "files":
            shutil.rmtree(expect[1], ignore_errors=True)

    def op(self, i):
        argv = self._round_op(i)[0]
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.iw.cli.main(argv)
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_MAIN] + argv,
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
        )
        hwm = proc.stderr.rsplit("VmHWM:", 1)[1:]
        self.peak_kb = max(self.peak_kb, int(hwm[0].split()[0]) if hwm else 0)
        return proc.returncode, proc.stdout

    def check(self, i, result):
        code, stdout = result
        argv, expect = self._round_op(i)
        if expect[0] == "files":
            out, names = expect[1], expect[2]
            written = sorted(os.listdir(out)) if out.is_dir() else []
            lines = ["wrote %s" % os.path.join(str(out), n) for n in names]
            ok = code == 0 and written == names and stdout.splitlines() == lines
            if ok:
                self.sizes[str(out)] = sum((out / n).stat().st_size for n in names)
            return ok
        if expect[0] == "report":
            lines = stdout.splitlines()
            return (
                code == 0
                and [ln.split(":")[0] for ln in lines[:-4]] == ["class " + c for c in expect[1]]
                and lines[-1].startswith("SPACE PASS (")
            )
        return (code, stdout) == expect

    def finish(self):
        for argv, expect in self.round:
            if expect[0] == "files" and str(expect[1]) not in self.sizes:
                shutil.rmtree(expect[1], ignore_errors=True)
                self._quiet(argv)
                self.sizes[str(expect[1])] = sum((expect[1] / n).stat().st_size for n in expect[2])
        self.woven_bytes = sum(self.sizes.values())

    def close(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)


WORKLOADS = {
    "dlist-checked": lambda: Dlist(checked=True),
    "dlist-plain": lambda: Dlist(checked=False),
    "chain-weave": ChainWeave,
    "gating-scripts": GatingScripts,
    "corpus-cli": CorpusCli,
}
