"""Shared test machinery: corpus loading, random chain hierarchies,
random call scripts with their expected check-event traces, and a count of
checks re-checked after writes."""

from __future__ import annotations

import functools
import gc
import random
from dataclasses import dataclass
from pathlib import Path

from invweave import interp, recheck
from invweave.interp import ExecutionResult, run_program
from invweave.invspec import InvariantSpec, load_spec
from invweave.parser import parse_unit
from invweave.syntax import SourceUnit, merge_units
from invweave.weave import WovenArtifacts, swap_driver_constructors, weave_program

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"

TRANSPARENCY = sorted((CORPUS / "transparency").glob("t*.moo"))
GATING = sorted((CORPUS / "gating").glob("g*.moo"))


def load_program(moo_path: Path) -> tuple[SourceUnit, InvariantSpec]:
    unit = parse_unit(moo_path.read_text())
    spec = load_spec(moo_path.with_suffix(".json").read_text())
    return unit, spec


def load_dlist(fixed: bool = False) -> tuple[SourceUnit, InvariantSpec]:
    name = "list_fixed.moo" if fixed else "list.moo"
    unit = parse_unit((CORPUS / "dlist" / name).read_text())
    spec = load_spec((CORPUS / "dlist" / "invariants.json").read_text())
    return unit, spec


def dlist_driver(checked: bool) -> SourceUnit:
    name = "driver_checked.moo" if checked else "driver_plain.moo"
    return parse_unit((CORPUS / "dlist" / name).read_text())


def run_woven(
    unit: SourceUnit, spec: InvariantSpec, check_trace: bool = False
) -> tuple[ExecutionResult, WovenArtifacts]:
    """Weave, swap the driver's constructors to the exposed variants, and run."""
    artifacts = weave_program(unit, spec)
    swapped = swap_driver_constructors(unit, artifacts)
    merged = merge_units([swapped, artifacts.declarations_unit()])
    return run_program(merged, check_trace=check_trace), artifacts


# ---------------------------------------------------------------------------
# Random fully-specified chain hierarchies (depth <= 8, <= 7 members/class)
# ---------------------------------------------------------------------------


def make_chain_program(
    rng: random.Random, depth: int, max_members: int = 7
) -> tuple[SourceUnit, InvariantSpec]:
    """A linear chain C0 <- C1 <- ... <- C<depth>, every class specified, with
    int fields and int-bumping methods; every own field appears in the class's
    own predicates, so the interface bodies must equal the own-field sets."""
    lines: list[str] = []
    spec_entries: list[str] = []
    for i in range(depth + 1):
        n_fields = rng.randint(1, max(1, max_members - 1))
        n_methods = rng.randint(0, max_members - n_fields)
        fields = ["v%d_%d" % (i, k) for k in range(n_fields)]
        methods = ["m%d_%d" % (i, k) for k in range(n_methods)]
        header = "class C%d" % i
        if i > 0:
            header += " extends C%d" % (i - 1)
        lines.append(header + " {")
        for f in fields:
            lines.append("    protected int %s;" % f)
        lines.append("    public C%d() {" % i)
        if i > 0:
            lines.append("        super();")
        for f in fields:
            lines.append("        this.%s = 0;" % f)
        lines.append("    }")
        for k, m in enumerate(methods):
            target = fields[k % n_fields]
            lines.append("    public void %s() {" % m)
            lines.append("        this.%s = this.%s + 1;" % (target, target))
            lines.append("    }")
        lines.append("}")
        preds = ", ".join('"%s >= 0"' % f for f in fields)
        spec_entries.append('{"name": "C%d", "invariant": [%s]}' % (i, preds))
    source = "\n".join(lines)
    spec_doc = '{"classes": [%s]}' % ", ".join(spec_entries)
    return parse_unit(source), load_spec(spec_doc)


@functools.cache
def woven_chain_corpus() -> tuple[tuple[SourceUnit, InvariantSpec, WovenArtifacts], ...]:
    """The acceptance tests' 500 random chains (seed `0xC0FFEE`, depth <= 8),
    each with its woven artifacts.  Built once per process and shared, so
    callers must not mutate what it returns.  Cyclic garbage collection is
    paused while it is built: the corpus is kept, and the collections would
    only traverse it again and again."""
    rng = random.Random(0xC0FFEE)
    corpus = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(500):
            unit, spec = make_chain_program(rng, depth=rng.randint(0, 8))
            corpus.append((unit, spec, weave_program(unit, spec)))
    finally:
        if was_enabled:
            gc.enable()
    return tuple(corpus)


# ---------------------------------------------------------------------------
# Random call scripts over the gating corpus
# ---------------------------------------------------------------------------


@dataclass
class GatingClass:
    name: str
    type_args: str  # e.g. "<int>" or ""
    methods: dict[str, str]  # method name -> literal argument list text


GATING_PROFILES: dict[str, list[GatingClass]] = {
    "g1": [
        GatingClass(
            "Tally",
            "",
            {"bump": "", "bumpTwice": "", "reset": "", "value": ""},
        )
    ],
    "g2": [
        GatingClass(
            "Base",
            "<int>",
            {"store": "7", "mark": "", "markTwice": "", "marks": ""},
        ),
        GatingClass(
            "Mid",
            "<string>",
            {
                "store": '"s"',
                "mark": "",
                "markTwice": "",
                "marks": "",
                "poke": "",
                "extra": "",
            },
        ),
        GatingClass(
            "Leaf",
            "",
            {
                "store": '"v"',
                "mark": "",
                "markTwice": "",
                "marks": "",
                "poke": "",
                "extra": "",
                "label": '"x"',
            },
        ),
    ],
    "g3": [
        GatingClass(
            "Meter",
            "",
            {
                "up": "",
                "down": "",
                "level": "",
                "tick": "",
                "headroom": "",
                "ticks": "",
            },
        )
    ],
}


@dataclass
class ScriptStep:
    kind: str  # "new" | "call"
    var: str
    class_name: str  # original (specified) class
    method: str = ""


def make_script(rng: random.Random, profile: list[GatingClass], length: int) -> tuple[str, list[ScriptStep]]:
    """Random driver text plus the symbolic step list used as the oracle."""
    steps: list[ScriptStep] = []
    lines: list[str] = ["driver {"]
    vars_made: list[tuple[str, GatingClass]] = []
    for i in range(length):
        if not vars_made or rng.random() < 0.25:
            gc = rng.choice(profile)
            var = "x%d" % len(vars_made)
            lines.append(
                "    %s%s %s = new Exposed%s%s();"
                % (gc.name, gc.type_args, var, gc.name, gc.type_args)
            )
            vars_made.append((var, gc))
            steps.append(ScriptStep("new", var, gc.name))
        else:
            var, gc = rng.choice(vars_made)
            method = rng.choice(sorted(gc.methods))
            lines.append("    %s.%s(%s);" % (var, method, gc.methods[method]))
            steps.append(ScriptStep("call", var, gc.name, method))
    lines.append("}")
    return "\n".join(lines), steps


def expected_trace(steps: list[ScriptStep], trace: list[str]) -> str | None:
    """Match the trace against the script: one construction per `new`, one
    entry/exit pair per top-level call, nothing else.  Returns an error
    description or None."""
    ids: dict[str, str] = {}
    pos = 0
    for step in steps:
        if step.kind == "new":
            if pos >= len(trace):
                return "missing construction event for %s" % step.var
            parts = trace[pos].split()
            if parts[0] != "CHECK" or parts[2] != step.class_name or parts[3] != "construction" or parts[4] != "<init>":
                return "bad construction event %r for %s" % (trace[pos], step.var)
            ids[step.var] = parts[1]
            pos += 1
        else:
            if pos + 1 >= len(trace):
                return "missing entry/exit events for %s.%s" % (step.var, step.method)
            entry = trace[pos].split()
            exit_ = trace[pos + 1].split()
            want_entry = ["CHECK", ids[step.var], step.class_name, "entry", step.method]
            want_exit = ["CHECK", ids[step.var], step.class_name, "exit", step.method]
            if entry != want_entry:
                return "bad entry event %r (want %r)" % (trace[pos], " ".join(want_entry))
            if exit_ != want_exit:
                return "bad exit event %r (want %r)" % (trace[pos + 1], " ".join(want_exit))
            pos += 2
    if pos != len(trace):
        return "unexpected extra events: %r" % trace[pos:]
    return None


def counting_settles(monkeypatch) -> list:
    """Counts, from now on, of the calls of check bodies with a re-check plan that are not
    replayed, and of those run in full: [calls, runs].  The calls settled from a pass
    (`recheck`) are the difference."""
    replaying, counts = interp._replaying, [0, 0]

    def counted(check, name, walks):
        def run(*args):
            counts[0] += 1
            counts[1] += 1
            return check(*args)

        return replaying(run if walks and recheck.plan(*walks) else check, name, walks)

    def settled(done) -> None:
        counts[0] += bool(done)

    monkeypatch.setattr(interp, "_replaying", counted)
    watching_settles(monkeypatch, settled)
    return counts


def watching_settles(monkeypatch, count) -> None:
    """From now on, `count(settled)` is called after each re-check that a plan's `settle` makes,
    with what it returned: True when it settled the check."""
    plan = recheck.plan

    def watched(*args):
        if (made := plan(*args)) is None:
            return None

        def settle(*args):
            count(settled := made.settle(*args))
            return settled

        return recheck._Plan(made.visitor, settle, made.shapes)

    monkeypatch.setattr(recheck, "plan", watched)
