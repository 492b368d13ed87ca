"""Seeded input generators and their reference models.

Every generator takes a `random.Random` and returns MiniOO source text (and,
where the benchmark checks outputs, what the output must be).  The shapes are
copied from the test suite's helpers rather than imported from it, so that a
refactor of the tests cannot change what the benchmark measures.  Nothing
here imports invweave.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# dlist: seeded call mixes on DLinkedList, with a Python list as the model
# ---------------------------------------------------------------------------

DLIST_METHODS = ("add", "addFirst", "remove", "contains", "get", "size", "removeFirst")


@dataclass
class DlistMix:
    """One driver's worth of calls.  `body` holds the statements after the
    constructor line; `calls` is the method of each top-level call."""

    body: list[str]
    calls: list[str]
    expected_output: list[str]
    peak_len: int

    def driver(self, class_name: str) -> str:
        ctor = "    List<string> ls = new %s<string>();" % class_name
        return "\n".join(["driver {", ctor] + self.body + ["}"])


def make_dlist_mix(rng: random.Random, n_calls: int, peak_len: int) -> DlistMix:
    """A mix whose list length follows a ramp from 0 to about `peak_len` over
    the `n_calls` calls: the mix grows the list while it is below the ramp and
    shrinks it while it is above.  The invariant's cost per check is linear
    in the length, so a fixed ramp makes the cost of a mix about the same
    from seed to seed, while the list still reaches hundreds of elements."""
    model: list[str] = []
    body: list[str] = []
    calls: list[str] = []
    out: list[str] = []
    peak = 0
    for t in range(n_calls):
        n = len(model)
        growing = n < peak_len * (t + 1) / n_calls
        weights = {
            "add": 6 if growing else 1,
            "addFirst": 3 if growing else 1,
            "remove": (1 if growing else 3) if n else 0,
            "removeFirst": (1 if growing else 2) if n else 0,
            "contains": 1 if growing else 2,
            "get": (1 if growing else 2) if n else 0,
            "size": 1,
        }
        method = rng.choices(DLIST_METHODS, [weights[m] for m in DLIST_METHODS])[0]
        value = "k%d" % rng.randrange(max(4, peak_len))
        if method == "add":
            model.append(value)
            body.append('    ls.add("%s");' % value)
        elif method == "addFirst":
            model.insert(0, value)
            body.append('    ls.addFirst("%s");' % value)
        elif method == "remove":
            if rng.random() < 0.75:
                value = rng.choice(model)
            found = value in model
            if found:
                model.remove(value)
            body.append('    print(ls.remove("%s"));' % value)
            out.append("true" if found else "false")
        elif method == "removeFirst":
            body.append("    print(ls.removeFirst());")
            out.append(model.pop(0))
        elif method == "contains":
            body.append('    print(ls.contains("%s"));' % value)
            out.append("true" if value in model else "false")
        elif method == "get":
            i = rng.randrange(n)
            body.append("    print(ls.get(%d));" % i)
            out.append(model[i])
        else:
            body.append("    print(ls.size());")
            out.append(str(n))
        calls.append(method)
        peak = max(peak, len(model))
    return DlistMix(body, calls, out, peak)


# ---------------------------------------------------------------------------
# chain-weave: fully specified single-inheritance chains
# ---------------------------------------------------------------------------


@dataclass
class Chain:
    source: str
    spec: str
    depth: int
    own_fields: dict[str, int]  # class name -> number of own fields


def make_chain(rng: random.Random, depth: int, max_members: int = 7) -> Chain:
    """A chain C0 <- C1 <- ... <- C<depth> of int fields and int-bumping
    methods, every class specified over all its own fields.  Draws from the
    generator in the same order as the acceptance corpus does, so
    `random.Random(0xC0FFEE)` with depth `rng.randint(0, 8)` per chain
    reproduces it."""
    lines: list[str] = []
    entries: list[str] = []
    own_fields: dict[str, int] = {}
    for i in range(depth + 1):
        n_fields = rng.randint(1, max(1, max_members - 1))
        n_methods = rng.randint(0, max_members - n_fields)
        fields = ["v%d_%d" % (i, k) for k in range(n_fields)]
        header = "class C%d" % i + (" extends C%d" % (i - 1) if i else "")
        lines.append(header + " {")
        lines.extend("    protected int %s;" % f for f in fields)
        lines.append("    public C%d() {" % i)
        if i:
            lines.append("        super();")
        lines.extend("        this.%s = 0;" % f for f in fields)
        lines.append("    }")
        for k in range(n_methods):
            target = fields[k % n_fields]
            lines.append("    public void m%d_%d() {" % (i, k))
            lines.append("        this.%s = this.%s + 1;" % (target, target))
            lines.append("    }")
        lines.append("}")
        preds = ", ".join('"%s >= 0"' % f for f in fields)
        entries.append('{"name": "C%d", "invariant": [%s]}' % (i, preds))
        own_fields["C%d" % i] = n_fields
    spec = '{"classes": [%s]}' % ", ".join(entries)
    return Chain("\n".join(lines), spec, depth, own_fields)


def make_chain_corpus(rng: random.Random, count: int) -> list[Chain]:
    return [make_chain(rng, depth=rng.randint(0, 8)) for _ in range(count)]


# ---------------------------------------------------------------------------
# gating-scripts: short call scripts over the gating hierarchies
# ---------------------------------------------------------------------------


@dataclass
class GatingClass:
    name: str
    type_args: str  # e.g. "<int>" or ""
    methods: dict[str, str]  # method name -> literal argument list text


GATING_PROFILES: dict[str, list[GatingClass]] = {
    "g1": [GatingClass("Tally", "", {"bump": "", "bumpTwice": "", "reset": "", "value": ""})],
    "g2": [
        GatingClass("Base", "<int>", {"store": "7", "mark": "", "markTwice": "", "marks": ""}),
        GatingClass(
            "Mid",
            "<string>",
            {"store": '"s"', "mark": "", "markTwice": "", "marks": "", "poke": "", "extra": ""},
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
            {"up": "", "down": "", "level": "", "tick": "", "headroom": "", "ticks": ""},
        )
    ],
}


@dataclass
class ScriptStep:
    kind: str  # "new" | "call"
    var: str
    class_name: str  # original (specified) class
    method: str = ""


def make_script(
    rng: random.Random, profile: list[GatingClass], length: int
) -> tuple[str, list[ScriptStep]]:
    """Driver text constructing Exposed variants and calling their public
    methods at top level, plus the symbolic steps the trace must follow."""
    steps: list[ScriptStep] = []
    lines: list[str] = ["driver {"]
    made: list[tuple[str, GatingClass]] = []
    for _ in range(length):
        if not made or rng.random() < 0.25:
            gc = rng.choice(profile)
            var = "x%d" % len(made)
            lines.append(
                "    %s%s %s = new Exposed%s%s();" % (gc.name, gc.type_args, var, gc.name, gc.type_args)
            )
            made.append((var, gc))
            steps.append(ScriptStep("new", var, gc.name))
        else:
            var, gc = rng.choice(made)
            method = rng.choice(sorted(gc.methods))
            lines.append("    %s.%s(%s);" % (var, method, gc.methods[method]))
            steps.append(ScriptStep("call", var, gc.name, method))
    lines.append("}")
    return "\n".join(lines), steps


def trace_mismatch(steps: list[ScriptStep], trace: list[str]) -> str | None:
    """One construction event per `new`, one entry/exit pair per top-level
    call, nothing else.  Returns a description of the first difference, or
    None when the trace matches."""
    ids: dict[str, str] = {}
    pos = 0
    for step in steps:
        if step.kind == "new":
            parts = trace[pos].split() if pos < len(trace) else []
            if parts[:1] != ["CHECK"] or parts[2:] != [step.class_name, "construction", "<init>"]:
                return "bad construction event at %d for %s" % (pos, step.var)
            ids[step.var] = parts[1]
            pos += 1
        else:
            for phase in ("entry", "exit"):
                want = ["CHECK", ids[step.var], step.class_name, phase, step.method]
                if pos >= len(trace) or trace[pos].split() != want:
                    return "bad %s event at %d (want %r)" % (phase, pos, " ".join(want))
                pos += 1
    if pos != len(trace):
        return "%d unexpected extra events" % (len(trace) - pos)
    return None
