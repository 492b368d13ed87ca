"""Differential replay of recorded interpreter runs.

`interp_goldens.json` holds, per case, what the interpreter produced when the
file was recorded: the printed output, the check-event trace, the two
interleaved, and the violation, or the runtime fault's message.  Every case
here must replay byte-identically, so an interpreter rewrite cannot change an
observable result unnoticed.

The cases: every transparency program, plain and woven; the faulty and fixed
dlist with each shipped driver and with seeded call mixes; 300 seeded gating
scripts; and small programs that reach each runtime fault.  All run with the
trace on.  Re-record (only when a change of behaviour is intended) with
`PYTHONPATH=src python tests/test_differential.py`.
"""

from __future__ import annotations

import json
import operator
import random
from pathlib import Path

import pytest

from invweave import interp as interp_module
from invweave.interp import MAX_STEPS, Interpreter, MiniOORuntimeError, _Emitter, run_program
from invweave.parser import parse_unit
from invweave.printer import render_source
from invweave.syntax import merge_units
from invweave.typecheck import class_table, typecheck_program
from invweave.weave import swap_driver_constructors, weave_program

from helpers import (
    CORPUS,
    GATING_PROFILES,
    TRANSPARENCY,
    counting_settles,
    dlist_driver,
    load_dlist,
    load_program,
    make_script,
)

GOLDENS = Path(__file__).resolve().parent / "interp_goldens.json"

SCRIPTS_PER_HIERARCHY = 100
DLIST_MIXES = 12

# Each program reaches one runtime fault (or a near miss) of the interpreter.
FAULT_PROGRAMS = {
    "null-read": """
        class A { public int x; public int boom(A o) { return o.x; } }
        driver { print("before"); A a = new A(); print(a.boom(null)); }""",
    "null-write": "class A { public int x; }\ndriver { A a = null; a.x = 1; }",
    "null-call": "class A { public void f() { } }\ndriver { A a = null; a.f(); }",
    "division-by-zero": "driver { print(7); print(1 / 0); }",
    "unknown-variable": "driver { print(y); }",
    "unknown-variable-write": "driver { y = 1; }",
    "no-such-field": "class A { }\ndriver { A a = new A(); print(a.x); }",
    "no-such-field-write": "class A { }\ndriver { A a = new A(); a.x = 2; }",
    "int-has-no-fields": "driver { int i = 1; print(i.x); }",
    "string-has-no-fields": 'driver { string s = "q"; s.x = 1; }',
    "int-has-no-methods": "driver { int i = 1; i.f(); }",
    "if-not-bool": "driver { if (1) { print(1); } }",
    "while-not-bool": "driver { while (null) { print(1); } }",
    "unknown-class": "driver { print(1); Foo f = new Foo(); }",
    "constructor-arity": "class A { public A(int x) { } }\ndriver { A a = new A(); }",
    "method-arity": "class A { public void f(int x) { } }\ndriver { A a = new A(); a.f(); }",
    "no-implementation": "class A { }\ndriver { A a = new A(); a.f(); }",
    "abstract-only": "abstract class A { public void f(); }\n"
    "class B extends A { }\ndriver { B b = new B(); b.f(); }",
    "no-return-value": "class A { public int f() { } }\ndriver { A a = new A(); print(a.f()); }",
    "this-outside-method": "driver { print(this); }",
    "call-outside-class": "driver { f(); }",
    "reflect-null": "class A { public int x; }\ndriver { A a = null; print(@field(a, \"x\")); }",
    "reflect-non-object": 'driver { print(@field(1, "x")); }',
    "reflect-missing": 'class A { }\ndriver { A a = new A(); print(@field(a, "x")); }',
    "trace-non-object": 'driver { @trace(1, "A", "entry", "m"); }',
    "super-call-no-superclass": "class A { public void f() { super.f(); } }\n"
    "driver { A a = new A(); a.f(); }",
    "super-call-not-above": "class A { public void g() { } }\n"
    "class B extends A { public void f() { super.f(); } }\ndriver { B b = new B(); b.f(); }",
    "super-constructor-no-superclass": "class A { public A() { super(); } }\ndriver { A a = new A(); }",
    "implicit-field-and-shadowed-local": """
        class A {
            protected int v;
            public A() { this.v = 3; }
            public int f(int v) { int w = v; if (true) { int v = 10; w = w + v; } return w + this.v; }
            public int g() { v = v + 1; return v; }
        }
        driver { A a = new A(); print(a.f(4)); print(a.g()); print(a.g()); }""",
    "loop-scope-and-short-circuit": """
        class N { public N other; }
        driver {
            int i = 0;
            N n = null;
            while (i < 3) { int j = i * 2; print(j); i = i + 1; }
            print(false && n.other == null);
            print(true || n.other == null);
            print(-7 / 2); print(!true); print("a" + "b"); print(n == null); print(n != null);
        }""",
}


def _woven(unit, spec):
    artifacts = weave_program(unit, spec)
    swapped = swap_driver_constructors(unit, artifacts)
    return merge_units([swapped, artifacts.declarations_unit()])


def _dlist_mix(rng: random.Random, cls: str, calls: int) -> str:
    """A driver of seeded list calls; a Python list model keeps indices in range."""
    lines = ["driver {", "    List<string> ls = new %s<string>();" % cls]
    model: list[str] = []
    for _ in range(calls):
        op = rng.choice(["add", "add", "addFirst", "remove", "contains", "indexOf", "get", "set",
                         "size", "removeFirst", "removeLast", "first", "isEmpty", "clear"])
        v = rng.choice("abcdef")
        if op in ("get", "set", "removeFirst", "removeLast", "first") and not model:
            op = "isEmpty"
        if op in ("add", "addFirst", "set"):
            i = rng.randrange(len(model)) if op == "set" else None
            args = '"%s"' % v if i is None else '%d, "%s"' % (i, v)
            lines.append("    ls.%s(%s);" % (op, args))
            if op == "set":
                model[i] = v
            else:
                model.insert(len(model) if op == "add" else 0, v)
        elif op in ("remove", "contains", "indexOf"):
            lines.append('    print(ls.%s("%s"));' % (op, v))
            if op == "remove" and v in model:
                model.remove(v)
        elif op == "get":
            lines.append("    print(ls.get(%d));" % rng.randrange(len(model)))
        elif op == "clear":
            lines.append("    ls.clear();")
            model.clear()
        else:
            lines.append("    print(ls.%s());" % op)
            if op in ("removeFirst", "removeLast"):
                model.pop(0 if op == "removeFirst" else -1)
    lines.append("    print(ls.size());")
    lines.append("}")
    return "\n".join(lines)


def cases():
    """(case id, unit) pairs, in a fixed order; each unit runs with the trace on."""
    for moo in TRANSPARENCY:
        unit, spec = load_program(moo)
        yield "transparency/%s/plain" % moo.stem, unit
        yield "transparency/%s/woven" % moo.stem, _woven(unit, spec)
    for fixed in (False, True):
        unit, spec = load_dlist(fixed)
        name = "list_fixed" if fixed else "list"
        decls = weave_program(unit, spec).declarations_unit()
        yield "dlist/%s/driver_plain" % name, merge_units([unit, dlist_driver(checked=False)])
        yield "dlist/%s/driver_checked" % name, merge_units([unit, decls, dlist_driver(checked=True)])
        rng = random.Random(0xD115 + fixed)
        for k in range(DLIST_MIXES):
            for cls, base in (("DLinkedList", [unit]), ("ExposedDLinkedList", [unit, decls])):
                text = _dlist_mix(rng, cls, rng.randint(10, 60))
                yield "dlist/%s/mix%02d/%s" % (name, k, cls), merge_units(base + [parse_unit(text)])
    for gname, profile in sorted(GATING_PROFILES.items()):
        unit, spec = load_program(CORPUS / "gating" / (gname + ".moo"))
        base = merge_units([unit, weave_program(unit, spec).declarations_unit()])
        rng = random.Random("gating-" + gname)
        for k in range(SCRIPTS_PER_HIERARCHY):
            text, _ = make_script(rng, profile, rng.randint(1, 20))
            yield "gating/%s/script%03d" % (gname, k), merge_units([base, parse_unit(text)])
    for name, source in FAULT_PROGRAMS.items():
        yield "fault/%s" % name, parse_unit(source)


def record(unit) -> dict:
    try:
        r = run_program(unit, check_trace=True)
    except MiniOORuntimeError as exc:
        return {"error": str(exc)}
    return {
        "output": r.output,
        "trace": r.trace,
        "combined": r.combined,
        "violation": None if r.violation is None else str(r.violation),
    }


def test_recorded_runs_replay_identically():
    goldens = json.loads(GOLDENS.read_text())
    runs = list(cases())
    seen = [case_id for case_id, _ in runs]
    assert sorted(seen) == sorted(goldens)
    assert sum(c.startswith("gating/") for c in seen) >= 300
    # The second pass runs every body on code the first pass compiled.
    for _ in range(2):
        for case_id, unit in runs:
            assert record(unit) == goldens[case_id], case_id


def _observe(unit, max_steps: int = MAX_STEPS) -> tuple:
    """What a run records, its fault's message, and the steps of its budget it used."""
    interp = Interpreter(unit, trace=True, max_steps=max_steps)
    try:
        r, fault = interp.run(), None
    except MiniOORuntimeError as exc:
        r, fault = exc.result, str(exc)
    return (r.output, r.trace, r.combined, r.violation, fault), max_steps - operator.length_hint(interp.ticks)


# Driver lines that do not typecheck, one of each kind: an unknown method, a wrong
# arity, a wrong argument type, an unknown class, a private member read and a local
# declared twice.  `{v}` is the script's first local, of class `{c}`, `{m}` one of
# that class's methods, and `{visitor}` the woven visitor, with private field `{field}`.
ILL_TYPED_LINES = (
    "{v}.nope();",
    "{v}.{m}(1, 2);",
    "@singleton({visitor}).visit_{c}(true);",
    "Nope n = new Nope();",
    "print(@singleton({visitor}).{field});",
    "int {v} = 0;",
)


def _with_ill_typed_lines(rng: random.Random, text: str, steps: list, profile: list, visitor) -> str:
    """`text` with none, one or two seeded ill-typed lines after its first statement."""
    lines = text.split("\n")
    first = next(g for g in profile if g.name == steps[0].class_name)
    field = next(f.name for f in visitor.fields if f.visibility == "private")
    for _ in range(rng.randint(0, 2)):
        line = rng.choice(ILL_TYPED_LINES).format(
            v=steps[0].var, c=first.name, m=rng.choice(sorted(first.methods)), visitor=visitor.name, field=field
        )
        lines.insert(rng.randint(2, len(lines) - 1), "    " + line)
    return "\n".join(lines)


def test_gating_scripts_run_alike_on_cold_and_warm_memos():
    # A hierarchy parsed afresh has no class table, verdicts or compiled bodies yet;
    # the shared one keeps those of every script before.  Both run each script alike,
    # and report the same diagnostics, in the same order, for the script with none,
    # one or two ill-typed lines added.
    for gname, profile in sorted(GATING_PROFILES.items()):
        unit, spec = load_program(CORPUS / "gating" / (gname + ".moo"))
        artifacts = weave_program(unit, spec)
        warm = merge_units([unit, artifacts.declarations_unit()])
        source = render_source(warm)
        rng = random.Random("gating-" + gname)
        ill_rng = random.Random("ill-typed-" + gname)
        ill_typed = 0
        for k in range(SCRIPTS_PER_HIERARCHY):
            text, steps = make_script(rng, profile, rng.randint(1, 20))
            cold = parse_unit(source)
            seen = [_observe(merge_units([base, parse_unit(text)])) for base in (cold, warm)]
            assert seen[0] == seen[1] and seen[0][1] > 0, (gname, k)
            ill = _with_ill_typed_lines(ill_rng, text, steps, profile, artifacts.visitor)
            diags = [[str(d) for d in typecheck_program(merge_units([base, parse_unit(ill)]))] for base in (cold, warm)]
            assert diags[0] == diags[1], (gname, k)
            ill_typed += bool(diags[0])
        assert 20 < ill_typed < SCRIPTS_PER_HIERARCHY - 20, gname
        # The warm scripts were checked with the kept table.
        assert class_table(warm) is class_table(merge_units([warm, parse_unit(text)]))


def test_every_case_runs_alike_with_identity_comparisons_switched_off(monkeypatch):
    # `==` and `!=` with an object or null operand are emitted as `is` and `is not`;
    # with that rule off, every comparison is Python's `==`.  Each pass parses its
    # own units, so neither runs code the other compiled.
    rule, used = _Emitter.refs, []
    monkeypatch.setattr(_Emitter, "refs", lambda em, e: used.append(rule(em, e)) or used[-1])
    on = [(case_id, _observe(unit)) for case_id, unit in cases()]
    monkeypatch.setattr(_Emitter, "refs", lambda em, e: False)
    off = [(case_id, _observe(unit)) for case_id, unit in cases()]
    assert sum(used) >= 20 and len(on) == len(off)
    for a, b in zip(on, off):
        assert a == b, a[0]


def test_every_case_runs_alike_with_the_whole_driver_compiled(monkeypatch):
    # The driver's simple statements run from an op table; with `_op` declining
    # every statement, the whole driver is compiled.  Each pass parses its own
    # units, so neither runs a table the other built.
    build, ops = interp_module._op, []
    monkeypatch.setattr(interp_module, "_op", lambda s, slots: ops.append(build(s, slots)) or ops[-1])
    on = [(case_id, _observe(unit)) for case_id, unit in cases()]
    monkeypatch.setattr(interp_module, "_op", lambda s, slots: None)
    off = [(case_id, _observe(unit)) for case_id, unit in cases()]
    assert sum(op is not None for op in ops) >= 3000 and None in ops and len(on) == len(off)
    for a, b in zip(on, off):
        assert a == b, a[0]


@pytest.mark.parametrize("fixed", [False, True])
def test_the_checked_dlist_driver_stops_alike_at_every_budget(monkeypatch, fixed):
    # With each budget from 0 to the steps the whole run takes, the run stops
    # at the same step with the same output whether its driver's simple
    # statements run from the op table or are compiled.
    name = "dlist/%s/driver_checked" % ("list_fixed" if fixed else "list")
    on = next(unit for case_id, unit in cases() if case_id == name)
    _, used = _observe(on)
    monkeypatch.setattr(interp_module, "_op", lambda s, slots: None)
    off = next(unit for case_id, unit in cases() if case_id == name)
    assert used > 200
    for budget in range(used + 1):
        seen = _observe(on, budget), _observe(off, budget)
        assert seen[0] == seen[1], budget
        assert (seen[0][0][4] is None) == (budget == used), budget


def _counting_replays(monkeypatch) -> list:
    """Counts, from now on, of calls of each check body that replays and of its runs: [calls, runs]."""
    replaying, counts = interp_module._replaying, [0, 0]

    def counted(check):
        def run(*args):
            counts[1] += 1
            return check(*args)

        replay = replaying(run)

        def call(*args):
            counts[0] += 1
            return replay(*args)

        return call

    monkeypatch.setattr(interp_module, "_replaying", counted)
    return counts


def test_every_case_runs_alike_with_check_replay_switched_off(monkeypatch):
    # A unit that holds a woven check counts its writes, and a check that passed
    # replays while nothing is written; with `_counted` declining every unit, every
    # check runs.  Each pass parses its own units, so neither runs code the other compiled.
    counts = _counting_replays(monkeypatch)
    on = [(case_id, _observe(unit)) for case_id, unit in cases()]
    monkeypatch.setattr(interp_module, "_counted", lambda unit: False)
    off = [(case_id, _observe(unit)) for case_id, unit in cases()]
    calls, runs = counts
    assert calls - runs >= 900 and runs >= 300 and len(on) == len(off)
    for a, b in zip(on, off):
        assert a == b, a[0]


def test_the_checked_dlist_cases_settle_checks_after_writes(monkeypatch):
    # A check after writes is settled from the pass before and the objects written since
    # (`recheck`): were that to stop, each of these checks would run in full again.
    counts = counting_settles(monkeypatch)
    for case_id, unit in cases():
        if case_id.startswith("dlist/") and case_id.endswith(("checked", "ExposedDLinkedList")):
            _observe(unit)
    calls, runs = counts
    assert calls - runs >= 200 and runs >= 10


@pytest.mark.parametrize("fixed", [False, True])
def test_the_checked_dlist_driver_stops_alike_at_every_budget_with_check_replay_off(monkeypatch, fixed):
    name = "dlist/%s/driver_checked" % ("list_fixed" if fixed else "list")
    counts = _counting_replays(monkeypatch)
    on = next(unit for case_id, unit in cases() if case_id == name)
    _, used = _observe(on)
    assert counts[0] - counts[1] >= 8
    monkeypatch.setattr(interp_module, "_counted", lambda unit: False)
    off = next(unit for case_id, unit in cases() if case_id == name)
    for budget in range(used + 1):
        seen = _observe(on, budget), _observe(off, budget)
        assert seen[0] == seen[1], budget
        assert (seen[0][0][4] is None) == (budget == used), budget


@pytest.mark.parametrize("kind", ["violation", "error"])
def test_goldens_cover_both_abnormal_endings(kind):
    goldens = json.loads(GOLDENS.read_text()).values()
    assert sum(1 for g in goldens if g.get(kind)) >= 2


if __name__ == "__main__":
    recorded = {case_id: record(unit) for case_id, unit in cases()}
    GOLDENS.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    print("recorded %d cases in %s" % (len(recorded), GOLDENS))
