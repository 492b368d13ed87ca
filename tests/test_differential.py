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
import random
from pathlib import Path

import pytest

from invweave.interp import MiniOORuntimeError, run_program
from invweave.parser import parse_unit
from invweave.syntax import merge_units
from invweave.weave import swap_driver_constructors, weave_program

from helpers import (
    CORPUS,
    GATING_PROFILES,
    TRANSPARENCY,
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


@pytest.mark.parametrize("kind", ["violation", "error"])
def test_goldens_cover_both_abnormal_endings(kind):
    goldens = json.loads(GOLDENS.read_text()).values()
    assert sum(1 for g in goldens if g.get(kind)) >= 2


if __name__ == "__main__":
    recorded = {case_id: record(unit) for case_id, unit in cases()}
    GOLDENS.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    print("recorded %d cases in %s" % (len(recorded), GOLDENS))
