"""Interpreter semantics: dispatch, reflection, gating, and the woven runs."""

import gc
import operator
import random
import re
import sys
import weakref

import pytest

from invweave import interp as interp_module
from invweave.interp import (
    _CHUNK,
    _CODE_OP,
    _MAX_LOOPS,
    _MAX_NEST,
    MAX_CALL_DEPTH,
    MAX_STEPS,
    Interpreter,
    MiniOORuntimeError,
    _driver_code,
    _Emitter,
    run_program,
)
from invweave.invspec import load_spec
from invweave.parser import MAX_STATEMENT_LEVELS, parse_unit
from invweave.syntax import merge_units
from invweave.typecheck import typecheck_program
from invweave.weave import swap_driver_constructors, weave_program

from helpers import (
    CORPUS,
    GATING_PROFILES,
    TRANSPARENCY,
    dlist_driver,
    load_dlist,
    load_program,
    make_chain_program,
    make_script,
    run_woven,
)


def run_src(source: str, trace: bool = False):
    return run_program(parse_unit(source), check_trace=trace)


def test_print_stringification():
    res = run_src(
        """
        driver {
            print(1 + 2);
            print(true);
            print(false);
            print("s");
            print(null);
        }
        """
    )
    assert res.output == ["3", "true", "false", "s", "null"]


def test_arithmetic_truncates_toward_zero():
    res = run_src(
        "driver { print(7 / 2); print(-7 / 2); print(7 / -2); print(-(3 * 2)); }"
    )
    assert res.output == ["3", "-3", "-3", "-6"]


def test_division_by_zero_aborts():
    with pytest.raises(MiniOORuntimeError):
        run_src("driver { print(1 / 0); }")


def test_short_circuit_evaluation():
    # The right operand would null-dereference if evaluated.
    res = run_src(
        """
        class N { public N other; }
        driver {
            N n = null;
            print(false && n.other == null);
            print(true || n.other == null);
        }
        """
    )
    assert res.output == ["false", "true"]


def test_dynamic_dispatch_most_derived_wins():
    res = run_src(
        """
        class A {
            public int f() { return 1; }
            public int viaSelf() { return this.f(); }
        }
        class B extends A {
            public int f() { return 2; }
        }
        driver {
            A a = new B();
            print(a.f());
            print(a.viaSelf());
        }
        """
    )
    assert res.output == ["2", "2"]


def test_super_call_targets_parent_implementation():
    res = run_src(
        """
        class A { public int f() { return 1; } }
        class B extends A {
            public int f() { return super.f() + 10; }
        }
        class C extends B {
            public int f() { return super.f() + 100; }
        }
        driver { print(new C().f()); }
        """
    )
    assert res.output == ["111"]


def test_inherited_method_runs_when_no_override():
    res = run_src(
        """
        class A { public int f() { return 7; } }
        class B extends A { }
        driver { print(new B().f()); }
        """
    )
    assert res.output == ["7"]


def test_null_dereference_aborts():
    with pytest.raises(MiniOORuntimeError):
        run_src(
            """
            class N { public int x; }
            driver {
                N n = null;
                print(n.x);
            }
            """
        )


def test_missing_driver_aborts():
    with pytest.raises(MiniOORuntimeError):
        run_program(parse_unit("class A { }"))


def test_field_defaults_are_zero_values():
    res = run_src(
        """
        class D<T> {
            public int i;
            public bool b;
            public string s;
            public T t;
            public D<T> next;
        }
        driver {
            D<string> d = new D<string>();
            print(d.i);
            print(d.b);
            print(d.s);
            print(d.t == null);
            print(d.next == null);
        }
        """
    )
    assert res.output == ["0", "false", "", "true", "true"]


def test_reference_equality_vs_value_equality():
    res = run_src(
        """
        class P { public int x; public P(int x) { this.x = x; } }
        driver {
            P a = new P(1);
            P b = new P(1);
            P c = a;
            print(a == b);
            print(a == c);
            print("q" == "q");
            print(1 == 1);
            print(a == null);
            print(a != b);
            print(a != c);
            print(a == a);
            print(null == a);
            print(a != null);
            print(null == null);
        }
        """
    )
    assert res.output == [
        "false", "true", "true", "true", "false",
        "true", "false", "true", "false", "true", "true",
    ]


@pytest.mark.parametrize(
    "read, message",
    [
        ("N n = null; print(n.x);", "null dereference reading 'x'"),
        ('N n = null; print(@field(n, "x"));', "null dereference in reflective read of 'x'"),
        ("int n = 1; print(n.x);", "1 has no fields"),
        ('int n = 1; print(@field(n, "x"));', "reflective read on a non-object"),
        ("N n = new N(); print(n.y);", "no such field 'y' on N"),
        ("N n = new N(); print(n.missing());", "no such field 'y' on N"),
        ("N n = new N(); print(n.reflectMissing());", "no such field 'y' on N"),
        ("N n = new N(); print(n.next.x);", "null dereference reading 'x'"),
        # two-step read paths: a null or int value at the first and the second step
        ("N n = null; print(n.next.x);", "null dereference reading 'next'"),
        ("int n = 1; print(n.next.x);", "1 has no fields"),
        ("N n = new N(); print(n.x.y);", "0 has no fields"),
        ("N n = new N(); n.next = new N(); print(n.next.y);", "no such field 'y' on N"),
        ('N n = null; print(@field(@field(n, "next"), "x"));',
         "null dereference in reflective read of 'next'"),
        ('int n = 1; print(@field(@field(n, "next"), "x"));', "reflective read on a non-object"),
        ('N n = new N(); print(@field(@field(n, "next"), "x"));',
         "null dereference in reflective read of 'x'"),
        ('N n = new N(); print(@field(@field(n, "x"), "y"));', "reflective read on a non-object"),
        # the same paths compared with a local, as the woven invariant loop does
        ("N n = null; print(n.next.x == n);", "null dereference reading 'next'"),
        ('N n = new N(); print(!(@field(@field(n, "next"), "prev") == n));',
         "null dereference in reflective read of 'prev'"),
        ("N n = new N(); int k = 0; print(n.x.y != k);", "0 has no fields"),
        ("N n = new N(); print(n.nextXIs(0));", "null dereference reading 'x'"),
        # a read path assigned to a local, read off the local itself
        ("N n = null; n = n.next;", "null dereference reading 'next'"),
        ('N n = null; n = @field(n, "next");', "null dereference in reflective read of 'next'"),
        ("int n = 1; n = n.next;", "1 has no fields"),
        ("N n = new N(); n = n.next; n = n.next;", "null dereference reading 'next'"),
        # `this._ok && ...` where the class has no `_ok` (an unchecked unit)
        ("N n = new N(); print(n.guarded());", "no such field '_ok' on N"),
        ("N n = new N(); print(n.reflectGuarded());", "no such field '_ok' on N"),
        # a reflective read of a name that is no identifier, so no field's
        ('N n = new N(); print(@field(n, "x y"));', "no such field 'x y' on N"),
        ('N n = null; print(@field(n, "x y"));', "null dereference in reflective read of 'x y'"),
        ('N n = new N(); print(@field(@field(n, "x y"), "z"));', "no such field 'x y' on N"),
        ('N n = new N(); n.next = new N(); print(@field(@field(n, "next"), "x y") == n);',
         "no such field 'x y' on N"),
    ],
)
def test_field_read_faults(read, message):
    # Unchecked: N declares no `y` and no `_ok`, so reads of them fault.
    source = """
        class N {
            public int x;
            public N next;
            public N prev;
            public int missing() { return this.y; }
            public int reflectMissing() { return @field(this, "y"); }
            public bool guarded() { return this._ok && this.x == 0; }
            public bool reflectGuarded() { return @field(this, "_ok") || this.x == 0; }
            public bool nextXIs(int k) { return this.next.x == k; }
        }
        driver { %s }
    """
    with pytest.raises(MiniOORuntimeError) as exc:
        run_src(source % read)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "write, message",
    [
        ("N n = null; n.x = 1;", "null dereference writing 'x'"),
        ("int n = 1; n.x = 2;", "1 has no fields"),
        ('string s = "q"; s.x = 1;', "'q' has no fields"),
        ("N n = new N(); n.y = 1;", "no such field 'y' on N"),
        ("N n = new N(); n.next.x = 1;", "null dereference writing 'x'"),
        ("N n = null; n.next.x = 1;", "null dereference reading 'next'"),
        ("N n = new N(); n.setY();", "no such field 'y' on N"),
        ("N n = new N(); n.setBareY();", "unknown variable 'y'"),
        ("y = 1;", "unknown variable 'y'"),
    ],
)
def test_field_write_faults(write, message):
    # Unchecked: N declares no `y`, so writes of it fault.
    source = """
        class N {
            public int x;
            public N next;
            public void setY() { this.y = 1; }
            public void setBareY() { y = 1; }
        }
        driver { print("before"); %s print("after"); }
    """
    assert run_fault(source % write) == (message, ["before"])


def _singletons(unit) -> dict:
    """The singletons of a run of `unit`: where a test keeps the objects it looks at after the run."""
    interp = Interpreter(unit)
    interp.run()
    return interp.singletons


def test_a_second_run_over_a_hierarchy_builds_no_object_class():
    # A class's objects get one Python class per layout, kept with the declaration.
    b = parse_unit("class B extends A { public int y; }")
    with_int, with_bool = (
        merge_units([parse_unit("class A { public %s x; }" % t), b, parse_unit("driver { @singleton(B); }")])
        for t in ("int", "bool")
    )
    first, again = (_singletons(with_int)["B"] for _ in range(2))
    assert first is not again and type(first) is type(again)
    assert type(first).__slots__ == ["f_x", "f_y"]
    other = _singletons(with_bool)["B"]
    assert type(other) is not type(first)  # the same names, but other zero values
    assert (first.f_x, first.f_y, other.f_x) == (0, 0, False)


def test_woven_objects_have_no_instance_dict():
    unit, spec = load_dlist(fixed=True)
    driver = parse_unit('driver { @singleton(ExposedDLinkedList).add("a"); }')
    ls = _singletons(merge_units([unit, weave_program(unit, spec).declarations_unit(), driver]))["ExposedDLinkedList"]
    for obj in (ls, ls.f_head, ls.f_head.f_next):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.extra = 1


def test_negated_comparison_on_mixed_operands():
    # `!(a == b)` runs as `a != b`; unchecked, the operands may differ in type.
    res = run_src(
        """
        class N { public int x; public bool b; public string s; public N next; }
        driver {
            N n = new N();
            int one = 1;
            bool yes = true;
            string str = "1";
            N none = null;
            n.x = 1;
            print(!(1 == true));
            print(!(one == yes));
            print(!(one != yes));
            print(!(one == str));
            print(!(str != one));
            print(!(none == one));
            print(!(none == none));
            print(!(none != n.next));
            print(!(n.x == yes));
            print(!(n.x != yes));
            print(!(n.b == 0));
            print(!(n.s == ""));
            print(!(n.s != str));
            print(!(n.next == none));
            print(!(n.next != none));
            print(!(n == n));
            print(!(n.x == str));
        }
        """
    )
    assert res.output == [
        "false", "false", "true", "true", "false", "true", "false", "true",
        "false", "true", "false", "false", "false", "false", "true", "false", "true",
    ]


def test_if_without_else():
    res = run_src('driver { if (1 > 2) { print("then"); } print("after"); }')
    assert res.output == ["after"]
    with pytest.raises(MiniOORuntimeError) as exc:
        run_src('driver { if (1) { print("then"); } print("after"); }')
    assert str(exc.value) == "condition is not a bool"
    assert exc.value.result.output == []


# -- reflective field access ---------------------------------------------------


def test_reflect_get_private_field():
    res = run_src(
        """
        class A {
            private int x;
            public A() { this.x = 41; }
        }
        driver { A a = new A(); print(@field(a, "x")); }
        """
    )
    assert res.output == ["41"]


def test_reflect_get_walks_to_grandparent():
    res = run_src(
        """
        class A { private int x; public A() { this.x = 5; } }
        class B extends A { public B() { super(); } }
        class C extends B { public C() { super(); } }
        driver { C c = new C(); print(@field(c, "x")); }
        """
    )
    assert res.output == ["5"]


def test_deep_implicit_constructor_chain_constructs():
    # Deeper than the Python stack: the class tables and the implicit
    # super() constructors are walked up, not recursed.
    source = "".join("class C%d extends C%d { }\n" % (i, i - 1) for i in range(1499, 0, -1))
    source += "class C0 { public int x; public C0() { this.x = 7; } }\n"
    res = run_src(source + "driver { C1499 c = new C1499(); print(c.x); }")
    assert res.output == ["7"]


def test_implicit_constructor_chain_order():
    # Bodies run top-down, after every arity on the implicit chain is checked.
    source = """
        class A { public A() { print("A"); } }
        class B extends A { }
        class C extends B { public C() { print("C"); } }
        class D extends C { public D(int v) { super(); print("D"); } }
        class P { public P(int v) { print("P"); } }
        class Q extends P { public Q() { print("Q"); } }
        driver { D d = new D(1); C c = new C(); print("before"); Q q = new Q(); }
    """
    with pytest.raises(MiniOORuntimeError) as exc:
        run_src(source)
    assert str(exc.value) == "constructor of P takes 1 argument(s)"
    assert exc.value.result.output == ["A", "C", "D", "A", "C", "before"]


def test_a_construction_looks_its_class_up_by_name_once(monkeypatch):
    # The implicit chain above is walked through the tables; `super(...)` names its class.
    names, lookup = [], Interpreter._class
    monkeypatch.setattr(Interpreter, "_class", lambda rt, name: names.append(name) or lookup(rt, name))
    source = """
        class A { public A() { print("A"); } }
        class B extends A { }
        class C extends B { }
        class D extends C { public D() { super(); print("D"); } }
        driver { C c = new C(); D d = new D(); c = new C(); }
    """
    assert run_src(source).output == ["A", "A", "D", "A"]
    assert names == ["C", "D", "C", "C"]


@pytest.mark.parametrize("header", ["class B extends Ghost", "interface Ghost { } class B extends Ghost"])
def test_a_superclass_the_unit_does_not_declare_is_an_unknown_class(header):
    assert run_fault(header + " { } driver { print(1); B b = new B(); }") == ("unknown class 'Ghost'", ["1"])


def test_inheritance_cycle_in_merged_unit_is_a_runtime_fault():
    unit = merge_units([parse_unit("class A extends B { }"), parse_unit("class B extends A { }")])
    unit = merge_units([unit, parse_unit("driver { print(1); A a = new A(); }")])
    with pytest.raises(MiniOORuntimeError) as exc:
        run_program(unit)
    assert str(exc.value) == "inheritance cycle through 'A'"
    assert exc.value.result.output == ["1"]


def _python_calls(unit) -> int:
    """Python calls made by a run of `unit` whose bodies are already compiled,
    so that only running is counted: a first run compiles what it reaches."""
    run_program(unit)
    calls = 0
    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"
    sys.setprofile(count)
    try:
        run_program(unit)
    finally:
        sys.setprofile(None)
    return calls


def test_invariant_loop_call_budget_per_node():
    # One more size() call checks the list twice, so between lists of 100 and
    # 200 nodes its cost grows by the visitor's loop over 200 more nodes.
    unit, spec = load_dlist(fixed=True)
    decls = weave_program(unit, spec).declarations_unit()

    def cost_of_size(n: int) -> int:
        driver = (
            "driver { DLinkedList<int> ls = new ExposedDLinkedList<int>(); int k = 0;"
            " while (k < %d) { ls.addFirst(k); k = k + 1; } %s }"
        )
        with_size, without = (
            _python_calls(merge_units([unit, decls, parse_unit(driver % (n, tail))]))
            for tail in ("ls.size();", "")
        )
        return with_size - without

    assert (cost_of_size(200) - cost_of_size(100)) / 200 <= 1


def test_shadowed_field_in_unchecked_unit_aborts():
    # The typechecker rejects this unit; run unchecked, the interpreter must
    # not pick one of the two `x` slots silently.
    unit = parse_unit(
        """
        class A { public int x; }
        class B extends A { public int x; }
        driver { B b = new B(); print(b.x); }
        """
    )
    with pytest.raises(MiniOORuntimeError, match="'x' of B shadows an inherited field"):
        run_program(unit)


def test_reflect_get_unknown_field_aborts():
    with pytest.raises(MiniOORuntimeError, match="no such field 'nope' on A"):
        run_src('class A { public A() { } }\ndriver { A a = new A(); print(@field(a, "nope")); }')


def test_exposed_wrappers_and_getters_run_from_a_driver():
    unit, spec = load_dlist(fixed=True)
    art = weave_program(unit, spec)
    driver = """
        driver {
            ExposedDLinkedList<string> obj = @singleton(ExposedDLinkedList);
            obj.add("a"); obj.add("b");
            print(obj.size()); print(obj.remove("a")); print(obj.size());
            print(obj._get_size()); print(obj._get_head()); print(obj._get_tail());
        }
    """
    interp = Interpreter(merge_units([unit, art.declarations_unit(), parse_unit(driver)]))
    output = interp.run().output
    obj = interp.singletons["ExposedDLinkedList"]
    assert output[:3] == ["2", "true", "1"]
    # Exposure faithfulness: getters agree with the direct field store (an object prints as `Class@id`).
    assert output[3:] == [str(obj.f_size), repr(obj.f_head), repr(obj.f_tail)] and obj.f_head is not obj.f_tail


# -- the flagship woven/unwoven runs --------------------------------------------


def test_unwoven_faulty_run_misses_the_fault():
    unit, _ = load_dlist()
    res = run_program(merge_units([unit, dlist_driver(checked=False)]))
    assert res.violation is None
    assert res.output == ["testRemove complete"]


def test_woven_faulty_run_reports_violation():
    unit, spec = load_dlist()
    art = weave_program(unit, spec)
    merged = merge_units([unit, art.declarations_unit(), dlist_driver(checked=True)])
    res = run_program(merged)
    assert res.violation is not None
    assert res.violation.class_name == "DLinkedList"
    assert res.violation.predicate_index == 0
    assert res.violation.phase == "exit"
    assert res.violation.method == "remove"
    assert str(res.violation) == "VIOLATION DLinkedList 0 exit remove"
    # stops at the failure: the trailing driver print never runs
    assert "testRemove complete" not in res.output


def test_woven_fixed_run_is_transparent():
    unit, spec = load_dlist(fixed=True)
    plain = run_program(merge_units([unit, dlist_driver(checked=False)]))
    art = weave_program(unit, spec)
    merged = merge_units([unit, art.declarations_unit(), dlist_driver(checked=True)])
    woven = run_program(merged)
    assert woven.violation is None
    assert woven.output == plain.output == ["testRemove complete"]


def test_trace_gating_one_pair_per_outer_call():
    unit, spec = load_dlist(fixed=True)
    driver = parse_unit(
        """
        driver {
            DLinkedList<int> ls = new ExposedDLinkedList<int>();
            ls.add(1);
            print(ls.contains(1));
        }
        """
    )
    art = weave_program(unit, spec)
    merged = merge_units([unit, art.declarations_unit(), driver])
    res = run_program(merged, check_trace=True)
    # contains() self-calls indexOf(); the nested call must not produce events
    assert res.trace == [
        "CHECK 1 DLinkedList construction <init>",
        "CHECK 1 DLinkedList entry add",
        "CHECK 1 DLinkedList exit add",
        "CHECK 1 DLinkedList entry contains",
        "CHECK 1 DLinkedList exit contains",
    ]
    assert res.output == ["true"]


def test_trace_disabled_by_default():
    unit, spec = load_dlist(fixed=True)
    with_driver = merge_units([unit, dlist_driver(checked=False)])
    res, _ = run_woven(with_driver, spec)
    assert res.trace == [] and res.violation is None


def test_parent_first_composition_on_double_fault():
    # Both levels' invariants are broken by one write; the recorded failure
    # must name the ancestor class (its predicates run first).
    source = """
    class Up { protected int a; public void wreck() { this.a = -1; } }
    class Down extends Up { protected int b; public void wreckBoth() { this.a = -1; this.b = -1; } }
    driver {
        Down d = new ExposedDown();
        d.wreckBoth();
    }
    """
    spec = load_spec(
        '{"classes":[{"name":"Up","invariant":["a >= 0"]},'
        '{"name":"Down","invariant":["b >= 0"]}]}'
    )
    unit = parse_unit(source)
    art = weave_program(
        parse_unit(source.split("driver")[0]), spec
    )
    merged = merge_units([unit, art.declarations_unit()])
    res = run_program(merged)
    assert res.violation is not None
    assert res.violation.class_name == "Up"
    assert res.violation.phase == "exit"
    assert res.violation.method == "wreckBoth"


def test_quantifier_loop_against_hand_checker():
    # The driver corrupts one back-link; the generated sweep and a hand-written
    # walk over the interpreter's objects after the run must agree.
    unit, spec = load_dlist(fixed=True)
    art = weave_program(unit, spec)
    driver = """
        driver {
            ExposedDLinkedList<string> ls = @singleton(ExposedDLinkedList);
            ls.add("a"); ls.add("b"); ls.add("c");
            print(ls.inv());
            %s
        }
    """
    # corrupt: second node's prev pointer dangles to the head
    corrupt = "ls.head.next.next.prev = ls.head; print(ls.inv());"

    def run(edit: str) -> tuple:
        interp = Interpreter(merge_units([unit, art.declarations_unit(), parse_unit(driver % edit)]))
        return interp.run().output, interp.singletons["ExposedDLinkedList"]

    def hand_checker(obj) -> bool:
        head = obj.f_head
        tail = obj.f_tail
        n = head
        while n is not tail:
            nxt = n.f_next
            if nxt.f_prev is not n:
                return False
            n = nxt
        return True

    output, ls = run("")
    assert hand_checker(ls) is True
    assert output == ["true"]
    output, ls = run(corrupt)
    assert ls.f_head.f_next.f_next.f_prev is ls.f_head
    assert hand_checker(ls) is False
    assert output == ["true", "false"]


def test_violation_output_preserved_up_to_failure():
    source = """
    class W { protected int x; public void bad() { this.x = -5; } public int x() { return this.x; } }
    driver {
        W w = new ExposedW();
        print(w.x());
        w.bad();
        print("unreachable");
    }
    """
    spec = load_spec('{"classes":[{"name":"W","invariant":["x >= 0"]}]}')
    art = weave_program(parse_unit(source.split("driver")[0]), spec)
    merged = merge_units([parse_unit(source), art.declarations_unit()])
    res = run_program(merged)
    assert res.output == ["0"]
    assert res.violation is not None and res.violation.method == "bad"


def test_object_ids_are_allocation_ordered():
    res = run_src(
        """
        class A { }
        driver {
            A a = new A();
            A b = new A();
            print(a);
            print(b);
        }
        """
    )
    assert res.output == ["A@1", "A@2"]


def test_one_declaration_runs_on_code_for_each_layout():
    # The same B object under three A's: its body reads `this.x` inline where
    # every B has an `x`, and must check for it where none has.
    b = parse_unit("class B extends A { public int get() { return this.x + 1; } }")
    driver = parse_unit("driver { B b = new B(); print(b.get()); }")
    units = [
        merge_units([parse_unit(a), b, driver])
        for a in (
            "class A { public int x; public A() { x = 1; } }",
            "class A { public int y; }",
            "class A { public int y; public int x; public A() { x = 2; } }",
        )
    ]
    assert run_program(units[0]).output == ["2"]
    with pytest.raises(MiniOORuntimeError, match="no such field 'x' on B"):
        run_program(units[1])
    assert run_program(units[2]).output == ["3"]
    assert run_program(units[0]).output == ["2"]


def test_checked_and_run_declarations_are_freed_with_their_units():
    unit, spec = make_chain_program(random.Random(5), 3)
    artifacts = weave_program(unit, spec)  # checks the chain, then the woven unit
    deepest = artifacts.exposed_classes[-1]
    calls = "".join(" c.%s();" % m.name for m in deepest.methods if m.visibility == "public")
    driver = parse_unit("driver { %s c = new %s();%s }" % (deepest.name, deepest.name, calls))
    merged = merge_units([unit, artifacts.declarations_unit(), driver])
    assert typecheck_program(merged) == []
    assert run_program(merged, check_trace=True).trace  # the wrappers it ran call super
    decls = merged.classes + merged.interfaces
    members = [m for d in decls for m in d.methods] + [c.constructor for c in merged.classes]
    refs = [weakref.ref(d) for d in decls + [m for m in members if m is not None]]
    del unit, spec, artifacts, deepest, driver, merged, decls, members
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def _checked_dlist_base():
    unit, spec = load_dlist(fixed=True)
    return merge_units([unit, weave_program(unit, spec).declarations_unit()])


def test_memo_entries_die_with_their_declarations():
    merged = merge_units([_checked_dlist_base(), dlist_driver(checked=True)])
    run_program(merged, check_trace=True)
    kept = [d for d in merged.classes if d._code is not None]  # each class a run built tables for
    assert merged.driver._code is not None and len(kept) >= 3
    made = [c.new for d in kept for c in d._code.values()]  # the Python classes of their objects
    refs, driver = [weakref.ref(x) for x in kept + made], id(merged.driver)
    del merged, kept, made
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
    assert driver not in map(id, gc.get_objects())


def test_a_second_run_over_a_hierarchy_builds_no_class_table(monkeypatch):
    base = _checked_dlist_base()
    first = Interpreter(merge_units([base, dlist_driver(checked=True)]), trace=True)
    result = first.run()
    built = []
    monkeypatch.setattr("invweave.interp._Class", lambda *fields: built.append(fields))
    monkeypatch.setattr("invweave.interp._compile_body", lambda *args: built.append(args))
    again = Interpreter(merge_units([base, dlist_driver(checked=True)]), trace=True)
    assert again.run() == result and built == []
    assert again._classes.keys() == first._classes.keys()
    assert all(again._classes[name] is c for name, c in first._classes.items())


def _chunks(driver) -> list:
    """The compiled functions of `driver`'s op table, in order."""
    table = _driver_code(driver)
    return [key for kind, key in zip(table[::5], table[2::5]) if kind == _CODE_OP]


def test_compiled_functions_are_named_after_their_declarations():
    interp = Interpreter(merge_units([_checked_dlist_base(), dlist_driver(checked=True)]))
    interp.run()
    c = interp._classes["ExposedDLinkedList"]
    assert c.vt["add"].fn.__code__.co_name == c.vt["add/1"].fn.__code__.co_qualname == "ExposedDLinkedList.add"
    assert c.ctor.fn.__code__.co_name == "ExposedDLinkedList.<init>"
    chunks = _chunks(interp.unit.driver)
    assert chunks and {f.__code__.co_name for f in chunks} == {"<driver>"}


# -- fault order in compiled code ------------------------------------------------


def run_fault(source: str):
    with pytest.raises(MiniOORuntimeError) as exc:
        run_src(source)
    return str(exc.value), exc.value.result.output


@pytest.mark.parametrize("method", ["direct", "nested"])
def test_a_field_fault_in_a_class_named_like_a_temporary_keeps_its_message(method):
    # Emitted closures are told from other functions by their code, not by a name such as `_t1`.
    nested = "if (true) { " * (_MAX_NEST + 6) + "print(this.y);" + " }" * (_MAX_NEST + 6)
    source = """
        class _tBox {
            public int x;
            public void direct() { print(this.y); }
            public void nested() { %s }
        }
        driver { print("made"); _tBox b = new _tBox(); b.%s(); }
    """
    assert run_fault(source % (nested, method)) == ("no such field 'y' on _tBox", ["made"])


_PATHS = """
    class M { }
    class N {
        public N a;
        public N b;
        public int c;
        public int i;
        public M m;
        public int read() { return this.a.b.c; }
        public int clear() { print("cleared"); this.a = null; return 1; }
        public int say() { print("said"); return 2; }
        public N bump() { this.i = this.i + 1; return this; }
        public int get(int k) { return k; }
    }
"""


@pytest.mark.parametrize(
    "setup, path, message",
    [
        # a null, an int and a missing field at each step of a three-step path
        ("N n = null;", "n.a.b.c", "null dereference reading 'a'"),
        ("N n = new N();", "n.a.b.c", "null dereference reading 'b'"),
        ("N n = new N(); n.a = new N();", "n.a.b.c", "null dereference reading 'c'"),
        ("int n = 3;", "n.a.b.c", "3 has no fields"),
        ("N n = new N();", "n.i.b.c", "0 has no fields"),
        ("N n = new N(); n.a = new N();", "n.a.i.c", "0 has no fields"),
        ("M n = new M();", "n.a.b.c", "no such field 'a' on M"),
        ("N n = new N(); n.m = new M();", "n.m.b.c", "no such field 'b' on M"),
        ("N n = new N(); n.a = new N(); n.a.m = new M();", "n.a.m.c", "no such field 'c' on M"),
        # the same path from `this`, whose first step every N has
        ("N n = new N();", "n.read()", "null dereference reading 'b'"),
        ("N n = new N(); n.a = new N();", "n.read()", "null dereference reading 'c'"),
        ("N n = new N(); n.a = new N(); n.a.b = new N(); n.a.b.c = 4;", "n.read() + n.a.b.c", None),
        # the second of two paths in one statement
        ("N n = new N(); n.a = new N();", "n.a.c + n.b.c", "null dereference reading 'c'"),
        ("N n = new N(); n.a = new N(); n.m = new M();", "n.a.c == n.m.c", "no such field 'c' on M"),
    ],
)
def test_three_step_path_faults_at_each_step(setup, path, message):
    source = _PATHS + "driver { %s print(%s); }" % (setup, path)
    if message is None:
        assert run_src(source).output == ["8"]
    else:
        assert run_fault(source) == (message, [])


def test_call_in_a_statement_changes_a_field_a_later_read_path_reads():
    # The path is read after the call has run, from the value the call left.
    driver = "driver { N n = new N(); n.a = new N(); print(n.a.c + n.clear() + n.a.c); }"
    assert run_fault(_PATHS + driver) == ("null dereference reading 'c'", ["cleared"])
    driver = "driver { N n = new N(); n.a = new N(); print(n.a.c + n.clear()); print(n.a == null); }"
    assert run_src(_PATHS + driver).output == ["cleared", "1", "true"]


def test_assignment_takes_the_value_before_the_object():
    driver = "driver { N n = new N(); n.bump().c = n.i; print(n.c); print(n.i); }"
    assert run_src(_PATHS + driver).output == ["0", "1"]
    driver = "driver { N n = new N(); n.a = new N(); n.a.c = n.clear(); }"
    assert run_fault(_PATHS + driver) == ("null dereference writing 'c'", ["cleared"])


def test_read_path_fault_in_a_while_condition():
    driver = """driver {
        N n = new N(); n.a = new N(); int k = 0;
        while (n.a.c == 0) { print(k); k = k + 1; n = n.a; }
    }"""
    assert run_fault(_PATHS + driver) == ("null dereference reading 'c'", ["0"])


def test_receiver_path_faults_after_an_argument_that_prints():
    driver = "driver { N n = new N(); print(n.a.b.get(n.say())); }"
    assert run_fault(_PATHS + driver) == ("null dereference reading 'b'", ["said"])
    driver = "driver { N n = new N(); print(n.a.get(n.say())); }"
    assert run_fault(_PATHS + driver) == ("null dereference calling 'get'", ["said"])


_CALLS = """
    class A {
        public A next;
        public int f(int k) { return k; }
        public int g() { return 1; }
        public int say() { print("said"); return 2; }
    }
    class B extends A {
        public int go(A a, A n, int i) { %s return 0; }
    }
    driver { A a = new A(); A n = null; int i = 3; print("go"); B b = new B(); b.go(a, n, i); %s }
"""


@pytest.mark.parametrize(
    "where", ["method", "nested", "driver", "driver: %s;", "driver: int x = %s;", "driver: i = %s;"]
)
@pytest.mark.parametrize(
    "call, message, in_driver",
    [
        ("n.g()", "null dereference calling 'g'", None),
        ("i.g()", "3 has no methods", None),  # the unit does not typecheck
        ('"s".g()', "'s' has no methods", None),
        ("null.g()", "null dereference calling 'g'", None),
        ("a.zz()", "no implementation of 'zz' on A", None),
        ("a.zz(1)", "no implementation of 'zz' on A", None),
        ("a.f()", "A.f takes 1 argument(s)", None),
        ("a.g(i)", "A.g takes 0 argument(s)", None),
        ('n.f(i, "s")', "null dereference calling 'f'", None),
        ("a.next.g()", "null dereference calling 'g'", None),
        ("n.next.g()", "null dereference reading 'next'", None),
        # the arguments run before the receiver is looked up
        ("n.f(a.say())", "null dereference calling 'f'", None),
        ("a.next.f(a.say())", "null dereference calling 'f'", None),
        ("n.f(n.next.g())", "null dereference reading 'next'", None),
        ("n.f(a.next.g())", "null dereference calling 'g'", None),
        ("n.f(a.say() + i.g())", "3 has no methods", None),
        ("zz()", "no implementation of 'zz' on B", "call of 'zz' outside a class"),
        ("super.zz()", "no implementation of 'zz' above B", "super call outside a method"),
        ("super.f(a.say())", None, "super call outside a method"),
        ("super.f()", "A.f takes 1 argument(s)", "super call outside a method"),
        ("super.go(a, n, i)", "no implementation of 'go' above B", "super call outside a method"),
    ],
)
def test_call_faults(where, call, message, in_driver):
    # A body is emitted deeper than one Python function allows for "nested", so its call sits in a closure.
    # The driver runs a call on a local with literal or local arguments from its op table, in each
    # form of statement that can hold it, and compiles any other.
    stmt = (where.partition(": ")[2] or "print(%s);") % call
    if where == "nested":
        stmt = "if (true) { " * (_MAX_NEST + 2) + stmt + " }" * (_MAX_NEST + 2)
    in_body = not where.startswith("driver")
    source = _CALLS % ((stmt, "") if in_body else ("", stmt))
    message = message if in_body else in_driver or message
    printed = ["go"] + ["said"] * ("say" in call)
    if message is None:
        assert run_src(source).output == printed + ["2"]
    else:
        assert run_fault(source) == (message, printed)


def _emitted(monkeypatch, source: str) -> dict:
    """The source of each function emitted when `source` runs, by name."""
    emitted, build = {}, _Emitter.build

    def spy(em, fn_name):
        emitted[fn_name] = "\n".join(em.out)
        return build(em, fn_name)

    monkeypatch.setattr(_Emitter, "build", spy)
    run_src(source)
    return emitted


def test_bodies_and_the_drivers_compiled_chunks_call_through_the_vtable(monkeypatch):
    source = _DOWN + """
        class C extends D { public C(D o) { super(); print(o.down(1)); print(this.down(0)); } }
        driver { D d = new D(); print(d.down(2)); C c = new C(d); print(c.down(1) + 1); print(new C(c).down(0)); }
    """
    emitted = _emitted(monkeypatch, source)
    method, ctor, driver = emitted["D.down"], emitted["C.<init>"], emitted["<driver>"]
    assert "_call" not in method + ctor
    assert "this.vt['down/1'].fn(rt, d + 1, this, " in method
    assert "o_0.vt['down/1'].fn(rt, d + 1, o_0, 1)" in ctor
    # a method starts by checking its depth and drawing a step; `Interpreter.init` does both for a constructor
    prologue = ["if d > MAX_CALL_DEPTH: raise _err(_TOO_DEEP)", "if next(rt.ticks, 1): raise rt.spent()"]
    assert [line.strip() for line in method.splitlines()[1:3]] == prologue
    assert not any(line in ctor for line in prologue) and "rt.ticks" not in ctor
    # the driver's chunks run at depth 0 and emit calls and `new` as bodies do; it has no call helpers
    assert "c_1.vt['down/1'].fn(rt, d + 1, c_1, 1) + 1" in driver and "_new(rt, 'C', [c_1], d)" in driver
    assert "d_0, c_1, = L" in driver and "d_0.vt[" not in driver  # the op table runs the simple statements
    assert "_call" not in driver and not hasattr(interp_module, "_CALL") and "_call1" not in interp_module._NS


def test_no_emitted_function_handles_an_exception(monkeypatch):
    # `Interpreter.run` turns an error raised at a site into a fault; the functions hold no handler.
    # A re-check plan's `settle` is the one with a `try`: anything raised in it runs the check in full.
    built, build = [], _Emitter.build
    monkeypatch.setattr(_Emitter, "build", lambda em, name: built.append((name, "\n".join(em.out))) or build(em, name))
    unit, spec = load_dlist(fixed=True)
    run_program(merge_units([unit, weave_program(unit, spec).declarations_unit(), dlist_driver(checked=True)]))
    rng = random.Random(31)
    for name, profile in sorted(GATING_PROFILES.items()):
        unit, spec = load_program(CORPUS / "gating" / (name + ".moo"))
        script = parse_unit(make_script(rng, profile, 12)[0])
        run_program(merge_units([unit, weave_program(unit, spec).declarations_unit(), script]))
    emitted = [(name, text) for name, text in built if name != "<settle>"]
    assert len(emitted) > 30 and "<driver>" in dict(emitted) and len(built) > len(emitted)
    for name, text in emitted:
        assert "try:" not in text and "except" not in text and "_read_fault" not in text, name
    assert not any("_read_fault" in text for _, text in built) and "_read_fault" not in interp_module._NS


@pytest.mark.parametrize("error", [AttributeError, KeyError])
def test_an_error_raised_below_emitted_code_leaves_the_run_as_it_is(monkeypatch, error):
    # `p`'s print raises below it, while `q` waits at a call site: only the innermost frame tells.
    raised = []

    def broken(rt, value):
        raised.append(error("broken"))
        raise raised[-1]

    monkeypatch.setitem(interp_module._NS, "_print", broken)
    source = "class A { public void p() { print(1); } public void q() { this.p(); } }\ndriver { A a = new A(); a.q(); }"
    with pytest.raises(error) as exc:
        run_src(source)
    assert exc.value is raised[0]
    names, tb = [], exc.value.__traceback__
    while tb is not None:
        names.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    assert names.index("run") < names.index("A.q") and names[-2:] == ["A.p", "broken"]


def test_functions_emitted_alike_keep_their_own_sites():
    # `p.next` and `@field(p, "next")` emit the same Python, so their code objects compare equal,
    # but a fault at the site names the read it came from.
    source = "class N { public N next; public void probe(N p) { print(%s); } }\ndriver { N n = new N(); n.probe(null); }"
    units = [parse_unit(source % path) for path in ("p.next", '@field(p, "next")')]
    messages = ["null dereference reading 'next'", "null dereference in reflective read of 'next'"]
    for _ in range(2):  # the second round runs the bodies each unit's declarations keep
        for unit, message in zip(units, messages):
            with pytest.raises(MiniOORuntimeError, match="^%s$" % re.escape(message)):
                run_program(unit)
    code, other = (next(iter(u.classes[0]._code.values())).vt["probe/1"].fn.__code__ for u in units)
    assert code == other and code is not other


def test_the_sites_of_a_unit_go_with_it():
    def run() -> int:
        unit, spec = load_dlist(fixed=True)
        run_program(merge_units([unit, weave_program(unit, spec).declarations_unit(), dlist_driver(checked=True)]))
        return len(interp_module._SITES)

    gc.collect()
    before = len(interp_module._SITES)
    assert run() > before
    gc.collect()
    assert len(interp_module._SITES) == before


@pytest.mark.parametrize("call", ["this.down(n - 1)", "down(n - 1)", "this.me().down(n - 1)"])
def test_call_depth_limit_is_the_same_for_every_form_of_call(call):
    source = "class D { public D me() { return this; } public int down(int n) { if (n == 0) { return 0; } return %s + 1; } }\n"
    source %= call
    limit = MAX_CALL_DEPTH
    assert run_src(source + "driver { D d = new D(); print(d.down(%d)); }" % (limit - 1)).output == [str(limit - 1)]
    assert run_fault(source + 'driver { print("b"); D d = new D(); print(d.down(%d)); }' % limit) == (
        "MiniOO calls nested too deeply",
        ["b"],
    )


_STEPS = """
    class D { public int down(int n) { if (n == 0) { return 0; } return this.down(n - 1) + 1; } }
    class C { public C c; public C(int n) { print(n); if (n > 0) { this.c = new C(n - 1); } } }
    class E extends C { public E() { super(1); print(9); } }
    driver { print(1); D d = new D(); print(d.down(2)); C c = new C(2); print(2); E e = new E(); print(d.down(1)); }
"""


def test_a_run_stops_at_the_same_step_on_a_call_or_a_construction():
    # The steps: new D; down(2), down(1), down(0); new C(2), C(1), C(0); new E, its C(1), C(0); down(1), down(0).
    for budget, printed in enumerate([1, 1, 1, 1, 2, 3, 4, 6, 6, 7, 9, 9]):
        with pytest.raises(MiniOORuntimeError) as exc:
            run_program(parse_unit(_STEPS), max_steps=budget)
        assert (str(exc.value), len(exc.value.result.output)) == ("run used up its budget of %d steps" % budget, printed)
    assert run_program(parse_unit(_STEPS), max_steps=12).output == ["1", "2", "2", "1", "0", "2", "1", "0", "9", "1"]


def test_driver_of_several_chunks_reads_locals_across_them():
    # Locals declared by ops are read and written in compiled chunks, and those of chunks by later ops.
    body = ['int a = 1;', 'string s = "x";', "N n = new N();"]
    body += ["a = a + 1;"] * (3 * _CHUNK)
    body += ["n.i = a;", "print(a);", "print(s);", "if (true) { int t = n.i; print(t + 1); }"]
    body += ["int b = a + 0;", "print(b);", "int c = n.get(b);", "b = c - 1;", "print(n.get(b));"]
    unit = parse_unit(_PATHS + "driver { %s }" % " ".join(body))
    assert len(body) > 3 * _CHUNK
    n = 3 * _CHUNK
    assert run_program(unit).output == [str(1 + n), "x", str(2 + n), str(1 + n), str(n)]
    assert len(_chunks(unit.driver)) == 6  # at most `_CHUNK` compiled statements in a row, each run one chunk


_A = "class A { public int v; public A(int k) { this.v = k; } public int f(int k) { return k; } }\n"


@pytest.mark.parametrize(
    "source, printed, fault",
    [
        (  # a local an op declares, set in a compiled `if` and read by later ops
            _A + "driver { A a = new A(1); int x = a.f(1); if (x == 1) { x = a.f(5); print(x); } print(x);"
            " x = a.f(x); print(x); A b = a; if (true) { b = null; } print(b); A c = b; print(c); }",
            ["5", "5", "5", "null", "null"],
            None,
        ),
        (_A + "driver { A a = new A(1); print(a.f(1)); return; print(a.f(2)); }", ["1"], None),
        (_A + "driver { A a = new A(1); int x = a.f(1); if (x == 1) { return; } print(a.f(2)); }", [], None),
        (  # top-level redeclarations, by ops and by compiled statements, in a unit that does not typecheck
            _A + "driver { A a = new A(1); int x = a.f(1); A x = a; print(x.f(7)); int a = 2; print(a); a = x.f(a);"
            " print(a); string x; print(x); int y = 1 + 1; int y = y + 1; print(y); int y = 9; print(y + 0);"
            " print(y); A y = x; print(y.v); }",
            ["7", "2", "2", "", "3", "9", "9"],
            "'' has no fields",
        ),
        ("driver { print(1); Foo f = new Foo(); }", ["1"], "unknown class 'Foo'"),
        ("driver { print(1); int i = 2; new Foo(i, 1); }", ["1"], "unknown class 'Foo'"),
        ("driver { print(1); print(new Foo(2)); }", ["1"], "unknown class 'Foo'"),
        (_A + "driver { print(1); A a = new A(); }", ["1"], "constructor of A takes 1 argument(s)"),
        (_A + "driver { print(1); int i = 2; A a = new A(i, i); }", ["1"], "constructor of A takes 1 argument(s)"),
        (_A + "driver { print(1); A a = null; a = new A(1, 2); }", ["1"], "constructor of A takes 1 argument(s)"),
    ],
)
def test_driver_op_statements_give_what_compiled_ones_gave(source, printed, fault):
    # Each expectation is what the driver gave when all of it was compiled.
    if fault is None:
        assert run_src(source).output == printed
    else:
        assert run_fault(source) == (fault, printed)
    # each fault is in a unit that does not typecheck
    assert bool(typecheck_program(parse_unit(source))) == (fault is not None)


def test_a_gating_scripts_driver_is_not_compiled(monkeypatch):
    # A script of `new` and calls with literal arguments runs from its op table alone.
    unit, spec = load_program(CORPUS / "gating" / "g2.moo")
    base = merge_units([unit, weave_program(unit, spec).declarations_unit()])
    rng = random.Random(20)
    texts = [make_script(rng, GATING_PROFILES["g2"], 12)[0] for _ in range(10)]
    for text in texts:  # the bodies the scripts reach are compiled once
        run_program(merge_units([base, parse_unit(text)]))
    compiled = []
    monkeypatch.setattr(interp_module, "compile", lambda *args: compiled.append(args), raising=False)
    for text in texts:
        script = merge_units([base, parse_unit(text)])
        assert len(_driver_code(script.driver)) == 5 * 12 and _chunks(script.driver) == []
        assert len(run_program(script, check_trace=True).trace) >= 12
    assert compiled == []


_DOWN = "class D { public int down(int n) { if (n == 0) { return 0; } return this.down(n - 1) + 1; } }\n"
_BUILD = "class C { public C c; public C(int n) { if (n > 0) { this.c = new C(n - 1); } } }\n"


def test_call_depth_limit_is_exact():
    # down(n) nests n + 1 calls under the driver; new C(n) nests n + 1 constructions.
    limit = MAX_CALL_DEPTH
    assert run_src(_DOWN + "driver { D d = new D(); print(d.down(%d)); }" % (limit - 1)).output == [
        str(limit - 1)
    ]
    assert run_fault(_DOWN + 'driver { print("before"); D d = new D(); print(d.down(%d)); }' % limit) == (
        "MiniOO calls nested too deeply",
        ["before"],
    )
    assert run_src(_BUILD + "driver { C c = new C(%d); print(1); }" % (limit - 1)).output == ["1"]
    assert run_fault(_BUILD + "driver { C c = new C(%d); print(1); }" % limit)[0] == (
        "MiniOO calls nested too deeply"
    )


def test_a_driver_call_draws_a_step_like_any_call():
    # `new D()` draws one step and `down(n)` one per call, n + 1 in all; the driver's own statements draw none.
    calls = "D d = new D(); print(d.down(3)); print(d.down(0)); print(d.down(0));"
    interp = Interpreter(parse_unit(_DOWN + "driver { %s }" % calls), max_steps=7)
    assert interp.run().output == ["3", "0", "0"] and operator.length_hint(interp.ticks) == 0
    interp = Interpreter(parse_unit(_DOWN + "driver { D d = new D(); print(d.down(3)); }"), max_steps=7)
    interp.run()
    assert operator.length_hint(interp.ticks) == 2
    with pytest.raises(MiniOORuntimeError, match="^run used up its budget of 7 steps$") as exc:
        run_program(parse_unit(_DOWN + "driver { %s print(d.down(0)); }" % calls), max_steps=7)
    assert exc.value.result.output == ["3", "0", "0"]


@pytest.mark.parametrize("terms", [400, 4000])
def test_deep_expressions_run(terms):
    assert run_src("driver { int x = %s; print(x); }" % " + ".join(["1"] * terms)).output == [str(terms)]
    assert run_src("driver { print(%s); }" % " / ".join(["8"] + ["1"] * terms)).output == ["8"]
    chain = "driver { print(%s); print(%s); }" % (" && ".join(["true"] * terms), " || ".join(["false"] * terms))
    assert run_src(chain).output == ["true", "false"]
    negations = "driver { print(%strue); print(%s1); }" % ("!" * (terms // 5 + 1), "- " * (terms // 5))
    assert run_src(negations).output == ["false", "1"]


def test_a_shadowing_local_leaves_the_outer_one_alone():
    source = """
        class A { public int f(int x) { if (true) { int x = x + 10; print(x); } print(x); return x; } }
        driver { int x = 1; if (true) { int x = 2; print(x); } print(x); A a = new A(); print(a.f(5)); }
    """
    assert run_src(source).output == ["2", "1", "15", "5", "5"]


def test_statements_nested_deeper_than_one_compiled_function_run():
    # Past the block and loop nesting one Python function allows, a statement
    # goes to a closure that shares the locals; a `return` or a fault inside it
    # is the body's.
    deep = 3 * max(_MAX_NEST, _MAX_LOOPS)
    ifs = "%s print(1); %s" % ("if (true) { " * deep, "} " * deep)
    loops = "int k = 0; %s k = k + 1; %s print(k);" % ("while (k < 1) { " * deep, "} " * deep)
    assert run_src("driver { %s %s }" % (ifs, loops)).output == ["1", "1"]
    source = """
        class A {
            public int x;
            public int f(int p) { int q = p + 1; %s q = q + x; x = q; if (q > 100) { return q; } %s return -1; }
            public int g(A a) { int s = 0; %s s = a.x; %s return s; }
        }
        driver { A a = new A(); a.x = 200; print(a.f(3)); print(a.x); A b = new A(); b.x = 5; print(a.g(b)); print(a.g(null)); }
    """ % ("if (true) { " * deep, "} " * deep, "while (s < 1) { " * deep, "} " * deep)
    assert run_fault(source) == ("null dereference reading 'x'", ["204", "204", "5"])


@pytest.mark.parametrize("shape", ["nested", "chain"])
def test_a_body_nested_as_deep_as_the_parser_allows_runs_when_first_called_deepest(shape):
    # The body is compiled on its first call, at depth 255, where the Python stack is shortest.
    levels = MAX_STATEMENT_LEVELS
    if shape == "nested":
        body = "if (x > 0) { " * levels + "return x; " + "} " * levels + "return 0;"
    else:  # the last link's body is level 200
        body = "if (x == 0) { return 0; }%s return -1;" % "".join(
            " else if (x == %d) { return %d; }" % (i, i) for i in range(1, levels)
        )
    source = """
        class D {
            public int deep(int x) { %s }
            public int down(int n, int x) { if (n == 0) { return this.deep(x); } return this.down(n - 1, x); }
        }
        driver { D d = new D(); print(d.down(%d, %d)); }
    """ % (body, MAX_CALL_DEPTH - 3, levels - 1)
    assert run_src(source).output == [str(levels - 1)]


def test_a_body_nested_199_deep_compiles_from_a_caller_150_python_frames_deep():
    # Compiling a body costs two Python frames per statement level (the `if` and its block),
    # so a body first reached at depth 255 still compiles below a deep host caller.
    body = "if (true) { " * 199 + "print(n); " + "} " * 199
    source = """
        class D {
            public void down(int n) { if (n == 0) { this.deep(n); } else { this.down(n - 1); } }
            public void deep(int n) { %s }
        }
        driver { D d = new D(); d.down(%d); }
    """ % (body, MAX_CALL_DEPTH - 3)

    def run_below(frames: int, unit):
        return run_below(frames - 1, unit) if frames else run_program(unit).output

    top = run_program(parse_unit(source)).output
    assert top == ["0"] and run_below(150, parse_unit(source)) == top


@pytest.mark.parametrize(
    "source, printed",
    [
        ("driver { int i = 0; while (i < 5) { i = i + 1; } print(i); }", "5"),
        ("driver { bool b = true; int i = 0; while (b) { i = i + 1; b = i < 5; } print(i); }", "5"),
        (_DOWN + "driver { D d = new D(); print(d.down(3)); }", "3"),  # one construction, four calls
    ],
)
def test_each_loop_pass_call_and_construction_is_one_step(source, printed):
    assert run_program(parse_unit(source), max_steps=5).output == [printed]
    with pytest.raises(MiniOORuntimeError) as exc:
        run_program(parse_unit(source), max_steps=4)
    assert (str(exc.value), exc.value.result.output) == ("run used up its budget of 4 steps", [])


def test_a_loop_condition_that_stops_being_a_bool_is_a_fault():
    assert run_fault("driver { bool b = true; while (b) { print(1); b = 2; } }") == ("condition is not a bool", ["1"])


@pytest.mark.parametrize(
    "source, max_steps, message",
    [
        ("driver { print(1); while (true) { } }", MAX_STEPS, "run used up its budget of %d steps" % MAX_STEPS),
        (  # each call's depth is bounded, their number is not
            "class F { public int f(int n) { if (n == 0) { return 1; } return this.f(n - 1) + this.f(n - 1); } }\n"
            "driver { print(1); F x = new F(); print(x.f(200)); }",
            100_000,
            "run used up its budget of 100000 steps",
        ),
        (
            "class F { public int f(int n) { return this.f(n + 1); } }\n"
            "driver { print(1); F x = new F(); print(x.f(0)); }",
            MAX_STEPS,
            "MiniOO calls nested too deeply",
        ),
        (  # a condition not known to be a bool when emitted
            "driver { print(1); bool b = true; while (b) { } }",
            1000,
            "run used up its budget of 1000 steps",
        ),
    ],
)
def test_runs_that_would_not_end_are_faults(source, max_steps, message):
    with pytest.raises(MiniOORuntimeError) as exc:
        run_program(parse_unit(source), max_steps=max_steps)
    assert (str(exc.value), exc.value.result.output) == (message, ["1"])


def test_every_corpus_program_runs_well_inside_the_default_budget():
    units = []
    for fixed in (False, True):
        unit, spec = load_dlist(fixed)
        units.append(merge_units([unit, dlist_driver(checked=False)]))
        units.append(merge_units([unit, weave_program(unit, spec).declarations_unit(), dlist_driver(checked=True)]))
    for path in TRANSPARENCY:
        unit, spec = load_program(path)
        artifacts = weave_program(unit, spec)
        units += [unit, merge_units([swap_driver_constructors(unit, artifacts), artifacts.declarations_unit()])]
    for unit in units:
        interp = Interpreter(unit, trace=True)
        interp.run()
        assert 0 < MAX_STEPS - operator.length_hint(interp.ticks) < MAX_STEPS // 1000


# -- `==` and `!=` on objects: identity -------------------------------------------


def _comparisons(monkeypatch, source: str, name: str = "<driver>") -> tuple:
    """The Python comparison operators, in order, of the function emitted for
    `name` when `source` runs, and that function's source."""
    emitted = _emitted(monkeypatch, source)
    return re.findall(r" (is not|is|==|!=) ", emitted[name]), emitted[name]


def test_comparisons_with_an_object_or_null_are_identity(monkeypatch):
    source = """
        interface I { }
        class A implements I { }
        driver {
            A a = new A(); A b = a; I i = a; string s = "s";
            print(a == b); print(a != null); print(null == s); print(new A() == a); print(i != a);
            print(!(a == b)); print(!(i != null));
        }
    """
    ops, _ = _comparisons(monkeypatch, source)
    assert ops == ["is", "is not", "is", "is", "is not", "is not", "is"]


def test_comparisons_of_values_field_reads_and_call_results_stay_equality(monkeypatch):
    source = """
        class A {
            public A f;
            public A me() { return this; }
        }
        class Box<T> {
            public T v;
            public bool m(T x, T y, A o, int k, bool b, string s) {
                print(this == o); print(o != this); print(x == y); print(k == 1); print(b != true);
                print(s == "q"); print(this.v == x); print(o.f == o.f); print(o.me() != o.me()); print(!(x == y));
                return o == null;
            }
        }
        driver { Box<int> b = new Box<int>(); A a = new A(); print(b.m(1, 1, a, 1, true, "q")); }
    """
    ops, _ = _comparisons(monkeypatch, source, "Box.m")
    assert ops == ["is", "is not", "==", "==", "!=", "==", "==", "==", "!=", "!=", "is"]


def test_a_sibling_block_that_redeclares_a_name_as_a_value_keeps_equality(monkeypatch):
    # The siblings' `a` share one Python name; each block compares as its own `a` is declared.
    source = """
        class A { }
        driver {
            A o = new A();
            if (true) { A a = new A(); print(a == o); }
            if (true) { int a = 1; print(a == 1); }
            if (true) { string a = "x"; print(a != "y"); }
            if (true) { A a = o; print(a != o); }
            print(o == o);
        }
    """
    ops, text = _comparisons(monkeypatch, source)
    assert ops == ["is", "==", "!=", "is not", "is"]
    assert "a_1 is o_0" in text and "a_1 == 1" in text and "a_1 != 'y'" in text


_VALUES = """
    class A { }
    class Box<T> {
        public T v;
        public Box(T v) { this.v = v; }
        public bool same(T x) { return this.v == x; }
        public bool holds(Box<T> o) { T mine = this.v; T theirs = o.v; return mine == theirs && !(mine != theirs); }
        public bool empty() { T mine = this.v; return this.v == null && mine == null && !(mine != null); }
    }
    driver {
        string p = "a";
        string q = p + "b";
        print(p + "b" == "ab"); print(q == "ab"); print(q != "ab"); print(!(q == "a" + "b"));
        Box<string> s = new Box<string>(q);
        print(s.same("a" + "b")); print(s.holds(new Box<string>("ab"))); print(s.empty());
        Box<int> n = new Box<int>(1000 * 1000);
        print(n.same(999999 + 1)); print(n.holds(new Box<int>(2000000 / 2))); print(n.same(7));
        Box<A> a = new Box<A>(null);
        print(a.empty()); print(new Box<A>(new A()).empty()); print(s.empty() || new Box<string>("").empty());
    }
"""


def test_values_built_at_run_time_compare_by_value():
    unit = parse_unit(_VALUES)
    assert typecheck_program(unit) == []
    assert run_program(unit).output == [
        "true", "true", "false", "false",
        "true", "true", "false",
        "true", "true", "false",
        "true", "false", "false",
    ]
