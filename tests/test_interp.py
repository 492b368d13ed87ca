"""Interpreter semantics: dispatch, reflection, gating, and the woven runs."""

import sys

import pytest

from invweave.interp import (
    Interpreter,
    MiniOORuntimeError,
    run_program,
)
from invweave.invspec import load_spec
from invweave.parser import parse_unit
from invweave.syntax import merge_units
from invweave.weave import weave_program

from helpers import dlist_driver, load_dlist, run_woven


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


def build_interp(source: str) -> Interpreter:
    return Interpreter(parse_unit(source))


def test_reflect_get_private_field():
    interp = build_interp(
        """
        class A {
            private int x;
            public A() { this.x = 41; }
        }
        driver { }
        """
    )
    obj = interp.construct("A", [])
    assert interp.reflect_get(obj, "x") == 41


def test_reflect_get_walks_to_grandparent():
    interp = build_interp(
        """
        class A { private int x; public A() { this.x = 5; } }
        class B extends A { public B() { super(); } }
        class C extends B { public C() { super(); } }
        driver { }
        """
    )
    obj = interp.construct("C", [])
    # matches the direct slot lookup
    assert interp.reflect_get(obj, "x") == obj.fields["x"] == 5


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


def test_inheritance_cycle_in_merged_unit_is_a_runtime_fault():
    unit = merge_units([parse_unit("class A extends B { }"), parse_unit("class B extends A { }")])
    unit = merge_units([unit, parse_unit("driver { print(1); A a = new A(); }")])
    with pytest.raises(MiniOORuntimeError) as exc:
        run_program(unit)
    assert str(exc.value) == "inheritance cycle through 'A'"
    assert exc.value.result.output == ["1"]


def _python_calls(unit) -> int:
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

    assert (cost_of_size(200) - cost_of_size(100)) / 200 <= 7


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
    interp = build_interp("class A { public A() { } }\ndriver { }")
    obj = interp.construct("A", [])
    with pytest.raises(MiniOORuntimeError):
        interp.reflect_get(obj, "nope")


def test_dispatch_call_exposed_wrapper_from_python():
    unit, spec = load_dlist(fixed=True)
    art = weave_program(unit, spec)
    merged = merge_units([unit, art.declarations_unit()])
    interp = Interpreter(merged)
    obj = interp.construct("ExposedDLinkedList", [])
    interp.dispatch_call(obj, "add", ["a"])
    interp.dispatch_call(obj, "add", ["b"])
    assert interp.dispatch_call(obj, "size", []) == 2
    assert interp.dispatch_call(obj, "remove", ["a"]) is True
    assert interp.dispatch_call(obj, "size", []) == 1
    # Exposure faithfulness: getters agree with the direct field store.
    assert interp.dispatch_call(obj, "_get_size", []) == obj.fields["size"]
    assert interp.dispatch_call(obj, "_get_head", []) is obj.fields["head"]
    assert interp.dispatch_call(obj, "_get_tail", []) is obj.fields["tail"]


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
    # Corrupt one back-link directly in the heap; the generated sweep and a
    # hand-written walk over interpreter objects must agree.
    unit, spec = load_dlist(fixed=True)
    art = weave_program(unit, spec)
    merged = merge_units([unit, art.declarations_unit()])
    interp = Interpreter(merged)
    ls = interp.construct("ExposedDLinkedList", [])
    for v in ("a", "b", "c"):
        interp.dispatch_call(ls, "add", [v])

    def hand_checker(obj) -> bool:
        head = interp.reflect_get(obj, "head")
        tail = interp.reflect_get(obj, "tail")
        n = head
        while n is not tail:
            nxt = interp.reflect_get(n, "next")
            if interp.reflect_get(nxt, "prev") is not n:
                return False
            n = nxt
        return True

    assert hand_checker(ls) is True
    assert interp.dispatch_call(ls, "inv", []) is True
    # corrupt: second node's prev pointer dangles to the head
    head = interp.reflect_get(ls, "head")
    first = interp.reflect_get(head, "next")
    second = interp.reflect_get(first, "next")
    second.fields["prev"] = head
    assert hand_checker(ls) is False
    assert interp.dispatch_call(ls, "inv", []) is False


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
