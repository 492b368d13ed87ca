"""Replayed checks: in a unit the weaver built in process, a woven check that
passed is not run again while nothing has been logged as written since; the
run draws the steps it took instead (see `interp`)."""

import copy
import json
import operator

import pytest

from invweave import interp as interp_module
from invweave.diagnostics import errors_only
from invweave.interp import Interpreter, MiniOORuntimeError, _Emitter, run_program
from invweave.invspec import load_spec
from invweave.parser import parse_unit
from invweave.printer import render_source
from invweave.syntax import SourceUnit, merge_units, replace
from invweave.typecheck import typecheck_program
from invweave.weave import swap_driver_constructors, weave_program

from helpers import dlist_driver, load_dlist


def _walk(class_name: str, field: str) -> str:
    """A spec for `class_name`: `field` is not negative, and a quantifier walks its value."""
    predicates = ["%s >= 0" % field, "forall (i = 0; i < %s; i = i + 1) : i >= 0" % field]
    return json.dumps({"classes": [{"name": class_name, "invariant": predicates}]})


def test_the_weaver_marks_its_classes_and_text_parsed_back_has_no_marks():
    # Only `DLinkedList`'s chain has a quantified predicate: `AbstractList`'s check takes a few steps.
    unit, spec = load_dlist(fixed=True)
    art = weave_program(unit, spec)
    abstract, linked = art.exposed_classes
    assert abstract._mark == (None, ("_depth",), ())
    check, own, (visitor, chain) = linked._mark
    assert check is next(m for m in linked.methods if m.name == "inv") and own == ("_depth",)
    # the chain's own predicates, root first, each free variable with the type its visit method binds
    assert visitor is art.visitor and [preds for preds, _ in chain] == [spec.predicates(c) for c in spec.classes()]
    assert all(a is b for (a, _), b in zip(chain, map(spec.predicates, spec.classes())))
    assert [[(v, str(t)) for v, t in free] for _, free in chain] == [[("size", "int")], [("head", "DNode<T>"), ("tail", "DNode<T>")]]
    assert art.visitor._mark == (None, ("_ok", "_fail_class", "_fail_index"), ())
    assert all(c._mark is None for c in unit.classes)
    merged = merge_units([unit, art.declarations_unit()])
    reparsed = parse_unit(render_source(merged))
    assert reparsed == merged and all(c._mark is None for c in reparsed.classes)
    assert interp_module._counted(merged) and not interp_module._counted(reparsed)


def _copied(unit, how: str) -> SourceUnit:
    if how == "reparse":
        return parse_unit(render_source(unit))
    if how == "deepcopy":
        return copy.deepcopy(unit)
    each = copy.copy if how == "copy" else replace
    return SourceUnit([each(c) for c in unit.classes], [each(i) for i in unit.interfaces], each(unit.driver))


def _seen(unit) -> tuple:
    interp = Interpreter(unit, trace=True)
    r = interp.run()
    return r.output, r.trace, r.combined, r.violation, interp.max_steps - operator.length_hint(interp.ticks)


@pytest.mark.parametrize("how", ["copy", "deepcopy", "replace", "reparse"])
def test_copies_of_a_woven_checked_and_run_unit_carry_no_memo(monkeypatch, how):
    unit, spec = load_dlist(fixed=True)
    woven = merge_units([unit, weave_program(unit, spec).declarations_unit(), dlist_driver(checked=True)])
    assert typecheck_program(woven) == []
    on = _seen(woven)
    assert all(d._verdict is not None for d in [*woven.classes, *woven.interfaces])
    assert any(c._mark is not None for c in woven.classes) and any(c._code is not None for c in woven.classes)
    assert woven.driver._code is not None
    copied = _copied(woven, how)
    decls = [*copied.classes, *copied.interfaces, copied.driver]
    memos = [getattr(d, slot, None) for d in decls for slot in ("_mark", "_code", "_verdict")]
    assert copied == woven and memos == [None] * len(memos)
    # the copies' unit logs no writes, so each of its checks runs in full
    monkeypatch.setattr(interp_module, "_replaying", lambda *marked: pytest.fail("a copy's check body replays"))
    assert not interp_module._counted(copied)
    seen = _seen(copied)
    monkeypatch.setattr(interp_module, "_counted", lambda unit: False)
    assert seen == _seen(woven) == on and on[4] > 300


def _spy_on_build(monkeypatch) -> list:
    """The (name, source) of each function emitted from now on."""
    built, build = [], _Emitter.build

    def spy(em, fn_name):
        built.append((fn_name, "\n".join(em.out)))
        return build(em, fn_name)

    monkeypatch.setattr(_Emitter, "build", spy)
    return built


@pytest.mark.parametrize("order", [("checked", "plain", "checked"), ("plain", "checked", "plain")])
def test_plain_and_checked_runs_over_shared_declarations_keep_their_own_bodies(monkeypatch, order):
    # Both units hold the faulty list's own classes.  Were a plain body, which does not
    # log its writes, run in the checked unit, `remove`'s exit check would replay the
    # pass of its entry check and miss the violation.
    unit, spec = load_dlist(fixed=False)
    decls = weave_program(unit, spec).declarations_unit()
    units = {
        "plain": merge_units([unit, dlist_driver(checked=False)]),
        "checked": merge_units([unit, decls, dlist_driver(checked=True)]),
    }
    built, first = _spy_on_build(monkeypatch), {}
    for kind in order:
        built.clear()
        result = run_program(units[kind], check_trace=True)
        if kind == "plain":
            assert result.violation is None and result.output == ["testRemove complete"]
            assert not any("rt.log" in source for _, source in built)
        else:
            assert str(result.violation) == "VIOLATION DLinkedList 0 exit remove"
        first.setdefault(kind, dict(built))
    # the faulty `remove` stores into `prev` and `this`, and logs each object it wrote
    stores = [line.strip() for line in first["checked"]["DLinkedList.remove"].splitlines() if " = " in line]
    assert "prev_2.f_next = cur_1; rt.log.append(prev_2)" in stores
    assert "this.f_size = this.f_size - 1; rt.log.append(this)" in stores
    assert "rt.log" not in first["plain"]["DLinkedList.remove"]


def test_a_driver_write_between_calls_is_seen_by_the_next_check():
    unit, spec = load_dlist(fixed=True)
    driver = 'driver { ExposedDLinkedList<string> ls = new ExposedDLinkedList<string>(); ls.add("a"); ls.add("b"); %s }'

    def interpreter(edit: str) -> Interpreter:
        return Interpreter(merge_units([unit, weave_program(unit, spec).declarations_unit(), parse_unit(driver % edit)]))

    interp = interpreter("")
    interp.run()
    # the exit check of the second `add` passed, and the run has logged nothing since
    assert [last[1] for last in interp.passed.values()] == [len(interp.log)]
    result = interpreter("ls.head.next.next.prev = ls.head; print(ls.size());").run()
    assert result.output == [] and str(result.violation) == "VIOLATION DLinkedList 0 entry size"


_ACC = """
class Acc {
    protected int total;
    public Acc() { this.total = 0; }
    public void add(int v) { this.total = this.total + v; }
    public int total() { return this.total; }
    public int viaNull() { Acc a = null; return a.total(); }
    public int share(int k) { return this.total / k; }
    public int down(int n) { if (n == 0) { return 0; } return this.down(n - 1) + 1; }
}
"""
_ACC_SPEC = _walk("Acc", "total")
_BUDGET = 200  # steps of the `spin` run: it runs out inside a replayed check

# driver -> (output, fault): each wrapped method faults after its entry check
_WOVEN_FAULTS = {
    "null-local": ("Acc a = new Acc(); a.add(2); print(a.total()); print(a.viaNull());",
                   ["2"], "null dereference calling 'total'"),
    "zero-divisor": ("Acc a = new Acc(); a.add(6); print(a.share(3)); print(a.share(0));",
                     ["2"], "division by zero"),
    "runaway-recursion": ("Acc a = new Acc(); print(a.down(3)); print(a.down(1000));",
                          ["3"], "MiniOO calls nested too deeply"),
    "spin": ("Acc a = new Acc(); a.add(1); while (true) { a.total(); }",
             [], "run used up its budget of %d steps" % _BUDGET),
}


def _woven_acc(driver: str, classes: str = _ACC):
    unit = parse_unit(classes + "driver { %s }" % driver)
    artifacts = weave_program(unit, load_spec(_ACC_SPEC))
    woven = merge_units([swap_driver_constructors(unit, artifacts), artifacts.declarations_unit()])
    assert errors_only(typecheck_program(woven)) == []
    return woven


def _run_to_fault(unit, max_steps: int) -> tuple:
    """What the run recorded, its fault, the steps it used, and the function that raised."""
    interp = Interpreter(unit, trace=True, max_steps=max_steps)
    with pytest.raises(MiniOORuntimeError) as fault:
        interp.run()
    tb = fault.value.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    r = fault.value.result
    seen = r.output, r.trace, r.combined, str(fault.value), max_steps - operator.length_hint(interp.ticks)
    return seen, tb.tb_frame.f_code.co_name


@pytest.mark.parametrize("case", sorted(_WOVEN_FAULTS))
def test_a_fault_inside_a_woven_method_is_the_same_with_checks_replayed_or_run(monkeypatch, case):
    driver, output, message = _WOVEN_FAULTS[case]
    on, raised_in = _run_to_fault(_woven_acc(driver), _BUDGET if case == "spin" else 10_000)
    assert on[0] == output and on[3] == message and on[1][0] == "CHECK 1 Acc construction <init>"
    assert (raised_in == "replay") == (case == "spin")
    monkeypatch.setattr(interp_module, "_counted", lambda unit: False)
    off, _ = _run_to_fault(_woven_acc(driver), _BUDGET if case == "spin" else 10_000)
    assert off == on


def _outcome(unit) -> tuple:
    try:
        return run_program(unit).output, None
    except MiniOORuntimeError as exc:
        return exc.result.output, str(exc)


@pytest.mark.parametrize("n", range(122, 130))
def test_a_pass_is_not_replayed_deeper_than_it_ran(monkeypatch, n):
    # `b` passes its checks at call depth 1; `reach` then calls it from 2n + 3 levels
    # down, where its check runs out of call depth for n of 125 and 126 (and the call
    # itself for larger n).
    reach = "public int reach(Acc o, int n) { if (n == 0) { return o.total(); } return this.reach(o, n - 1); }"
    classes = _ACC.replace("public int total()", reach + "\n    public int total()")
    driver = "Acc a = new Acc(); Acc b = new Acc(); print(b.total()); print(a.reach(b, %d));" % n
    on = _outcome(_woven_acc(driver, classes))
    assert on == (["0"] + ["0"] * (n < 125), None if n < 125 else "MiniOO calls nested too deeply")
    monkeypatch.setattr(interp_module, "_counted", lambda unit: False)
    assert _outcome(_woven_acc(driver, classes)) == on


def test_a_field_the_driver_writes_is_read_again_by_the_next_check():
    source = """
        class P { public int v; public int get() { return this.v; } }
        driver { P p = new P(); print(p.get()); if (true) { p.v = -1; } print(p.get()); }
    """
    unit = parse_unit(source)
    artifacts = weave_program(unit, load_spec(_walk("P", "v")))
    result = run_program(merge_units([swap_driver_constructors(unit, artifacts), artifacts.declarations_unit()]))
    assert result.output == ["0"] and str(result.violation) == "VIOLATION P 0 entry get"


_PROBE = """
    class Box { public int v; public int get() { return this.v; } }
    class Holder { public Box b; }
    class Reader { public Reader() { print(@singleton(Holder).b.get()); } }
    class Probe {
        public Probe(Box b) { print(b.get()); }
        public void deep(Box b, int n) { if (n == 0) { b.get(); } else { this.deep(b, n - 1); } }
    }
"""


def _probed(driver: str):
    """`driver` over `_PROBE`, after `b` passed a check deep in `p.deep` and was then written, with `Box` woven."""
    unit = parse_unit(_PROBE + "driver { Box b = new Box(); Probe p = new Probe(b); p.deep(b, 5); b.v = -1; %s }" % driver)
    artifacts = weave_program(unit, load_spec(_walk("Box", "v")))
    return merge_units([swap_driver_constructors(unit, artifacts), artifacts.declarations_unit()])


def test_a_driver_write_before_a_construction_is_seen_by_its_checks(monkeypatch):
    # `deep` records a pass of `b`'s check deeper than the constructor's call of `get` runs.
    on = run_program(_probed("Probe q = new Probe(b);"))
    assert on.output == ["0"] and str(on.violation) == "VIOLATION Box 0 entry get"
    monkeypatch.setattr(interp_module, "_counted", lambda unit: False)
    assert run_program(_probed("Probe q = new Probe(b);")) == on


@pytest.mark.parametrize("replay", [True, False])
def test_a_driver_write_before_a_singleton_is_seen_by_its_checks(monkeypatch, replay):
    # `deep` records a pass of `b`'s check deeper than the Reader constructor's call of `get` runs.
    if not replay:
        monkeypatch.setattr(interp_module, "_counted", lambda unit: False)
    result = run_program(_probed("Holder h = @singleton(Holder); h.b = b; Reader r = @singleton(Reader);"))
    assert result.output == ["0"] and str(result.violation) == "VIOLATION Box 0 entry get"


def test_a_check_that_prints_runs_every_time():
    # A subclass's getter prints, so each of its checks prints: a pass that printed is not replayed.
    unit = parse_unit("class Box { public int v; public int get() { return this.v; } }")
    noisy = parse_unit("""
        class Noisy extends ExposedBox { public int _get_v() { print("read"); return this.v; } }
        driver { Box b = new Noisy(); print(b.get()); print(b.get()); }
    """)
    artifacts = weave_program(unit, load_spec(_walk("Box", "v")))
    result = run_program(merge_units([unit, artifacts.declarations_unit(), noisy]))
    assert result.output == ["read"] * 3 + ["0"] + ["read"] * 2 + ["0"]
