"""Weaver structure, goldens, and whole-program properties."""

import random

import pytest

from invweave import weave as weave_mod
from invweave.diagnostics import WeaveError
from invweave.exposure import compute_plan
from invweave.interp import ViolationRecord
from invweave.invspec import load_spec
from invweave.parser import parse_unit
from invweave.printer import render_source
from invweave.syntax import (
    IntLit,
    NamedType,
    ReflectGet,
    ReturnStmt,
    STRING,
    SourceUnit,
    TypeVar,
    merge_units,
    replace,
    walk,
)
from invweave.typecheck import _CLEAN, ClassTable, typecheck_program
from invweave.weave import (
    render_artifacts,
    swap_driver_constructors,
    weave_program,
)

from helpers import CORPUS, load_dlist, load_program, make_chain_program, run_woven


@pytest.fixture(scope="module")
def dlist_artifacts():
    unit, spec = load_dlist()
    return unit, spec, weave_program(unit, spec)


def test_dlist_artifact_counts(dlist_artifacts):
    _, _, art = dlist_artifacts
    assert [i.name for i in art.interfaces] == [
        "IExposedAbstractList",
        "IExposedDLinkedList",
    ]
    assert [c.name for c in art.exposed_classes] == [
        "ExposedAbstractList",
        "ExposedDLinkedList",
    ]
    assert art.visitor.name == "InvV"


def test_dlist_interface_goldens(dlist_artifacts):
    _, _, art = dlist_artifacts
    texts = render_artifacts(art)
    assert texts["IExposedAbstractList.moo"] == (
        "interface IExposedAbstractList<T> {\n"
        "    int _get_size();\n"
        "}\n"
    )
    assert texts["IExposedDLinkedList.moo"] == (
        "interface IExposedDLinkedList<T> extends IExposedAbstractList<T> {\n"
        "    DNode<T> _get_head();\n"
        "    DNode<T> _get_tail();\n"
        "}\n"
    )


def test_exposed_class_headers(dlist_artifacts):
    _, _, art = dlist_artifacts
    eal, edl = art.exposed_classes
    t = (TypeVar("T"),)
    assert eal.is_abstract is True  # mirrors the abstract original
    assert eal.super_class == NamedType("AbstractList", t)
    assert eal.interfaces == [NamedType("IExposedAbstractList", t)]
    assert edl.is_abstract is False
    assert edl.super_class == NamedType("DLinkedList", t)
    assert edl.interfaces == [NamedType("IExposedDLinkedList", t)]
    # exposed classes never extend other exposed classes
    exposed_names = {c.name for c in art.exposed_classes}
    for c in art.exposed_classes:
        assert c.super_class.name not in exposed_names


def test_exposed_class_member_shape(dlist_artifacts):
    _, _, art = dlist_artifacts
    edl = art.exposed_classes[1]
    assert [f.name for f in edl.fields] == ["_depth"]
    assert edl.fields[0].visibility == "private"
    names = [m.name for m in edl.methods]
    assert names[:3] == ["_check_entry", "_check_exit", "inv"]
    # wrappers for every public method on the chain, own first
    assert "add" in names and "remove" in names
    assert "size" in names and "isEmpty" in names  # inherited re-wrapped
    # getters for the whole interface chain, ancestors first
    getters = [n for n in names if n.startswith("_get_")]
    assert getters == ["_get_size", "_get_head", "_get_tail"]
    ctor = edl.constructor
    assert ctor is not None and ctor.params == []


def test_minimal_class_template():
    unit = parse_unit("class Solo { public int x; }")
    spec = load_spec('{"classes":[{"name":"Solo","invariant":["x >= 0"]}]}')
    art = weave_program(unit, spec)
    solo = art.exposed_classes[0]
    assert [m.name for m in solo.methods] == [
        "_check_entry",
        "_check_exit",
        "inv",
        "_get_x",
    ]
    assert solo.constructor is not None


def test_private_field_getter_is_reflective():
    unit = parse_unit("class P { private int x; }")
    spec = load_spec('{"classes":[{"name":"P","invariant":["x >= 0"]}]}')
    art = weave_program(unit, spec)
    getter = [m for m in art.exposed_classes[0].methods if m.name == "_get_x"][0]
    assert isinstance(getter.body[0], ReturnStmt)
    assert isinstance(getter.body[0].value, ReflectGet)


def test_protected_field_getter_is_direct(dlist_artifacts):
    _, _, art = dlist_artifacts
    edl = art.exposed_classes[1]
    getter = [m for m in edl.methods if m.name == "_get_head"][0]
    assert isinstance(getter.body[0], ReturnStmt)
    assert not isinstance(getter.body[0].value, ReflectGet)


def test_visitor_structure(dlist_artifacts):
    _, _, art = dlist_artifacts
    v = art.visitor
    names = [m.name for m in v.methods]
    assert names == [
        "reset",
        "valid",
        "failed_class",
        "failed_index",
        "_record",
        "visit_AbstractList",
        "visit_DLinkedList",
    ]
    visit_dl = v.methods[-1]
    assert visit_dl.type_params == ["T"]
    assert visit_dl.params[0].type == NamedType("IExposedDLinkedList", (TypeVar("T"),))
    # parent visit is composed first
    body_text = render_source(SourceUnit(classes=[v]))
    dl_at = body_text.index("visit_DLinkedList")
    assert body_text.index("this.visit_AbstractList(obj);", dl_at) < body_text.index(
        "while", dl_at
    )


def test_visitor_quantifier_golden(dlist_artifacts):
    _, _, art = dlist_artifacts
    text = render_source(SourceUnit(classes=[art.visitor]))
    assert (
        "    public <T> void visit_DLinkedList(IExposedDLinkedList<T> obj) {\n"
        "        this.visit_AbstractList(obj);\n"
        "        if (this._ok) {\n"
        "            DNode<T> head = obj._get_head();\n"
        "            DNode<T> tail = obj._get_tail();\n"
        "            if (this._ok) {\n"
        "                DNode<T> n = head;\n"
        "                while (this._ok && n != tail) {\n"
        '                    if (!(@field(@field(n, "next"), "prev") == n)) {\n'
        '                        this._record("DLinkedList", 0);\n'
        "                    }\n"
        '                    n = @field(n, "next");\n'
        "                }\n"
        "            }\n"
        "        }\n"
        "    }\n"
    ) in text


def test_merged_unit_typechecks(dlist_artifacts):
    unit, _, art = dlist_artifacts
    assert typecheck_program(art.merged_unit()) == []


def test_non_invasiveness(dlist_artifacts):
    unit, spec, art = dlist_artifacts
    before = render_source(unit)
    weave_program(unit, spec)
    assert render_source(unit) == before
    assert render_source(art.source_unit) == before


def test_empty_spec_yields_visitor_shell():
    unit, _ = load_dlist()
    spec = load_spec('{"classes":[]}')
    art = weave_program(unit, spec)
    assert art.interfaces == [] and art.exposed_classes == []
    assert [m.name for m in art.visitor.methods] == [
        "reset",
        "valid",
        "failed_class",
        "failed_index",
    ]
    merged = art.merged_unit()
    assert typecheck_program(merged) == []
    assert art.report.per_class == {} and art.report.formula_bound == 0


def test_unknown_spec_class_fails_weave():
    unit, _ = load_dlist()
    spec = load_spec('{"classes":[{"name":"Ghost","invariant":["x > 0"]}]}')
    with pytest.raises(WeaveError) as exc:
        weave_program(unit, spec)
    assert any(d.code == "unknown-class" for d in exc.value.diagnostics)


def test_interface_congruence_random_chains():
    rng = random.Random(1234)
    for _ in range(25):
        unit, spec = make_chain_program(rng, depth=rng.randint(0, 6))
        art = weave_program(unit, spec)
        iface_by_name = {i.name: i for i in art.interfaces}
        table = ClassTable(unit)
        for c in unit.classes:
            iface = iface_by_name[art.naming.interface_names[c.name]]
            if c.super_class is not None and spec.specifies(c.super_class.name):
                assert [e.name for e in iface.extends] == [
                    art.naming.interface_names[c.super_class.name]
                ]
            else:
                assert iface.extends == []


def test_wrapper_completeness_against_ast_walk():
    unit, spec = load_dlist()
    art = weave_program(unit, spec)
    table = ClassTable(unit)
    for c, exposed in zip(
        [cl for cl in unit.classes if spec.specifies(cl.name)], art.exposed_classes
    ):
        # Oracle: every public method with an implementation anywhere on the
        # chain must be overridden in the exposed class (abstract-only names
        # cannot be wrapped; there is nothing to super-call).
        implemented = {
            m.name
            for anc in table.class_chain(c.name)
            for m in anc.methods
            if m.body is not None and m.visibility == "public"
        }
        wrapped = {
            m.name
            for m in exposed.methods
            if not m.name.startswith(("_get_", "_check_")) and m.name != "inv"
        }
        assert wrapped == implemented, c.name


def test_getter_name_collision_freshened():
    unit = parse_unit(
        """
        class Odd {
            public int x;
            public int _get_x() { return 0 - this.x; }
        }
        """
    )
    spec = load_spec('{"classes":[{"name":"Odd","invariant":["x >= 0"]}]}')
    art = weave_program(unit, spec)
    iface = art.interfaces[0]
    assert [m.name for m in iface.methods] == ["_get_x_X1"]
    merged = art.merged_unit()
    assert typecheck_program(merged) == []


def test_top_level_name_collision_freshened():
    unit = parse_unit(
        """
        class Thing { public int x; }
        class ExposedThing { }
        class InvV { }
        """
    )
    spec = load_spec('{"classes":[{"name":"Thing","invariant":["x >= 0"]}]}')
    art = weave_program(unit, spec)
    assert art.naming.exposed_names["Thing"] == "ExposedThing_X1"
    assert art.naming.visitor_name == "InvV_X1"
    assert typecheck_program(art.merged_unit()) == []


def test_space_report_arithmetic(dlist_artifacts):
    _, _, art = dlist_artifacts
    rep = art.report
    assert rep.depth == 1
    assert rep.formula_bound == rep.max_new_members  # h(h+1)/2 == 1
    assert rep.measured_redundant() <= rep.formula_bound
    assert rep.per_class["DLinkedList"]["interface_signatures"] == 2
    assert rep.per_class["AbstractList"]["inherited_members"] == 0


def test_space_report_formula_cases():
    # depth and member bounds drive the closed form directly
    rng = random.Random(5)
    unit, spec = make_chain_program(rng, depth=0)
    art = weave_program(unit, spec)
    assert art.report.depth == 0
    assert art.report.formula_bound == 0
    assert art.report.measured_redundant() == 0


def test_space_bound_on_random_chains():
    rng = random.Random(31)
    table_cache = {}
    for _ in range(25):
        depth = rng.randint(0, 8)
        unit, spec = make_chain_program(rng, depth=depth, max_members=7)
        art = weave_program(unit, spec)
        rep = art.report
        assert rep.depth == depth
        assert rep.max_new_members <= 7
        assert rep.measured_redundant() <= rep.formula_bound
        plan = compute_plan(ClassTable(unit), spec)
        for name, counts in rep.per_class.items():
            d = len(plan.per_class[name].chain) - 1
            assert counts["wrappers"] + counts["getters"] <= rep.max_new_members * (d + 1)


def test_prop1_substitutability_gate():
    unit, spec = load_dlist()
    art = weave_program(unit, spec)
    base = merge_units([unit, art.declarations_unit()])
    vectors = ["int", "string", "DNode<int>"]
    for tau in vectors:
        driver = parse_unit(
            "driver {\n"
            "    DLinkedList<%s> a = new ExposedDLinkedList<%s>();\n"
            "    AbstractList<%s> b = new ExposedDLinkedList<%s>();\n"
            "    IExposedDLinkedList<%s> c = new ExposedDLinkedList<%s>();\n"
            "}" % (tau, tau, tau, tau, tau, tau)
        )
        merged = merge_units([base, driver])
        assert typecheck_program(merged) == [], tau
    # Negative direction: one ill-kinded vector rejected for both sides alike.
    bad_a = merge_units([base, parse_unit("driver { DLinkedList<int, int> a = null; }")])
    bad_e = merge_units([base, parse_unit("driver { ExposedDLinkedList<int, int> a = null; }")])
    codes_a = [d.code for d in typecheck_program(bad_a)]
    codes_e = [d.code for d in typecheck_program(bad_e)]
    assert codes_a == ["arity"] and codes_e == ["arity"]


def test_naive_fixture_fails_binding_check_shipped_passes():
    orig = parse_unit((CORPUS / "fixtures" / "binding_flaw_original.moo").read_text())
    naive = parse_unit((CORPUS / "fixtures" / "binding_flaw_naive.moo").read_text())
    spec = load_spec((CORPUS / "fixtures" / "binding_flaw.json").read_text())
    diags = typecheck_program(merge_units([orig, naive]))
    assert any(
        d.code == "type-mismatch" and "_get_kept" in d.message for d in diags
    )
    art = weave_program(orig, spec)
    assert typecheck_program(art.merged_unit()) == []
    # The shipped construction keeps the exposed class under the original
    # subclass and instantiates the super-interface the way the hierarchy does.
    exposed_item_holder = art.exposed_classes[-1]
    assert exposed_item_holder.super_class.name == "ItemHolder"
    iface_item_holder = art.interfaces[-1]
    assert iface_item_holder.extends[0] == NamedType(
        "IExposedHolder", (NamedType("Item", (TypeVar("T"),)),)
    )


def test_fieldless_true_invariant_yields_empty_interface():
    unit = parse_unit("class Plain { }")
    spec = load_spec('{"classes":[{"name":"Plain","invariant":["true"]}]}')
    art = weave_program(unit, spec)
    iface = art.interfaces[0]
    assert iface.name == "IExposedPlain" and iface.methods == [] and iface.extends == []
    assert typecheck_program(art.merged_unit()) == []


def test_formula_bound_small_case():
    # depth 1 with three members per class: bound is 1*(1+1)/2 * 3 = 3
    unit = parse_unit(
        """
        class R {
            protected int a;
            public void f() { this.a = this.a + 1; }
            public void g() { this.a = this.a + 1; }
        }
        class S extends R {
            protected int b;
            public void h() { this.b = this.b + 1; }
            public void k() { this.b = this.b + 1; }
        }
        """
    )
    spec = load_spec(
        '{"classes":[{"name":"R","invariant":["a >= 0"]},'
        '{"name":"S","invariant":["b >= 0"]}]}'
    )
    art = weave_program(unit, spec)
    assert art.report.depth == 1
    assert art.report.max_new_members == 3
    assert art.report.formula_bound == 3
    # ExposedS re-implements R's two wrappers plus R's getter: exactly 3
    assert art.report.per_class["S"]["inherited_members"] == 3
    assert art.report.measured_redundant() <= art.report.formula_bound


def test_methods_of_unspecified_ancestors_are_wrapped():
    unit = parse_unit(
        """
        class Carrier<T> {
            public T item;
            public void keep(T v) { this.item = v; }
        }
        class Named extends Carrier<string> {
            protected int tag;
            public void tagIt(int t) { this.tag = t; }
        }
        """
    )
    spec = load_spec('{"classes":[{"name":"Named","invariant":["tag >= 0"]}]}')
    art = weave_program(unit, spec)
    exposed = art.exposed_classes[0]
    keep = [m for m in exposed.methods if m.name == "keep"][0]
    assert keep.params[0].type == NamedType("string")  # substituted to the leaf view
    assert typecheck_program(art.merged_unit()) == []


def test_wrapped_generic_method_keeps_type_parameters():
    unit = parse_unit(
        """
        class Picker {
            public int uses;
            public <U> U pick(U a, U b, bool takeFirst) {
                this.uses = this.uses + 1;
                if (takeFirst) {
                    return a;
                }
                return b;
            }
        }
        """
    )
    spec = load_spec('{"classes":[{"name":"Picker","invariant":["uses >= 0"]}]}')
    art = weave_program(unit, spec)
    pick = [m for m in art.exposed_classes[0].methods if m.name == "pick"][0]
    assert pick.type_params == ["U"]
    assert typecheck_program(art.merged_unit()) == []


def test_woven_artifacts_render_reparse_retypecheck(dlist_artifacts):
    unit, _, art = dlist_artifacts
    rendered = render_artifacts(art)
    reparsed = [
        parse_unit(text) for name, text in sorted(rendered.items()) if name.endswith(".moo")
    ]
    merged = merge_units([unit] + reparsed)
    assert typecheck_program(merged) == []


def test_transparency_corpora_weave_cleanly():
    for moo in sorted((CORPUS / "transparency").glob("t*.moo")):
        unit, spec = load_program(moo)
        art = weave_program(unit, spec)
        assert typecheck_program(art.merged_unit()) == [], moo.name


def test_weave_is_deterministic(dlist_artifacts):
    unit, spec, art = dlist_artifacts
    again = weave_program(unit, spec)
    assert render_artifacts(art) == render_artifacts(again)


def test_swap_reaches_trace_and_violation_arguments(dlist_artifacts):
    unit, _, art = dlist_artifacts
    driver = parse_unit(
        "driver {\n"
        '    @trace(new DLinkedList<string>(), "A", "entry", "m");\n'
        '    @violation("A", 0, new DLinkedList<int>(), "m");\n'
        "}\n"
    )
    swapped = swap_driver_constructors(merge_units([unit, driver]), art)
    text = render_source(SourceUnit(driver=swapped.driver))
    assert "new DLinkedList" not in text
    assert text.count("new ExposedDLinkedList") == 2


def _shape(stmts):
    """Each node under `stmts` in pre-order, with the identity of every field
    value: equal shapes mean nothing was replaced or mutated in place."""
    return [
        (id(n), [id(getattr(n, f)) for f in n._fields])
        for s in stmts
        for n in walk(s)
    ]


def test_swap_copies_a_deep_driver_and_leaves_the_input_unchanged(dlist_artifacts):
    unit, _, art = dlist_artifacts
    driver = parse_unit(
        "driver { DLinkedList<int> l = new DLinkedList<int>(); int x = %s; }"
        % " + ".join(["1"] * 4000)
    )
    source = merge_units([unit, driver])
    before = _shape(source.driver.body)
    swapped = swap_driver_constructors(source, art)
    assert _shape(source.driver.body) == before
    assert source.driver.body[0].init.type.name == "DLinkedList"
    assert swapped.driver.body[0].init.type.name == "ExposedDLinkedList"
    copied = [n for s in swapped.driver.body for n in walk(s)]
    assert sum(isinstance(n, IntLit) for n in copied) == 4000
    assert not {id(n) for n in copied} & {id(n) for s in source.driver.body for n in walk(s)}


def test_weave_builds_one_class_table_per_unit(monkeypatch):
    built = []
    init = ClassTable.__init__

    def counting_init(self, unit):
        built.append(unit)
        init(self, unit)

    monkeypatch.setattr(ClassTable, "__init__", counting_init)
    unit, spec = load_dlist()
    art = weave_program(unit, spec)
    # the input unit, then the merged unit of the structural check
    assert len(built) == 2
    assert built[0] is unit
    assert built[1].classes == art.merged_unit().classes


def _visit_params(art, class_name: str) -> list[str]:
    visit = [m for m in art.visitor.methods if m.name == "visit_" + class_name][0]
    return [p.name for p in visit.params]


def test_visitor_parameter_avoids_a_field_named_obj():
    unit = parse_unit(
        """
        class Box {
            private int obj;
            public Box(int v) { this.obj = v; }
            public void set(int v) { this.obj = v; }
        }
        driver { Box b = new Box(1); b.set(-1); }
        """
    )
    result, art = run_woven(unit, load_spec('{"classes":[{"name":"Box","invariant":["obj >= 0"]}]}'))
    assert _visit_params(art, "Box") == ["obj_X1"]
    assert typecheck_program(art.merged_unit()) == []
    assert result.violation == ViolationRecord("Box", 0, "exit", "set")


def test_visitor_parameter_avoids_a_quantifier_variable_named_obj():
    spec = load_spec(
        '{"classes":[{"name":"Count","invariant":'
        '["forall (obj = 0; obj < n; obj = obj + 1) : obj < 2"]}]}'
    )
    source = "class Count { private int n; public Count(int n) { this.n = n; } } driver { Count c = new Count(%d); }"
    result, art = run_woven(parse_unit(source % 2), spec)
    assert _visit_params(art, "Count") == ["obj_X1"]
    assert typecheck_program(art.merged_unit()) == []
    assert result.violation is None
    result, _ = run_woven(parse_unit(source % 3), spec)
    assert result.violation == ViolationRecord("Count", 0, "construction", "<init>")


def test_weave_leaves_no_verdict_on_generated_declarations(dlist_artifacts):
    # weave_program checks only the structure of what it generates, so the
    # first full typecheck of the merged unit types every generated body.
    unit, spec, _ = dlist_artifacts
    art = weave_program(unit, spec)
    generated = [*art.interfaces, *art.exposed_classes, art.visitor]
    assert all(_CLEAN.get(d) is None for d in generated)
    assert typecheck_program(art.merged_unit()) == []
    assert all(_CLEAN.get(d) is not None for d in generated)


def test_generated_header_fault_is_weave_internal(monkeypatch):
    gen = weave_mod.gen_exposed_class

    def string_returning_size(*args):
        cls = gen(*args)
        cls.methods = [replace(m, return_type=STRING) if m.name == "size" else m for m in cls.methods]
        return cls

    monkeypatch.setattr(weave_mod, "gen_exposed_class", string_returning_size)
    unit, spec = load_dlist()
    with pytest.raises(WeaveError) as exc:
        weave_program(unit, spec)
    diags = exc.value.diagnostics
    assert diags[0].code == "weave-internal"
    assert "override of 'size' does not match the inherited signature" in [d.message for d in diags]
