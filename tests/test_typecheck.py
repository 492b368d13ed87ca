import copy

import pytest

from invweave.diagnostics import ParseError
from invweave.parser import parse_unit, validate_structure
from invweave.syntax import Binary, DriverBlock, ExprStmt, IntLit, NamedType, Param, PrintStmt, SourceUnit, merge_units, replace
from invweave.typecheck import ClassTable, _reusable, typecheck_program

from helpers import dlist_driver, load_dlist


def check(source: str):
    return typecheck_program(parse_unit(source))


def codes(diags):
    return [d.code for d in diags]


def test_dlist_corpus_is_well_typed():
    unit, _ = load_dlist()
    assert typecheck_program(merge_units([unit, dlist_driver(checked=False)])) == []


@pytest.mark.parametrize(
    "sources",
    [
        ["class A extends B { }", "class B extends A { }"],
        ["class A extends B { public int x; }", "class B extends A { }\ndriver { A a = new A(); }"],
        ["interface I extends J { }", "interface J extends I { }"],
    ],
)
def test_inheritance_cycle_across_merged_units_is_a_diagnostic(sources):
    # Each unit parses on its own; merge_units does not validate structure.
    merged = merge_units([parse_unit(s) for s in sources])
    with pytest.raises(ParseError) as structural:
        validate_structure(merged)
    assert typecheck_program(merged) == [structural.value.diagnostic]
    assert structural.value.diagnostic.code == "inheritance-cycle"
    # The table's walks up a class chain must stop on the cycle, not loop.
    table = ClassTable(merged)
    for c in merged.classes:
        for walk in (table.class_chain, lambda name: table.members(NamedType(name))):
            with pytest.raises(ParseError) as walked:
                walk(c.name)
            assert walked.value.diagnostic == structural.value.diagnostic
    for d in merged.classes + merged.interfaces:
        with pytest.raises(ParseError) as walked:
            table.closure(NamedType(d.name))
        assert walked.value.diagnostic == structural.value.diagnostic


def test_deep_inheritance_chain_declared_leaf_first_is_accepted(monkeypatch):
    # Deeper than the Python stack: the cycle check and the class-table
    # walks must not recurse once per ancestor, and each class's supertype
    # closure is built from its superclass's, not by walking every ancestor.
    source = "".join("class C%d extends C%d { }\n" % (i, i - 1) for i in range(1499, 0, -1))
    unit = parse_unit(source + "class C0 { public int x; }\n")
    calls = []
    super_instances = ClassTable.super_instances
    monkeypatch.setattr(
        ClassTable, "super_instances", lambda table, t: calls.append(t) or super_instances(table, t)
    )
    assert typecheck_program(unit) == []
    assert len(calls) <= 3 * len(unit.classes)  # one per class here; quadratic was 1.1 M


def test_bool_to_int_field_mismatch():
    diags = check("class A { public int x; public void f() { this.x = true; } }")
    assert codes(diags) == ["type-mismatch"]


def test_private_superclass_field_not_visible_from_subclass():
    diags = check(
        """
        class A { private int x; }
        class B extends A { public int f() { return this.x; } }
        """
    )
    assert "visibility" in codes(diags)


def test_protected_field_visible_from_subclass_but_not_outside():
    assert not check(
        """
        class A { protected int x; }
        class B extends A { public int f() { return this.x; } }
        """
    )
    diags = check(
        """
        class A { protected int x; }
        class C { public int f(A a) { return a.x; } }
        """
    )
    assert "visibility" in codes(diags)


def test_private_method_not_callable_from_outside():
    diags = check(
        """
        class A { private void f() { } }
        class C { public void g(A a) { a.f(); } }
        """
    )
    assert "visibility" in codes(diags)


def test_driver_sees_only_public():
    diags = check(
        """
        class A { protected int x; }
        driver {
            A a = new A();
            print(a.x);
        }
        """
    )
    assert "visibility" in codes(diags)


def test_arity_errors():
    diags = check("class A { public List<int> x; }")
    assert codes(diags) == ["unknown-name"]
    diags = check(
        """
        class B<T> { }
        class A { public B x; }
        """
    )
    assert codes(diags) == ["arity"]
    diags = check("class A { public int<bool> x; }")
    assert codes(diags) == ["arity"]


def test_unknown_names():
    diags = check("class A { public void f() { print(nope); } }")
    assert codes(diags) == ["unknown-name"]
    diags = check("class A { public void f() { this.g(); } }")
    assert codes(diags) == ["unknown-name"]


def test_call_arity_mismatch():
    diags = check(
        """
        class A {
            public void f(int x) { }
            public void g() { this.f(1, 2); }
        }
        """
    )
    assert codes(diags) == ["arity"]


def test_field_shadowing_rejected():
    diags = check(
        """
        class A { public int x; }
        class B extends A { public int x; }
        """
    )
    assert "duplicate-name" in codes(diags)


def test_override_must_match_signature():
    diags = check(
        """
        class A { public int f(int x) { return x; } }
        class B extends A { public bool f(int x) { return true; } }
        """
    )
    assert "type-mismatch" in codes(diags)


def test_override_cannot_narrow_visibility():
    diags = check(
        """
        class A { public void f() { } }
        class B extends A { protected void f() { } }
        """
    )
    assert "visibility" in codes(diags)


def test_valid_override_accepted():
    assert not check(
        """
        class A { public int f(int x) { return x; } }
        class B extends A { public int f(int x) { return x + 1; } }
        """
    )


def test_interface_satisfaction_required_for_concrete():
    diags = check(
        """
        interface I { int f(); }
        class A implements I { }
        """
    )
    assert "type-mismatch" in codes(diags)
    assert not check(
        """
        interface I { int f(); }
        abstract class A implements I { }
        """
    )


def test_interface_satisfaction_through_superclass():
    assert not check(
        """
        interface I { int f(); }
        class Base { public int f() { return 1; } }
        class A extends Base implements I { }
        """
    )


def test_generic_interface_satisfaction_with_substitution():
    assert not check(
        """
        interface I<T> { T pick(); }
        class A implements I<int> { public int pick() { return 1; } }
        """
    )
    diags = check(
        """
        interface I<T> { T pick(); }
        class A implements I<int> { public bool pick() { return true; } }
        """
    )
    assert "type-mismatch" in codes(diags)


def test_subtype_acceptance_through_chain():
    assert not check(
        """
        interface I<T> { }
        class A<T> implements I<T> { }
        class B<T> extends A<T> { }
        driver {
            B<int> b = new B<int>();
            A<int> a = b;
            I<int> i = b;
        }
        """
    )
    diags = check(
        """
        class A<T> { }
        class B<T> extends A<T> { }
        driver {
            A<int> a = new B<bool>();
        }
        """
    )
    assert "type-mismatch" in codes(diags)


def test_grounded_parameter_in_chain():
    assert not check(
        """
        class Pairish<U> { public U u; }
        class A<S> { public S kept; }
        class B<T> extends A<Pairish<T>> { }
        driver {
            B<int> b = new B<int>();
            Pairish<int> p = b.kept;
        }
        """
    )


def test_abstract_class_not_instantiable():
    diags = check(
        """
        abstract class A { }
        driver { A a = new A(); }
        """
    )
    assert "type-mismatch" in codes(diags)


def test_super_call_rules():
    diags = check(
        """
        class A { public A(int x) { } }
        class B extends A { public B() { } }
        """
    )
    assert "type-mismatch" in codes(diags)
    assert not check(
        """
        class A { public A(int x) { } }
        class B extends A { public B() { super(3); } }
        """
    )
    diags = check(
        """
        class A { public A(int x) { } }
        class B extends A { }
        """
    )
    assert "type-mismatch" in codes(diags)


def test_this_and_bare_calls_outside_class():
    diags = check("driver { print(this); }")
    assert "unknown-name" in codes(diags)


def test_a_statement_built_into_an_expression_is_named_in_a_type_error():
    # The parser never puts a statement where an expression belongs.
    bad = Binary("+", ExprStmt(IntLit(1)), IntLit(1))
    with pytest.raises(TypeError, match="unknown expression node 'ExprStmt'"):
        typecheck_program(SourceUnit([], [], DriverBlock([PrintStmt(bad)])))


def test_method_type_parameter_inference():
    assert not check(
        """
        interface IBox<T> { T get(); }
        class Box<T> implements IBox<T> {
            private T item;
            public Box(T v) { this.item = v; }
            public T get() { return this.item; }
        }
        class User {
            public <U> U unwrap(IBox<U> b) { return b.get(); }
            public int use() {
                Box<int> b = new Box<int>(3);
                return this.unwrap(b);
            }
        }
        """
    )
    diags = check(
        """
        interface IBox<T> { T get(); }
        class User {
            public <U> U unwrap(IBox<U> b) { return b.get(); }
            public int use(IBox<bool> b) { return this.unwrap(b); }
        }
        """
    )
    assert "type-mismatch" in codes(diags)


def test_field_and_method_may_share_a_name():
    assert not check(
        """
        class A {
            protected int size;
            public int size() { return this.size; }
        }
        """
    )


def test_string_concat_and_comparison_rules():
    assert not check('driver { print("a" + "b"); }')
    assert "type-mismatch" in codes(check('driver { print("a" + 1); }'))
    assert "type-mismatch" in codes(check('driver { print("a" < "b"); }'))
    assert not check("driver { print(1 < 2); }")
    assert "type-mismatch" in codes(check("driver { print(1 == true); }"))


def test_null_assignment_rules():
    assert not check(
        """
        class A { }
        driver { A a = null; }
        """
    )
    assert "type-mismatch" in codes(check("driver { int x = null; }"))


def test_void_cannot_be_used_as_value():
    diags = check(
        """
        class A {
            public void f() { }
            public void g() { int x = this.f(); }
        }
        """
    )
    assert "type-mismatch" in codes(diags)


def test_condition_must_be_bool():
    assert "type-mismatch" in codes(check("driver { if (1) { } }"))
    assert "type-mismatch" in codes(check("driver { while (1 + 2) { } }"))


def test_return_type_checked():
    diags = check("class A { public int f() { return true; } }")
    assert "type-mismatch" in codes(diags)
    diags = check("class A { public void f() { return 1; } }")
    assert "type-mismatch" in codes(diags)


@pytest.mark.parametrize(
    "visibility,site,ok",
    [
        ("public", "same", True),
        ("public", "sub", True),
        ("public", "other", True),
        ("protected", "same", True),
        ("protected", "sub", True),
        ("protected", "other", False),
        ("private", "same", True),
        ("private", "sub", False),
        ("private", "other", False),
    ],
)
def test_visibility_matrix(visibility, site, ok):
    decl = "class A { %s int x; public A() { } public int own() { return this.x; } }" % visibility
    if site == "same":
        source = decl
    elif site == "sub":
        source = decl + "\nclass B extends A { public B() { super(); } public int f() { return this.x; } }"
    else:
        source = decl + "\nclass C { public C() { } public int f(A a) { return a.x; } }"
    diags = check(source)
    if ok:
        assert diags == []
    else:
        assert "visibility" in codes(diags)


# ---------------------------------------------------------------------------
# Clean verdicts carried over to merged units
# ---------------------------------------------------------------------------


def reused(unit) -> set[str]:
    """Names of the declarations whose clean verdict `unit` would reuse."""
    decls = [*unit.classes, *unit.interfaces]
    ids = _reusable(decls)
    return {d.name for d in decls if id(d) in ids}


def check_as_full(unit):
    """Check `unit`, and a deep copy of it, whose new identities have no verdicts."""
    fresh = copy.deepcopy(unit)
    assert reused(fresh) == set()
    diags = typecheck_program(unit)
    assert diags == typecheck_program(fresh)
    return diags


def test_memo_refuses_a_unit_that_redeclares_a_base_name():
    base = parse_unit(
        "class A { public int x; }\nclass B extends A { public int get() { return x; } }"
    )
    assert typecheck_program(base) == []
    merged = merge_units([base, parse_unit("class A { public string y; }")])
    assert reused(merged) == set()
    # The later A hides the first, so B's body no longer finds `x`.
    assert codes(check_as_full(merged)) == ["unknown-name"]


def test_memo_checks_a_bad_override_of_a_reused_base():
    base = parse_unit("class A { public int f() { return 1; } }")
    assert typecheck_program(base) == []
    part = parse_unit('class B extends A { public string f() { return "s"; } }')
    merged = merge_units([base, part])
    assert reused(merged) == {"A"}
    diags = check_as_full(merged)
    assert [d.message for d in diags] == ["override of 'f' does not match the inherited signature"]


def test_memo_never_reuses_a_base_that_checked_dirty():
    base = parse_unit("class A { public int f() { return true; } }\nclass C { }")
    dirty = typecheck_program(base)
    assert codes(dirty) == ["type-mismatch"]
    merged = merge_units([base, parse_unit("class B extends A { }")])
    assert reused(merged) == set()
    assert check_as_full(merged) == dirty
    assert typecheck_program(base) == dirty


def test_a_named_type_spelling_a_type_variable_is_an_unknown_type():
    # The parser and the weaver spell type variables as TypeVar; a NamedType
    # is looked up as a class or interface, even where a type variable of
    # that name is in scope.
    box = parse_unit("class Box<T> { public void put(T x) { } }").classes[0]
    put = box.methods[0]
    box = replace(box, methods=[replace(put, params=[Param("x", NamedType("T"))])])
    assert [str(d) for d in typecheck_program(SourceUnit(classes=[box]))] == [
        "1:28: error [unknown-name] unknown type 'T'"
    ]


@pytest.mark.parametrize(
    "new",
    [
        # header errors: the member pass never runs
        "class X { public Nope n; }\nclass Y extends A { public int f(Missing m) { return 1; } }\n"
        "interface J { Gone g(); }",
        # member errors only
        'class X { public int f() { return "s"; } }\n'
        "class Y extends A { public bool g() { return h; } }\n"
        "interface J { int k(); }\nclass Z implements J { }",
    ],
)
def test_memo_reports_in_full_check_order_between_reused_declarations(new):
    base = parse_unit(
        "interface I { int get(); }\n"
        "class A implements I { public int get() { return 1; } }\n"
        "class B extends A { public int twice() { return get() + get(); } }\n"
        "class C { public B b; public int f() { return b.twice(); } }"
    )
    assert typecheck_program(base) == []
    part = parse_unit(new)
    (a, b, c), (i,) = base.classes, base.interfaces
    x, y, *z = part.classes
    unit = SourceUnit(classes=[a, x, b, y, c, *z], interfaces=[*part.interfaces, i])
    assert reused(unit) == {"A", "B", "C", "I"}
    assert len(check_as_full(unit)) >= 3
