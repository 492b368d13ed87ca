import pytest

from invweave.diagnostics import ParseError
from invweave.parser import MAX_STATEMENT_LEVELS, parse_unit
from invweave.syntax import (
    Binary,
    FieldAccess,
    LocalDecl,
    MethodCall,
    NamedType,
    TypeVar,
    VarRead,
)

from helpers import load_dlist


def test_minimal_unit():
    unit = parse_unit("class A { }")
    assert len(unit.classes) == 1
    assert unit.classes[0].name == "A"
    assert unit.classes[0].super_class is None
    assert unit.interfaces == [] and unit.driver is None


def test_generic_class_header():
    unit = parse_unit("class DLinkedList<T> extends AbstractList<T> implements List<T> { }")
    c = unit.classes[0]
    assert c.type_params == ["T"]
    assert c.super_class == NamedType("AbstractList", (TypeVar("T"),))
    assert c.interfaces == [NamedType("List", (TypeVar("T"),))]


def test_self_inheritance_cycle():
    with pytest.raises(ParseError) as exc:
        parse_unit("class A extends A { }")
    assert exc.value.diagnostic.code == "inheritance-cycle"


def test_mutual_inheritance_cycle():
    with pytest.raises(ParseError) as exc:
        parse_unit("class A extends B { }\nclass B extends A { }")
    assert exc.value.diagnostic.code == "inheritance-cycle"


def test_bad_local_initializer_is_reported_where_it_is():
    with pytest.raises(ParseError) as exc:
        parse_unit("driver {\n    int x = 1 + ;\n}\n")
    d = exc.value.diagnostic
    assert (d.code, d.message, d.line, d.col) == ("syntax", "expected expression", 2, 17)


def test_duplicate_declaration():
    with pytest.raises(ParseError) as exc:
        parse_unit("class A { }\nclass A { }")
    assert exc.value.diagnostic.code == "duplicate-name"


def test_duplicate_method_rejected():
    with pytest.raises(ParseError):
        parse_unit("class A { public void f() { } public void f() { } }")


def test_duplicate_field_rejected():
    with pytest.raises(ParseError):
        parse_unit("class A { public int x; public bool x; }")


def test_second_constructor_rejected():
    with pytest.raises(ParseError):
        parse_unit("class A { public A() { } public A() { } }")


def test_bodiless_method_needs_abstract_class():
    with pytest.raises(ParseError):
        parse_unit("class A { public int f(); }")
    unit = parse_unit("abstract class A { public int f(); }")
    assert unit.classes[0].methods[0].body is None


def test_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse_unit("class A {\n  public int f( {\n}")
    d = exc.value.diagnostic
    assert d.code == "syntax"
    assert d.line == 2
    assert "expected" in d.message


def test_field_multi_declarator_splits():
    unit = parse_unit("class A { protected int x, y; }")
    names = [f.name for f in unit.classes[0].fields]
    assert names == ["x", "y"]
    assert all(f.visibility == "protected" for f in unit.classes[0].fields)


def test_local_decl_vs_expression_disambiguation():
    unit = parse_unit(
        """
        class P { public P() { } }
        class A {
            public int x;
            public A() { }
            public void f() {
                P p = new P();
                x = 1;
                this.x = x + 2;
            }
        }
        """
    )
    body = unit.classes[1].methods[0].body
    assert isinstance(body[0], LocalDecl)
    assert body[0].decl_type == NamedType("P")


def test_precedence_and_associativity():
    unit = parse_unit(
        "class A { public A() { } public int f() { return 1 + 2 * 3 - 4; } }"
    )
    e = unit.classes[0].methods[0].body[0].value
    # (1 + (2*3)) - 4
    assert isinstance(e, Binary) and e.op == "-"
    assert isinstance(e.left, Binary) and e.left.op == "+"
    assert isinstance(e.left.right, Binary) and e.left.right.op == "*"


# MiniOO's binary operators by level, loosest first (Java's order).
_LEVELS = [("||",), ("&&",), ("==", "!="), ("<", "<=", ">", ">="), ("+", "-"), ("*", "/")]


def test_every_operator_pair_groups_by_level():
    level = {op: n for n, ops in enumerate(_LEVELS) for op in ops}
    a, b, c = VarRead("a"), VarRead("b"), VarRead("c")
    for o1 in level:
        for o2 in level:
            unit = parse_unit("driver { print(a %s b %s c); }" % (o1, o2))
            if level[o1] >= level[o2]:  # the same level groups left
                want = Binary(o2, Binary(o1, a, b), c)
            else:
                want = Binary(o1, a, Binary(o2, b, c))
            assert unit.driver.body[0].value == want, (o1, o2)


def test_postfix_chain():
    unit = parse_unit(
        "class A { public A f; public A() { } public A g() { return this.f.g().f; } }"
    )
    e = unit.classes[0].methods[0].body[0].value
    assert isinstance(e, FieldAccess)
    assert isinstance(e.obj, MethodCall)


def test_generic_method_header():
    unit = parse_unit(
        "class A { public A() { } public <U> void f(U x) { } }"
    )
    m = unit.classes[0].methods[0]
    assert m.type_params == ["U"]
    assert m.params[0].type == TypeVar("U")


def test_driver_block_and_bare_call_parse():
    unit = parse_unit("driver {\n    print(1 + 2);\n    int n = 3;\n}")
    assert unit.driver is not None
    assert len(unit.driver.body) == 2


def test_duplicate_driver_rejected():
    with pytest.raises(ParseError):
        parse_unit("driver { } driver { }")


def test_reserved_type_names_rejected():
    for bad in ("int", "bool", "string", "void"):
        with pytest.raises(ParseError):
            parse_unit("class %s { }" % bad)


def test_at_primitives_parse():
    unit = parse_unit(
        """
        class A {
            public int x;
            public A() { }
            public int f(string m) {
                @trace(this, "A", "entry", m);
                @violation("A", 0, "exit", m);
                return @field(this, "x");
            }
        }
        """
    )
    body = unit.classes[0].methods[0].body
    assert len(body) == 3


def test_comments_are_skipped():
    unit = parse_unit("// header\nclass A { // trailing\n}\n")
    assert unit.classes[0].name == "A"


def _too_deep(text: str) -> int:
    """The column of the one-line unit's `statement nested too deeply` error."""
    with pytest.raises(ParseError) as exc:
        parse_unit(text)
    d = exc.value.diagnostic
    assert (d.code, d.message, d.line) == ("syntax", "statement nested too deeply", 1)
    return d.col


@pytest.mark.parametrize("shape", ["if (true) { %s }", "while (false) { %s }", "if (false) { } else { %s }"])
def test_statements_nest_at_most_a_fixed_number_of_levels(shape):
    def unit(levels):
        body = "print(1);"
        for _ in range(levels):
            body = shape % body
        return "class A { public void m() { %s } }" % body

    parse_unit(unit(MAX_STATEMENT_LEVELS))
    text = unit(MAX_STATEMENT_LEVELS + 1)
    col = _too_deep(text)
    # The error is at the brace that opens the level past the bound: the class's, the method's and 200 are open.
    assert text[col - 1] == "{" and text[: col - 1].count("{") - text[: col - 1].count("}") == MAX_STATEMENT_LEVELS + 2


def test_each_else_if_link_is_a_statement_level():
    def unit(n):
        links = "".join(" else if (x == %d) { }" % i for i in range(1, n + 1))
        return "driver { int x = 0; if (x == 0) { }%s }" % links

    parse_unit(unit(MAX_STATEMENT_LEVELS - 1))  # the last link's body is level 200
    text = unit(MAX_STATEMENT_LEVELS)
    col = _too_deep(text)
    assert text[col - 1] == "{" and text[: col - 1].endswith("else if (x == %d) " % MAX_STATEMENT_LEVELS)
    # A chain inside nested blocks counts both.
    depth = MAX_STATEMENT_LEVELS - 1
    nested = "driver { %s if (true) { } else if (true) { } %s }" % ("if (true) { " * depth, "} " * depth)
    assert nested[_too_deep(nested) - 1] == "{"


def test_dlist_corpus_parses():
    unit, _ = load_dlist()
    names = [c.name for c in unit.classes]
    assert names == ["DNode", "AbstractList", "DLinkedList"]
    assert [i.name for i in unit.interfaces] == ["List"]
    dl = unit.classes[2]
    assert dl.type_params == ["T"]
    assert dl.super_class == NamedType("AbstractList", (TypeVar("T"),))
    assert {f.name for f in dl.fields} == {"head", "tail"}
