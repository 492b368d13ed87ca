"""Round-trip and golden checks for the canonical formatter."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invweave.parser import parse_unit
from invweave.printer import render_expr, render_source
from invweave.syntax import (
    Assign,
    Binary,
    BoolLit,
    ClassDecl,
    ConstructorDecl,
    DriverBlock,
    ExprStmt,
    FieldAccess,
    FieldDecl,
    IfStmt,
    IntLit,
    LocalDecl,
    MethodCall,
    MethodDecl,
    NamedType,
    NewObject,
    NullLit,
    Param,
    PrintStmt,
    Record,
    ReturnStmt,
    SourceUnit,
    StringLit,
    ThisExpr,
    TypeVar,
    Unary,
    VarRead,
    WhileStmt,
)

from helpers import CORPUS, TRANSPARENCY


def test_empty_class_golden():
    assert render_source(parse_unit("class A { }")) == "class A {\n}\n"


def test_empty_unit_renders_empty():
    assert render_source(SourceUnit()) == ""


def same(a, b) -> bool:
    """`a == b`, compared field by field without recursion, so that it holds
    for expressions nested deeper than the Python stack."""
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        if isinstance(x, Record):
            if x.__class__ is not y.__class__:
                return False
            pending += ((getattr(x, n), getattr(y, n)) for n in x._keyed)
        elif isinstance(x, (list, tuple)):
            if x.__class__ is not y.__class__ or len(x) != len(y):
                return False
            pending += zip(x, y)
        elif x != y:
            return False
    return True


def roundtrip(source: str) -> None:
    unit = parse_unit(source)
    printed = render_source(unit)
    again = parse_unit(printed)
    assert same(again, unit)
    assert render_source(again) == printed  # printing is a fixed point


@pytest.mark.parametrize(
    "source",
    [
        "class A { }",
        "abstract class A { public int f(); }",
        "interface I<T> { T pick(int i); }",
        "class A { private int x; public A(int x) { this.x = x; } }",
        "class A { public A() { } public void f() { print(1 - -2); } }",
        "class A { public A() { } public int f() { return (1 + 2) * 3; } }",
        'class A { public A() { } public void f() { print("a\\nb\\"c\\\\d"); } }',
        "class A { public A() { } public void f(bool b) { if (b) { } else { if (!b) { } } } }",
        "class B { public B() { } }\nclass A extends B { public A() { super(); } }",
        "driver {\n    int i = 0;\n    while (i < 3) {\n        i = i + 1;\n    }\n}",
        "class A { public A() { } public <U> void f(U u) { } }",
        pytest.param("driver { int x = %s; }" % " + ".join(["1"] * 4000), id="sum-4000"),
        pytest.param(
            "class N { public N n; public N() { this.n = this; } }\n"
            "driver { N a = new N(); N b = a%s; }" % (".n" * 4000),
            id="field-chain-4000",
        ),
    ],
)
def test_roundtrip_cases(source):
    roundtrip(source)


@pytest.mark.parametrize(
    "path", [CORPUS / "dlist" / "list.moo", CORPUS / "dlist" / "list_fixed.moo"]
    + list(TRANSPARENCY)
    + sorted((CORPUS / "gating").glob("*.moo"))
    + sorted((CORPUS / "fixtures").glob("*.moo")),
    ids=lambda p: p.name,
)
def test_corpus_roundtrip(path: Path):
    roundtrip(path.read_text())


def test_minimal_paren_insertion():
    e = Binary("*", Binary("+", IntLit(1), IntLit(2)), IntLit(3))
    assert render_expr(e) == "(1 + 2) * 3"
    e2 = Binary("+", IntLit(1), Binary("*", IntLit(2), IntLit(3)))
    assert render_expr(e2) == "1 + 2 * 3"
    e3 = Unary("!", Binary("==", VarRead("a"), VarRead("b")))
    assert render_expr(e3) == "!(a == b)"
    e4 = Binary("-", IntLit(1), Binary("-", IntLit(2), IntLit(3)))
    assert render_expr(e4) == "1 - (2 - 3)"



def test_a_node_the_printer_does_not_know_is_named_in_a_type_error():
    with pytest.raises(TypeError, match="unknown node 'DriverBlock'"):
        render_expr(Binary("+", IntLit(1), DriverBlock([])))

# -- randomized round-trip ---------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "d", "val", "obj"])
_type_names = st.sampled_from(["int", "bool", "string", "Thing"])


# Each recursive strategy is built once, here: rebuilding one on every draw
# costs Hypothesis far more than generating the examples does.
_TYPES = _type_names.map(lambda n: NamedType(n))


_literals = st.one_of(
    st.integers(min_value=0, max_value=99).map(IntLit),
    st.booleans().map(BoolLit),
    st.text(alphabet="xyz \\\"\n\t", max_size=4).map(StringLit),
    st.just(NullLit()),
)


_EXPRS = st.recursive(
    st.one_of(_literals, _names.map(VarRead), st.just(ThisExpr())),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "==", "&&", "||", "<"]), inner, inner).map(
            lambda t: Binary(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(["!", "-"]), inner).map(lambda t: Unary(t[0], t[1])),
        st.tuples(inner, _names).map(lambda t: FieldAccess(t[0], t[1])),
        st.tuples(inner, _names, st.lists(inner, max_size=2)).map(
            lambda t: MethodCall(t[0], t[1], t[2])
        ),
        st.tuples(_TYPES, st.lists(inner, max_size=2)).map(
            lambda t: NewObject(NamedType("Thing"), t[1])
        ),
    ),
    max_leaves=10,
)

_STMTS = st.recursive(
    st.one_of(
        st.tuples(_TYPES, _names, _EXPRS).map(lambda t: LocalDecl(t[0], t[1], t[2])),
        st.tuples(_names, _EXPRS).map(lambda t: Assign(VarRead(t[0]), t[1])),
        _EXPRS.map(PrintStmt),
        st.tuples(st.one_of(st.none(), _EXPRS)).map(lambda t: ReturnStmt(t[0])),
        st.tuples(_EXPRS, _names, st.lists(_EXPRS, max_size=2)).map(
            lambda t: ExprStmt(MethodCall(t[0], t[1], t[2]))
        ),
    ),
    lambda inner: st.one_of(
        st.tuples(_EXPRS, st.lists(inner, max_size=2), st.one_of(st.none(), st.lists(inner, max_size=2))).map(
            lambda t: IfStmt(t[0], t[1], t[2])
        ),
        st.tuples(_EXPRS, st.lists(inner, max_size=2)).map(
            lambda t: WhileStmt(t[0], t[1])
        ),
    ),
    max_leaves=8,
)


@st.composite
def _units(draw):
    n_fields = draw(st.integers(0, 2))
    fields = [
        FieldDecl("f%d" % i, draw(_TYPES), draw(st.sampled_from(["public", "protected", "private"])))
        for i in range(n_fields)
    ]
    n_methods = draw(st.integers(0, 2))
    methods = [
        MethodDecl(
            name="m%d" % i,
            visibility=draw(st.sampled_from(["public", "protected", "private"])),
            params=[Param("p", draw(_TYPES))],
            return_type=draw(st.one_of(st.none(), _TYPES)),
            body=draw(st.lists(_STMTS, max_size=3)),
        )
        for i in range(n_methods)
    ]
    ctor = draw(
        st.one_of(
            st.none(),
            st.lists(_STMTS, max_size=2).map(
                lambda body: ConstructorDecl("public", [Param("q", NamedType("int"))], body)
            ),
        )
    )
    cls = ClassDecl(
        name="Thing",
        type_params=draw(st.sampled_from([[], ["T"]])),
        fields=fields,
        constructor=ctor,
        methods=methods,
    )
    driver = draw(st.one_of(st.none(), st.lists(_STMTS, max_size=3).map(DriverBlock)))
    return SourceUnit(classes=[cls], driver=driver)


@settings(max_examples=60, deadline=None)
@given(_units())
def test_roundtrip_random_units(unit):
    printed = render_source(unit)
    reparsed = parse_unit(printed)
    # The parser resolves T as a TypeVar inside a generic class; the random
    # generator only emits NamedType heads, so compare via a second print.
    assert render_source(reparsed) == printed
    assert parse_unit(render_source(reparsed)) == reparsed
