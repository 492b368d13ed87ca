"""The contract of the package's records (`syntax.Record`): plain `__slots__`
classes whose `__init__` takes every field in order, compared field by field
without their source position.  Only the types hash."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
import weakref

import pytest

import invweave.cli  # noqa: F401  (with the modules below: every module that declares a record)
import invweave.weave  # noqa: F401
from invweave.diagnostics import Diagnostic
from invweave.interp import ExecutionResult, ObjectInstance, ViolationRecord
from invweave.lexer import Token
from invweave.parser import parse_unit
from invweave.syntax import (
    Binary,
    ClassDecl,
    ConstructorDecl,
    DriverBlock,
    FieldAccess,
    InterfaceDecl,
    IntLit,
    MethodCall,
    MethodDecl,
    NamedType,
    NewObject,
    NullLit,
    Positioned,
    Record,
    SourceUnit,
    SuperCall,
    TypeVar,
    VarRead,
    replace,
    walk,
)

from helpers import CORPUS, REPO


def _records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


RECORDS = sorted(set(_records()), key=lambda c: (c.__module__, c.__name__))
CONCRETE = [c for c in RECORDS if c is not Positioned]


def test_every_record_takes_its_fields_in_order():
    assert len(CONCRETE) == 51  # ObjectInstance is not a record: its `==` is identity
    for cls in CONCRETE:
        params = list(inspect.signature(cls.__init__).parameters)[1:]
        assert tuple(params) == cls._fields == cls.__dataclass_fields__, cls.__name__


def test_equality_is_structural_and_ignores_positions():
    a = Binary("+", VarRead("x", 1, 2), IntLit(1, 1, 6), 1, 4)
    b = Binary("+", VarRead("x", 7, 7), IntLit(1), 9, 9)
    assert a == b and a is not b
    assert a != Binary("-", VarRead("x"), IntLit(1))
    assert NamedType("List", (TypeVar("T", 3, 4),), 3, 1) == NamedType("List", (TypeVar("T"),))
    assert TypeVar("T") != NamedType("T")  # records of two classes are never equal
    assert VarRead("x") != "x"


def test_repr_shows_the_fields_but_not_the_position():
    assert repr(FieldAccess(VarRead("a", 5, 6), "b", 5, 7)) == "FieldAccess(obj=VarRead(name='a'), name='b')"
    assert repr(NamedType("int", (), 2, 3)) == "NamedType(name='int', args=())"
    assert repr(NullLit(4, 5)) == "NullLit()"


def test_every_list_default_is_a_fresh_list():
    made = [
        (MethodCall(None, "f"), ["args"]),
        (NewObject(NamedType("A")), ["args"]),
        (SuperCall(), ["args"]),
        (MethodDecl("m"), ["type_params", "params"]),
        (ConstructorDecl(), ["params", "body"]),
        (ClassDecl("C"), ["type_params", "interfaces", "fields", "methods"]),
        (InterfaceDecl("I"), ["type_params", "extends", "methods"]),
        (DriverBlock(), ["body"]),
        (SourceUnit(), ["classes", "interfaces"]),
        (ExecutionResult([], [], None), ["combined"]),
    ]
    for record, names in made:
        again = type(record)(**{n: getattr(record, n) for n in record._fields if n not in names})
        for name in names:
            assert getattr(record, name) == [] and getattr(record, name) is not getattr(again, name)


def test_types_hash_by_value_in_any_process():
    types = [TypeVar("T", 1, 2), NamedType("Map", (NamedType("int", (), 3, 4), TypeVar("V")), 5, 6)]
    # Pickled where strings hash otherwise, so a loaded type must hash again as it is built.
    dumped = subprocess.run(
        [sys.executable, "-B", "-c", "import pickle, sys; from invweave.syntax import NamedType, TypeVar;"
         " sys.stdout.buffer.write(pickle.dumps(%r))" % types],
        capture_output=True, check=True, env=dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED="1"),
    ).stdout
    for t, loaded in zip(types, pickle.loads(dumped)):
        twin = copy.deepcopy(t)
        bare = replace(t, line=0, col=0)
        assert t == twin == loaded == bare and hash(t) == hash(twin) == hash(loaded) == hash(bare)
        assert {t: 1}[twin] == {t: 1}[loaded] == {t: 1}[bare] == 1


@pytest.mark.parametrize(
    "record",
    [Token("IDENT", "x", 1, 1), Diagnostic("syntax", "bad", 1, 1), ViolationRecord("A", 0, "entry", "m"), VarRead("x")],
    ids=lambda r: type(r).__name__,
)
def test_other_records_are_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)


def test_objects_compare_by_identity():
    a = ObjectInstance("A", 1, {})
    b = ObjectInstance("A", 1, {})
    assert a == a and a != b and len({a, b}) == 2


def test_every_memoised_declaration_takes_a_weak_reference():
    # A class table holds its classes and interfaces weakly (`typecheck`), and a method or
    # constructor of a class's runtime tables its class and declaration (`interp`).
    unit = parse_unit(
        "interface I { int f(); }\n"
        "class A implements I { public A() { } public int f() { return 1; } }\n"
        "driver { }\n"
    )
    cls = unit.classes[0]
    for decl in (cls, unit.interfaces[0], cls.methods[0], cls.constructor):
        assert weakref.ref(decl)() is decl


def test_replace_copies_through_init_and_leaves_the_record_unchanged():
    call = MethodCall(VarRead("a"), "f", [IntLit(1)], 3, 4)
    moved = replace(call, name="g")
    assert (moved.name, moved.receiver, moved.args, moved.line, moved.col) == ("g", call.receiver, call.args, 3, 4)
    assert call.name == "f"


def _types(t) -> int:
    return 1 + sum(_types(a) for a in getattr(t, "args", ()))


def _body(stmts) -> int:
    n = 0
    for s in stmts:
        for node in walk(s):
            n += 1 + sum(_types(getattr(node, f)) for f in ("decl_type", "type") if hasattr(node, f))
    return n


def _method(m) -> int:
    n = 1 + sum(1 + _types(p.type) for p in m.params) + _body(m.body or [])
    return n + (_types(m.return_type) if getattr(m, "return_type", None) is not None else 0)


def _count(unit) -> int:
    """The nodes of a unit, counted by its declarations, types and `walk`."""
    n = 1
    for c in unit.classes:
        n += 1 + sum(_types(t) for t in ([c.super_class] if c.super_class else []) + c.interfaces)
        n += sum(1 + _types(f.declared_type) for f in c.fields)
        n += sum(_method(m) for m in c.methods + ([c.constructor] if c.constructor else []))
    for i in unit.interfaces:
        n += 1 + sum(_types(t) for t in i.extends) + sum(_method(m) for m in i.methods)
    if unit.driver is not None:
        n += 1 + _body(unit.driver.body)
    return n


def test_benchmark_node_counter_counts_every_node():
    sys.path.insert(0, str(REPO / "bench"))
    try:
        from tracer import count_nodes
    finally:
        sys.path.remove(str(REPO / "bench"))
    assert count_nodes(parse_unit("class A { }")) == 2
    for path in sorted(CORPUS.rglob("*.moo")):
        unit = parse_unit(path.read_text())
        assert count_nodes(unit) == _count(unit) > 2, path.name
