"""The generic AST traversals `walk` and `rebuild` and the child-field table
behind both."""

import dataclasses
import re
import typing

from invweave.exposure import free_vars_ordered
from invweave.invspec import parse_predicate
from invweave.parser import parse_unit
from invweave.syntax import _CHILD_FIELDS, Binary, Expr, IntLit, Stmt, rebuild, walk

NODE_CLASSES = typing.get_args(Expr) + typing.get_args(Stmt)


def test_every_node_class_is_handled():
    assert set(_CHILD_FIELDS) == set(NODE_CLASSES)


def test_every_child_field_is_listed():
    # A field is a child field iff its annotation mentions Expr or Stmt, so a
    # node added later cannot be skipped by `walk` unnoticed.
    mentions_node = re.compile(r"\b(Expr|Stmt)\b")
    for cls in NODE_CLASSES:
        want = [f.name for f in dataclasses.fields(cls) if mentions_node.search(str(f.type))]
        assert list(_CHILD_FIELDS[cls]) == want, cls.__name__


def test_walk_is_pre_order_in_source_order():
    unit = parse_unit(
        "driver { if (a) { print(b + c * d); } else { x.y = f(e, g); } while (h) { } }"
    )
    names = []
    for s in unit.driver.body:
        names += [type(n).__name__ + getattr(n, "name", "") for n in walk(s)]
    assert names == [
        "IfStmt", "VarReada",
        "PrintStmt", "Binary", "VarReadb", "Binary", "VarReadc", "VarReadd",
        "Assign", "FieldAccessy", "VarReadx", "MethodCallf", "VarReade", "VarReadg",
        "WhileStmt", "VarReadh",
    ]


def test_free_vars_keep_first_occurrence_order():
    p = parse_predicate(
        "forall (n = head.next; n != tail && (b > c || !a); n = n.next) : n.prev == z || a == b"
    )
    assert free_vars_ordered(p) == ["head", "tail", "b", "c", "a", "z"]
    assert free_vars_ordered(parse_predicate("size >= lo + -hi && lo <= size")) == [
        "size",
        "lo",
        "hi",
    ]


def test_walk_deep_chain_without_recursion_error():
    depth = 10_000
    e = IntLit(0)
    for i in range(1, depth + 1):
        e = Binary("+", e, IntLit(i))
    nodes = list(walk(e))
    assert len(nodes) == 2 * depth + 1
    # pre-order down the left spine: every Binary comes before the leftmost literal
    assert all(isinstance(n, Binary) for n in nodes[:depth])
    assert nodes[depth].value == 0
    assert [n.value for n in nodes[depth + 1:]] == list(range(1, depth + 1))


def test_rebuild_copies_a_parsed_tree_children_first():
    unit = parse_unit("driver { if (a.b) { x = f(1, c); } else { print(!d); } }")
    stmt = unit.driver.body[0]
    seen = set()

    def check_children_seen(n):
        # every child of the copy was rebuilt (and passed to fn) already
        assert all(id(c) in seen for c in list(walk(n))[1:]), n
        seen.add(id(n))
        return n

    copy = rebuild(stmt, check_children_seen)
    assert copy == stmt
    assert len(seen) == len(list(walk(stmt))) == 11
    assert not {id(n) for n in walk(copy)} & {id(n) for n in walk(stmt)}
    assert [(n.line, n.col) for n in walk(copy)] == [(n.line, n.col) for n in walk(stmt)]


def test_rebuild_deep_chain_without_recursion_error():
    depth = 10_000
    e = IntLit(0)
    for i in range(1, depth + 1):
        e = Binary("+", e, IntLit(i))
    doubled = rebuild(e, lambda n: IntLit(2 * n.value) if isinstance(n, IntLit) else n)
    nodes = list(walk(doubled))
    assert len(nodes) == 2 * depth + 1
    assert all(isinstance(n, Binary) for n in nodes[:depth])
    assert [n.value for n in nodes[depth:]] == [2 * i for i in range(depth + 1)]
    # the input is left as it was
    assert [n.value for n in list(walk(e))[depth:]] == list(range(depth + 1))
