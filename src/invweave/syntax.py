"""AST for the MiniOO subject language.

MiniOO is a small statically-typed object-oriented language: single
inheritance, multiple interfaces, class type parameters (unbounded),
int/bool/string primitives, and a `driver { ... }` entry block instead of a
main method.  The same node types serve as the output format of the weaver,
so everything here round-trips through the canonical printer.

Every node is a `Record`.  Source positions (`line`, `col`) are carried for
diagnostics but excluded from equality so that parse/print round-trips
compare structurally.

A declaration is not changed once it has been checked or run: code that
needs a variant builds a new node (`rebuild`, `replace`).  The checker and
the interpreter rely on this to remember, per declaration object
(`DeclMemo`), what they have already worked out about it.  The one field
written later is a class or interface's `_verdict`, the checker's own
(see `typecheck`); it is no field of the record, so `==`, `repr` and copies
leave it out.
"""

from __future__ import annotations

import weakref
from operator import attrgetter
from typing import Any, Callable, Iterator, Optional, Union

PUBLIC = "public"
PROTECTED = "protected"
PRIVATE = "private"
VISIBILITIES = (PUBLIC, PROTECTED, PRIVATE)

# Names that may not be declared as classes or interfaces.
RESERVED_TYPE_NAMES = frozenset({"int", "bool", "string", "void"})


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


class Record:
    """Base of the package's records: plain `__slots__` classes whose
    `__init__` takes every field, in order.  The fields are the public names
    of a class's own `__slots__`, then `_unkeyed` (a base class's fields,
    left out of `==` and `repr`).  Records of one class are `==` when their
    other fields are.  Only the types hash: `TypeVar` and `NamedType` compute
    their hash in `__init__`, and nothing assigns to a type's field after it.
    Other records are unhashable."""

    __slots__ = ()
    _unkeyed: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = cls.__dict__.get("__slots__", ())
        keyed = tuple(n for n in own if n[0] != "_" and n not in cls._unkeyed)
        cls._keyed = keyed
        cls._key = attrgetter(*keyed or ("__class__",))
        # The benchmark's node counter finds AST nodes by this name.
        cls._fields = cls.__dataclass_fields__ = keyed + cls._unkeyed

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self) -> str:
        shown = ", ".join("%s=%r" % (n, getattr(self, n)) for n in self._keyed)
        return "%s(%s)" % (type(self).__qualname__, shown)

    def __reduce__(self) -> tuple:  # `copy` and `pickle` build a record through its `__init__`
        return self.__class__, tuple(getattr(self, n) for n in self._fields)


class Positioned(Record):
    """A record with a source position: 0:0 when built in code."""

    __slots__ = _unkeyed = ("line", "col")

    def __init__(self, line: int = 0, col: int = 0):
        self.line, self.col = line, col


def replace(record: Record, **changes: Any) -> Any:
    """A copy of `record`, built by its `__init__`, with `changes` to some of its fields."""
    return record.__class__(*[changes.get(n, getattr(record, n)) for n in record._fields])


# ---------------------------------------------------------------------------
# Type expressions
# ---------------------------------------------------------------------------


class TypeVar(Positioned):
    __slots__ = ("name", "_hash")
    def __init__(self, name: str, line: int = 0, col: int = 0):
        self.name, self.line, self.col, self._hash = name, line, col, hash(name)

    def __eq__(self, other: object) -> bool:  # spelled out, as types are compared all the time
        return self.name == other.name if other.__class__ is TypeVar else NotImplemented  # type: ignore

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name


class NamedType(Positioned):
    """An applied named type: class, interface, or nullary primitive."""

    __slots__ = ("name", "args", "_hash")
    def __init__(self, name: str, args: tuple[TypeExpr, ...] = (), line: int = 0, col: int = 0):
        self.name, self.args, self.line, self.col, self._hash = name, args, line, col, hash((name, args))

    def __eq__(self, other: object) -> bool:  # spelled out, as types are compared all the time
        if other.__class__ is not NamedType:
            return NotImplemented
        return self.name == other.name and self.args == other.args  # type: ignore

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return "%s<%s>" % (self.name, ", ".join(str(a) for a in self.args))


TypeExpr = Union[TypeVar, NamedType]

INT = NamedType("int")
BOOL = NamedType("bool")
STRING = NamedType("string")

PRIMITIVES = ("int", "bool", "string")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class IntLit(Positioned):
    __slots__ = ("value",)
    def __init__(self, value: int, line: int = 0, col: int = 0):
        self.value, self.line, self.col = value, line, col


class BoolLit(Positioned):
    __slots__ = ("value",)
    def __init__(self, value: bool, line: int = 0, col: int = 0):
        self.value, self.line, self.col = value, line, col


class StringLit(Positioned):
    __slots__ = ("value",)
    def __init__(self, value: str, line: int = 0, col: int = 0):
        self.value, self.line, self.col = value, line, col


class NullLit(Positioned):
    __slots__ = ()


class VarRead(Positioned):
    """A bare identifier: a local, a parameter, or an implicit-this field."""

    __slots__ = ("name",)
    def __init__(self, name: str, line: int = 0, col: int = 0):
        self.name, self.line, self.col = name, line, col


class ThisExpr(Positioned):
    __slots__ = ()


class FieldAccess(Positioned):
    __slots__ = ("obj", "name")
    def __init__(self, obj: Expr, name: str, line: int = 0, col: int = 0):
        self.obj, self.name, self.line, self.col = obj, name, line, col


class MethodCall(Positioned):
    """receiver None means an implicit-this call; SuperExpr targets the
    lexically enclosing class's superclass implementation."""

    __slots__ = ("receiver", "name", "args")
    def __init__(
        self, receiver: Optional[Expr], name: str, args: Optional[list[Expr]] = None, line: int = 0,
        col: int = 0,
    ):
        self.receiver, self.name, self.line, self.col = receiver, name, line, col
        self.args = [] if args is None else args


class SuperExpr(Positioned):
    __slots__ = ()


class NewObject(Positioned):
    __slots__ = ("type", "args")
    def __init__(self, type: NamedType, args: Optional[list[Expr]] = None, line: int = 0, col: int = 0):
        self.type, self.line, self.col = type, line, col
        self.args = [] if args is None else args


# The level of each binary operator: a higher level binds tighter, and
# operators of one level group left.
BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
}


class Binary(Positioned):
    __slots__ = ("op", "left", "right")
    def __init__(self, op: str, left: Expr, right: Expr, line: int = 0, col: int = 0):
        self.op, self.left, self.right, self.line, self.col = op, left, right, line, col


class Unary(Positioned):
    __slots__ = ("op", "operand")
    def __init__(self, op: str, operand: Expr, line: int = 0, col: int = 0):
        self.op, self.operand, self.line, self.col = op, operand, line, col


class ReflectGet(Positioned):
    """`@field(obj, "name")` - visibility-blind field read primitive."""

    __slots__ = ("obj", "field_name")
    def __init__(self, obj: Expr, field_name: str, line: int = 0, col: int = 0):
        self.obj, self.field_name, self.line, self.col = obj, field_name, line, col


class SingletonRef(Positioned):
    """`@singleton(Name)` - the one shared instance of a class."""

    __slots__ = ("class_name",)
    def __init__(self, class_name: str, line: int = 0, col: int = 0):
        self.class_name, self.line, self.col = class_name, line, col


Expr = Union[
    IntLit, BoolLit, StringLit, NullLit, VarRead, ThisExpr, FieldAccess, MethodCall, SuperExpr, NewObject,
    Binary, Unary, ReflectGet, SingletonRef,
]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class LocalDecl(Positioned):
    __slots__ = ("decl_type", "name", "init")
    def __init__(self, decl_type: TypeExpr, name: str, init: Optional[Expr], line: int = 0, col: int = 0):
        self.decl_type, self.name, self.init, self.line, self.col = decl_type, name, init, line, col


class Assign(Positioned):
    """`target` is a VarRead or a FieldAccess."""

    __slots__ = ("target", "value")
    def __init__(self, target: Expr, value: Expr, line: int = 0, col: int = 0):
        self.target, self.value, self.line, self.col = target, value, line, col


class IfStmt(Positioned):
    __slots__ = ("cond", "then_body", "else_body")
    def __init__(
        self, cond: Expr, then_body: list[Stmt], else_body: Optional[list[Stmt]], line: int = 0, col: int = 0
    ):
        self.cond, self.then_body, self.else_body, self.line, self.col = cond, then_body, else_body, line, col


class WhileStmt(Positioned):
    __slots__ = ("cond", "body")
    def __init__(self, cond: Expr, body: list[Stmt], line: int = 0, col: int = 0):
        self.cond, self.body, self.line, self.col = cond, body, line, col


class ReturnStmt(Positioned):
    __slots__ = ("value",)
    def __init__(self, value: Optional[Expr], line: int = 0, col: int = 0):
        self.value, self.line, self.col = value, line, col


class ExprStmt(Positioned):
    __slots__ = ("expr",)
    def __init__(self, expr: Expr, line: int = 0, col: int = 0):
        self.expr, self.line, self.col = expr, line, col


class PrintStmt(Positioned):
    __slots__ = ("value",)
    def __init__(self, value: Expr, line: int = 0, col: int = 0):
        self.value, self.line, self.col = value, line, col


class SuperCall(Positioned):
    """`super(args);` - only legal as the first statement of a constructor."""

    __slots__ = ("args",)
    def __init__(self, args: Optional[list[Expr]] = None, line: int = 0, col: int = 0):
        self.args, self.line, self.col = [] if args is None else args, line, col


class TraceStmt(Positioned):
    """`@trace(obj, class, phase, method);` - check-event trace hook."""

    __slots__ = ("obj", "check_class", "phase", "method")
    def __init__(self, obj: Expr, check_class: Expr, phase: Expr, method: Expr, line: int = 0, col: int = 0):
        self.obj, self.check_class, self.phase, self.method = obj, check_class, phase, method
        self.line, self.col = line, col


class ViolationStmt(Positioned):
    """`@violation(class, index, phase, method);` - abort with a record."""

    __slots__ = ("check_class", "index", "phase", "method")
    def __init__(
        self, check_class: Expr, index: Expr, phase: Expr, method: Expr, line: int = 0, col: int = 0
    ):
        self.check_class, self.index, self.phase, self.method = check_class, index, phase, method
        self.line, self.col = line, col


Stmt = Union[
    LocalDecl, Assign, IfStmt, WhileStmt, ReturnStmt, ExprStmt, PrintStmt, SuperCall, TraceStmt, ViolationStmt
]


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

# The fields of each Expr/Stmt class that hold child nodes, in source order.
# A field holds a node, a list of nodes, or None.  This one table drives both
# `walk` and `rebuild`.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    IntLit: (),
    BoolLit: (),
    StringLit: (),
    NullLit: (),
    VarRead: (),
    ThisExpr: (),
    FieldAccess: ("obj",),
    MethodCall: ("receiver", "args"),
    SuperExpr: (),
    NewObject: ("args",),
    Binary: ("left", "right"),
    Unary: ("operand",),
    ReflectGet: ("obj",),
    SingletonRef: (),
    LocalDecl: ("init",),
    Assign: ("target", "value"),
    IfStmt: ("cond", "then_body", "else_body"),
    WhileStmt: ("cond", "body"),
    ReturnStmt: ("value",),
    ExprStmt: ("expr",),
    PrintStmt: ("value",),
    SuperCall: ("args",),
    TraceStmt: ("obj", "check_class", "phase", "method"),
    ViolationStmt: ("check_class", "index", "phase", "method"),
}


def walk(node: Union[Expr, Stmt]) -> Iterator[Union[Expr, Stmt]]:
    """Yield `node`, then every expression and statement below it, in
    pre-order and source order.  Iterative, so nesting depth is not bounded
    by the Python stack."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for name in reversed(_CHILD_FIELDS[type(node)]):
            child = getattr(node, name)
            if isinstance(child, list):
                stack.extend(reversed(child))
            elif child is not None:
                stack.append(child)


Node = Union[Expr, Stmt]


def rebuild(node: Node, fn: Callable[[Node], Node]) -> Node:
    """A copy of `node` built children-first: each node's class builds the
    copy from its fields, with the rebuilt children in place of its own, and
    `fn` of the copy takes its place.  Source positions are kept; `node` is
    left unchanged.  Iterative, so nesting depth is not bounded by the
    Python stack."""
    done: list[Node] = []  # copies not yet taken by their parent, the first child on top
    # Reversed pre-order reaches every child before its parent.
    for n in reversed(list(walk(node))):
        children = _CHILD_FIELDS[type(n)]
        values = []
        for name in n._fields:
            value = getattr(n, name)
            if name in children:
                if isinstance(value, list):
                    value = [done.pop() for _ in value]
                elif value is not None:
                    value = done.pop()
            values.append(value)
        done.append(fn(type(n)(*values)))
    return done[0]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class Param(Record):
    __slots__ = ("name", "type")
    def __init__(self, name: str, type: TypeExpr):
        self.name, self.type = name, type


class FieldDecl(Positioned):
    __slots__ = ("name", "declared_type", "visibility")
    def __init__(
        self, name: str, declared_type: TypeExpr, visibility: str = PUBLIC, line: int = 0, col: int = 0
    ):
        self.name, self.declared_type, self.visibility = name, declared_type, visibility
        self.line, self.col = line, col


class MethodDecl(Positioned):
    """A method; `body is None` means abstract (or an interface signature).

    `type_params` are method-level type variables, inferred at call sites.
    `return_type is None` means void.
    """

    __slots__ = ("name", "visibility", "type_params", "params", "return_type", "body", "__weakref__")
    def __init__(
        self, name: str, visibility: str = PUBLIC, type_params: Optional[list[str]] = None,
        params: Optional[list[Param]] = None, return_type: Optional[TypeExpr] = None,
        body: Optional[list[Stmt]] = None, line: int = 0, col: int = 0,
    ):
        self.name, self.visibility, self.return_type, self.body = name, visibility, return_type, body
        self.type_params = [] if type_params is None else type_params
        self.params = [] if params is None else params
        self.line, self.col = line, col


class ConstructorDecl(Positioned):
    __slots__ = ("visibility", "params", "body", "__weakref__")
    def __init__(
        self, visibility: str = PUBLIC, params: Optional[list[Param]] = None,
        body: Optional[list[Stmt]] = None, line: int = 0, col: int = 0,
    ):
        self.visibility, self.line, self.col = visibility, line, col
        self.params = [] if params is None else params
        self.body = [] if body is None else body


class ClassDecl(Positioned):
    __slots__ = (
        "name", "type_params", "super_class", "interfaces", "is_abstract", "fields", "constructor", "methods",
        "_verdict", "__weakref__",
    )
    def __init__(
        self, name: str, type_params: Optional[list[str]] = None, super_class: Optional[NamedType] = None,
        interfaces: Optional[list[NamedType]] = None, is_abstract: bool = False,
        fields: Optional[list[FieldDecl]] = None, constructor: Optional[ConstructorDecl] = None,
        methods: Optional[list[MethodDecl]] = None, line: int = 0, col: int = 0,
    ):
        self.name, self.super_class, self.is_abstract = name, super_class, is_abstract
        self.constructor, self.line, self.col = constructor, line, col
        self.type_params = [] if type_params is None else type_params
        self.interfaces = [] if interfaces is None else interfaces
        self.fields = [] if fields is None else fields
        self.methods = [] if methods is None else methods
        self._verdict = None

    def self_type(self) -> NamedType:
        return NamedType(self.name, tuple(TypeVar(p) for p in self.type_params))


class InterfaceDecl(Positioned):
    """`methods` have no bodies."""

    __slots__ = ("name", "type_params", "extends", "methods", "_verdict", "__weakref__")
    def __init__(
        self, name: str, type_params: Optional[list[str]] = None, extends: Optional[list[NamedType]] = None,
        methods: Optional[list[MethodDecl]] = None, line: int = 0, col: int = 0,
    ):
        self.name, self.line, self.col = name, line, col
        self.type_params = [] if type_params is None else type_params
        self.extends = [] if extends is None else extends
        self.methods = [] if methods is None else methods
        self._verdict = None

    def self_type(self) -> NamedType:
        return NamedType(self.name, tuple(TypeVar(p) for p in self.type_params))


class DriverBlock(Positioned):
    __slots__ = ("body", "__weakref__")
    def __init__(self, body: Optional[list[Stmt]] = None, line: int = 0, col: int = 0):
        self.body, self.line, self.col = [] if body is None else body, line, col


class SourceUnit(Record):
    __slots__ = ("classes", "interfaces", "driver")
    def __init__(
        self, classes: Optional[list[ClassDecl]] = None, interfaces: Optional[list[InterfaceDecl]] = None,
        driver: Optional[DriverBlock] = None,
    ):
        self.classes = [] if classes is None else classes
        self.interfaces = [] if interfaces is None else interfaces
        self.driver = driver


def merge_units(units: list[SourceUnit], driver_from: Optional[int] = None) -> SourceUnit:
    """Concatenate units into one.  At most one driver may survive; pass
    `driver_from` (an index into `units`) to select among several."""
    merged = SourceUnit()
    drivers = []
    for idx, u in enumerate(units):
        merged.classes.extend(u.classes)
        merged.interfaces.extend(u.interfaces)
        if u.driver is not None:
            drivers.append((idx, u.driver))
    if driver_from is not None:
        chosen = [d for idx, d in drivers if idx == driver_from]
        if not chosen:
            raise ValueError("selected unit %d has no driver block" % driver_from)
        merged.driver = chosen[0]
    elif len(drivers) == 1:
        merged.driver = drivers[0][1]
    elif len(drivers) > 1:
        raise ValueError("multiple driver blocks; select one explicitly")
    return merged


class DeclMemo:
    """A map from declaration objects, by identity, to what has been worked
    out about them.  It holds each declaration weakly: an entry goes when
    its declaration is freed, so a value must not refer to its declaration."""

    def __init__(self) -> None:
        self._entries: dict[int, tuple[weakref.ref, Any]] = {}

    def get(self, decl: object) -> Any:
        entry = self._entries.get(id(decl))
        return None if entry is None or entry[0]() is not decl else entry[1]

    def put(self, decl: object, value: Any) -> None:
        key, entries = id(decl), self._entries

        def drop(ref: weakref.ref) -> None:
            if entries.get(key, (None,))[0] is ref:  # not a later object with the same id
                del entries[key]

        entries[key] = (weakref.ref(decl, drop), value)


# The declarations the weaver generated, each mapped to (its check body: an exposed class's
# `inv` method whose check walks a quantifier's loop, else None; the names of its bookkeeping
# fields; with a check body, (the visitor, per class of the specified chain, root first, its
# predicates and its free variables, each with its type), else ()).  The interpreter re-checks
# a check after writes from these (`recheck`).  Nothing prints or compares this mark, so a unit
# parsed from woven text has none.
GENERATED = DeclMemo()
