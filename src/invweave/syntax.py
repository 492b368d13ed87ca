"""AST for the MiniOO subject language.

MiniOO is a small statically-typed object-oriented language: single
inheritance, multiple interfaces, class type parameters (unbounded),
int/bool/string primitives, and a `driver { ... }` entry block instead of a
main method.  The same node types serve as the output format of the weaver,
so everything here round-trips through the canonical printer.

Source positions (`line`, `col`) are carried for diagnostics but excluded
from equality so that parse/print round-trips compare structurally.

A declaration is not changed once it has been checked or run: code that
needs a variant builds a new node (`rebuild`, `dataclasses.replace`).  The
checker and the interpreter rely on this to remember, per declaration
object (`DeclMemo`), what they have already worked out about it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Optional, Union

PUBLIC = "public"
PROTECTED = "protected"
PRIVATE = "private"
VISIBILITIES = (PUBLIC, PROTECTED, PRIVATE)

# Names that may not be declared as classes or interfaces.
RESERVED_TYPE_NAMES = frozenset({"int", "bool", "string", "void"})


def _pos_field() -> int:
    return field(default=0, compare=False, repr=False)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Type expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeVar:
    name: str
    line: int = _pos_field()
    col: int = _pos_field()

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class NamedType:
    """An applied named type: class, interface, or nullary primitive."""

    name: str
    args: tuple["TypeExpr", ...] = ()
    line: int = _pos_field()
    col: int = _pos_field()

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


@dataclass
class IntLit:
    value: int
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class BoolLit:
    value: bool
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class StringLit:
    value: str
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class NullLit:
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class VarRead:
    """A bare identifier: a local, a parameter, or an implicit-this field."""

    name: str
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class ThisExpr:
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class FieldAccess:
    obj: "Expr"
    name: str
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class MethodCall:
    """receiver None means an implicit-this call; SuperExpr targets the
    lexically enclosing class's superclass implementation."""

    receiver: Optional["Expr"]
    name: str
    args: list["Expr"] = field(default_factory=list)
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class SuperExpr:
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class NewObject:
    type: NamedType
    args: list["Expr"] = field(default_factory=list)
    line: int = _pos_field()
    col: int = _pos_field()


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


@dataclass
class Binary:
    op: str
    left: "Expr"
    right: "Expr"
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class Unary:
    op: str
    operand: "Expr"
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class ReflectGet:
    """`@field(obj, "name")` - visibility-blind field read primitive."""

    obj: "Expr"
    field_name: str
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class SingletonRef:
    """`@singleton(Name)` - the one shared instance of a class."""

    class_name: str
    line: int = _pos_field()
    col: int = _pos_field()


Expr = Union[
    IntLit,
    BoolLit,
    StringLit,
    NullLit,
    VarRead,
    ThisExpr,
    FieldAccess,
    MethodCall,
    SuperExpr,
    NewObject,
    Binary,
    Unary,
    ReflectGet,
    SingletonRef,
]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class LocalDecl:
    decl_type: TypeExpr
    name: str
    init: Optional[Expr]
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class Assign:
    target: Expr  # VarRead or FieldAccess
    value: Expr
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class IfStmt:
    cond: Expr
    then_body: list["Stmt"]
    else_body: Optional[list["Stmt"]]
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class WhileStmt:
    cond: Expr
    body: list["Stmt"]
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class ReturnStmt:
    value: Optional[Expr]
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class ExprStmt:
    expr: Expr
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class PrintStmt:
    value: Expr
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class SuperCall:
    """`super(args);` - only legal as the first statement of a constructor."""

    args: list[Expr] = field(default_factory=list)
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class TraceStmt:
    """`@trace(obj, class, phase, method);` - check-event trace hook."""

    obj: Expr
    check_class: Expr
    phase: Expr
    method: Expr
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class ViolationStmt:
    """`@violation(class, index, phase, method);` - abort with a record."""

    check_class: Expr
    index: Expr
    phase: Expr
    method: Expr
    line: int = _pos_field()
    col: int = _pos_field()


Stmt = Union[
    LocalDecl,
    Assign,
    IfStmt,
    WhileStmt,
    ReturnStmt,
    ExprStmt,
    PrintStmt,
    SuperCall,
    TraceStmt,
    ViolationStmt,
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
    """A copy of `node` built children-first: each node is copied with
    `dataclasses.replace` onto its rebuilt children, and `fn` of the copy
    takes its place.  Source positions are kept; `node` is left unchanged.
    Iterative, so nesting depth is not bounded by the Python stack."""
    copies: dict[int, Node] = {}
    # Reversed pre-order reaches every child before its parent.
    for n in reversed(list(walk(node))):
        changes = {}
        for name in _CHILD_FIELDS[type(n)]:
            child = getattr(n, name)
            if isinstance(child, list):
                changes[name] = [copies[id(c)] for c in child]
            elif child is not None:
                changes[name] = copies[id(child)]
        copies[id(n)] = fn(replace(n, **changes))
    return copies[id(node)]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param:
    name: str
    type: TypeExpr


@dataclass
class FieldDecl:
    name: str
    declared_type: TypeExpr
    visibility: str = PUBLIC
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class MethodDecl:
    """A method; `body is None` means abstract (or an interface signature).

    `type_params` are method-level type variables, inferred at call sites.
    `return_type is None` means void.
    """

    name: str
    visibility: str = PUBLIC
    type_params: list[str] = field(default_factory=list)
    params: list[Param] = field(default_factory=list)
    return_type: Optional[TypeExpr] = None
    body: Optional[list[Stmt]] = None
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class ConstructorDecl:
    visibility: str = PUBLIC
    params: list[Param] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class ClassDecl:
    name: str
    type_params: list[str] = field(default_factory=list)
    super_class: Optional[NamedType] = None
    interfaces: list[NamedType] = field(default_factory=list)
    is_abstract: bool = False
    fields: list[FieldDecl] = field(default_factory=list)
    constructor: Optional[ConstructorDecl] = None
    methods: list[MethodDecl] = field(default_factory=list)
    line: int = _pos_field()
    col: int = _pos_field()

    def self_type(self) -> NamedType:
        return NamedType(self.name, tuple(TypeVar(p) for p in self.type_params))


@dataclass
class InterfaceDecl:
    name: str
    type_params: list[str] = field(default_factory=list)
    extends: list[NamedType] = field(default_factory=list)
    methods: list[MethodDecl] = field(default_factory=list)  # bodies are None
    line: int = _pos_field()
    col: int = _pos_field()

    def self_type(self) -> NamedType:
        return NamedType(self.name, tuple(TypeVar(p) for p in self.type_params))


@dataclass
class DriverBlock:
    body: list[Stmt] = field(default_factory=list)
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class SourceUnit:
    classes: list[ClassDecl] = field(default_factory=list)
    interfaces: list[InterfaceDecl] = field(default_factory=list)
    driver: Optional[DriverBlock] = None


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
