"""Recursive-descent parser for MiniOO.

Grammar notes:
  - a unit is a sequence of class declarations, interface declarations, and
    at most one `driver { ... }` block;
  - generics use `<`/`>` with single-character tokens, so nested argument
    lists need no special lexing;
  - binary operators are parsed by precedence climbing over
    `syntax.BINARY_PRECEDENCE`, the table the printer parenthesizes by;
  - at statement heads, `Type name = ...;` wins over expression statements
    via bounded backtracking (the same rule Java applies through name
    resolution);
  - structural rules (unique names, acyclic inheritance, body presence) are
    enforced here so every returned SourceUnit is structurally valid;
  - statements nest at most `MAX_STATEMENT_LEVELS` deep, so every later
    stage has the Python stack to walk them.
"""

from __future__ import annotations

import sys
from typing import Optional

from .diagnostics import Diagnostic, ParseError
from .lexer import Token, tokenize
from .syntax import (
    Assign,
    BINARY_PRECEDENCE,
    Binary,
    BoolLit,
    ClassDecl,
    ConstructorDecl,
    DriverBlock,
    Expr,
    ExprStmt,
    FieldAccess,
    FieldDecl,
    IfStmt,
    IntLit,
    InterfaceDecl,
    LocalDecl,
    MethodCall,
    MethodDecl,
    NamedType,
    NewObject,
    NullLit,
    Param,
    PrintStmt,
    ReflectGet,
    RESERVED_TYPE_NAMES,
    ReturnStmt,
    SingletonRef,
    SourceUnit,
    Stmt,
    StringLit,
    SuperCall,
    SuperExpr,
    ThisExpr,
    TraceStmt,
    TypeExpr,
    TypeVar,
    Unary,
    VarRead,
    ViolationStmt,
    VISIBILITIES,
    WhileStmt,
)

# Each `if`, `else` or `while` body is one statement level, and so is each `else if` link.
MAX_STATEMENT_LEVELS = 200


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0
        self.levels = 0  # the statement levels open at `i`
        self.type_scope: list[set[str]] = [set()]

    # -- token helpers ------------------------------------------------------

    # `i` never passes the EOF token: `advance` stops there and backtracking
    # only returns to an earlier mark.  So only a lookahead past `i` is clamped.
    def peek(self, k: int = 0) -> Token:
        if k == 0:
            return self.toks[self.i]
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        t = self.toks[self.i]
        return t.kind == kind and (value is None or t.value == value)

    def at_kw(self, word: str) -> bool:
        return self.at("KEYWORD", word)

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        t = self.toks[self.i]
        if t.kind != kind or (value is not None and t.value != value):
            return None
        self.i += kind != "EOF"
        return t

    def expect(self, kind: str, value: Optional[str] = None, what: str = "") -> Token:
        if (t := self.accept(kind, value)) is None:
            t, expected = self.peek(), what or (value if value is not None else kind)
            raise self.error("expected %s, found %r" % (expected, t.value or t.kind))
        return t

    def error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        t = tok or self.peek()
        return ParseError(Diagnostic("syntax", message, t.line, t.col))

    # -- type scope ---------------------------------------------------------

    def push_type_vars(self, names: list[str]) -> None:
        self.type_scope.append(set(names))

    def pop_type_vars(self) -> None:
        self.type_scope.pop()

    def in_type_scope(self, name: str) -> bool:
        return any(name in s for s in self.type_scope)

    # -- declarations -------------------------------------------------------

    def parse_unit(self) -> SourceUnit:
        unit = SourceUnit()
        while not self.at("EOF"):
            if self.at_kw("abstract") or self.at_kw("class"):
                is_abstract = self.accept("KEYWORD", "abstract") is not None
                self.expect("KEYWORD", "class")
                unit.classes.append(self.parse_class(is_abstract))
            elif self.at_kw("interface"):
                self.advance()
                unit.interfaces.append(self.parse_interface())
            elif self.at_kw("driver"):
                t = self.advance()
                if unit.driver is not None:
                    raise self.error("duplicate driver block", t)
                body = self.parse_block()
                unit.driver = DriverBlock(body, t.line, t.col)
            else:
                raise self.error(
                    "expected class, interface, or driver declaration"
                )
        return unit

    def parse_type_params(self) -> list[str]:
        params: list[str] = []
        if self.accept("OP", "<"):
            while True:
                t = self.expect("IDENT", what="type parameter name")
                if t.value in params:
                    raise self.error("duplicate type parameter %r" % t.value, t)
                params.append(t.value)
                if not self.accept("OP", ","):
                    break
            self.expect("OP", ">")
        return params

    def parse_type(self) -> TypeExpr:
        t = self.expect("IDENT", what="type name")
        if self.in_type_scope(t.value):
            return TypeVar(t.value, t.line, t.col)
        args: tuple[TypeExpr, ...] = ()
        if self.at("OP", "<"):
            self.advance()
            collected = [self.parse_type()]
            while self.accept("OP", ","):
                collected.append(self.parse_type())
            self.expect("OP", ">")
            args = tuple(collected)
        return NamedType(t.value, args, t.line, t.col)

    def parse_named_type(self) -> NamedType:
        t = self.parse_type()
        if not isinstance(t, NamedType):
            raise self.error("type parameter %r cannot be used here" % t.name)
        return t

    def parse_class(self, is_abstract: bool) -> ClassDecl:
        name_tok = self.expect("IDENT", what="class name")
        if name_tok.value in RESERVED_TYPE_NAMES:
            raise self.error("reserved type name %r" % name_tok.value, name_tok)
        type_params = self.parse_type_params()
        self.push_type_vars(type_params)
        try:
            super_class = None
            if self.accept("KEYWORD", "extends"):
                super_class = self.parse_named_type()
            interfaces: list[NamedType] = []
            if self.accept("KEYWORD", "implements"):
                interfaces.append(self.parse_named_type())
                while self.accept("OP", ","):
                    interfaces.append(self.parse_named_type())
            decl = ClassDecl(
                name_tok.value, type_params, super_class, interfaces, is_abstract,
                line=name_tok.line, col=name_tok.col,
            )
            self.expect("OP", "{")
            while not self.accept("OP", "}"):
                self.parse_member(decl)
        finally:
            self.pop_type_vars()
        return decl

    def parse_interface(self) -> InterfaceDecl:
        name_tok = self.expect("IDENT", what="interface name")
        if name_tok.value in RESERVED_TYPE_NAMES:
            raise self.error("reserved type name %r" % name_tok.value, name_tok)
        type_params = self.parse_type_params()
        self.push_type_vars(type_params)
        try:
            extends: list[NamedType] = []
            if self.accept("KEYWORD", "extends"):
                extends.append(self.parse_named_type())
                while self.accept("OP", ","):
                    extends.append(self.parse_named_type())
            decl = InterfaceDecl(name_tok.value, type_params, extends, line=name_tok.line, col=name_tok.col)
            self.expect("OP", "{")
            while not self.accept("OP", "}"):
                sig = self.parse_signature()
                if any(m.name == sig.name for m in decl.methods):
                    raise self.error("duplicate method %r (no overloading)" % sig.name)
                decl.methods.append(sig)
        finally:
            self.pop_type_vars()
        return decl

    def parse_signature(self) -> MethodDecl:
        start = self.peek()
        vis = self.parse_visibility()
        if vis not in (None, "public"):
            raise self.error("interface methods are public", start)
        type_params = self.parse_type_params()
        self.push_type_vars(type_params)
        try:
            ret = None if self.accept("KEYWORD", "void") else self.parse_type()
            name_tok = self.expect("IDENT", what="method name")
            params = self.parse_params()
        finally:
            self.pop_type_vars()
        self.expect("OP", ";")
        return MethodDecl(name_tok.value, "public", type_params, params, ret, None, name_tok.line, name_tok.col)

    def parse_visibility(self) -> Optional[str]:
        for v in VISIBILITIES:
            if self.accept("KEYWORD", v):
                return v
        return None

    def parse_params(self) -> list[Param]:
        self.expect("OP", "(")
        params: list[Param] = []
        if not self.at("OP", ")"):
            while True:
                ptype = self.parse_type()
                pname = self.expect("IDENT", what="parameter name")
                if any(p.name == pname.value for p in params):
                    raise self.error("duplicate parameter %r" % pname.value, pname)
                params.append(Param(pname.value, ptype))
                if not self.accept("OP", ","):
                    break
        self.expect("OP", ")")
        return params

    def parse_member(self, decl: ClassDecl) -> None:
        start = self.peek()
        vis = self.parse_visibility() or "public"
        # Constructor: the class name immediately followed by `(`.
        if self.at("IDENT", decl.name) and self.peek(1).kind == "OP" and self.peek(1).value == "(":
            name_tok = self.advance()
            params = self.parse_params()
            body = self.parse_block()
            if decl.constructor is not None:
                raise self.error("duplicate constructor (at most one)", name_tok)
            decl.constructor = ConstructorDecl(vis, params, body, name_tok.line, name_tok.col)
            return
        type_params = self.parse_type_params()
        if type_params:
            self.push_type_vars(type_params)
        try:
            ret: Optional[TypeExpr]
            if self.accept("KEYWORD", "void"):
                ret = None
                is_void = True
            else:
                ret = self.parse_type()
                is_void = False
            name_tok = self.expect("IDENT", what="member name")
            if self.at("OP", "("):
                params = self.parse_params()
                if self.accept("OP", ";"):
                    body = None
                    if not decl.is_abstract:
                        raise self.error(
                            "method %r has no body in a non-abstract class"
                            % name_tok.value,
                            name_tok,
                        )
                else:
                    body = self.parse_block()
                if any(m.name == name_tok.value for m in decl.methods):
                    raise self.error(
                        "duplicate method %r (no overloading)" % name_tok.value,
                        name_tok,
                    )
                decl.methods.append(
                    MethodDecl(name_tok.value, vis, type_params, params, ret, body, name_tok.line, name_tok.col)
                )
                return
        finally:
            if type_params:
                self.pop_type_vars()
        # Field declaration(s): `vis type name (, name)* ;`
        if type_params:
            raise self.error("type parameters are only allowed on methods", start)
        if is_void:
            raise self.error("fields cannot have type void", start)
        names = [name_tok]
        while self.accept("OP", ","):
            names.append(self.expect("IDENT", what="field name"))
        self.expect("OP", ";")
        for nt in names:
            if any(f.name == nt.value for f in decl.fields):
                raise self.error("duplicate field %r" % nt.value, nt)
            decl.fields.append(FieldDecl(nt.value, ret, vis, nt.line, nt.col))  # type: ignore[arg-type]

    # -- statements ---------------------------------------------------------

    def parse_block(self) -> list[Stmt]:
        self.expect("OP", "{")
        body: list[Stmt] = []
        while not self.accept("OP", "}"):
            body.append(self.parse_stmt())
        return body

    def parse_stmt(self) -> Stmt:
        t = self.toks[self.i]
        if (head := _STATEMENTS.get((t.kind, t.value))) is not None:
            self.i += 1
            return head(self, t)
        # Local declaration vs expression statement: `Type name [=|;]` starts a
        # declaration, whose errors are then its own.  A type is a name, maybe with `<`.
        if t.kind == "IDENT" and (self.toks[self.i + 1].kind == "IDENT" or self.toks[self.i + 1].value == "<"):
            mark = self.i
            try:
                decl_type = self.parse_type()
                is_decl = self.at("IDENT") and self.peek(1).value in ("=", ";")
            except ParseError:
                is_decl = False
            if is_decl:
                name_tok = self.advance()
                init = None
                if self.accept("OP", "="):
                    init = self.parse_expr()
                self.expect("OP", ";")
                return LocalDecl(decl_type, name_tok.value, init, t.line, t.col)
            self.i = mark
        return self.parse_expr_or_assign()

    def parse_if(self, t: Token) -> Stmt:
        self.expect("OP", "(")
        cond = self.parse_expr()
        self.expect("OP", ")")
        then_body = self.parse_body()
        else_body: Optional[list[Stmt]] = None
        if self.accept("KEYWORD", "else"):
            else_body = self.parse_body(self.at_kw("if"))
        return IfStmt(cond, then_body, else_body, t.line, t.col)

    def parse_body(self, link: bool = False) -> list[Stmt]:
        """A block one statement level deeper, or an `else if` link: a body
        of one `if`."""
        if self.levels == MAX_STATEMENT_LEVELS:
            raise self.error("statement nested too deeply")
        self.levels += 1
        body = [self.parse_if(self.advance())] if link else self.parse_block()
        self.levels -= 1
        return body

    def parse_while(self, t: Token) -> Stmt:
        self.expect("OP", "(")
        cond = self.parse_expr()
        self.expect("OP", ")")
        return WhileStmt(cond, self.parse_body(), t.line, t.col)

    def parse_return(self, t: Token) -> Stmt:
        value = None if self.at("OP", ";") else self.parse_expr()
        self.expect("OP", ";")
        return ReturnStmt(value, t.line, t.col)

    def parse_print(self, t: Token) -> Stmt:
        self.expect("OP", "(")
        value = self.parse_expr()
        self.expect("OP", ")")
        self.expect("OP", ";")
        return PrintStmt(value, t.line, t.col)

    def parse_super(self, t: Token) -> Stmt:
        if self.toks[self.i].value != "(":  # `super.m(...)`, an expression
            self.i -= 1
            return self.parse_expr_or_assign()
        args = self.parse_args()
        self.expect("OP", ";")
        return SuperCall(args, t.line, t.col)

    def parse_check(self, t: Token) -> Stmt:  # `@trace(...)` or `@violation(...)`
        self.expect("OP", "(")
        args = [self.parse_expr()]
        while self.accept("OP", ","):
            args.append(self.parse_expr())
        self.expect("OP", ")")
        self.expect("OP", ";")
        if len(args) != 4:
            raise self.error("@%s takes exactly 4 arguments" % t.value, t)
        return (TraceStmt if t.value == "trace" else ViolationStmt)(*args, t.line, t.col)  # type: ignore[arg-type]

    def parse_expr_or_assign(self) -> Stmt:
        t = self.peek()
        e = self.parse_expr()
        if self.accept("OP", "="):
            if not isinstance(e, (VarRead, FieldAccess)):
                raise self.error("cannot assign to this expression", t)
            value = self.parse_expr()
            self.expect("OP", ";")
            return Assign(e, value, t.line, t.col)
        self.expect("OP", ";")
        return ExprStmt(e, t.line, t.col)

    # -- expressions --------------------------------------------------------

    def parse_args(self) -> list[Expr]:
        self.expect("OP", "(")
        args: list[Expr] = []
        if not self.at("OP", ")"):
            args.append(self.parse_expr())
            while self.accept("OP", ","):
                args.append(self.parse_expr())
        self.expect("OP", ")")
        return args

    def parse_expr(self, above: int = 0) -> Expr:
        """An expression whose binary operators all bind tighter than level
        `above` of `BINARY_PRECEDENCE`; operators of one level group left."""
        left = self.parse_unary()
        while True:
            t = self.toks[self.i]
            level = BINARY_PRECEDENCE.get(t.value, 0) if t.kind == "OP" else 0
            if level <= above:
                return left
            self.advance()
            right = self.parse_expr(level)
            left = Binary(t.value, left, right, t.line, t.col)

    def parse_unary(self) -> Expr:
        if (t := self.toks[self.i]).kind == "OP" and t.value in ("!", "-"):
            self.i += 1
            operand = self.parse_unary()
            return Unary(t.value, operand, t.line, t.col)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        e = self.parse_primary()
        while self.accept("OP", "."):
            name_tok = self.expect("IDENT", what="member name")
            if self.at("OP", "("):
                args = self.parse_args()
                e = MethodCall(e, name_tok.value, args, name_tok.line, name_tok.col)
            else:
                e = FieldAccess(e, name_tok.value, name_tok.line, name_tok.col)
        return e

    def parse_primary(self) -> Expr:
        t = self.toks[self.i]
        if (make := _PRIMARIES.get(t.kind) or _PRIMARIES.get((t.kind, t.value))) is None:
            raise self.error("expected expression")
        self.i += 1  # `t` is not EOF, which starts no expression
        return make(self, t)

    def parse_int(self, t: Token) -> Expr:
        try:
            return IntLit(int(t.value), t.line, t.col)
        except ValueError:  # more digits than Python converts from text
            limit = sys.get_int_max_str_digits()
            raise self.error("integer literal of more than %d digits" % limit, t) from None

    def parse_name(self, t: Token) -> Expr:
        if self.at("OP", "("):
            return MethodCall(None, t.value, self.parse_args(), t.line, t.col)
        return VarRead(t.value, t.line, t.col)

    def parse_super_call(self, t: Token) -> Expr:
        self.expect("OP", ".")
        name_tok = self.expect("IDENT", what="method name")
        args = self.parse_args()
        return MethodCall(SuperExpr(t.line, t.col), name_tok.value, args, name_tok.line, name_tok.col)

    def parse_reflect(self, t: Token) -> Expr:
        self.expect("OP", "(")
        obj = self.parse_expr()
        self.expect("OP", ",")
        name_tok = self.expect("STRING", what="field name string")
        self.expect("OP", ")")
        return ReflectGet(obj, name_tok.value, t.line, t.col)

    def parse_singleton(self, t: Token) -> Expr:
        self.expect("OP", "(")
        name_tok = self.expect("IDENT", what="class name")
        self.expect("OP", ")")
        return SingletonRef(name_tok.value, t.line, t.col)

    def parse_parenthesized(self, t: Token) -> Expr:
        e = self.parse_expr()
        self.expect("OP", ")")
        return e


# What parses the statement that a token starts, after the token, by its kind and value.
_STATEMENTS = {
    ("KEYWORD", "if"): _Parser.parse_if, ("KEYWORD", "while"): _Parser.parse_while,
    ("KEYWORD", "return"): _Parser.parse_return, ("KEYWORD", "print"): _Parser.parse_print,
    ("KEYWORD", "super"): _Parser.parse_super,
    ("AT", "trace"): _Parser.parse_check, ("AT", "violation"): _Parser.parse_check,
}
# What parses the primary expression that a token starts, after the token, by its kind, or its kind and value.
_PRIMARIES = {
    "IDENT": _Parser.parse_name, "INT": _Parser.parse_int, "STRING": lambda p, t: StringLit(t.value, t.line, t.col),
    ("KEYWORD", "true"): lambda p, t: BoolLit(True, t.line, t.col),
    ("KEYWORD", "false"): lambda p, t: BoolLit(False, t.line, t.col),
    ("KEYWORD", "null"): lambda p, t: NullLit(t.line, t.col), ("KEYWORD", "this"): lambda p, t: ThisExpr(t.line, t.col),
    ("KEYWORD", "super"): _Parser.parse_super_call,
    ("KEYWORD", "new"): lambda p, t: NewObject(p.parse_named_type(), p.parse_args(), t.line, t.col),
    ("AT", "field"): _Parser.parse_reflect, ("AT", "singleton"): _Parser.parse_singleton,
    ("OP", "("): _Parser.parse_parenthesized,
}


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


def check_cycles(unit: SourceUnit) -> None:
    """Raise ParseError at the first extends/implements edge that closes a
    cycle."""
    edges: dict[str, list[tuple[str, int, int]]] = {}
    for c in unit.classes:
        targets = []
        if c.super_class is not None:
            targets.append((c.super_class.name, c.line, c.col))
        for i in c.interfaces:
            targets.append((i.name, c.line, c.col))
        edges[c.name] = targets
    for i in unit.interfaces:
        edges[i.name] = [(e.name, i.line, i.col) for e in i.extends]

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in edges}
    for root in edges:
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [(root, iter(edges[root]))]  # depth-first, each with its edges left
        while path:
            name, todo = path[-1]
            for target, tl, tc in todo:
                if target not in color:
                    continue  # unknown name; reported by the typechecker
                if color[target] == GRAY:
                    raise ParseError(
                        Diagnostic(
                            "inheritance-cycle",
                            "inheritance cycle through %r" % target,
                            tl,
                            tc,
                        )
                    )
                if color[target] == WHITE:
                    color[target] = GRAY
                    path.append((target, iter(edges[target])))
                    break
            else:
                color[name] = BLACK
                path.pop()


def validate_structure(unit: SourceUnit) -> None:
    seen: dict[str, tuple[int, int]] = {}
    for d in list(unit.classes) + list(unit.interfaces):
        if d.name in seen:
            raise ParseError(
                Diagnostic(
                    "duplicate-name",
                    "duplicate declaration of %r" % d.name,
                    d.line,
                    d.col,
                )
            )
        seen[d.name] = (d.line, d.col)
    check_cycles(unit)


def parse_unit(source: str) -> SourceUnit:
    """Parse one MiniOO source unit; raises ParseError with a positioned
    diagnostic on syntax errors, duplicate names, or inheritance cycles."""
    parser = _Parser(tokenize(source))
    try:
        unit = parser.parse_unit()
    except RecursionError:  # an expression nested deeper than the Python stack allows
        raise parser.error("expression nested too deeply") from None
    validate_structure(unit)
    return unit
