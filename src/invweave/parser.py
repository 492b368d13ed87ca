"""Recursive-descent parser for MiniOO.

Grammar notes:
  - a unit is a sequence of class declarations, interface declarations, and
    at most one `driver { ... }` block;
  - generics use `<`/`>` with single-character tokens, so nested argument
    lists need no special lexing;
  - at statement heads, `Type name = ...;` wins over expression statements
    via bounded backtracking (the same rule Java applies through name
    resolution);
  - structural rules (unique names, acyclic inheritance, body presence) are
    enforced here so every returned SourceUnit is structurally valid.
"""

from __future__ import annotations

from typing import Optional

from .diagnostics import Diagnostic, ParseError
from .lexer import Token, tokenize
from .syntax import (
    Assign,
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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0
        self.type_scope: list[set[str]] = [set()]

    # -- token helpers ------------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        j = min(self.i + k, len(self.toks) - 1)
        return self.toks[j]

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == kind and (value is None or t.value == value)

    def at_kw(self, word: str) -> bool:
        return self.at("KEYWORD", word)

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None, what: str = "") -> Token:
        if self.at(kind, value):
            return self.advance()
        t = self.peek()
        expected = what or (value if value is not None else kind)
        raise ParseError(
            Diagnostic(
                "syntax",
                "expected %s, found %r" % (expected, t.value or t.kind),
                t.line,
                t.col,
            )
        )

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
                unit.driver = DriverBlock(body, line=t.line, col=t.col)
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
            return TypeVar(t.value, line=t.line, col=t.col)
        args: tuple[TypeExpr, ...] = ()
        if self.at("OP", "<"):
            self.advance()
            collected = [self.parse_type()]
            while self.accept("OP", ","):
                collected.append(self.parse_type())
            self.expect("OP", ">")
            args = tuple(collected)
        return NamedType(t.value, args, line=t.line, col=t.col)

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
                name=name_tok.value,
                type_params=type_params,
                super_class=super_class,
                interfaces=interfaces,
                is_abstract=is_abstract,
                line=name_tok.line,
                col=name_tok.col,
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
            decl = InterfaceDecl(
                name=name_tok.value,
                type_params=type_params,
                extends=extends,
                line=name_tok.line,
                col=name_tok.col,
            )
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
        return MethodDecl(
            name=name_tok.value,
            visibility="public",
            type_params=type_params,
            params=params,
            return_type=ret,
            body=None,
            line=name_tok.line,
            col=name_tok.col,
        )

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
            decl.constructor = ConstructorDecl(
                visibility=vis, params=params, body=body,
                line=name_tok.line, col=name_tok.col,
            )
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
                    MethodDecl(
                        name=name_tok.value,
                        visibility=vis,
                        type_params=type_params,
                        params=params,
                        return_type=ret,
                        body=body,
                        line=name_tok.line,
                        col=name_tok.col,
                    )
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
            decl.fields.append(
                FieldDecl(
                    name=nt.value,
                    declared_type=ret,  # type: ignore[arg-type]
                    visibility=vis,
                    line=nt.line,
                    col=nt.col,
                )
            )

    # -- statements ---------------------------------------------------------

    def parse_block(self) -> list[Stmt]:
        self.expect("OP", "{")
        body: list[Stmt] = []
        while not self.accept("OP", "}"):
            body.append(self.parse_stmt())
        return body

    def parse_stmt(self) -> Stmt:
        t = self.peek()
        if self.at_kw("if"):
            return self.parse_if()
        if self.at_kw("while"):
            self.advance()
            self.expect("OP", "(")
            cond = self.parse_expr()
            self.expect("OP", ")")
            body = self.parse_block()
            return WhileStmt(cond, body, line=t.line, col=t.col)
        if self.at_kw("return"):
            self.advance()
            value = None
            if not self.at("OP", ";"):
                value = self.parse_expr()
            self.expect("OP", ";")
            return ReturnStmt(value, line=t.line, col=t.col)
        if self.at_kw("print"):
            self.advance()
            self.expect("OP", "(")
            value = self.parse_expr()
            self.expect("OP", ")")
            self.expect("OP", ";")
            return PrintStmt(value, line=t.line, col=t.col)
        if self.at_kw("super") and self.peek(1).value == "(":
            self.advance()
            args = self.parse_args()
            self.expect("OP", ";")
            return SuperCall(args, line=t.line, col=t.col)
        if self.at("AT", "trace") or self.at("AT", "violation"):
            name = self.advance().value
            self.expect("OP", "(")
            args = [self.parse_expr()]
            while self.accept("OP", ","):
                args.append(self.parse_expr())
            self.expect("OP", ")")
            self.expect("OP", ";")
            if len(args) != 4:
                raise self.error("@%s takes exactly 4 arguments" % name, t)
            if name == "trace":
                return TraceStmt(args[0], args[1], args[2], args[3], line=t.line, col=t.col)
            return ViolationStmt(args[0], args[1], args[2], args[3], line=t.line, col=t.col)
        # Local declaration vs expression statement: attempt `Type name [=|;]`.
        if self.at("IDENT"):
            mark = self.i
            try:
                decl_type = self.parse_type()
                if self.at("IDENT") and self.peek(1).value in ("=", ";"):
                    name_tok = self.advance()
                    init = None
                    if self.accept("OP", "="):
                        init = self.parse_expr()
                    self.expect("OP", ";")
                    return LocalDecl(
                        decl_type, name_tok.value, init, line=t.line, col=t.col
                    )
            except ParseError:
                pass
            self.i = mark
        return self.parse_expr_or_assign()

    def parse_if(self) -> Stmt:
        t = self.expect("KEYWORD", "if")
        self.expect("OP", "(")
        cond = self.parse_expr()
        self.expect("OP", ")")
        then_body = self.parse_block()
        else_body: Optional[list[Stmt]] = None
        if self.accept("KEYWORD", "else"):
            if self.at_kw("if"):
                else_body = [self.parse_if()]
            else:
                else_body = self.parse_block()
        return IfStmt(cond, then_body, else_body, line=t.line, col=t.col)

    def parse_expr_or_assign(self) -> Stmt:
        t = self.peek()
        e = self.parse_expr()
        if self.accept("OP", "="):
            if not isinstance(e, (VarRead, FieldAccess)):
                raise self.error("cannot assign to this expression", t)
            value = self.parse_expr()
            self.expect("OP", ";")
            return Assign(e, value, line=t.line, col=t.col)
        self.expect("OP", ";")
        return ExprStmt(e, line=t.line, col=t.col)

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

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.at("OP", "||"):
            t = self.advance()
            right = self.parse_and()
            left = Binary("||", left, right, line=t.line, col=t.col)
        return left

    def parse_and(self) -> Expr:
        left = self.parse_equality()
        while self.at("OP", "&&"):
            t = self.advance()
            right = self.parse_equality()
            left = Binary("&&", left, right, line=t.line, col=t.col)
        return left

    def parse_equality(self) -> Expr:
        left = self.parse_relational()
        while self.at("OP", "==") or self.at("OP", "!="):
            t = self.advance()
            right = self.parse_relational()
            left = Binary(t.value, left, right, line=t.line, col=t.col)
        return left

    def parse_relational(self) -> Expr:
        left = self.parse_additive()
        while self.peek().kind == "OP" and self.peek().value in ("<", "<=", ">", ">="):
            t = self.advance()
            right = self.parse_additive()
            left = Binary(t.value, left, right, line=t.line, col=t.col)
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while self.peek().kind == "OP" and self.peek().value in ("+", "-"):
            t = self.advance()
            right = self.parse_multiplicative()
            left = Binary(t.value, left, right, line=t.line, col=t.col)
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while self.peek().kind == "OP" and self.peek().value in ("*", "/"):
            t = self.advance()
            right = self.parse_unary()
            left = Binary(t.value, left, right, line=t.line, col=t.col)
        return left

    def parse_unary(self) -> Expr:
        if self.at("OP", "!") or self.at("OP", "-"):
            t = self.advance()
            operand = self.parse_unary()
            return Unary(t.value, operand, line=t.line, col=t.col)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        e = self.parse_primary()
        while self.at("OP", "."):
            self.advance()
            name_tok = self.expect("IDENT", what="member name")
            if self.at("OP", "("):
                args = self.parse_args()
                e = MethodCall(e, name_tok.value, args, line=name_tok.line, col=name_tok.col)
            else:
                e = FieldAccess(e, name_tok.value, line=name_tok.line, col=name_tok.col)
        return e

    def parse_primary(self) -> Expr:
        t = self.peek()
        if self.at("INT"):
            self.advance()
            return IntLit(int(t.value), line=t.line, col=t.col)
        if self.at("STRING"):
            self.advance()
            return StringLit(t.value, line=t.line, col=t.col)
        if self.at_kw("true") or self.at_kw("false"):
            self.advance()
            return BoolLit(t.value == "true", line=t.line, col=t.col)
        if self.at_kw("null"):
            self.advance()
            return NullLit(line=t.line, col=t.col)
        if self.at_kw("this"):
            self.advance()
            return ThisExpr(line=t.line, col=t.col)
        if self.at_kw("super"):
            self.advance()
            self.expect("OP", ".")
            name_tok = self.expect("IDENT", what="method name")
            args = self.parse_args()
            return MethodCall(
                SuperExpr(line=t.line, col=t.col),
                name_tok.value,
                args,
                line=name_tok.line,
                col=name_tok.col,
            )
        if self.at_kw("new"):
            self.advance()
            ntype = self.parse_named_type()
            args = self.parse_args()
            return NewObject(ntype, args, line=t.line, col=t.col)
        if self.at("AT", "field"):
            self.advance()
            self.expect("OP", "(")
            obj = self.parse_expr()
            self.expect("OP", ",")
            name_tok = self.expect("STRING", what="field name string")
            self.expect("OP", ")")
            return ReflectGet(obj, name_tok.value, line=t.line, col=t.col)
        if self.at("AT", "singleton"):
            self.advance()
            self.expect("OP", "(")
            name_tok = self.expect("IDENT", what="class name")
            self.expect("OP", ")")
            return SingletonRef(name_tok.value, line=t.line, col=t.col)
        if self.at("OP", "("):
            self.advance()
            e = self.parse_expr()
            self.expect("OP", ")")
            return e
        if self.at("IDENT"):
            self.advance()
            if self.at("OP", "("):
                args = self.parse_args()
                return MethodCall(None, t.value, args, line=t.line, col=t.col)
            return VarRead(t.value, line=t.line, col=t.col)
        raise self.error("expected expression")


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


_STATEMENT_CODE = frozenset(
    m.__code__ for m in (_Parser.parse_block, _Parser.parse_stmt, _Parser.parse_if)
)


def _too_deep(exc: RecursionError) -> str:
    """What the parser had nested when it ran out of stack: statements when
    most of its frames were statement-level, otherwise an expression."""
    frames = statements = 0
    tb = exc.__traceback__
    while tb is not None:
        frames += 1
        statements += tb.tb_frame.f_code in _STATEMENT_CODE
        tb = tb.tb_next
    return "statement" if 2 * statements > frames else "expression"


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
    except RecursionError as exc:  # nested deeper than the Python stack allows
        raise parser.error("%s nested too deeply" % _too_deep(exc)) from None
    validate_structure(unit)
    return unit
