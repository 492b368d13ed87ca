"""Canonical MiniOO formatter: 4-space indent, one member per line.

`parse_unit(render_source(u))` is structurally equal to `u` for every valid
unit, and the output is byte-stable, which the golden-file tests rely on.
"""

from __future__ import annotations

from .syntax import (
    Assign,
    BINARY_PRECEDENCE,
    Binary,
    BoolLit,
    ClassDecl,
    Expr,
    ExprStmt,
    FieldAccess,
    IfStmt,
    IntLit,
    InterfaceDecl,
    LocalDecl,
    MethodCall,
    MethodDecl,
    NewObject,
    NullLit,
    PrintStmt,
    ReflectGet,
    ReturnStmt,
    SingletonRef,
    SourceUnit,
    Stmt,
    StringLit,
    SuperCall,
    SuperExpr,
    ThisExpr,
    TraceStmt,
    Unary,
    VarRead,
    ViolationStmt,
    WhileStmt,
)

_INDENT = "    "

_UNARY_PREC = max(BINARY_PRECEDENCE.values()) + 1
_ATOM_PREC = _UNARY_PREC + 1

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def _escape(s: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in s)


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return BINARY_PRECEDENCE[e.op]
    if isinstance(e, Unary):
        return _UNARY_PREC
    return _ATOM_PREC


def render_expr(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, StringLit):
        return '"%s"' % _escape(e.value)
    if isinstance(e, NullLit):
        return "null"
    if isinstance(e, VarRead):
        return e.name
    if isinstance(e, ThisExpr):
        return "this"
    if isinstance(e, SuperExpr):
        return "super"
    if isinstance(e, FieldAccess):
        return "%s.%s" % (_atom(e.obj), e.name)
    if isinstance(e, MethodCall):
        args = ", ".join(render_expr(a) for a in e.args)
        if e.receiver is None:
            return "%s(%s)" % (e.name, args)
        return "%s.%s(%s)" % (_atom(e.receiver), e.name, args)
    if isinstance(e, NewObject):
        args = ", ".join(render_expr(a) for a in e.args)
        return "new %s(%s)" % (e.type, args)
    if isinstance(e, Binary):
        p = BINARY_PRECEDENCE[e.op]
        left = render_expr(e.left)
        if _prec(e.left) < p:
            left = "(%s)" % left
        right = render_expr(e.right)
        if _prec(e.right) <= p:
            right = "(%s)" % right
        return "%s %s %s" % (left, e.op, right)
    if isinstance(e, Unary):
        operand = render_expr(e.operand)
        if _prec(e.operand) < _UNARY_PREC:
            operand = "(%s)" % operand
        return "%s%s" % (e.op, operand)
    if isinstance(e, ReflectGet):
        return '@field(%s, "%s")' % (render_expr(e.obj), _escape(e.field_name))
    if isinstance(e, SingletonRef):
        return "@singleton(%s)" % e.class_name
    raise TypeError("unknown expression node %r" % type(e).__name__)


def _atom(e: Expr) -> str:
    """Render a receiver/base expression, parenthesized unless atomic."""
    s = render_expr(e)
    if _prec(e) < _ATOM_PREC:
        return "(%s)" % s
    return s


def _render_stmt(s: Stmt, depth: int, out: list[str]) -> None:
    pad = _INDENT * depth
    if isinstance(s, LocalDecl):
        if s.init is None:
            out.append("%s%s %s;" % (pad, s.decl_type, s.name))
        else:
            out.append(
                "%s%s %s = %s;"
                % (pad, s.decl_type, s.name, render_expr(s.init))
            )
    elif isinstance(s, Assign):
        out.append("%s%s = %s;" % (pad, render_expr(s.target), render_expr(s.value)))
    elif isinstance(s, IfStmt):
        out.append("%sif (%s) {" % (pad, render_expr(s.cond)))
        for inner in s.then_body:
            _render_stmt(inner, depth + 1, out)
        if s.else_body is None:
            out.append("%s}" % pad)
        else:
            out.append("%s} else {" % pad)
            for inner in s.else_body:
                _render_stmt(inner, depth + 1, out)
            out.append("%s}" % pad)
    elif isinstance(s, WhileStmt):
        out.append("%swhile (%s) {" % (pad, render_expr(s.cond)))
        for inner in s.body:
            _render_stmt(inner, depth + 1, out)
        out.append("%s}" % pad)
    elif isinstance(s, ReturnStmt):
        if s.value is None:
            out.append("%sreturn;" % pad)
        else:
            out.append("%sreturn %s;" % (pad, render_expr(s.value)))
    elif isinstance(s, ExprStmt):
        out.append("%s%s;" % (pad, render_expr(s.expr)))
    elif isinstance(s, PrintStmt):
        out.append("%sprint(%s);" % (pad, render_expr(s.value)))
    elif isinstance(s, SuperCall):
        out.append("%ssuper(%s);" % (pad, ", ".join(render_expr(a) for a in s.args)))
    elif isinstance(s, TraceStmt):
        out.append(
            "%s@trace(%s, %s, %s, %s);"
            % (
                pad,
                render_expr(s.obj),
                render_expr(s.check_class),
                render_expr(s.phase),
                render_expr(s.method),
            )
        )
    elif isinstance(s, ViolationStmt):
        out.append(
            "%s@violation(%s, %s, %s, %s);"
            % (
                pad,
                render_expr(s.check_class),
                render_expr(s.index),
                render_expr(s.phase),
                render_expr(s.method),
            )
        )
    else:
        raise TypeError("unknown statement node %r" % type(s).__name__)


def _render_params(params) -> str:
    return ", ".join("%s %s" % (p.type, p.name) for p in params)


def _render_method(m: MethodDecl, depth: int, out: list[str], in_interface: bool) -> None:
    pad = _INDENT * depth
    head = "" if in_interface else m.visibility + " "
    if m.type_params:
        head += "<%s> " % ", ".join(m.type_params)
    ret = "void" if m.return_type is None else str(m.return_type)
    sig = "%s%s%s %s(%s)" % (pad, head, ret, m.name, _render_params(m.params))
    if m.body is None:
        out.append(sig + ";")
        return
    out.append(sig + " {")
    for s in m.body:
        _render_stmt(s, depth + 1, out)
    out.append("%s}" % pad)


def _render_class(c: ClassDecl, out: list[str]) -> None:
    head = "abstract class" if c.is_abstract else "class"
    head += " " + c.name
    if c.type_params:
        head += "<%s>" % ", ".join(c.type_params)
    if c.super_class is not None:
        head += " extends " + str(c.super_class)
    if c.interfaces:
        head += " implements " + ", ".join(str(i) for i in c.interfaces)
    out.append(head + " {")
    for f in c.fields:
        out.append(
            "%s%s %s %s;" % (_INDENT, f.visibility, f.declared_type, f.name)
        )
    if c.constructor is not None:
        ctor = c.constructor
        out.append(
            "%s%s %s(%s) {" % (_INDENT, ctor.visibility, c.name, _render_params(ctor.params))
        )
        for s in ctor.body:
            _render_stmt(s, 2, out)
        out.append("%s}" % _INDENT)
    for m in c.methods:
        _render_method(m, 1, out, in_interface=False)
    out.append("}")


def _render_interface(i: InterfaceDecl, out: list[str]) -> None:
    head = "interface " + i.name
    if i.type_params:
        head += "<%s>" % ", ".join(i.type_params)
    if i.extends:
        head += " extends " + ", ".join(str(e) for e in i.extends)
    out.append(head + " {")
    for m in i.methods:
        _render_method(m, 1, out, in_interface=True)
    out.append("}")


def render_source(unit: SourceUnit) -> str:
    """Render a unit back to MiniOO source text (round-trip safe)."""
    blocks: list[str] = []
    for i in unit.interfaces:
        lines: list[str] = []
        _render_interface(i, lines)
        blocks.append("\n".join(lines))
    for c in unit.classes:
        lines = []
        _render_class(c, lines)
        blocks.append("\n".join(lines))
    if unit.driver is not None:
        lines = ["driver {"]
        for s in unit.driver.body:
            _render_stmt(s, 1, lines)
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""
