"""Canonical MiniOO formatter: 4-space indent, one member per line.

`parse_unit(render_source(u))` is structurally equal to `u` for every valid
unit, and the output is byte-stable, which the golden-file tests rely on.

`render_source` writes a whole unit into one flat list of strings and joins
it once.  A statement's line and every expression in it are written by
`_write`, in order, from a stack of pending texts and nodes: each node is
replaced by its `_PARTS`, so expressions of any depth render without
recursion.  A leaf that is a receiver, a field's object or an argument is
written straight into the texts around it, so a call such as `this.m(x, 1)`
is one text.
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
_LOOSE = (Binary, Unary)  # the nodes that bind looser than a receiver or a field's object

_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"})


# The text of each leaf node.
_LEAVES = {
    IntLit: lambda e: str(e.value),
    BoolLit: lambda e: "true" if e.value else "false",
    StringLit: lambda e: '"%s"' % e.value.translate(_ESCAPES),
    NullLit: lambda e: "null",
    VarRead: lambda e: e.name,
    ThisExpr: lambda e: "this",
    SuperExpr: lambda e: "super",
    SingletonRef: lambda e: "@singleton(%s)" % e.class_name,
}


def _operand(e: Expr, floor: int) -> tuple:
    """`e`, parenthesized if it binds looser than `floor`."""
    if e.__class__ not in _LOOSE:
        return (e,)
    prec = BINARY_PRECEDENCE[e.op] if e.__class__ is Binary else _UNARY_PREC
    return ("(", e, ")") if prec < floor else (e,)


def _binary(e: Binary) -> tuple:
    p = BINARY_PRECEDENCE[e.op]
    return _operand(e.left, p) + (" %s " % e.op,) + _operand(e.right, p + 1)


def _before(e: Expr, text: str):
    """`e` as a receiver or a field's object, then `text`: one text if `e`
    is a leaf, and `e` in parentheses if it is a `Binary` or a `Unary`."""
    leaf = _LEAVES.get(e.__class__)
    if leaf is not None:
        return leaf(e) + text
    return ["(", e, ")" + text] if e.__class__ in _LOOSE else [e, text]


def _args(head, args: list[Expr], close: str):
    """`head`, a text or parts that end with one, then `args` in
    parentheses and separated by commas, then `close`.  A leaf argument is
    written into the texts around it, so that this is one text if every
    argument is a leaf."""
    parts = [head] if head.__class__ is str else head
    sep = "("
    for a in args:
        leaf = _LEAVES.get(a.__class__)
        if leaf is None:
            parts[-1] += sep
            parts += (a, "")
        else:
            parts[-1] += sep + leaf(a)
        sep = ", "
    parts[-1] += (")" if args else "()") + close
    return parts[0] if len(parts) == 1 else parts


# What each node is written as: its whole text, or its texts and child nodes in order.
_PARTS = {
    **_LEAVES,
    FieldAccess: lambda e: _before(e.obj, "." + e.name),
    MethodCall: lambda e: _args(
        e.name if e.receiver is None else _before(e.receiver, "." + e.name), e.args, ""
    ),
    NewObject: lambda e: _args("new %s" % e.type, e.args, ""),
    Binary: _binary,
    Unary: lambda e: (e.op,) + _operand(e.operand, _UNARY_PREC),
    ReflectGet: lambda e: ("@field(", e.obj, ', "%s")' % e.field_name.translate(_ESCAPES)),
    LocalDecl: lambda s: (
        "%s %s;\n" % (s.decl_type, s.name) if s.init is None
        else ("%s %s = " % (s.decl_type, s.name), s.init, ";\n")
    ),
    Assign: lambda s: (s.target, " = ", s.value, ";\n"),
    ReturnStmt: lambda s: "return;\n" if s.value is None else ("return ", s.value, ";\n"),
    ExprStmt: lambda s: (s.expr, ";\n"),
    PrintStmt: lambda s: ("print(", s.value, ");\n"),
    SuperCall: lambda s: _args("super", s.args, ";\n"),
    TraceStmt: lambda s: _args("@trace", [s.obj, s.check_class, s.phase, s.method], ";\n"),
    ViolationStmt: lambda s: _args("@violation", [s.check_class, s.index, s.phase, s.method], ";\n"),
    IfStmt: lambda s: ("if (", s.cond, ") {\n"),
    WhileStmt: lambda s: ("while (", s.cond, ") {\n"),
}


def _write(out: list[str], node) -> list[str]:
    """Append the text of `node`, an expression or a simple statement, to `out`; return `out`."""
    stack = [node]
    pop, append = stack.pop, out.append
    while stack:
        item = pop()
        if item.__class__ is str:
            append(item)
            continue
        try:
            rule = _PARTS[item.__class__]
        except KeyError:
            raise TypeError("unknown node %r" % type(item).__name__) from None
        parts = rule(item)
        if parts.__class__ is str:
            append(parts)
        else:
            stack += parts[::-1]
    return out


def render_expr(e: Expr) -> str:
    return "".join(_write([], e))


def _render_block(body: list[Stmt], pad: str, out: list[str]) -> None:
    inner = pad + _INDENT
    for s in body:
        out.append(pad)
        _write(out, s)  # a whole simple statement, or the head of an `if` or a `while`
        if isinstance(s, IfStmt):
            _render_block(s.then_body, inner, out)
            if s.else_body is not None:
                out += (pad, "} else {\n")
                _render_block(s.else_body, inner, out)
            out += (pad, "}\n")
        elif isinstance(s, WhileStmt):
            _render_block(s.body, inner, out)
            out += (pad, "}\n")


def _render_params(params) -> str:
    return ", ".join("%s %s" % (p.type, p.name) for p in params)


def _render_method(m: MethodDecl, out: list[str], in_interface: bool) -> None:
    head = "" if in_interface else m.visibility + " "
    if m.type_params:
        head += "<%s> " % ", ".join(m.type_params)
    ret = "void" if m.return_type is None else str(m.return_type)
    out.append("%s%s%s %s(%s)" % (_INDENT, head, ret, m.name, _render_params(m.params)))
    if m.body is None:
        out.append(";\n")
        return
    out.append(" {\n")
    _render_block(m.body, _INDENT * 2, out)
    out.append(_INDENT + "}\n")


def _render_class(c: ClassDecl, out: list[str]) -> None:
    head = "abstract class" if c.is_abstract else "class"
    head += " " + c.name
    if c.type_params:
        head += "<%s>" % ", ".join(c.type_params)
    if c.super_class is not None:
        head += " extends " + str(c.super_class)
    if c.interfaces:
        head += " implements " + ", ".join(str(i) for i in c.interfaces)
    out.append(head + " {\n")
    for f in c.fields:
        out.append("%s%s %s %s;\n" % (_INDENT, f.visibility, f.declared_type, f.name))
    if c.constructor is not None:
        ctor = c.constructor
        out.append("%s%s %s(%s) {\n" % (_INDENT, ctor.visibility, c.name, _render_params(ctor.params)))
        _render_block(ctor.body, _INDENT * 2, out)
        out.append(_INDENT + "}\n")
    for m in c.methods:
        _render_method(m, out, in_interface=False)
    out.append("}\n")


def _render_interface(i: InterfaceDecl, out: list[str]) -> None:
    head = "interface " + i.name
    if i.type_params:
        head += "<%s>" % ", ".join(i.type_params)
    if i.extends:
        head += " extends " + ", ".join(str(e) for e in i.extends)
    out.append(head + " {\n")
    for m in i.methods:
        _render_method(m, out, in_interface=True)
    out.append("}\n")


def render_source(unit: SourceUnit) -> str:
    """Render a unit back to MiniOO source text (round-trip safe)."""
    out: list[str] = []  # each block after a "\n" that separates it from the one before
    for i in unit.interfaces:
        out.append("\n")
        _render_interface(i, out)
    for c in unit.classes:
        out.append("\n")
        _render_class(c, out)
    if unit.driver is not None:
        out += ("\n", "driver {\n")
        _render_block(unit.driver.body, _INDENT, out)
        out.append("}\n")
    return "".join(out[1:])
