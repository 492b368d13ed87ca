"""The stand-alone invariant specification: loading, validation, printing.

Format (JSON, UTF-8):

    {"classes": [{"name": "<Class>", "invariant": ["<predicate>", ...]}, ...]}

Unknown keys are rejected.  Each predicate string is either a boolean
expression over the class's (own or inherited) fields, or the bounded
quantifier form

    forall (x = <init>; <cond>; x = <step>) : <body>

Predicates are side-effect-free by construction: the grammar admits only
field paths, quantifier variables, literals, and operators - no calls, no
allocation, no assignment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Union

from .diagnostics import Diagnostic, ParseError, SpecError
from .lexer import tokenize
from .parser import _Parser
from .printer import render_expr
from .syntax import (
    Binary,
    BoolLit,
    BOOL,
    ClassDecl,
    Expr,
    FieldAccess,
    INT,
    IntLit,
    NamedType,
    NullLit,
    SourceUnit,
    STRING,
    StringLit,
    TypeExpr,
    Unary,
    VarRead,
    walk,
)
from .typecheck import ClassTable, NULL_TYPE


@dataclass
class Forall:
    """Bounded quantifier: holds iff `body` is true at every state reached by
    `x = init; while (cond) { ...; x = step }`."""

    var: str
    init: Expr
    cond: Expr
    step: Expr  # right-hand side of `var = step`
    body: Expr


Predicate = Union[Expr, Forall]


@dataclass
class InvariantSpec:
    """Per-class predicate conjunctions, in declaration order."""

    entries: dict[str, list[Predicate]] = field(default_factory=dict)

    def classes(self) -> list[str]:
        return list(self.entries.keys())

    def predicates(self, name: str) -> list[Predicate]:
        return self.entries.get(name, [])

    def specifies(self, name: str) -> bool:
        return name in self.entries


_ALLOWED = (IntLit, BoolLit, StringLit, NullLit, VarRead, FieldAccess, Binary, Unary)


def _check_restricted(e: Expr, where: str) -> None:
    for node in walk(e):
        if not isinstance(node, _ALLOWED):
            raise ParseError(
                Diagnostic(
                    "predicate-grammar",
                    "%s is not allowed in a predicate (%s)" % (type(node).__name__, where),
                    getattr(node, "line", 0),
                    getattr(node, "col", 0),
                )
            )


def parse_predicate(text: str) -> Predicate:
    """Parse one predicate string; raises ParseError with position info."""
    parser = _Parser(tokenize(text))
    if parser.at_kw("forall"):
        parser.advance()
        parser.expect("OP", "(")
        var_tok = parser.expect("IDENT", what="quantifier variable")
        parser.expect("OP", "=")
        init = parser.parse_expr()
        parser.expect("OP", ";")
        cond = parser.parse_expr()
        parser.expect("OP", ";")
        step_var = parser.expect("IDENT", what="quantifier variable")
        if step_var.value != var_tok.value:
            raise ParseError(
                Diagnostic(
                    "predicate-grammar",
                    "step must assign to %r" % var_tok.value,
                    step_var.line,
                    step_var.col,
                )
            )
        parser.expect("OP", "=")
        step = parser.parse_expr()
        parser.expect("OP", ")")
        parser.expect("OP", ":")
        body = parser.parse_expr()
        parser.expect("EOF")
        for part, where in ((init, "init"), (cond, "condition"), (step, "step"), (body, "body")):
            _check_restricted(part, where)
        if not any(isinstance(e, VarRead) and e.name == var_tok.value for e in walk(step)):
            raise ParseError(
                Diagnostic(
                    "predicate-grammar",
                    "quantifier step must mention %r" % var_tok.value,
                    step_var.line,
                    step_var.col,
                )
            )
        return Forall(var_tok.value, init, cond, step, body)
    e = parser.parse_expr()
    parser.expect("EOF")
    _check_restricted(e, "predicate")
    return e


def render_predicate(p: Predicate) -> str:
    if isinstance(p, Forall):
        return "forall (%s = %s; %s; %s = %s) : %s" % (
            p.var,
            render_expr(p.init),
            render_expr(p.cond),
            p.var,
            render_expr(p.step),
            render_expr(p.body),
        )
    return render_expr(p)


# ---------------------------------------------------------------------------
# Loading / serialization
# ---------------------------------------------------------------------------


def load_spec(document: str) -> InvariantSpec:
    """Parse and validate the JSON document shape; predicate strings are
    parsed into ASTs with order preserved."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SpecError(
            Diagnostic("spec-format", "invalid JSON: %s" % exc.msg, exc.lineno, exc.colno)
        )
    if not isinstance(data, dict):
        raise SpecError(Diagnostic("spec-format", "top level must be an object"))
    unknown = set(data.keys()) - {"classes"}
    if unknown:
        raise SpecError(
            Diagnostic("spec-format", "unknown key(s): %s" % ", ".join(sorted(unknown)))
        )
    if "classes" not in data or not isinstance(data["classes"], list):
        raise SpecError(Diagnostic("spec-format", "missing 'classes' array"))
    spec = InvariantSpec()
    for i, entry in enumerate(data["classes"]):
        if not isinstance(entry, dict):
            raise SpecError(Diagnostic("spec-format", "classes[%d] must be an object" % i))
        unknown = set(entry.keys()) - {"name", "invariant"}
        if unknown:
            raise SpecError(
                Diagnostic(
                    "spec-format",
                    "classes[%d]: unknown key(s): %s" % (i, ", ".join(sorted(unknown))),
                )
            )
        name = entry.get("name")
        preds = entry.get("invariant")
        if not isinstance(name, str) or not name:
            raise SpecError(Diagnostic("spec-format", "classes[%d]: bad name" % i))
        if not isinstance(preds, list) or not all(isinstance(p, str) for p in preds):
            raise SpecError(
                Diagnostic("spec-format", "classes[%d]: 'invariant' must be strings" % i)
            )
        if name in spec.entries:
            raise SpecError(
                Diagnostic("spec-format", "duplicate class entry %r" % name)
            )
        parsed: list[Predicate] = []
        for j, text in enumerate(preds):
            try:
                parsed.append(parse_predicate(text))
            except ParseError as exc:
                d = exc.diagnostic
                raise SpecError(
                    Diagnostic(
                        d.code,
                        "%s, invariant[%d]: %s" % (name, j, d.message),
                        d.line,
                        d.col,
                    )
                )
        spec.entries[name] = parsed
    return spec


def serialize_spec(spec: InvariantSpec) -> str:
    data = {
        "classes": [
            {"name": name, "invariant": [render_predicate(p) for p in preds]}
            for name, preds in spec.entries.items()
        ]
    }
    return json.dumps(data, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Validation against a source unit
# ---------------------------------------------------------------------------


@dataclass
class PredicateTyping:
    diagnostics: list[Diagnostic]
    quantifier_types: dict[str, TypeExpr]


class _PredicateTyper:
    """Types a predicate in a class context: bare identifiers resolve to the
    class's own or inherited fields, visibility-blind (the woven getters read
    private state reflectively, so visibility does not restrict predicates)."""

    def __init__(self, table: ClassTable, cls: ClassDecl, where: str):
        self.table = table
        self.cls = cls
        self.where = where
        self.diags: list[Diagnostic] = []
        self.qvars: dict[str, TypeExpr] = {}

    def error(self, code: str, message: str, node) -> None:
        self.diags.append(
            Diagnostic(
                code,
                "%s: %s" % (self.where, message),
                getattr(node, "line", 0),
                getattr(node, "col", 0),
            )
        )

    def type_of(self, e: Expr) -> Optional[TypeExpr]:
        if isinstance(e, IntLit):
            return INT
        if isinstance(e, BoolLit):
            return BOOL
        if isinstance(e, StringLit):
            return STRING
        if isinstance(e, NullLit):
            return NULL_TYPE
        if isinstance(e, VarRead):
            if e.name in self.qvars:
                return self.qvars[e.name]
            hit = self.table.find_field(self.cls.self_type(), e.name)
            if hit is None:
                self.error(
                    "unknown-field",
                    "no field %r on %s or its ancestors" % (e.name, self.cls.name),
                    e,
                )
                return None
            return hit.type
        if isinstance(e, FieldAccess):
            base = self.type_of(e.obj)
            if base is None:
                return None
            if not isinstance(base, NamedType) or self.table.get_class(base.name) is None:
                self.error("unknown-field", "%s has no fields" % base, e)
                return None
            hit = self.table.find_field(base, e.name)
            if hit is None:
                self.error("unknown-field", "no field %r on %s" % (e.name, base), e)
                return None
            return hit.type
        if isinstance(e, Binary):
            return self.type_of_binary(e)
        if isinstance(e, Unary):
            t = self.type_of(e.operand)
            if e.op == "!":
                if t is not None and t != BOOL:
                    self.error("non-boolean-predicate", "! expects bool", e)
                return BOOL
            if t is not None and t != INT:
                self.error("non-boolean-predicate", "unary - expects int", e)
            return INT
        self.error("predicate-grammar", "%s not allowed" % type(e).__name__, e)
        return None

    def type_of_binary(self, e: Binary) -> Optional[TypeExpr]:
        lt = self.type_of(e.left)
        rt = self.type_of(e.right)
        op = e.op
        if op in ("&&", "||"):
            for t in (lt, rt):
                if t is not None and t != BOOL:
                    self.error("non-boolean-predicate", "%s expects bool operands" % op, e)
            return BOOL
        if op in ("<", "<=", ">", ">="):
            for t in (lt, rt):
                if t is not None and t != INT:
                    self.error("non-boolean-predicate", "%s expects int operands" % op, e)
            return BOOL
        if op in ("==", "!="):
            if lt is None or rt is None:
                return BOOL
            ok = (
                lt == rt
                or lt == NULL_TYPE
                or rt == NULL_TYPE
                or self.table.is_subtype(lt, rt)
                or self.table.is_subtype(rt, lt)
            )
            if not ok:
                self.error(
                    "non-boolean-predicate", "cannot compare %s with %s" % (lt, rt), e
                )
            return BOOL
        if op == "+":
            if lt == STRING or rt == STRING:
                return STRING
            return INT
        return INT

    def check(self, p: Predicate) -> PredicateTyping:
        if isinstance(p, Forall):
            init_t = self.type_of(p.init)
            if init_t is None or init_t == NULL_TYPE:
                if init_t == NULL_TYPE:
                    self.error("non-boolean-predicate", "cannot bind quantifier to null", p.init)
                return PredicateTyping(self.diags, {})
            hit = self.table.find_field(self.cls.self_type(), p.var)
            if hit is not None:
                self.error(
                    "predicate-grammar",
                    "quantifier variable %r shadows a field" % p.var,
                    p.init,
                )
            self.qvars[p.var] = init_t
            cond_t = self.type_of(p.cond)
            if cond_t is not None and cond_t != BOOL:
                self.error("non-boolean-predicate", "quantifier condition must be bool", p.cond)
            step_t = self.type_of(p.step)
            if step_t is not None and not self.table.is_subtype(step_t, init_t):
                self.error(
                    "non-boolean-predicate",
                    "step type %s does not match %s" % (step_t, init_t),
                    p.step,
                )
            body_t = self.type_of(p.body)
            if body_t is not None and body_t != BOOL:
                self.error("non-boolean-predicate", "quantifier body must be bool", p.body)
            return PredicateTyping(self.diags, dict(self.qvars))
        t = self.type_of(p)
        if t is not None and t != BOOL:
            self.error("non-boolean-predicate", "predicate has type %s, expected bool" % t, p)
        return PredicateTyping(self.diags, {})


def type_predicate(
    table: ClassTable, cls: ClassDecl, pred: Predicate, where: str = "predicate"
) -> PredicateTyping:
    return _PredicateTyper(table, cls, where).check(pred)


def validate_spec(
    spec: InvariantSpec, unit: SourceUnit, table: Optional[ClassTable] = None
) -> list[Diagnostic]:
    """Empty iff every spec class resolves, every free variable resolves to a
    declared or inherited field, and every predicate types as boolean.
    `table`, if given, must be the unit's."""
    if table is None:
        table = ClassTable(unit)
    diags: list[Diagnostic] = []
    for name, preds in spec.entries.items():
        cls = table.get_class(name)
        if cls is None:
            diags.append(
                Diagnostic("unknown-class", "specification names unknown class %r" % name)
            )
            continue
        for j, p in enumerate(preds):
            where = "%s, invariant[%d]" % (name, j)
            diags.extend(type_predicate(table, cls, p, where).diagnostics)
    return diags
