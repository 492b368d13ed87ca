"""The stand-alone invariant specification: loading, validation, printing.

Format (JSON, UTF-8):

    {"classes": [{"name": "<Class>", "invariant": ["<predicate>", ...]}, ...]}

Unknown keys are rejected.  Each predicate string is either a boolean
expression over the class's (own or inherited) fields, or the bounded
quantifier form

    forall (x = <init>; <cond>; x = <step>) : <body>

Predicates are side-effect-free by construction: the grammar admits only
field paths, quantifier variables, literals, and operators - no calls, no
allocation, no assignment.  They are typed by `typecheck`'s expression rules
in the context of their class, regardless of visibility, so a specification
that validates clean weaves into code that typechecks.
"""

from __future__ import annotations

import json
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
    IntLit,
    NullLit,
    Record,
    SourceUnit,
    StringLit,
    TypeExpr,
    Unary,
    VarRead,
    walk,
)
from .typecheck import ClassTable, NULL_TYPE, _Checker, class_table


class Forall(Record):
    """Bounded quantifier: holds iff `body` is true at every state reached by
    `x = init; while (cond) { ...; x = step }`; `step` is the right-hand
    side of `var = step`."""

    __slots__ = ("var", "init", "cond", "step", "body")
    def __init__(self, var: str, init: Expr, cond: Expr, step: Expr, body: Expr):
        self.var, self.init, self.cond, self.step, self.body = var, init, cond, step, body


Predicate = Union[Expr, Forall]


class InvariantSpec(Record):
    """Per-class predicate conjunctions, in declaration order."""

    __slots__ = ("entries",)
    def __init__(self, entries: Optional[dict[str, list[Predicate]]] = None):
        self.entries = {} if entries is None else entries

    def classes(self) -> list[str]:
        return list(self.entries.keys())

    def predicates(self, name: str) -> list[Predicate]:
        return self.entries.get(name, [])

    def specifies(self, name: str) -> bool:
        return name in self.entries


_ALLOWED = (IntLit, BoolLit, StringLit, NullLit, VarRead, FieldAccess, Binary, Unary)


def _not_allowed(node: Expr) -> Diagnostic:
    """The diagnostic for a node outside the predicate grammar (`_ALLOWED`)."""
    message = "%s is not allowed in a predicate" % type(node).__name__
    return Diagnostic("predicate-grammar", message, node.line, node.col)


def _check_restricted(e: Expr) -> None:
    for node in walk(e):
        if not isinstance(node, _ALLOWED):
            raise ParseError(_not_allowed(node))


def parse_predicate(text: str) -> Predicate:
    """Parse one predicate string; raises ParseError with position info."""
    parser = _Parser(tokenize(text))
    try:
        return _predicate(parser)
    except RecursionError:  # nested deeper than the Python stack allows
        raise parser.error("expression nested too deeply") from None


def _predicate(parser: _Parser) -> Predicate:
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
        for part in (init, cond, step, body):
            _check_restricted(part)
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
    _check_restricted(e)
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


class PredicateTyping(Record):
    __slots__ = ("diagnostics", "quantifier_types")
    def __init__(self, diagnostics: list[Diagnostic], quantifier_types: dict[str, TypeExpr]):
        self.diagnostics, self.quantifier_types = diagnostics, quantifier_types


class _PredicateChecker(_Checker):
    """Types the predicates of one class by MiniOO's own expression rules.
    A bare name is a quantifier variable or else one of the class's own or
    inherited fields.  Visibility does not restrict predicates: the woven
    getters read private state reflectively."""

    def __init__(self, table: ClassTable, cls: ClassDecl):
        super().__init__(SourceUnit(), table, set())  # it checks no unit
        self.current_class = cls
        self.self_t = cls.self_type()

    def visible_from_here(self, visibility: str, declaring: str, node) -> None:
        pass

    def error(self, code: str, message: str, node) -> None:
        # The general rules' errors, in a specification's codes.
        if isinstance(node, VarRead):
            message = "no field %r on %s or its ancestors" % (node.name, self.current_class.name)
        code = "unknown-field" if isinstance(node, (VarRead, FieldAccess)) else "non-boolean-predicate"
        self.report(code, message, node)

    def report(self, code: str, message: str, node) -> None:
        super().error(code, "%s: %s" % (self.where, message), node)

    def type_of_disallowed(self, e: Expr, _: Optional[TypeExpr]) -> None:
        d = _not_allowed(e)
        self.report(d.code, d.message, e)

    # Only a spec built in code has a node outside `_ALLOWED`.  Such a node
    # ends a chain of first operands: nothing beneath it is typed, and the
    # rules of the nodes above it are given None.
    rules = {t: rule for t, rule in _Checker.rules.items() if t in _ALLOWED}
    other_rule = (type_of_disallowed, None)

    def check(self, p: Predicate, where: str) -> PredicateTyping:
        self.where = where
        self.diags = []
        if not isinstance(p, Forall):
            t = self.type_of(p)
            if t is not None and t != BOOL:
                self.report("non-boolean-predicate", "predicate has type %s, expected bool" % t, p)
            return PredicateTyping(self.diags, {})
        init_t = self.type_of(p.init)
        if init_t is None or init_t == NULL_TYPE:
            if init_t == NULL_TYPE:
                self.report("non-boolean-predicate", "cannot bind quantifier to null", p.init)
            return PredicateTyping(self.diags, {})
        if self.table.find_field(self.self_t, p.var) is not None:
            self.report("predicate-grammar", "quantifier variable %r shadows a field" % p.var, p.init)
        self.scope.push()
        self.scope.declare(p.var, init_t)
        cond_t = self.type_of(p.cond)
        if cond_t is not None and cond_t != BOOL:
            self.report("non-boolean-predicate", "quantifier condition must be bool", p.cond)
        step_t = self.type_of(p.step)
        if step_t is not None and not self.table.is_subtype(step_t, init_t):
            self.report(
                "non-boolean-predicate", "step type %s does not match %s" % (step_t, init_t), p.step
            )
        body_t = self.type_of(p.body)
        if body_t is not None and body_t != BOOL:
            self.report("non-boolean-predicate", "quantifier body must be bool", p.body)
        self.scope.pop()
        return PredicateTyping(self.diags, {p.var: init_t})


def type_predicate(
    table: ClassTable, cls: ClassDecl, pred: Predicate, where: str = "predicate"
) -> PredicateTyping:
    return _PredicateChecker(table, cls).check(pred, where)


def validate_spec(
    spec: InvariantSpec, unit: SourceUnit, table: Optional[ClassTable] = None
) -> list[Diagnostic]:
    """Empty iff every spec class resolves, every free variable resolves to a
    declared or inherited field, and every predicate types as boolean by
    MiniOO's rules.
    `table`, if given, must be the unit's; by default it is `class_table(unit)`."""
    if table is None:
        table = class_table(unit)
    diags: list[Diagnostic] = []
    for name, preds in spec.entries.items():
        cls = table.get_class(name)
        if cls is None:
            diags.append(
                Diagnostic("unknown-class", "specification names unknown class %r" % name)
            )
            continue
        checker = _PredicateChecker(table, cls)
        for j, p in enumerate(preds):
            diags.extend(checker.check(p, "%s, invariant[%d]" % (name, j)).diagnostics)
    return diags
