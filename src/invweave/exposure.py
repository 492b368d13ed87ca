"""Hierarchy analysis for representation exposure.

For each specified class A this module computes:

  - BV(A): field names declared directly in A;
  - FV(rho_A): root identifiers of its predicates' field paths, minus
    quantifier-bound variables;
  - I(A): names already exposed through inheritance - empty when A's
    superclass is absent from the specification, otherwise the recursive
    union I(C) | BV(C) | FV(rho_C) over the superclass C;
  - the exposure-interface body: one getter signature per name in
    BV(A) | FV(rho_A) \\ I(A), typed by walking the hierarchy.

A chained path like `head.next` contributes only its root `head`: getters
expose the receiver's fields, and navigation past the root happens inside
the generated check via reflective reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Diagnostic
from .invspec import Forall, InvariantSpec, Predicate
from .syntax import ClassDecl, SourceUnit, TypeExpr, VarRead, walk
from .typecheck import ClassTable


def free_vars_ordered(p: Predicate) -> list[str]:
    """Free variables in first-occurrence order (deterministic codegen)."""
    if isinstance(p, Forall):
        parts, bound = (p.init, p.cond, p.step, p.body), p.var
    else:
        parts, bound = (p,), None
    seen: list[str] = []
    for part in parts:
        for e in walk(part):
            if isinstance(e, VarRead) and e.name != bound and e.name not in seen:
                seen.append(e.name)
    return seen


def free_vars(p: Predicate) -> set[str]:
    return set(free_vars_ordered(p))


def bound_vars(c: ClassDecl) -> set[str]:
    return {f.name for f in c.fields}


def class_free_vars_ordered(name: str, spec: InvariantSpec) -> list[str]:
    out: list[str] = []
    for p in spec.predicates(name):
        for v in free_vars_ordered(p):
            if v not in out:
                out.append(v)
    return out


def class_free_vars(name: str, spec: InvariantSpec) -> set[str]:
    return set(class_free_vars_ordered(name, spec))


def inherited_exposed(c: ClassDecl, unit: SourceUnit, spec: InvariantSpec) -> set[str]:
    """The recursive inherited-exposure set; consult the specification, not
    the program: an unspecified superclass terminates the recursion."""
    table = ClassTable(unit)
    return _inherited(table, c, spec, {})


def _inherited(
    table: ClassTable,
    c: ClassDecl,
    spec: InvariantSpec,
    memo: dict[str, set[str]],
) -> set[str]:
    if c.name in memo:
        return memo[c.name]
    if c.super_class is None:
        memo[c.name] = set()
        return memo[c.name]
    sup = table.get_class(c.super_class.name)
    if sup is None or not spec.specifies(sup.name):
        memo[c.name] = set()
        return memo[c.name]
    result = _inherited(table, sup, spec, memo) | bound_vars(sup) | class_free_vars(sup.name, spec)
    memo[c.name] = result
    return result


def interface_body(
    c: ClassDecl, spec: InvariantSpec, table: ClassTable
) -> list[tuple[str, TypeExpr]]:
    """Getter signatures for BV(c) | FV(rho_c) \\ I(c), each typed with the
    field's declared type as seen from c.  Own fields come first in
    declaration order, then inherited extras in first-use order."""
    inherited = _inherited(table, c, spec, {})
    fv = class_free_vars_ordered(c.name, spec)
    names: list[str] = [f.name for f in c.fields]
    for v in fv:
        if v not in names and v not in inherited:
            names.append(v)
    out: list[tuple[str, TypeExpr]] = []
    for name in names:
        hit = table.find_field(c.self_type(), name)
        if hit is None:
            raise LookupError(
                "free variable %r of %s does not resolve to a field (validate the "
                "specification first)" % (name, c.name)
            )
        out.append((name, hit.type))
    return out


@dataclass
class ClassExposure:
    own_signatures: list[tuple[str, TypeExpr]]
    inherited_exposed: set[str]
    free_vars: set[str]
    bound_vars: set[str]

    def signature_names(self) -> set[str]:
        return {n for n, _ in self.own_signatures}


@dataclass
class ExposurePlan:
    per_class: dict[str, ClassExposure] = field(default_factory=dict)


def compute_plan(table: ClassTable, spec: InvariantSpec) -> ExposurePlan:
    memo: dict[str, set[str]] = {}
    plan = ExposurePlan()
    for name in spec.classes():
        c = table.get_class(name)
        if c is None:
            raise LookupError("specification names unknown class %r" % name)
        plan.per_class[name] = ClassExposure(
            own_signatures=interface_body(c, spec, table),
            inherited_exposed=_inherited(table, c, spec, memo),
            free_vars=class_free_vars(name, spec),
            bound_vars=bound_vars(c),
        )
    return plan


def _specified_super(table: ClassTable, name: str, spec: InvariantSpec) -> str | None:
    c = table.get_class(name)
    if c is None or c.super_class is None:
        return None
    if not spec.specifies(c.super_class.name):
        return None
    return c.super_class.name


def getter_reachable(
    plan: ExposurePlan, table: ClassTable, spec: InvariantSpec, name: str, var: str
) -> bool:
    """Is a getter for `var` declared on class `name`'s exposure interface or
    one of its super-interfaces?"""
    cur: str | None = name
    while cur is not None:
        entry = plan.per_class.get(cur)
        if entry is not None and var in entry.signature_names():
            return True
        cur = _specified_super(table, cur, spec)
    return False


def verify_exposure(
    plan: ExposurePlan, table: ClassTable, spec: InvariantSpec
) -> list[Diagnostic]:
    """Errors for exposure gaps (a free variable with no reachable getter);
    notes where the triviality hypothesis fails (predicates reaching past the
    specified fields) or where an unspecified ancestor's field is re-exposed."""
    diags: list[Diagnostic] = []
    for name, entry in plan.per_class.items():
        for var in sorted(entry.free_vars):
            if not getter_reachable(plan, table, spec, name, var):
                diags.append(
                    Diagnostic(
                        "exposure-gap",
                        "no getter for free variable %r reachable from the exposure "
                        "interface of %s" % (var, name),
                    )
                )
        c = table.get_class(name)
        if c is None:
            continue
        chain = table.class_chain(name)[1:]
        # Triviality applies to classes below some specified class; its
        # hypothesis needs the whole ancestor chain specified and predicates
        # confined to own or inherited-specified fields.
        applicable = any(spec.specifies(a.name) for a in chain)
        fully_specified = bool(chain) and all(spec.specifies(a.name) for a in chain)
        hypothesis = fully_specified and entry.free_vars <= (
            entry.bound_vars | entry.inherited_exposed
        )
        if applicable and not hypothesis:
            diags.append(
                Diagnostic(
                    "prop-note",
                    "%s: the specified-ancestor chain has gaps or predicates reach "
                    "fields outside the specified sets; the interface body may "
                    "exceed the class's own fields" % name,
                    severity="note",
                )
            )
        if applicable and hypothesis and entry.signature_names() != entry.bound_vars:
            diags.append(
                Diagnostic(
                    "exposure-gap",
                    "%s: interface body %s deviates from own fields %s"
                    % (name, sorted(entry.signature_names()), sorted(entry.bound_vars)),
                )
            )
        redeclared = entry.signature_names() - entry.bound_vars
        if redeclared:
            diags.append(
                Diagnostic(
                    "exposure-note",
                    "%s: getters for inherited unspecified field(s) %s are declared "
                    "on this interface; adding the ancestor to the specification "
                    "later would duplicate them" % (name, sorted(redeclared)),
                    severity="note",
                )
            )
    return diags
