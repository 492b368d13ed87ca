"""Hierarchy analysis for representation exposure.

For each specified class A this module computes:

  - BV(A): field names declared directly in A;
  - FV(rho_A): root identifiers of its predicates' field paths, minus
    quantifier-bound variables;
  - the specified chain of A: A after its consecutive specified ancestors,
    root first.  It is the one place the specified-ancestor relation is
    followed; the weaver reads interface `extends`, getter owners, the first
    `visit_` call and the space-bound depth off it;
  - I(A): names already exposed through inheritance - empty when A heads
    its chain, otherwise I(C) | BV(C) | FV(rho_C) read off the plan entry of
    the specified parent C, which is planned first;
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
from .syntax import ClassDecl, TypeExpr, VarRead, walk
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


def specified_chain(table: ClassTable, c: ClassDecl, spec: InvariantSpec) -> list[str]:
    """`c` after its consecutive specified ancestors, root first.  An
    unspecified or unknown superclass ends the chain."""
    chain = [c.name]
    while c.super_class is not None and spec.specifies(c.super_class.name):
        sup = table.get_class(c.super_class.name)
        if sup is None:
            break
        chain.append(sup.name)
        c = sup
    chain.reverse()
    return chain


def interface_body(
    c: ClassDecl, spec: InvariantSpec, table: ClassTable, inherited: set[str]
) -> list[tuple[str, TypeExpr]]:
    """Getter signatures for BV(c) | FV(rho_c) \\ I(c), where `inherited` is
    I(c), each typed with the field's declared type as seen from c.  Own
    fields come first in declaration order, then inherited extras in
    first-use order."""
    names: list[str] = [f.name for f in c.fields]
    for v in class_free_vars_ordered(c.name, spec):
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
    chain: list[str]  # specified_chain of the class, root first

    def signature_names(self) -> set[str]:
        return {n for n, _ in self.own_signatures}


@dataclass
class ExposurePlan:
    per_class: dict[str, ClassExposure] = field(default_factory=dict)

    def getter_owner(self, name: str, var: str) -> str | None:
        """The class nearest `name` on its chain whose exposure interface
        declares a getter for `var`, or None when none does."""
        for owner in reversed(self.per_class[name].chain):
            if var in self.per_class[owner].signature_names():
                return owner
        return None


def compute_plan(table: ClassTable, spec: InvariantSpec) -> ExposurePlan:
    """Plan every specified class, parents first, so that each I(A) is its
    specified parent's I | BV | FV; `per_class` keeps specification order."""
    planned: dict[str, ClassExposure] = {}
    for name in spec.classes():
        c = table.get_class(name)
        if c is None:
            raise LookupError("specification names unknown class %r" % name)
        chain = specified_chain(table, c, spec)
        for depth, cname in enumerate(chain):
            if cname in planned:
                continue
            inherited: set[str] = set()
            if depth:
                parent = planned[chain[depth - 1]]
                inherited = parent.inherited_exposed | parent.bound_vars | parent.free_vars
            decl = table.get_class(cname)
            planned[cname] = ClassExposure(
                own_signatures=interface_body(decl, spec, table, inherited),
                inherited_exposed=inherited,
                free_vars=class_free_vars(cname, spec),
                bound_vars=bound_vars(decl),
                chain=chain[: depth + 1],
            )
    return ExposurePlan({name: planned[name] for name in spec.classes()})


def verify_exposure(
    plan: ExposurePlan, table: ClassTable, spec: InvariantSpec
) -> list[Diagnostic]:
    """Errors for exposure gaps (a free variable with no reachable getter);
    notes where the triviality hypothesis fails (predicates reaching past the
    specified fields) or where an unspecified ancestor's field is re-exposed."""
    diags: list[Diagnostic] = []
    for name, entry in plan.per_class.items():
        for var in sorted(entry.free_vars):
            if plan.getter_owner(name, var) is None:
                diags.append(
                    Diagnostic(
                        "exposure-gap",
                        "no getter for free variable %r reachable from the exposure "
                        "interface of %s" % (var, name),
                    )
                )
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
