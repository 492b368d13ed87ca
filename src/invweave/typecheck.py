"""Static type checker for MiniOO.

Nominal subtyping over the declared extends/implements graph with eager
type-argument substitution; visibility enforcement (private = declaring
class, protected = declaring class and subclasses, public = everywhere);
method-level type parameters resolved by structural unification at call
sites.  Field names may coincide with method names (separate namespaces),
but a field may not shadow an inherited field: the exposure construction
names getters after fields, so shadowing would make them ambiguous.

Lookups are resolved once per type: a `ClassTable` builds a class type's map
of methods, fields and bodied methods (name -> declaring class, member,
substitution) from its superclass type's map plus its own members, and
memoises class chains, supertype instances and closures.  A table lives for
one check or one weave of an unchanging unit.  Expression rules are chosen
by node type.

Each class or interface is checked once for all the units it goes into.  A
unit that checks with no diagnostic leaves a clean verdict on each of its
declarations, recording (weakly) the declarations of that unit.  MiniOO
resolves names nominally, with no overloading, no field shadowing and no
open classes, so the verdict holds in any later unit that contains all of
those declaration objects and declares no name twice: such a unit re-checks
only its other declarations, its driver and its inheritance cycles, and
reports the same diagnostics in the same order as a full check.  A
declaration whose check let an undeclared name stand for a type variable
(see `check_type`) gets no verdict, since declaring that name would change
its check.  Declarations are never changed once checked (see `syntax`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Union

from .diagnostics import Diagnostic, ParseError
from .parser import check_cycles
from .subst import TypeSubstitution, substitute
from .syntax import (
    Assign,
    Binary,
    BoolLit,
    BOOL,
    ClassDecl,
    ConstructorDecl,
    DeclMemo,
    Expr,
    ExprStmt,
    FieldAccess,
    FieldDecl,
    IfStmt,
    INT,
    IntLit,
    InterfaceDecl,
    LocalDecl,
    MethodCall,
    MethodDecl,
    NamedType,
    NewObject,
    NullLit,
    PRIMITIVES,
    PrintStmt,
    ReflectGet,
    ReturnStmt,
    SingletonRef,
    SourceUnit,
    Stmt,
    STRING,
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
    WhileStmt,
)

NULL_TYPE = NamedType("<null>")
VOID_TYPE = NamedType("void")

_VIS_RANK = {"private": 0, "protected": 1, "public": 2}


@dataclass
class FieldHit:
    declaring: str
    field: FieldDecl
    type: TypeExpr  # substituted to the receiver's view


@dataclass
class _Members:
    """One class type's resolved members, most-derived first: name ->
    (declaring class, member, the substitution viewing it from that type)."""

    methods: dict[str, tuple[ClassDecl, MethodDecl, TypeSubstitution]]
    fields: dict[str, tuple[ClassDecl, FieldDecl, TypeSubstitution]]
    impls: dict[str, tuple[ClassDecl, MethodDecl, TypeSubstitution]]  # methods with a body


_NO_MEMBERS = _Members({}, {}, {})
_NO_SUBST = TypeSubstitution()


@dataclass
class MethodHit:
    declaring: str
    method: MethodDecl
    param_types: list[TypeExpr]  # substituted to the receiver's view
    return_type: Optional[TypeExpr]
    from_interface: bool


class ClassTable:
    """Declaration index plus the subtyping and member-lookup machinery.

    Each lookup is resolved once per type and memoised in `_memo`, so a table
    must not outlive a change to its unit.  The unit's inheritance should be
    acyclic (`typecheck_program` checks that first); a walk up the class chain
    that meets a cycle raises the parser's ParseError for it."""

    def __init__(self, unit: SourceUnit):
        self.unit = unit
        self.decls: dict[str, Union[ClassDecl, InterfaceDecl]] = {}
        for c in unit.classes:
            self.decls[c.name] = c
        for i in unit.interfaces:
            self.decls[i.name] = i
        self._memo: dict = {}

    def get(self, name: str) -> Optional[Union[ClassDecl, InterfaceDecl]]:
        return self.decls.get(name)

    def get_class(self, name: str) -> Optional[ClassDecl]:
        d = self.decls.get(name)
        return d if isinstance(d, ClassDecl) else None

    def get_interface(self, name: str) -> Optional[InterfaceDecl]:
        d = self.decls.get(name)
        return d if isinstance(d, InterfaceDecl) else None

    def class_chain(self, name: str) -> list[ClassDecl]:
        """The class and its ancestors, most-derived first."""
        chain = self._memo.get(("chain", name))
        if chain is not None:
            return chain
        # Walk up to the first ancestor already memoised, then fill down.
        pending: list[ClassDecl] = []
        while chain is None:
            if len(pending) > len(self.decls):
                check_cycles(self.unit)  # raises: the walk is going round a cycle
            cur = self.get_class(name)
            if cur is None or cur.super_class is None:
                chain = []
            else:
                name = cur.super_class.name
                chain = self._memo.get(("chain", name))
            if cur is not None:
                pending.append(cur)
        for cur in reversed(pending):
            chain = self._memo[("chain", cur.name)] = [cur] + chain
        return chain

    def view_subst(self, decl: Union[ClassDecl, InterfaceDecl], t: NamedType) -> TypeSubstitution:
        if not decl.type_params or not t.args:
            return _NO_SUBST
        return TypeSubstitution(tuple(zip(decl.type_params, t.args)))

    def super_instances(self, t: NamedType) -> list[NamedType]:
        out = self._memo.get(("supers", t))
        if out is None:
            decl = self.decls.get(t.name)
            if isinstance(decl, ClassDecl):
                supers = [decl.super_class] if decl.super_class is not None else []
                supers += decl.interfaces
            else:
                supers = [] if decl is None else decl.extends
            out = [substitute(self.view_subst(decl, t), s) for s in supers]  # type: ignore
            self._memo[("supers", t)] = out
        return out

    def closure(self, t: NamedType) -> list[NamedType]:
        """t plus every (substituted) supertype instance, breadth-first."""
        out = self._memo.get(("closure", t))
        # The closure of a type with one supertype instance is that instance's
        # with the type in front: walk up such types to one memoised or with
        # more or fewer supertypes, then fill down.
        pending: list[NamedType] = []
        while out is None:
            if len(pending) > len(self.decls):
                check_cycles(self.unit)  # raises: the walk is going round a cycle
            supers = self.super_instances(t)
            if len(supers) == 1:
                pending.append(t)
                t = supers[0]
                out = self._memo.get(("closure", t))
            else:
                out = self._memo[("closure", t)] = []
                seen: set[NamedType] = set()
                work = [t]
                while work:
                    cur = work.pop(0)
                    if cur in seen:
                        continue
                    seen.add(cur)
                    out.append(cur)
                    work.extend(self.super_instances(cur))
        for t in reversed(pending):
            out = self._memo[("closure", t)] = [t] + out
        return out

    def is_subtype(self, s: TypeExpr, t: TypeExpr) -> bool:
        if s == t:
            return True
        if s == NULL_TYPE:
            if isinstance(t, TypeVar):
                return True
            return (
                isinstance(t, NamedType)
                and t.name not in PRIMITIVES
                and t != VOID_TYPE
                and t.name in self.decls
            )
        if isinstance(s, TypeVar) or isinstance(t, TypeVar):
            return False
        if s.name not in self.decls:
            return False
        return t in self.closure(s)

    def members(self, t: NamedType) -> _Members:
        """The resolved members of class type `t`, built once from those of
        its superclass type; empty when `t` names no class."""
        out = self._memo.get(t)
        if out is not None:
            return out
        # Walk up to the first superclass type already memoised, then fill down.
        pending: list[tuple[NamedType, ClassDecl, TypeSubstitution]] = []
        while out is None:
            if len(pending) > len(self.decls):
                check_cycles(self.unit)  # raises: the walk is going round a cycle
            decl = self.get_class(t.name)
            if decl is None:
                out = self._memo[t] = _NO_MEMBERS
            else:
                sub = self.view_subst(decl, t)
                pending.append((t, decl, sub))
                if decl.super_class is None:
                    out = _NO_MEMBERS
                else:
                    t = substitute(sub, decl.super_class)  # type: ignore[assignment]
                    out = self._memo.get(t)
        for t, decl, sub in reversed(pending):
            out = _Members(dict(out.methods), dict(out.fields), dict(out.impls))
            # Own members hide inherited ones; the first of a name wins.
            for m in reversed(decl.methods):
                out.methods[m.name] = (decl, m, sub)
                if m.body is not None:
                    out.impls[m.name] = (decl, m, sub)
            for f in reversed(decl.fields):
                out.fields[f.name] = (decl, f, sub)
            self._memo[t] = out
        return out

    def find_field(self, t: TypeExpr, name: str) -> Optional[FieldHit]:
        """Visibility-blind field lookup up the class chain of `t`."""
        if not isinstance(t, NamedType):
            return None
        hit = self.members(t).fields.get(name)
        if hit is None:
            return None
        decl, f, sub = hit
        return FieldHit(decl.name, f, substitute(sub, f.declared_type))

    def find_method(self, t: TypeExpr, name: str) -> Optional[MethodHit]:
        """Most-derived declaration of `name` visible on `t`: the class chain
        first, then the interface closure (signatures)."""
        if not isinstance(t, NamedType):
            return None
        hit = self.members(t).methods.get(name)
        if hit is not None:
            return self._hit(*hit, from_interface=False)
        # Abstract classes may leave interface methods unimplemented.
        for inst in self.closure(t):
            idecl = self.get_interface(inst.name)
            if idecl is None:
                continue
            for m in idecl.methods:
                if m.name == name:
                    return self._hit(idecl, m, self.view_subst(idecl, inst), from_interface=True)
        return None

    @staticmethod
    def _hit(
        decl: Union[ClassDecl, InterfaceDecl],
        m: MethodDecl,
        sub: TypeSubstitution,
        from_interface: bool,
    ) -> MethodHit:
        return MethodHit(
            declaring=decl.name,
            method=m,
            param_types=[substitute(sub, p.type) for p in m.params],
            return_type=None if m.return_type is None else substitute(sub, m.return_type),
            from_interface=from_interface,
        )

    def find_impl(self, t: NamedType, name: str) -> Optional[MethodHit]:
        """First method with a body walking the class chain of `t`."""
        hit = self.members(t).impls.get(name)
        return None if hit is None else self._hit(*hit, from_interface=False)

    def constructor_params(self, name: str) -> Optional[list[TypeExpr]]:
        """Parameter types of a class's constructor; [] for the implicit
        zero-argument constructor; None if the class is unknown."""
        decl = self.get_class(name)
        if decl is None:
            return None
        if decl.constructor is None:
            return []
        return [p.type for p in decl.constructor.params]


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------


class _Scope:
    def __init__(self) -> None:
        self.stack: list[dict[str, TypeExpr]] = []

    def push(self) -> None:
        self.stack.append({})

    def pop(self) -> None:
        self.stack.pop()

    def declare(self, name: str, t: TypeExpr) -> bool:
        for frame in self.stack:
            if name in frame:
                return False
        self.stack[-1][name] = t
        return True

    def lookup(self, name: str) -> Optional[TypeExpr]:
        for frame in reversed(self.stack):
            if name in frame:
                return frame[name]
        return None


class _Checker:
    def __init__(self, unit: SourceUnit, table: ClassTable, reused: set[int]):
        self.unit = unit
        self.table = table
        self.diags: list[Diagnostic] = []
        self.reused = reused  # ids of declarations with a clean verdict that holds here
        self.decl: object = None  # the declaration under check
        self.unsure: set[int] = set()  # ids of declarations no verdict may be kept for
        # per-member state
        self.current_class: Optional[ClassDecl] = None
        self.self_t: Optional[NamedType] = None  # current_class.self_type(), built once
        self.method_type_params: set[str] = set()
        self.return_type: Optional[TypeExpr] = None
        self.in_constructor = False
        self.scope = _Scope()

    def error(self, code: str, message: str, node) -> None:
        line = getattr(node, "line", 0)
        col = getattr(node, "col", 0)
        self.diags.append(Diagnostic(code, message, line, col))

    # -- type well-formedness ------------------------------------------------

    def check_type(self, t: TypeExpr, scope_vars: set[str], node) -> None:
        if isinstance(t, TypeVar):
            if t.name not in scope_vars:
                self.error("unknown-name", "unknown type variable %r" % t.name, node)
            return
        if t.name == "void":
            self.error("type-mismatch", "void is not a value type", node)
            return
        if t.name in PRIMITIVES:
            if t.args:
                self.error("arity", "%s takes no type arguments" % t.name, node)
            return
        decl = self.table.get(t.name)
        if decl is None:
            if t.name in scope_vars:
                # A weaver-built tree may use NamedType for a variable name.
                self.unsure.add(id(self.decl))
                return
            self.error("unknown-name", "unknown type %r" % t.name, node)
            return
        if len(t.args) != len(decl.type_params):
            self.error(
                "arity",
                "%s expects %d type argument(s), got %d"
                % (t.name, len(decl.type_params), len(t.args)),
                node,
            )
        for a in t.args:
            self.check_type(a, scope_vars, node)

    # -- declarations ----------------------------------------------------------

    def check_unit(self) -> list[Diagnostic]:
        for idecl in self.unit.interfaces:
            if id(idecl) not in self.reused:
                self.check_interface(idecl)
        for cdecl in self.unit.classes:
            if id(cdecl) not in self.reused:
                self.check_class_header(cdecl)
        # Member checks only make sense over a well-formed hierarchy.
        if self.diags:
            return self.diags
        for cdecl in self.unit.classes:
            if id(cdecl) not in self.reused:
                self.check_class_members(cdecl)
        if self.unit.driver is not None:
            self.check_driver()
        return self.diags

    def check_interface(self, idecl: InterfaceDecl) -> None:
        self.decl = idecl
        scope = set(idecl.type_params)
        for e in idecl.extends:
            self.check_type(e, scope, idecl)
            if self.table.get_interface(e.name) is None:
                self.error("type-mismatch", "%r is not an interface" % e.name, idecl)
        for m in idecl.methods:
            mscope = scope | set(m.type_params)
            if set(m.type_params) & scope:
                self.error(
                    "duplicate-name",
                    "method type parameter shadows interface parameter",
                    m,
                )
            for p in m.params:
                self.check_type(p.type, mscope, m)
            if m.return_type is not None:
                self.check_type(m.return_type, mscope, m)

    def check_class_header(self, cdecl: ClassDecl) -> None:
        self.decl = cdecl
        scope = set(cdecl.type_params)
        if cdecl.super_class is not None:
            self.check_type(cdecl.super_class, scope, cdecl)
            sup = self.table.get(cdecl.super_class.name)
            if sup is None or not isinstance(sup, ClassDecl):
                self.error(
                    "type-mismatch",
                    "superclass %r is not a class" % cdecl.super_class.name,
                    cdecl,
                )
        for i in cdecl.interfaces:
            self.check_type(i, scope, cdecl)
            if self.table.get_interface(i.name) is None:
                self.error("type-mismatch", "%r is not an interface" % i.name, cdecl)
        for f in cdecl.fields:
            self.check_type(f.declared_type, scope, f)
        for m in cdecl.methods:
            if set(m.type_params) & scope:
                self.error(
                    "duplicate-name", "method type parameter shadows class parameter", m
                )
            mscope = scope | set(m.type_params)
            for p in m.params:
                self.check_type(p.type, mscope, m)
            if m.return_type is not None:
                self.check_type(m.return_type, mscope, m)
        if cdecl.constructor is not None:
            for p in cdecl.constructor.params:
                self.check_type(p.type, scope, cdecl.constructor)

    def check_class_members(self, cdecl: ClassDecl) -> None:
        self.decl = self.current_class = cdecl
        self.self_t = self_t = cdecl.self_type()
        # Field shadowing up the chain.
        chain = self.table.class_chain(cdecl.name)
        for f in cdecl.fields:
            for anc in chain[1:]:
                if any(af.name == f.name for af in anc.fields):
                    self.error(
                        "duplicate-name",
                        "field %r shadows a field of %s (shadowing is not supported)"
                        % (f.name, anc.name),
                        f,
                    )
        # Override compatibility.
        if cdecl.super_class is not None:
            for m in cdecl.methods:
                inherited = self.table.find_method(
                    substitute(self.table.view_subst(cdecl, self_t), cdecl.super_class),  # type: ignore[arg-type]
                    m.name,
                )
                if inherited is None or inherited.from_interface:
                    continue
                self.check_override(cdecl, m, inherited)
        # Interface satisfaction.
        self.check_interface_satisfaction(cdecl, self_t)
        # Bodies.
        for m in cdecl.methods:
            if m.body is None:
                if not cdecl.is_abstract:
                    self.error(
                        "type-mismatch",
                        "non-abstract class %s has bodiless method %r"
                        % (cdecl.name, m.name),
                        m,
                    )
                continue
            self.check_method_body(cdecl, m)
        if cdecl.constructor is not None:
            self.check_constructor_body(cdecl, cdecl.constructor)
        else:
            self.check_implicit_constructor(cdecl)
        self.current_class = None

    def check_override(self, cdecl: ClassDecl, m: MethodDecl, inherited: MethodHit) -> None:
        if m.visibility == "private" or inherited.method.visibility == "private":
            self.error(
                "duplicate-name",
                "method %r collides with an inherited method and cannot override it"
                % m.name,
                m,
            )
            return
        if _VIS_RANK[m.visibility] < _VIS_RANK[inherited.method.visibility]:
            self.error(
                "visibility",
                "override of %r narrows visibility" % m.name,
                m,
            )
        if len(m.type_params) != len(inherited.method.type_params):
            self.error("type-mismatch", "override of %r changes type parameters" % m.name, m)
            return
        rename = TypeSubstitution(
            tuple(
                (theirs, TypeVar(ours))
                for theirs, ours in zip(inherited.method.type_params, m.type_params)
            )
        )
        want_params = [substitute(rename, p) for p in inherited.param_types]
        got_params = [p.type for p in m.params]
        want_ret = (
            None
            if inherited.return_type is None
            else substitute(rename, inherited.return_type)
        )
        if want_params != got_params or want_ret != m.return_type:
            self.error(
                "type-mismatch",
                "override of %r does not match the inherited signature" % m.name,
                m,
            )

    def check_interface_satisfaction(self, cdecl: ClassDecl, self_t: NamedType) -> None:
        methods = self.table.members(self_t).methods
        for inst in self.table.closure(self_t):
            idecl = self.table.get_interface(inst.name)
            if idecl is None:
                continue
            sub = self.table.view_subst(idecl, inst)
            for sig in idecl.methods:
                hit = methods.get(sig.name)
                if hit is None:
                    if not cdecl.is_abstract:
                        self.error(
                            "type-mismatch",
                            "class %s does not implement %s.%s"
                            % (cdecl.name, inst.name, sig.name),
                            cdecl,
                        )
                    continue
                _, m, vsub = hit
                if m.visibility != "public":
                    self.error(
                        "visibility",
                        "interface method %r implemented with non-public visibility" % sig.name,
                        m,
                    )
                if len(m.type_params) != len(sig.type_params):
                    self.error(
                        "type-mismatch",
                        "implementation of %s.%s changes type parameters" % (inst.name, sig.name),
                        m,
                    )
                    continue
                rename = TypeSubstitution(
                    tuple(
                        (theirs, TypeVar(ours))
                        for theirs, ours in zip(sig.type_params, m.type_params)
                    )
                )
                want_params = [substitute(rename, substitute(sub, p.type)) for p in sig.params]
                got_params = [substitute(vsub, p.type) for p in m.params]
                want_ret = (
                    None
                    if sig.return_type is None
                    else substitute(rename, substitute(sub, sig.return_type))
                )
                got_ret = None if m.return_type is None else substitute(vsub, m.return_type)
                if want_params != got_params or want_ret != got_ret:
                    self.error(
                        "type-mismatch",
                        "implementation of %s.%s does not match the interface signature"
                        % (inst.name, sig.name),
                        m,
                    )

    # -- bodies ----------------------------------------------------------------

    def scope_vars(self) -> set[str]:
        out = set(self.method_type_params)
        if self.current_class is not None:
            out |= set(self.current_class.type_params)
        return out

    def check_method_body(self, cdecl: ClassDecl, m: MethodDecl) -> None:
        self.method_type_params = set(m.type_params)
        self.return_type = m.return_type
        self.in_constructor = False
        self.scope = _Scope()
        self.scope.push()
        for p in m.params:
            self.scope.declare(p.name, p.type)
        for s in m.body or []:
            self.check_stmt(s)
        self.method_type_params = set()

    def check_constructor_body(self, cdecl: ClassDecl, ctor: ConstructorDecl) -> None:
        self.method_type_params = set()
        self.return_type = None
        self.in_constructor = True
        self.scope = _Scope()
        self.scope.push()
        for p in ctor.params:
            self.scope.declare(p.name, p.type)
        for idx, s in enumerate(ctor.body):
            if isinstance(s, SuperCall) and idx != 0:
                self.error("type-mismatch", "super(...) must be the first statement", s)
            self.check_stmt(s)
        has_explicit_super = bool(ctor.body) and isinstance(ctor.body[0], SuperCall)
        if not has_explicit_super and cdecl.super_class is not None:
            sup_params = self.table.constructor_params(cdecl.super_class.name)
            if sup_params:
                self.error(
                    "type-mismatch",
                    "superclass %s requires constructor arguments; add super(...)"
                    % cdecl.super_class.name,
                    ctor,
                )
        self.in_constructor = False

    def check_implicit_constructor(self, cdecl: ClassDecl) -> None:
        if cdecl.super_class is None:
            return
        sup_params = self.table.constructor_params(cdecl.super_class.name)
        if sup_params:
            self.error(
                "type-mismatch",
                "class %s needs a constructor: superclass %s takes arguments"
                % (cdecl.name, cdecl.super_class.name),
                cdecl,
            )

    def check_driver(self) -> None:
        self.decl = self.current_class = None
        self.method_type_params = set()
        self.return_type = None
        self.in_constructor = False
        self.scope = _Scope()
        self.scope.push()
        assert self.unit.driver is not None
        for s in self.unit.driver.body:
            self.check_stmt(s)

    # -- statements --------------------------------------------------------------

    def check_stmt(self, s: Stmt) -> None:
        if isinstance(s, LocalDecl):
            self.check_type(s.decl_type, self.scope_vars(), s)
            if s.init is not None:
                t = self.type_of(s.init)
                self.require_assignable(t, s.decl_type, s)
            if not self.scope.declare(s.name, s.decl_type):
                self.error("duplicate-name", "duplicate local %r" % s.name, s)
        elif isinstance(s, Assign):
            target_t = self.type_of_assign_target(s.target)
            value_t = self.type_of(s.value)
            if target_t is not None:
                self.require_assignable(value_t, target_t, s)
        elif isinstance(s, IfStmt):
            self.require_bool(self.type_of(s.cond), s)
            self.scope.push()
            for inner in s.then_body:
                self.check_stmt(inner)
            self.scope.pop()
            if s.else_body is not None:
                self.scope.push()
                for inner in s.else_body:
                    self.check_stmt(inner)
                self.scope.pop()
        elif isinstance(s, WhileStmt):
            self.require_bool(self.type_of(s.cond), s)
            self.scope.push()
            for inner in s.body:
                self.check_stmt(inner)
            self.scope.pop()
        elif isinstance(s, ReturnStmt):
            if self.in_constructor:
                if s.value is not None:
                    self.error("type-mismatch", "constructors cannot return a value", s)
            elif self.return_type is None:
                if s.value is not None:
                    self.error("type-mismatch", "void method returns a value", s)
            else:
                if s.value is None:
                    self.error("type-mismatch", "missing return value", s)
                else:
                    t = self.type_of(s.value)
                    self.require_assignable(t, self.return_type, s)
        elif isinstance(s, ExprStmt):
            self.type_of(s.expr)
        elif isinstance(s, PrintStmt):
            t = self.type_of(s.value)
            if t == VOID_TYPE:
                self.error("type-mismatch", "cannot print a void expression", s)
        elif isinstance(s, SuperCall):
            if not self.in_constructor or self.current_class is None:
                self.error("type-mismatch", "super(...) outside a constructor", s)
                return
            if self.current_class.super_class is None:
                self.error("type-mismatch", "class has no superclass", s)
                return
            sup_params = self.table.constructor_params(self.current_class.super_class.name)
            if sup_params is None:
                return
            sup_view = self.table.view_subst(
                self.table.get_class(self.current_class.super_class.name),  # type: ignore[arg-type]
                self.current_class.super_class,
            )
            want = [substitute(sup_view, p) for p in sup_params]
            self.check_call_args(want, s.args, s, "constructor of %s" % self.current_class.super_class.name)
        elif isinstance(s, TraceStmt):
            obj_t = self.type_of(s.obj)
            if obj_t is not None and (
                not isinstance(obj_t, NamedType) or self.table.get(obj_t.name) is None
            ):
                self.error("type-mismatch", "@trace target must be an object", s)
            for part in (s.check_class, s.phase, s.method):
                t = self.type_of(part)
                if t is not None and t != STRING:
                    self.error("type-mismatch", "@trace arguments must be strings", s)
        elif isinstance(s, ViolationStmt):
            for part, want in (
                (s.check_class, STRING),
                (s.index, INT),
                (s.phase, STRING),
                (s.method, STRING),
            ):
                t = self.type_of(part)
                if t is not None and t != want:
                    self.error(
                        "type-mismatch",
                        "@violation argument must be %s" % want.name,
                        s,
                    )
        else:
            raise TypeError("unknown statement node %r" % type(s).__name__)

    def type_of_assign_target(self, target: Expr) -> Optional[TypeExpr]:
        if isinstance(target, VarRead):
            local = self.scope.lookup(target.name)
            if local is not None:
                return local
            if self.current_class is not None:
                hit = self.field_with_visibility(
                    self.self_t, target.name, target
                )
                if hit is not None:
                    return hit.type
            self.error("unknown-name", "unknown variable %r" % target.name, target)
            return None
        if isinstance(target, FieldAccess):
            return self.type_of(target)
        self.error("type-mismatch", "invalid assignment target", target)
        return None

    # -- helpers -------------------------------------------------------------------

    def require_bool(self, t: Optional[TypeExpr], node) -> None:
        if t is not None and t != BOOL:
            self.error("type-mismatch", "condition must be bool, got %s" % t, node)

    def require_assignable(self, src: Optional[TypeExpr], dst: TypeExpr, node) -> None:
        if src is None:
            return
        if src == VOID_TYPE:
            self.error("type-mismatch", "void expression used as a value", node)
            return
        if not self.table.is_subtype(src, dst):
            self.error("type-mismatch", "cannot assign %s to %s" % (src, dst), node)

    def visible_from_here(self, visibility: str, declaring: str, node) -> None:
        if visibility == "public":
            return
        if self.current_class is None:
            self.error(
                "visibility",
                "%s member of %s is not accessible here" % (visibility, declaring),
                node,
            )
            return
        if visibility == "private":
            if self.current_class.name != declaring:
                self.error(
                    "visibility",
                    "private member of %s is not accessible from %s"
                    % (declaring, self.current_class.name),
                    node,
                )
            return
        # protected
        chain = [c.name for c in self.table.class_chain(self.current_class.name)]
        if declaring not in chain:
            self.error(
                "visibility",
                "protected member of %s is not accessible from %s"
                % (declaring, self.current_class.name),
                node,
            )

    def field_with_visibility(self, t: TypeExpr, name: str, node) -> Optional[FieldHit]:
        hit = self.table.find_field(t, name)
        if hit is None:
            return None
        self.visible_from_here(hit.field.visibility, hit.declaring, node)
        return hit

    def check_call_args(
        self,
        want: list[TypeExpr],
        args: list[Expr],
        node,
        what: str,
    ) -> None:
        if len(want) != len(args):
            self.error(
                "arity",
                "%s expects %d argument(s), got %d" % (what, len(want), len(args)),
                node,
            )
            return
        for a, w in zip(args, want):
            t = self.type_of(a)
            self.require_assignable(t, w, node)

    # -- unification for method-level type parameters --------------------------------

    def unify(
        self,
        pattern: TypeExpr,
        actual: TypeExpr,
        bindings: dict[str, TypeExpr],
        tvars: set[str],
    ) -> bool:
        if isinstance(pattern, TypeVar) and pattern.name in tvars:
            if actual == NULL_TYPE:
                return True  # null constrains nothing
            if pattern.name in bindings:
                return bindings[pattern.name] == actual
            bindings[pattern.name] = actual
            return True
        if isinstance(pattern, TypeVar):
            return pattern == actual
        if actual == NULL_TYPE:
            return pattern.name not in PRIMITIVES
        if isinstance(actual, TypeVar):
            return False
        if pattern.name == actual.name:
            if len(pattern.args) != len(actual.args):
                return False
            return all(
                self.unify(p, a, bindings, tvars)
                for p, a in zip(pattern.args, actual.args)
            )
        # Widen the actual type through its supertype closure.
        for inst in self.table.closure(actual):
            if inst.name == pattern.name:
                return self.unify(pattern, inst, bindings, tvars)
        return False

    # -- expressions --------------------------------------------------------------------

    def type_of(self, e: Expr) -> Optional[TypeExpr]:
        rule = _EXPR_RULES.get(type(e))
        if rule is None:
            raise TypeError("unknown expression node %r" % type(e).__name__)
        return rule(self, e)

    def type_of_this(self, e: ThisExpr) -> Optional[TypeExpr]:
        if self.current_class is None:
            self.error("unknown-name", "this outside a class", e)
            return None
        return self.self_t

    def type_of_super(self, e: SuperExpr) -> None:
        self.error("type-mismatch", "super is only valid in super.method(...)", e)

    def type_of_var(self, e: VarRead) -> Optional[TypeExpr]:
        local = self.scope.lookup(e.name)
        if local is not None:
            return local
        if self.current_class is not None:
            hit = self.field_with_visibility(self.self_t, e.name, e)
            if hit is not None:
                return hit.type
        self.error("unknown-name", "unknown variable %r" % e.name, e)
        return None

    def type_of_field(self, e: FieldAccess) -> Optional[TypeExpr]:
        obj_t = self.type_of(e.obj)
        if obj_t is None:
            return None
        if obj_t == NULL_TYPE or not isinstance(obj_t, NamedType):
            self.error("type-mismatch", "%s has no fields" % obj_t, e)
            return None
        if self.table.get_class(obj_t.name) is None:
            self.error("type-mismatch", "%s has no fields" % obj_t, e)
            return None
        hit = self.field_with_visibility(obj_t, e.name, e)
        if hit is None:
            self.error("unknown-field", "no field %r on %s" % (e.name, obj_t), e)
            return None
        return hit.type

    def type_of_new(self, e: NewObject) -> Optional[TypeExpr]:
        self.check_type(e.type, self.scope_vars(), e)
        decl = self.table.get_class(e.type.name)
        if decl is None:
            if self.table.get_interface(e.type.name) is not None:
                self.error("type-mismatch", "cannot instantiate interface %s" % e.type.name, e)
            return None
        if decl.is_abstract:
            self.error("type-mismatch", "cannot instantiate abstract class %s" % decl.name, e)
        ctor_params = self.table.constructor_params(decl.name) or []
        view = self.table.view_subst(decl, e.type)
        want = [substitute(view, p) for p in ctor_params]
        if decl.constructor is not None:
            self.visible_from_here(decl.constructor.visibility, decl.name, e)
        self.check_call_args(want, e.args, e, "constructor of %s" % decl.name)
        return e.type

    def type_of_unary(self, e: Unary) -> TypeExpr:
        t = self.type_of(e.operand)
        if e.op == "!":
            if t is not None and t != BOOL:
                self.error("type-mismatch", "! expects bool, got %s" % t, e)
            return BOOL
        if t is not None and t != INT:
            self.error("type-mismatch", "unary - expects int, got %s" % t, e)
        return INT

    def type_of_reflect(self, e: ReflectGet) -> Optional[TypeExpr]:
        obj_t = self.type_of(e.obj)
        if obj_t is None:
            return None
        if not isinstance(obj_t, NamedType) or self.table.get_class(obj_t.name) is None:
            self.error("type-mismatch", "@field target must be a class instance", e)
            return None
        hit = self.table.find_field(obj_t, e.field_name)
        if hit is None:
            self.error("unknown-field", "no field %r on %s" % (e.field_name, obj_t), e)
            return None
        return hit.type

    def type_of_singleton(self, e: SingletonRef) -> Optional[TypeExpr]:
        decl = self.table.get_class(e.class_name)
        if decl is None:
            self.error("unknown-name", "unknown class %r" % e.class_name, e)
            return None
        if decl.type_params:
            self.error("type-mismatch", "@singleton requires a non-generic class", e)
        if decl.is_abstract:
            self.error("type-mismatch", "@singleton requires a concrete class", e)
        if decl.constructor is not None and decl.constructor.params:
            self.error("type-mismatch", "@singleton requires a zero-argument constructor", e)
        return NamedType(decl.name)

    def type_of_call(self, e: MethodCall) -> Optional[TypeExpr]:
        if isinstance(e.receiver, SuperExpr):
            if self.current_class is None or self.current_class.super_class is None:
                self.error("type-mismatch", "super call outside a subclass", e)
                return None
            recv_t: Optional[TypeExpr] = self.current_class.super_class
            is_super = True
        elif e.receiver is None:
            if self.current_class is None:
                self.error("unknown-name", "call %r outside a class" % e.name, e)
                return None
            recv_t = self.self_t
            is_super = False
        else:
            recv_t = self.type_of(e.receiver)
            is_super = False
        if recv_t is None:
            return None
        if recv_t == NULL_TYPE or not isinstance(recv_t, NamedType) or recv_t.name in PRIMITIVES:
            self.error("type-mismatch", "%s has no methods" % recv_t, e)
            return None
        if self.table.get(recv_t.name) is None:
            self.error("type-mismatch", "%s has no methods" % recv_t, e)
            return None
        hit = self.table.find_method(recv_t, e.name)
        if hit is None:
            self.error("unknown-name", "no method %r on %s" % (e.name, recv_t), e)
            return None
        if is_super and self.table.find_impl(recv_t, e.name) is None:
            self.error(
                "type-mismatch",
                "super.%s has no implementation on the superclass chain" % e.name,
                e,
            )
        self.visible_from_here(hit.method.visibility, hit.declaring, e)
        want = hit.param_types
        ret = hit.return_type
        if hit.method.type_params:
            arg_types = [self.type_of(a) for a in e.args]
            if len(arg_types) != len(want):
                self.error(
                    "arity",
                    "%s expects %d argument(s), got %d" % (e.name, len(want), len(e.args)),
                    e,
                )
                return None
            tvars = set(hit.method.type_params)
            bindings: dict[str, TypeExpr] = {}
            ok = True
            for w, a in zip(want, arg_types):
                if a is None:
                    ok = False
                    continue
                if not self.unify(w, a, bindings, tvars):
                    self.error(
                        "type-mismatch",
                        "cannot match argument %s against %s" % (a, w),
                        e,
                    )
                    ok = False
            if not ok:
                return None
            if any(v not in bindings for v in tvars):
                self.error(
                    "type-mismatch",
                    "cannot infer type arguments for %s" % e.name,
                    e,
                )
                return None
            inst = TypeSubstitution(tuple(bindings.items()))
            return None_to_void(ret, inst)
        self.check_call_args(want, e.args, e, e.name)
        return VOID_TYPE if ret is None else ret

    def type_of_binary(self, e: Binary) -> Optional[TypeExpr]:
        lt = self.type_of(e.left)
        rt = self.type_of(e.right)
        op = e.op
        if op in ("&&", "||"):
            for t in (lt, rt):
                if t is not None and t != BOOL:
                    self.error("type-mismatch", "%s expects bool operands" % op, e)
            return BOOL
        if op in ("<", "<=", ">", ">="):
            for t in (lt, rt):
                if t is not None and t != INT:
                    self.error("type-mismatch", "%s expects int operands" % op, e)
            return BOOL
        if op in ("==", "!="):
            if lt is None or rt is None:
                return BOOL
            if lt == rt:
                return BOOL
            if lt == NULL_TYPE or rt == NULL_TYPE:
                other = rt if lt == NULL_TYPE else lt
                if other == NULL_TYPE or self.table.is_subtype(NULL_TYPE, other):
                    return BOOL
                self.error("type-mismatch", "cannot compare %s with null" % other, e)
                return BOOL
            if self.table.is_subtype(lt, rt) or self.table.is_subtype(rt, lt):
                return BOOL
            self.error("type-mismatch", "cannot compare %s with %s" % (lt, rt), e)
            return BOOL
        if op == "+":
            if lt == STRING or rt == STRING:
                for t in (lt, rt):
                    if t is not None and t != STRING:
                        self.error("type-mismatch", "+ expects matching operands", e)
                return STRING
            for t in (lt, rt):
                if t is not None and t != INT:
                    self.error("type-mismatch", "+ expects int or string operands", e)
            return INT
        # - * /
        for t in (lt, rt):
            if t is not None and t != INT:
                self.error("type-mismatch", "%s expects int operands" % op, e)
        return INT


# The typing rule of each expression node type, for `_Checker.type_of`.
_EXPR_RULES = {
    IntLit: lambda checker, e: INT,
    BoolLit: lambda checker, e: BOOL,
    StringLit: lambda checker, e: STRING,
    NullLit: lambda checker, e: NULL_TYPE,
    ThisExpr: _Checker.type_of_this,
    SuperExpr: _Checker.type_of_super,
    VarRead: _Checker.type_of_var,
    FieldAccess: _Checker.type_of_field,
    MethodCall: _Checker.type_of_call,
    NewObject: _Checker.type_of_new,
    Binary: _Checker.type_of_binary,
    Unary: _Checker.type_of_unary,
    ReflectGet: _Checker.type_of_reflect,
    SingletonRef: _Checker.type_of_singleton,
}


def None_to_void(ret: Optional[TypeExpr], sub: TypeSubstitution) -> TypeExpr:
    if ret is None:
        return VOID_TYPE
    return substitute(sub, ret)


# declaration -> weak references to the declarations of a unit it checked clean in
_CLEAN = DeclMemo()


def _reusable(decls: list) -> set[int]:
    """The ids of those of `decls` whose clean verdict holds in a unit of `decls`."""
    if len({d.name for d in decls}) < len(decls):
        return set()
    ids = {id(d) for d in decls}
    fits: dict[int, bool] = {}  # id of a verdict's record -> whether `decls` has all of it
    out = set()
    for d in decls:
        record = _CLEAN.get(d)
        if record is not None:
            fit = fits.get(id(record))
            if fit is None:
                fit = fits[id(record)] = all(id(ref()) in ids for ref in record)
            if fit:
                out.add(id(d))
    return out


def typecheck_program(unit: SourceUnit, table: Optional[ClassTable] = None) -> list[Diagnostic]:
    """Type-check a unit; empty result means well-typed.  A unit that did not
    pass `validate_structure`, such as one built by `merge_units`, may have
    an inheritance cycle: it gets the parser's diagnostic for it instead.
    `table`, if given, must be the unit's; the check fills its lookups.
    Declarations with a clean verdict that holds in `unit` are not checked
    again (see the module docstring)."""
    try:
        check_cycles(unit)
    except ParseError as exc:
        return [exc.diagnostic]
    decls = [*unit.classes, *unit.interfaces]
    checker = _Checker(unit, table if table is not None else ClassTable(unit), _reusable(decls))
    diags = checker.check_unit()
    fresh = [d for d in decls if id(d) not in checker.reused and id(d) not in checker.unsure]
    if fresh and not diags:
        record = tuple(weakref.ref(d) for d in decls)
        for d in fresh:
            _CLEAN.put(d, record)
    return diags
