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
substitution) from its superclass type's map plus its own members.  Class
chains, member maps and supertype closures are each made from their parent's
(the superclass, or a type's sole supertype) by one loop, `_walk_up`, which
walks up to the first memoised ancestor and fills the memo back down, so a
deep hierarchy costs no Python stack.  A table lives for one check or one
weave of an unchanging unit.  Expression rules are chosen by node type, and
each is given the type of its node's first operand: the left operand, the
operand of a unary operator, the object of a field read or of `@field`, or
a call's receiver.  Only these nest without bound, so `type_of` types a chain of
them bottom-up in one loop, and `a.n.n...n`, `!!...!b` and
`1 + 1 + ... + 1` cost no Python stack.

Each class or interface is checked once for all the units it goes into.  A
unit that checks with no diagnostic leaves a clean verdict on each of its
declarations, recording (weakly) the declarations of that unit.  MiniOO
resolves names nominally, with no overloading, no field shadowing and no
open classes, so the verdict holds in any later unit that contains all of
those declaration objects and declares no name twice: such a unit re-checks
only its other declarations, its driver and its inheritance cycles, and
reports the same diagnostics in the same order as a full check.
Declarations are never changed once checked (see `syntax`).

A check runs in phases: inheritance cycles, the headers of every
declaration, then per class its structure (field shadowing, overrides,
interface satisfaction, bodiless methods) and its bodies, then the driver.
`check_structure` stops short of bodies and the driver, and keeps no
verdict, since a verdict says the bodies were typed.
"""

from __future__ import annotations

import weakref
from operator import attrgetter
from typing import Optional, Sequence, Union

from .diagnostics import Diagnostic, ParseError
from .parser import check_cycles
from .subst import substitute
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
    Param,
    PRIMITIVES,
    PrintStmt,
    Record,
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


class FieldHit(Record):
    __slots__ = ("declaring", "field", "type")
    def __init__(self, declaring: str, field: FieldDecl, type: TypeExpr):  # `type` as the receiver sees it
        self.declaring, self.field, self.type = declaring, field, type


class _Members(Record):
    """One class type's resolved members, most-derived first: name ->
    (declaring class, member, the substitution viewing it from that type).
    `impls` holds the methods with a body."""

    __slots__ = ("methods", "fields", "impls")
    def __init__(self, methods: dict, fields: dict, impls: dict):
        self.methods, self.fields, self.impls = methods, fields, impls


_NO_MEMBERS = _Members({}, {}, {})
_NO_SUBST: dict[str, TypeExpr] = {}  # nothing writes to it


def _signature(m: MethodDecl, *subs: dict[str, TypeExpr]) -> list[Optional[TypeExpr]]:
    """`m`'s parameter types, then its return type (None for void), each
    substituted by `subs` in turn."""
    types = [p.type for p in m.params] + [m.return_type]
    for sub in subs:
        if sub:
            types = [None if t is None else substitute(sub, t) for t in types]
    return types


def _extend(inherited: _Members, decl: ClassDecl, sub: dict[str, TypeExpr]) -> _Members:
    """`inherited` with `decl`'s own members in front; they hide inherited
    ones, and the first of a name wins."""
    out = _Members(dict(inherited.methods), dict(inherited.fields), dict(inherited.impls))
    for m in reversed(decl.methods):
        out.methods[m.name] = (decl, m, sub)
        if m.body is not None:
            out.impls[m.name] = (decl, m, sub)
    for f in reversed(decl.fields):
        out.fields[f.name] = (decl, f, sub)
    return out


class MethodHit(Record):
    __slots__ = ("declaring", "method", "param_types", "return_type")
    def __init__(
        self, declaring: str, method: MethodDecl, param_types: list[TypeExpr], return_type: Optional[TypeExpr]
    ):
        self.declaring, self.method = declaring, method
        self.param_types, self.return_type = param_types, return_type  # as the receiver sees them


class ClassTable:
    """Declaration index plus the subtyping and member-lookup machinery.

    Each lookup is resolved once per type and memoised, so a table
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
        self._chains: dict[str, list[ClassDecl]] = {}
        self._closures: dict[NamedType, list[NamedType]] = {}
        self._members: dict[NamedType, _Members] = {}
        self._supers: dict[NamedType, list[NamedType]] = {}

    def get(self, name: str) -> Optional[Union[ClassDecl, InterfaceDecl]]:
        return self.decls.get(name)

    def get_class(self, name: str) -> Optional[ClassDecl]:
        d = self.decls.get(name)
        return d if isinstance(d, ClassDecl) else None

    def get_interface(self, name: str) -> Optional[InterfaceDecl]:
        d = self.decls.get(name)
        return d if isinstance(d, InterfaceDecl) else None

    def _walk_up(self, memo: dict, key, up, root):
        """Fill `memo[key]`, which is missing.  `up(key)` gives the key whose
        value this one's is made from (None for `root`) and the function
        making it.  Walks up to the first key already in `memo`, then fills
        down, so a long hierarchy costs no Python stack."""
        out = None
        pending = []
        while out is None:
            if len(pending) > len(self.decls):
                check_cycles(self.unit)  # raises: the walk is going round a cycle
            parent, make = up(key)
            pending.append((key, make))
            if parent is None:
                out = root
                break
            key = parent
            out = memo.get(key)
        for key, make in reversed(pending):
            out = memo[key] = make(out)
        return out

    def class_chain(self, name: str) -> list[ClassDecl]:
        """The class and its ancestors, most-derived first."""
        chain = self._chains.get(name)
        if chain is not None:
            return chain

        def up(name):
            cur = self.get_class(name)
            if cur is None:
                return None, lambda chain: chain
            parent = None if cur.super_class is None else cur.super_class.name
            return parent, lambda chain: [cur] + chain

        return self._walk_up(self._chains, name, up, [])

    def view_subst(self, decl: Union[ClassDecl, InterfaceDecl], t: NamedType) -> dict[str, TypeExpr]:
        if not decl.type_params or not t.args:
            return _NO_SUBST
        return dict(zip(decl.type_params, t.args))

    def super_instances(self, t: NamedType) -> list[NamedType]:
        out = self._supers.get(t)
        if out is None:
            decl = self.decls.get(t.name)
            if isinstance(decl, ClassDecl):
                supers = [decl.super_class] if decl.super_class is not None else []
                supers += decl.interfaces
            else:
                supers = [] if decl is None else decl.extends
            out = [substitute(self.view_subst(decl, t), s) for s in supers]  # type: ignore
            self._supers[t] = out
        return out

    def closure(self, t: NamedType) -> list[NamedType]:
        """t plus every (substituted) supertype instance, breadth-first."""
        out = self._closures.get(t)
        if out is not None:
            return out

        def up(t):
            supers = self.super_instances(t)
            if len(supers) == 1:  # that instance's closure with `t` in front
                return supers[0], lambda out: [t] + out
            return None, lambda _: self._breadth_first(t)

        return self._walk_up(self._closures, t, up, None)

    def _breadth_first(self, t: NamedType) -> list[NamedType]:
        """`t` and each supertype instance above it, once, breadth-first."""
        out: list[NamedType] = []
        seen: set[NamedType] = set()
        work = [t]
        while work:
            cur = work.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            out.append(cur)
            work.extend(self.super_instances(cur))
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
        out = self._members.get(t)
        if out is not None:
            return out

        def up(t):
            decl = self.get_class(t.name)
            if decl is None:
                return None, lambda _: _NO_MEMBERS
            sub = self.view_subst(decl, t)
            parent = None if decl.super_class is None else substitute(sub, decl.super_class)
            return parent, lambda inherited: _extend(inherited, decl, sub)

        return self._walk_up(self._members, t, up, _NO_MEMBERS)

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
            return self._hit(*hit)
        # Abstract classes may leave interface methods unimplemented.
        for inst in self.closure(t):
            idecl = self.get_interface(inst.name)
            if idecl is None:
                continue
            for m in idecl.methods:
                if m.name == name:
                    return self._hit(idecl, m, self.view_subst(idecl, inst))
        return None

    @staticmethod
    def _hit(decl: Union[ClassDecl, InterfaceDecl], m: MethodDecl, sub: dict[str, TypeExpr]) -> MethodHit:
        return MethodHit(
            declaring=decl.name,
            method=m,
            param_types=[substitute(sub, p.type) for p in m.params],
            return_type=None if m.return_type is None else substitute(sub, m.return_type),
        )

    def find_impl(self, t: NamedType, name: str) -> Optional[MethodHit]:
        """First method with a body walking the class chain of `t`."""
        hit = self.members(t).impls.get(name)
        return None if hit is None else self._hit(*hit)

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
        # per-member state
        self.current_class: Optional[ClassDecl] = None
        self.self_t: Optional[NamedType] = None  # current_class.self_type(), built once
        self.method_type_params: set[str] = set()
        self.return_type: Optional[TypeExpr] = None
        self.in_constructor = False
        self.lead_super: Optional[SuperCall] = None  # a constructor's leading super(...), if any
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
        classes = self.check_headers()
        if self.diags:
            return self.diags
        for cdecl in classes:
            self.check_class_structure(cdecl)
            self.check_class_bodies(cdecl)
        if self.unit.driver is not None:
            self.check_driver()
        return self.diags

    def check_headers(self) -> list[ClassDecl]:
        """Check the headers of the declarations not reused, and return the
        classes among them; none if a header is faulty, since member checks
        only make sense over a well-formed hierarchy."""
        for idecl in self.unit.interfaces:
            if id(idecl) not in self.reused:
                self.check_interface(idecl)
        classes = [c for c in self.unit.classes if id(c) not in self.reused]
        for cdecl in classes:
            self.check_class_header(cdecl)
        return [] if self.diags else classes

    def check_interface(self, idecl: InterfaceDecl) -> None:
        scope = set(idecl.type_params)
        for e in idecl.extends:
            self.check_type(e, scope, idecl)
            if self.table.get_interface(e.name) is None:
                self.error("type-mismatch", "%r is not an interface" % e.name, idecl)
        for m in idecl.methods:
            self.check_method_header(m, scope, "interface")

    def check_class_header(self, cdecl: ClassDecl) -> None:
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
            self.check_method_header(m, scope, "class")
        if cdecl.constructor is not None:
            for p in cdecl.constructor.params:
                self.check_type(p.type, scope, cdecl.constructor)

    def check_method_header(self, m: MethodDecl, scope: set[str], owner: str) -> None:
        tparams = set(m.type_params)
        if tparams & scope:
            self.error("duplicate-name", "method type parameter shadows %s parameter" % owner, m)
        mscope = scope | tparams
        for p in m.params:
            self.check_type(p.type, mscope, m)
        if m.return_type is not None:
            self.check_type(m.return_type, mscope, m)

    def check_class_structure(self, cdecl: ClassDecl) -> None:
        """Field shadowing, overrides, interface satisfaction and bodiless
        methods: what a class's members must satisfy short of their bodies."""
        self_t = cdecl.self_type()
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
        if cdecl.super_class is not None:
            super_t = substitute(self.table.view_subst(cdecl, self_t), cdecl.super_class)
            inherited = self.table.members(super_t).methods  # type: ignore[arg-type]
            for m in cdecl.methods:
                if m.name in inherited:
                    _, theirs, sub = inherited[m.name]
                    self.check_override(m, theirs, sub)
        self.check_interface_satisfaction(cdecl, self_t)
        if not cdecl.is_abstract:
            for m in cdecl.methods:
                if m.body is None:
                    self.error(
                        "type-mismatch",
                        "non-abstract class %s has bodiless method %r" % (cdecl.name, m.name),
                        m,
                    )

    def check_class_bodies(self, cdecl: ClassDecl) -> None:
        self.current_class = cdecl
        self.self_t = cdecl.self_type()
        for m in cdecl.methods:
            if m.body is not None:
                self.check_method_body(m)
        if cdecl.constructor is not None:
            self.check_constructor_body(cdecl, cdecl.constructor)
        else:
            self.check_implicit_constructor(cdecl)
        self.current_class = None

    def check_override(self, m: MethodDecl, theirs: MethodDecl, sub: dict[str, TypeExpr]) -> None:
        if m.visibility == "private" or theirs.visibility == "private":
            self.error(
                "duplicate-name",
                "method %r collides with an inherited method and cannot override it"
                % m.name,
                m,
            )
            return
        if _VIS_RANK[m.visibility] < _VIS_RANK[theirs.visibility]:
            self.error(
                "visibility",
                "override of %r narrows visibility" % m.name,
                m,
            )
        self.check_conforms(
            m, _NO_SUBST, theirs, sub, "override of %r" % m.name, "the inherited signature"
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
                self.check_conforms(
                    m,
                    vsub,
                    sig,
                    sub,
                    "implementation of %s.%s" % (inst.name, sig.name),
                    "the interface signature",
                )

    def check_conforms(
        self,
        m: MethodDecl,
        msub: dict[str, TypeExpr],
        theirs: MethodDecl,
        tsub: dict[str, TypeExpr],
        what: str,
        signature: str,
    ) -> None:
        """`m`, viewed through `msub`, must take and return the types of
        `theirs` viewed through `tsub`, once `theirs`' method type parameters
        are renamed to `m`'s."""
        if len(m.type_params) != len(theirs.type_params):
            self.error("type-mismatch", "%s changes type parameters" % what, m)
            return
        rename = {a: TypeVar(b) for a, b in zip(theirs.type_params, m.type_params)}
        if _signature(m, msub) != _signature(theirs, tsub, rename):
            self.error("type-mismatch", "%s does not match %s" % (what, signature), m)

    # -- bodies ----------------------------------------------------------------

    def scope_vars(self) -> set[str]:
        out = set(self.method_type_params)
        if self.current_class is not None:
            out |= set(self.current_class.type_params)
        return out

    def enter_body(
        self,
        params: Sequence[Param],
        return_type: Optional[TypeExpr] = None,
        type_params: Sequence[str] = (),
        in_constructor: bool = False,
    ) -> None:
        """Start a body: a fresh scope holding `params`."""
        self.method_type_params = set(type_params)
        self.return_type = return_type
        self.in_constructor = in_constructor
        self.scope = _Scope()
        self.scope.push()
        for p in params:
            self.scope.declare(p.name, p.type)

    def check_method_body(self, m: MethodDecl) -> None:
        self.enter_body(m.params, m.return_type, m.type_params)
        for s in m.body or []:
            self.check_stmt(s)

    def check_constructor_body(self, cdecl: ClassDecl, ctor: ConstructorDecl) -> None:
        self.enter_body(ctor.params, in_constructor=True)
        lead = ctor.body[0] if ctor.body else None
        self.lead_super = lead if isinstance(lead, SuperCall) else None
        for s in ctor.body:
            self.check_stmt(s)
        if self.lead_super is None and cdecl.super_class is not None:
            sup_params = self.table.constructor_params(cdecl.super_class.name)
            if sup_params:
                self.error(
                    "type-mismatch",
                    "superclass %s requires constructor arguments; add super(...)"
                    % cdecl.super_class.name,
                    ctor,
                )

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
        self.current_class = None
        self.enter_body(())
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
            self.check_block(s.then_body)
            if s.else_body is not None:
                self.check_block(s.else_body)
        elif isinstance(s, WhileStmt):
            self.require_bool(self.type_of(s.cond), s)
            self.check_block(s.body)
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
            if s is not self.lead_super:  # a later statement, or nested in an `if` or `while`
                self.error("type-mismatch", "super(...) must be the first statement", s)
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

    def check_block(self, body: list[Stmt]) -> None:
        self.scope.push()
        for s in body:
            self.check_stmt(s)
        self.scope.pop()

    def type_of_assign_target(self, target: Expr) -> Optional[TypeExpr]:
        if isinstance(target, (VarRead, FieldAccess)):
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
        if self.check_arity(len(want), args, node, what):
            for a, w in zip(args, want):
                self.require_assignable(self.type_of(a), w, node)

    def check_arity(self, want: int, args: list, node, what: str) -> bool:
        if want == len(args):
            return True
        self.error("arity", "%s expects %d argument(s), got %d" % (what, want, len(args)), node)
        return False

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
        rules, other = self.rules, self.other_rule
        rule, first = rules.get(e.__class__, other)
        if first is None:
            return rule(self, e, None)
        above = []  # (rule, node) for each node of the chain, from `e` down
        while first is not None:
            above.append((rule, e))
            if (e := first(e)) is None:  # a call with no receiver to type
                break
            rule, first = rules.get(e.__class__, other)
        t = None if e is None else rule(self, e, None)
        for rule, e in reversed(above):
            t = rule(self, e, t)
        return t

    def type_of_other(self, e, _: None) -> None:
        raise TypeError("unknown expression node %r" % type(e).__name__)

    def type_of_this(self, e: ThisExpr, _: None) -> Optional[TypeExpr]:
        if self.current_class is None:
            self.error("unknown-name", "this outside a class", e)
            return None
        return self.self_t

    def type_of_super(self, e: SuperExpr, _: None) -> None:
        self.error("type-mismatch", "super is only valid in super.method(...)", e)

    def type_of_var(self, e: VarRead, _: None) -> Optional[TypeExpr]:
        local = self.scope.lookup(e.name)
        if local is not None:
            return local
        if self.current_class is not None:
            hit = self.field_with_visibility(self.self_t, e.name, e)
            if hit is not None:
                return hit.type
        self.error("unknown-name", "unknown variable %r" % e.name, e)
        return None

    def type_of_field(self, e: FieldAccess, obj_t: Optional[TypeExpr]) -> Optional[TypeExpr]:
        if obj_t is None:
            return None
        if not isinstance(obj_t, NamedType) or self.table.get_class(obj_t.name) is None:
            self.error("type-mismatch", "%s has no fields" % obj_t, e)
            return None
        hit = self.field_with_visibility(obj_t, e.name, e)
        if hit is None:
            self.error("unknown-field", "no field %r on %s" % (e.name, obj_t), e)
            return None
        return hit.type

    def type_of_new(self, e: NewObject, _: None) -> Optional[TypeExpr]:
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

    def type_of_unary(self, e: Unary, t: Optional[TypeExpr]) -> TypeExpr:
        if e.op == "!":
            if t is not None and t != BOOL:
                self.error("type-mismatch", "! expects bool, got %s" % t, e)
            return BOOL
        if t is not None and t != INT:
            self.error("type-mismatch", "unary - expects int, got %s" % t, e)
        return INT

    def type_of_reflect(self, e: ReflectGet, obj_t: Optional[TypeExpr]) -> Optional[TypeExpr]:
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

    def type_of_singleton(self, e: SingletonRef, _: None) -> Optional[TypeExpr]:
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

    def type_of_call(self, e: MethodCall, recv_t: Optional[TypeExpr]) -> Optional[TypeExpr]:
        is_super = isinstance(e.receiver, SuperExpr)
        if is_super:
            if self.current_class is None or self.current_class.super_class is None:
                self.error("type-mismatch", "super call outside a subclass", e)
                return None
            recv_t = self.current_class.super_class
        elif e.receiver is None:
            if self.current_class is None:
                self.error("unknown-name", "call %r outside a class" % e.name, e)
                return None
            recv_t = self.self_t
        if recv_t is None:
            return None
        if (
            not isinstance(recv_t, NamedType)
            or recv_t.name in PRIMITIVES
            or self.table.get(recv_t.name) is None
        ):
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
            if not self.check_arity(len(want), arg_types, e, e.name):
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
            return VOID_TYPE if ret is None else substitute(bindings, ret)
        self.check_call_args(want, e.args, e, e.name)
        return VOID_TYPE if ret is None else ret

    def type_of_binary(self, e: Binary, lt: Optional[TypeExpr]) -> Optional[TypeExpr]:
        rt = self.type_of(e.right)
        op = e.op
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
        # The type both operands must have, the result's, and the error if not.
        if op in ("&&", "||"):
            want, result, message = BOOL, BOOL, "%s expects bool operands" % op
        elif op in ("<", "<=", ">", ">="):
            want, result, message = INT, BOOL, "%s expects int operands" % op
        elif op == "+" and STRING in (lt, rt):
            want, result, message = STRING, STRING, "+ expects matching operands"
        elif op == "+":
            want, result, message = INT, INT, "+ expects int or string operands"
        else:  # - * /
            want, result, message = INT, INT, "%s expects int operands" % op
        for t in (lt, rt):
            if t is not None and t != want:
                self.error("type-mismatch", message, e)
        return result

    # The typing rule of each expression node type, given the type of the
    # node's first operand (or None if it has none), and the getter of that
    # operand.  A `super` receiver is not typed as an expression.
    rules = {
        IntLit: (lambda checker, e, _: INT, None),
        BoolLit: (lambda checker, e, _: BOOL, None),
        StringLit: (lambda checker, e, _: STRING, None),
        NullLit: (lambda checker, e, _: NULL_TYPE, None),
        ThisExpr: (type_of_this, None),
        SuperExpr: (type_of_super, None),
        VarRead: (type_of_var, None),
        FieldAccess: (type_of_field, attrgetter("obj")),
        MethodCall: (type_of_call, lambda e: None if e.receiver.__class__ is SuperExpr else e.receiver),
        NewObject: (type_of_new, None),
        Binary: (type_of_binary, attrgetter("left")),
        Unary: (type_of_unary, attrgetter("operand")),
        ReflectGet: (type_of_reflect, attrgetter("obj")),
        SingletonRef: (type_of_singleton, None),
    }
    other_rule = (type_of_other, None)  # for a node that is no expression


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


def _checker(unit: SourceUnit, table: Optional[ClassTable]) -> _Checker:
    """A checker of `unit` that skips the declarations whose clean verdict
    holds there; raises the parser's ParseError for an inheritance cycle."""
    check_cycles(unit)
    reused = _reusable([*unit.classes, *unit.interfaces])
    return _Checker(unit, table if table is not None else ClassTable(unit), reused)


def typecheck_program(unit: SourceUnit, table: Optional[ClassTable] = None) -> list[Diagnostic]:
    """Type-check a unit; empty result means well-typed.  A unit that did not
    pass `validate_structure`, such as one built by `merge_units`, may have
    an inheritance cycle: it gets the parser's diagnostic for it instead.
    `table`, if given, must be the unit's; the check fills its lookups.
    Declarations with a clean verdict that holds in `unit` are not checked
    again (see the module docstring)."""
    try:
        checker = _checker(unit, table)
    except ParseError as exc:
        return [exc.diagnostic]
    diags = checker.check_unit()
    decls = [*unit.classes, *unit.interfaces]
    fresh = [d for d in decls if id(d) not in checker.reused]
    if fresh and not diags:
        record = tuple(weakref.ref(d) for d in decls)
        for d in fresh:
            _CLEAN.put(d, record)
    return diags


def check_structure(unit: SourceUnit) -> list[Diagnostic]:
    """The part of `typecheck_program` that types no statement: inheritance
    cycles, headers, field shadowing, overrides, interface satisfaction and
    bodiless methods of concrete classes.  It keeps no verdict, so a later
    `typecheck_program` of `unit` still types every body."""
    try:
        checker = _checker(unit, None)
    except ParseError as exc:
        return [exc.diagnostic]
    for cdecl in checker.check_headers():
        checker.check_class_structure(cdecl)
    return checker.diags
