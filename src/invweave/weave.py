"""Generation of exposure interfaces, exposed classes, and the invariant
visitor, as subject-language ASTs.

For every class A with a specification entry the weaver emits:

  - `interface IExposedA<...>`: one raw getter signature per field that is
    not already exposed through a specified ancestor; the interface extends
    the superclass's exposure interface with the same arguments the class
    hierarchy uses, so the interface hierarchy mirrors the original one;
  - `class ExposedA<...> extends A<...> implements IExposedA<...>`: a
    per-object call-depth counter, entry/exit gate methods, an `inv()` hook
    that delegates to the shared visitor instance, a constructor mirroring
    A's, one overriding wrapper per public method reachable on A (its own
    and every ancestor's, since exposed classes are deliberately unrelated
    by inheritance), and getter implementations for the interface chain;
  - one `class InvV`: per specified class a `visit_<A>` method that first
    delegates to the superclass's visit through the super-interface, then
    binds each free variable via its getter and evaluates the predicates in
    order, recording the first failure.

Checks fire only when the depth counter is zero, which makes them coincide
with publicly-visible calls; nested self-calls are suppressed.  Invariant
failures abort the run with a violation record (class, predicate index,
phase, method).
"""

from __future__ import annotations

import json

from .diagnostics import Diagnostic, WeaveError, errors_only
from .exposure import (
    ExposurePlan,
    class_free_vars_ordered,
    compute_plan,
    verify_exposure,
)
from .invspec import Forall, InvariantSpec, Predicate, type_predicate, validate_spec
from .printer import render_source
from .subst import NameSupply
from .syntax import (
    Assign,
    Binary,
    BoolLit,
    ClassDecl,
    ConstructorDecl,
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
    Node,
    Param,
    Record,
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
    TypeVar,
    Unary,
    VarRead,
    ViolationStmt,
    WhileStmt,
    rebuild,
    replace,
)
from .typecheck import ClassTable, typecheck_program

PHASE_ENTRY = "entry"
PHASE_EXIT = "exit"
PHASE_CONSTRUCTION = "construction"
CONSTRUCTOR_METHOD = "<init>"

VISITOR_BASE_NAME = "InvV"

_STRING_T = NamedType("string")
_INT_T = NamedType("int")
_BOOL_T = NamedType("bool")


class WeaveNaming(Record):
    __slots__ = ("interface_names", "exposed_names", "getter_names", "visitor_name")
    def __init__(
        self, interface_names=None, exposed_names=None, getter_names=None, visitor_name=VISITOR_BASE_NAME
    ):
        self.interface_names: dict[str, str] = {} if interface_names is None else interface_names
        self.exposed_names: dict[str, str] = {} if exposed_names is None else exposed_names
        self.getter_names: dict[tuple[str, str], str] = {} if getter_names is None else getter_names
        self.visitor_name = visitor_name

    def getter(self, introducing_class: str, field_name: str) -> str:
        return self.getter_names[(introducing_class, field_name)]


class GenerationReport(Record):
    __slots__ = ("per_class", "depth", "max_new_members", "formula_bound")
    def __init__(self, per_class: dict | None = None, depth=0, max_new_members=0, formula_bound=0):
        self.per_class: dict[str, dict[str, int]] = {} if per_class is None else per_class
        self.depth, self.max_new_members, self.formula_bound = depth, max_new_members, formula_bound

    def measured_redundant(self) -> int:
        return sum(v["inherited_members"] for v in self.per_class.values())

    def within_bound(self) -> bool:
        return self.measured_redundant() <= self.formula_bound

    def to_json(self) -> str:
        data = {
            "per_class": self.per_class,
            "depth": self.depth,
            "max_new_members": self.max_new_members,
            "formula_bound": self.formula_bound,
        }
        return json.dumps(data, indent=2) + "\n"


class WovenArtifacts(Record):
    __slots__ = ("interfaces", "exposed_classes", "visitor", "report", "naming", "source_unit", "spec")
    def __init__(
        self, interfaces: list[InterfaceDecl], exposed_classes: list[ClassDecl], visitor: ClassDecl,
        report: GenerationReport, naming: WeaveNaming, source_unit: SourceUnit, spec: InvariantSpec,
    ):
        self.interfaces, self.exposed_classes, self.visitor = interfaces, exposed_classes, visitor
        self.report, self.naming, self.source_unit, self.spec = report, naming, source_unit, spec

    def declarations_unit(self) -> SourceUnit:
        return SourceUnit(
            classes=list(self.exposed_classes) + [self.visitor],
            interfaces=list(self.interfaces),
        )

    def merged_unit(self) -> SourceUnit:
        return SourceUnit(
            classes=list(self.source_unit.classes)
            + list(self.exposed_classes)
            + [self.visitor],
            interfaces=list(self.source_unit.interfaces) + list(self.interfaces),
            driver=self.source_unit.driver,
        )


# ---------------------------------------------------------------------------
# Naming
# ---------------------------------------------------------------------------


def _specified_in_unit_order(unit: SourceUnit, spec: InvariantSpec) -> list[ClassDecl]:
    return [c for c in unit.classes if spec.specifies(c.name)]


def choose_names(table: ClassTable, spec: InvariantSpec, plan: ExposurePlan) -> WeaveNaming:
    unit = table.unit
    naming = WeaveNaming()
    top_level = {c.name for c in unit.classes} | {i.name for i in unit.interfaces}
    supply = NameSupply(set(top_level))
    for c in _specified_in_unit_order(unit, spec):
        iface = "IExposed" + c.name
        naming.interface_names[c.name] = iface if iface not in supply.taken else supply.fresh(iface)
        supply.reserve(naming.interface_names[c.name])
        exposed = "Exposed" + c.name
        naming.exposed_names[c.name] = (
            exposed if exposed not in supply.taken else supply.fresh(exposed)
        )
        supply.reserve(naming.exposed_names[c.name])
    naming.visitor_name = (
        VISITOR_BASE_NAME
        if VISITOR_BASE_NAME not in supply.taken
        else supply.fresh(VISITOR_BASE_NAME)
    )
    supply.reserve(naming.visitor_name)

    all_method_names = {m.name for c in unit.classes for m in c.methods}
    all_method_names |= {m.name for i in unit.interfaces for m in i.methods}
    getter_supply = NameSupply(set(all_method_names))
    # Parents first so chain-uniqueness can consult ancestors' getter names.
    ordered = sorted(
        _specified_in_unit_order(unit, spec),
        key=lambda c: len(table.class_chain(c.name)),
    )
    for c in ordered:
        entry = plan.per_class[c.name]
        chain_taken = {
            naming.getter_names[(anc, fname)]
            for anc in entry.chain[:-1]
            for fname, _ in plan.per_class[anc].own_signatures
        }
        for fname, _ in entry.own_signatures:
            base = "_get_" + fname
            if base in all_method_names or base in chain_taken:
                name = getter_supply.fresh(base)
            else:
                name = base
            chain_taken.add(name)
            naming.getter_names[(c.name, fname)] = name
    return naming


def _member_names(table: ClassTable, c: ClassDecl) -> tuple[set[str], set[str]]:
    """(field names, method names) over the whole chain of c."""
    fields: set[str] = set()
    methods: set[str] = set()
    for anc in table.class_chain(c.name):
        fields |= {f.name for f in anc.fields}
        methods |= {m.name for m in anc.methods}
    for inst in table.closure(c.self_type()):
        idecl = table.get_interface(inst.name)
        if idecl is not None:
            methods |= {m.name for m in idecl.methods}
    return fields, methods


class _HookNames(Record):
    __slots__ = ("depth", "check_entry", "check_exit", "inv")
    def __init__(self, depth: str, check_entry: str, check_exit: str, inv: str):
        self.depth, self.check_entry, self.check_exit, self.inv = depth, check_entry, check_exit, inv


def _hook_names(table: ClassTable, c: ClassDecl, getter_names: set[str]) -> _HookNames:
    fields, methods = _member_names(table, c)
    supply = NameSupply(set(fields | methods | getter_names))
    depth = "_depth" if "_depth" not in fields else supply.fresh("_depth")

    def pick(base: str) -> str:
        if base not in methods and base not in getter_names:
            supply.reserve(base)
            return base
        return supply.fresh(base)

    return _HookNames(
        depth=depth,
        check_entry=pick("_check_entry"),
        check_exit=pick("_check_exit"),
        inv=pick("inv"),
    )


# ---------------------------------------------------------------------------
# Small AST builders
# ---------------------------------------------------------------------------


def _this_field(name: str) -> FieldAccess:
    return FieldAccess(ThisExpr(), name)


def _this_call(name: str, args: list[Expr]) -> MethodCall:
    return MethodCall(ThisExpr(), name, args)


def _depth_is_zero(depth: str) -> Binary:
    return Binary("==", _this_field(depth), IntLit(0))


def _bump_depth(depth: str, delta: int) -> Assign:
    op = "+" if delta > 0 else "-"
    return Assign(
        _this_field(depth), Binary(op, _this_field(depth), IntLit(abs(delta)))
    )


def _fail_block(visitor_name: str, phase: Expr, method: Expr) -> list[Stmt]:
    return [
        LocalDecl(NamedType(visitor_name), "v", SingletonRef(visitor_name)),
        ViolationStmt(
            MethodCall(VarRead("v"), "failed_class", []),
            MethodCall(VarRead("v"), "failed_index", []),
            phase,
            method,
        ),
    ]


# ---------------------------------------------------------------------------
# Interface generation
# ---------------------------------------------------------------------------


def gen_exposure_interface(
    c: ClassDecl, plan: ExposurePlan, naming: WeaveNaming
) -> InterfaceDecl:
    entry = plan.per_class[c.name]
    extends: list[NamedType] = []
    if len(entry.chain) > 1:
        assert c.super_class is not None
        extends.append(NamedType(naming.interface_names[entry.chain[-2]], c.super_class.args))
    methods = [
        MethodDecl(
            name=naming.getter(c.name, fname),
            visibility="public",
            params=[],
            return_type=ftype,
            body=None,
        )
        for fname, ftype in entry.own_signatures
    ]
    return InterfaceDecl(
        name=naming.interface_names[c.name],
        type_params=list(c.type_params),
        extends=extends,
        methods=methods,
    )


# ---------------------------------------------------------------------------
# Exposed class generation
# ---------------------------------------------------------------------------


class _ClassStats(Record):
    __slots__ = ("getters", "wrappers", "inherited_members")
    def __init__(self, getters: int = 0, wrappers: int = 0, inherited_members: int = 0):
        self.getters, self.wrappers, self.inherited_members = getters, wrappers, inherited_members


def _public_methods_to_wrap(
    table: ClassTable, c: ClassDecl
) -> list[tuple[str, MethodDecl, str]]:
    """(name, most-derived declaration, declaring class) for every public
    method with an implementation anywhere on c's chain, in chain order."""
    out: list[tuple[str, MethodDecl, str]] = []
    seen: set[str] = set()
    for anc in table.class_chain(c.name):
        for m in anc.methods:
            if m.name in seen:
                continue
            seen.add(m.name)
            if m.visibility != "public":
                continue
            if table.find_impl(c.self_type(), m.name) is None:
                continue
            out.append((m.name, m, anc.name))
    return out


def gen_exposed_class(
    c: ClassDecl,
    iface: InterfaceDecl,
    naming: WeaveNaming,
    table: ClassTable,
    plan: ExposurePlan,
    stats: _ClassStats | None = None,
) -> ClassDecl:
    hooks = _hook_names(
        table, c, {naming.getter(cn, fn) for (cn, fn) in naming.getter_names}
    )
    stats = stats if stats is not None else _ClassStats()
    self_params = list(c.type_params)
    self_args = tuple(TypeVar(p) for p in self_params)
    exposed_name = naming.exposed_names[c.name]
    visitor = naming.visitor_name
    cls_lit = StringLit(c.name)

    # (2) entry gate: check when the depth counter is zero, then increment.
    check_entry = MethodDecl(
        name=hooks.check_entry,
        visibility="private",
        params=[Param("m", _STRING_T)],
        return_type=None,
        body=[
            IfStmt(
                _depth_is_zero(hooks.depth),
                [
                    TraceStmt(ThisExpr(), cls_lit, StringLit(PHASE_ENTRY), VarRead("m")),
                    IfStmt(
                        Unary("!", _this_call(hooks.inv, [])),
                        _fail_block(visitor, StringLit(PHASE_ENTRY), VarRead("m")),
                        None,
                    ),
                ],
                None,
            ),
            _bump_depth(hooks.depth, +1),
        ],
    )
    # (3) exit gate: decrement, then check when the counter returns to zero.
    check_exit = MethodDecl(
        name=hooks.check_exit,
        visibility="private",
        params=[Param("phase", _STRING_T), Param("m", _STRING_T)],
        return_type=None,
        body=[
            _bump_depth(hooks.depth, -1),
            IfStmt(
                _depth_is_zero(hooks.depth),
                [
                    TraceStmt(ThisExpr(), cls_lit, VarRead("phase"), VarRead("m")),
                    IfStmt(
                        Unary("!", _this_call(hooks.inv, [])),
                        _fail_block(visitor, VarRead("phase"), VarRead("m")),
                        None,
                    ),
                ],
                None,
            ),
        ],
    )
    # (4) the accept hook: delegate to the shared visitor and read the verdict.
    inv = MethodDecl(
        name=hooks.inv,
        visibility="protected",
        params=[],
        return_type=_BOOL_T,
        body=[
            LocalDecl(NamedType(visitor), "v", SingletonRef(visitor)),
            ExprStmt(MethodCall(VarRead("v"), "reset", [])),
            ExprStmt(MethodCall(VarRead("v"), "visit_" + c.name, [ThisExpr()])),
            ReturnStmt(MethodCall(VarRead("v"), "valid", [])),
        ],
    )
    # (5) constructor: run the original construction, then one exit-style
    # check in the construction phase.
    ctor_params = list(c.constructor.params) if c.constructor is not None else []
    constructor = ConstructorDecl(
        visibility="public",
        params=[Param(p.name, p.type) for p in ctor_params],
        body=[
            SuperCall([VarRead(p.name) for p in ctor_params]),
            _bump_depth(hooks.depth, +1),
            ExprStmt(
                _this_call(
                    hooks.check_exit,
                    [StringLit(PHASE_CONSTRUCTION), StringLit(CONSTRUCTOR_METHOD)],
                )
            ),
        ],
    )
    # (6) wrappers for every public method on the chain.
    wrappers: list[MethodDecl] = []
    for name, _decl, declaring in _public_methods_to_wrap(table, c):
        hit = table.find_method(c.self_type(), name)
        assert hit is not None
        result_name = "_result"
        while any(p.name == result_name for p in hit.method.params):
            result_name = "_" + result_name
        call = MethodCall(SuperExpr(), name, [VarRead(p.name) for p in hit.method.params])
        body: list[Stmt] = [ExprStmt(_this_call(hooks.check_entry, [StringLit(name)]))]
        if hit.return_type is None:
            body.append(ExprStmt(call))
            body.append(
                ExprStmt(
                    _this_call(hooks.check_exit, [StringLit(PHASE_EXIT), StringLit(name)])
                )
            )
        else:
            body.append(LocalDecl(hit.return_type, result_name, call))
            body.append(
                ExprStmt(
                    _this_call(hooks.check_exit, [StringLit(PHASE_EXIT), StringLit(name)])
                )
            )
            body.append(ReturnStmt(VarRead(result_name)))
        wrappers.append(
            MethodDecl(
                name=name,
                visibility="public",
                type_params=list(hit.method.type_params),
                params=[Param(p.name, t) for p, t in zip(hit.method.params, hit.param_types)],
                return_type=hit.return_type,
                body=body,
            )
        )
        stats.wrappers += 1
        if declaring != c.name:
            stats.inherited_members += 1
    # (7) getters for the whole interface chain, root-first.
    getters: list[MethodDecl] = []
    for owner in plan.per_class[c.name].chain:
        for fname, _ftype in plan.per_class[owner].own_signatures:
            hit = table.find_field(c.self_type(), fname)
            assert hit is not None
            if hit.field.visibility == "private":
                read: Expr = ReflectGet(ThisExpr(), fname)
            else:
                read = _this_field(fname)
            getters.append(
                MethodDecl(
                    name=naming.getter(owner, fname),
                    visibility="public",
                    params=[],
                    return_type=hit.type,
                    body=[ReturnStmt(read)],
                )
            )
            stats.getters += 1
            if owner != c.name:
                stats.inherited_members += 1

    return ClassDecl(
        name=exposed_name,
        type_params=self_params,
        super_class=NamedType(c.name, self_args),
        interfaces=[NamedType(iface.name, self_args)],
        is_abstract=c.is_abstract,
        fields=[FieldDecl(hooks.depth, _INT_T, "private")],
        constructor=constructor,
        methods=[check_entry, check_exit, inv] + wrappers + getters,
    )


# ---------------------------------------------------------------------------
# Visitor generation
# ---------------------------------------------------------------------------


def _compile_predicate_expr(e: Expr) -> Expr:
    """Predicate expression -> checker expression: root identifiers stay as
    local reads (bound from getters), navigation becomes reflective reads."""
    return rebuild(e, lambda n: ReflectGet(n.obj, n.name) if isinstance(n, FieldAccess) else n)


def _record_call(class_name: str, index: int) -> Stmt:
    return ExprStmt(_this_call("_record", [StringLit(class_name), IntLit(index)]))


def _ok_read() -> Expr:
    return FieldAccess(ThisExpr(), "_ok")


def _predicate_stmts(table: ClassTable, cls: ClassDecl, index: int, pred: Predicate) -> list[Stmt]:
    if isinstance(pred, Forall):
        var_t = type_predicate(table, cls, pred).quantifier_types[pred.var]
        loop = WhileStmt(
            Binary("&&", _ok_read(), _compile_predicate_expr(pred.cond)),
            [
                IfStmt(
                    Unary("!", _compile_predicate_expr(pred.body)),
                    [_record_call(cls.name, index)],
                    None,
                ),
                Assign(VarRead(pred.var), _compile_predicate_expr(pred.step)),
            ],
        )
        return [
            IfStmt(
                _ok_read(),
                [
                    LocalDecl(var_t, pred.var, _compile_predicate_expr(pred.init)),
                    loop,
                ],
                None,
            )
        ]
    return [
        IfStmt(
            Binary("&&", _ok_read(), Unary("!", _compile_predicate_expr(pred))),
            [_record_call(cls.name, index)],
            None,
        )
    ]


def gen_visitor(
    table: ClassTable,
    spec: InvariantSpec,
    plan: ExposurePlan,
    naming: WeaveNaming,
) -> ClassDecl:
    specified = _specified_in_unit_order(table.unit, spec)

    visit_methods: list[MethodDecl] = []
    for c in specified:
        chain = plan.per_class[c.name].chain
        body: list[Stmt] = []
        if len(chain) > 1:
            body.append(ExprStmt(_this_call("visit_" + chain[-2], [VarRead("obj")])))
        fv = class_free_vars_ordered(c.name, spec)
        preds = spec.predicates(c.name)
        if preds:
            inner: list[Stmt] = []
            for var in fv:
                hit = table.find_field(c.self_type(), var)
                assert hit is not None
                owner = plan.getter_owner(c.name, var)
                inner.append(
                    LocalDecl(
                        hit.type,
                        var,
                        MethodCall(VarRead("obj"), naming.getter(owner, var), []),
                    )
                )
            for i, p in enumerate(preds):
                inner.extend(_predicate_stmts(table, c, i, p))
            body.append(IfStmt(_ok_read(), inner, None))
        visit_methods.append(
            MethodDecl(
                name="visit_" + c.name,
                visibility="public",
                type_params=list(c.type_params),
                params=[
                    Param(
                        "obj",
                        NamedType(
                            naming.interface_names[c.name],
                            tuple(TypeVar(p) for p in c.type_params),
                        ),
                    )
                ],
                return_type=None,
                body=body,
            )
        )

    fields = [
        FieldDecl("_ok", _BOOL_T, "private"),
        FieldDecl("_fail_class", _STRING_T, "private"),
        FieldDecl("_fail_index", _INT_T, "private"),
    ]
    reset = MethodDecl(
        name="reset",
        visibility="public",
        return_type=None,
        body=[
            Assign(_this_field("_ok"), BoolLit(True)),
            Assign(_this_field("_fail_class"), StringLit("")),
            Assign(_this_field("_fail_index"), Unary("-", IntLit(1))),
        ],
    )
    valid = MethodDecl(
        name="valid",
        visibility="public",
        return_type=_BOOL_T,
        body=[ReturnStmt(_this_field("_ok"))],
    )
    failed_class = MethodDecl(
        name="failed_class",
        visibility="public",
        return_type=_STRING_T,
        body=[ReturnStmt(_this_field("_fail_class"))],
    )
    failed_index = MethodDecl(
        name="failed_index",
        visibility="public",
        return_type=_INT_T,
        body=[ReturnStmt(_this_field("_fail_index"))],
    )
    record = MethodDecl(
        name="_record",
        visibility="private",
        params=[Param("c", _STRING_T), Param("i", _INT_T)],
        return_type=None,
        body=[
            Assign(_this_field("_ok"), BoolLit(False)),
            Assign(_this_field("_fail_class"), VarRead("c")),
            Assign(_this_field("_fail_index"), VarRead("i")),
        ],
    )
    methods = [reset, valid, failed_class, failed_index]
    if visit_methods:
        methods.append(record)
    methods.extend(visit_methods)
    constructor = ConstructorDecl(
        visibility="public",
        params=[],
        body=[ExprStmt(_this_call("reset", []))],
    )
    return ClassDecl(
        name=naming.visitor_name,
        type_params=[],
        super_class=None,
        interfaces=[],
        is_abstract=False,
        fields=fields,
        constructor=constructor,
        methods=methods,
    )


# ---------------------------------------------------------------------------
# Whole-program weaving and the space report
# ---------------------------------------------------------------------------


def weave_program(unit: SourceUnit, spec: InvariantSpec) -> WovenArtifacts:
    """Weave a typechecked unit with a validated specification.  The merged
    unit typechecks; original declarations are untouched (new nodes only).

    One ClassTable of `unit` serves every stage on it: the typecheck, spec
    validation, the exposure plan and its verification, and generation.  The
    merged unit's self-check builds its own."""
    table = ClassTable(unit)
    diags = errors_only(typecheck_program(unit, table))
    if diags:
        raise WeaveError(diags)
    sdiags = errors_only(validate_spec(spec, unit, table))
    if sdiags:
        raise WeaveError(sdiags)
    plan = compute_plan(table, spec)
    vdiags = errors_only(verify_exposure(plan, table, spec))
    if vdiags:
        raise WeaveError(vdiags)

    naming = choose_names(table, spec, plan)
    interfaces: list[InterfaceDecl] = []
    exposed: list[ClassDecl] = []
    stats: dict[str, _ClassStats] = {}
    for c in _specified_in_unit_order(unit, spec):
        iface = gen_exposure_interface(c, plan, naming)
        interfaces.append(iface)
        st = _ClassStats()
        exposed.append(gen_exposed_class(c, iface, naming, table, plan, st))
        stats[c.name] = st
    visitor = gen_visitor(table, spec, plan, naming)

    artifacts = WovenArtifacts(
        interfaces=interfaces,
        exposed_classes=exposed,
        visitor=visitor,
        report=GenerationReport(),
        naming=naming,
        source_unit=unit,
        spec=spec,
    )
    artifacts.report = _build_report(plan, artifacts, stats)

    merged_diags = errors_only(typecheck_program(artifacts.merged_unit()))
    if merged_diags:
        raise WeaveError(
            [Diagnostic("weave-internal", "woven unit does not typecheck")] + merged_diags
        )
    return artifacts


def _build_report(
    plan: ExposurePlan, artifacts: WovenArtifacts, stats: dict[str, _ClassStats]
) -> GenerationReport:
    specified = _specified_in_unit_order(artifacts.source_unit, artifacts.spec)
    report = GenerationReport()
    for c in specified:
        st = stats[c.name]
        report.per_class[c.name] = {
            "getters": st.getters,
            "wrappers": st.wrappers,
            "interface_signatures": len(plan.per_class[c.name].own_signatures),
            "inherited_members": st.inherited_members,
        }
    report.depth = max((len(plan.per_class[c.name].chain) - 1 for c in specified), default=0)
    report.max_new_members = max(
        (len(c.fields) + len(c.methods) for c in specified), default=0
    )
    report.formula_bound = report.depth * (report.depth + 1) // 2 * report.max_new_members
    return report


def space_report(artifacts: WovenArtifacts) -> GenerationReport:
    return artifacts.report


# ---------------------------------------------------------------------------
# Driver constructor swap (the user-side "drop-in" edit, automated for tests)
# ---------------------------------------------------------------------------


def swap_driver_constructors(unit: SourceUnit, artifacts: WovenArtifacts) -> SourceUnit:
    """A copy of `unit` whose driver constructs Exposed variants of specified
    concrete classes; everything else is shared."""
    if unit.driver is None:
        return unit
    exposed = artifacts.naming.exposed_names
    swap = {
        c.name: exposed[c.name] for c in unit.classes if not c.is_abstract and c.name in exposed
    }

    def swap_new(e: Node) -> Node:
        if isinstance(e, NewObject) and e.type.name in swap:
            return replace(e, type=NamedType(swap[e.type.name], e.type.args))
        return e

    driver = replace(unit.driver, body=[rebuild(s, swap_new) for s in unit.driver.body])
    return SourceUnit(classes=unit.classes, interfaces=unit.interfaces, driver=driver)


def render_artifacts(artifacts: WovenArtifacts) -> dict[str, str]:
    """Map of output filename -> canonical source text, one per declaration,
    plus the space report."""
    out: dict[str, str] = {}
    for i in artifacts.interfaces:
        out[i.name + ".moo"] = render_source(SourceUnit(interfaces=[i]))
    for c in artifacts.exposed_classes:
        out[c.name + ".moo"] = render_source(SourceUnit(classes=[c]))
    out[artifacts.visitor.name + ".moo"] = render_source(
        SourceUnit(classes=[artifacts.visitor])
    )
    out["report.json"] = artifacts.report.to_json()
    return out
