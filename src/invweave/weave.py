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
    order, recording the first failure.  Its parameter is `obj` unless a
    predicate of A uses that name.

`weave_program` works out each specified class's facts once: its plan
entry (specified chain, I(A), own getter signatures) and the public
methods its exposed class wraps.  The generators read them, and the space
report is counted from them alone, not from the generated declarations.

Checks fire only when the depth counter is zero, which makes them coincide
with publicly-visible calls; nested self-calls are suppressed.  Invariant
failures abort the run with a violation record (class, predicate index,
phase, method).  Each generated class holds a mark in its `_mark` slot:
(its check body `inv` when a predicate on its specified chain is
quantified, else None; the names of its bookkeeping fields, the depth
counter or the visitor's verdict; with a check body, (the visitor, per
class of the chain, root first, the specification's own predicates and
each free variable with the type its visit method binds it with), else
()).  Nothing prints or compares the mark, so a copy of the class or a
unit parsed from woven text has none.  Nothing is compiled here.  The
interpreter replays a marked check body while nothing has been written
since it passed, and re-checks one whose quantifiers walk nodes by one
field from the nodes written (see `interp` and `recheck`).  A check
without a quantifier takes a few steps, about what replaying it costs, so
its body is not marked.

Every type in the generated declarations is copied from the original
hierarchy or from the typings `validate_spec` accepted, so their bodies are
typed by construction.  `weave_program` therefore checks the merged unit
only structurally (`typecheck.check_structure`).  The full typecheck of
merged units, bodies included, is the test suite's: the typecheck goldens'
`chain/*/merged` and `corpus/*/woven` cases, the spec goldens' clean cases
and `test_acceptance`.
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
    TypeExpr,
    Unary,
    VarRead,
    ViolationStmt,
    WhileStmt,
    rebuild,
    replace,
)
from .typecheck import ClassTable, MethodHit, check_structure, class_table, typecheck_program

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


def choose_names(
    unit: SourceUnit, table: ClassTable, specified: list[ClassDecl], plan: ExposurePlan
) -> WeaveNaming:
    """Names for the declarations and getters woven for `specified`, the
    specified classes of `unit` in unit order."""
    naming = WeaveNaming()
    top_level = {c.name for c in unit.classes} | {i.name for i in unit.interfaces}
    supply = NameSupply(set(top_level))
    for c in specified:
        naming.interface_names[c.name] = supply.take("IExposed" + c.name)
        naming.exposed_names[c.name] = supply.take("Exposed" + c.name)
    naming.visitor_name = supply.take(VISITOR_BASE_NAME)

    all_method_names = {m.name for c in unit.classes for m in c.methods}
    all_method_names |= {m.name for i in unit.interfaces for m in i.methods}
    getter_supply = NameSupply(set(all_method_names))
    # Parents first so chain-uniqueness can consult ancestors' getter names.
    ordered = sorted(specified, key=lambda c: len(table.chain_names(c.name)))
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


class _HookNames(Record):
    __slots__ = ("depth", "check_entry", "check_exit", "inv")
    def __init__(self, depth: str, check_entry: str, check_exit: str, inv: str):
        self.depth, self.check_entry, self.check_exit, self.inv = depth, check_entry, check_exit, inv


def _hook_names(table: ClassTable, self_t: NamedType, getter_names: set[str]) -> _HookNames:
    """The depth field and hook names of the exposed class of `self_t`: clear
    of every field and method on its chain and its interfaces, and of every
    getter."""
    members = table.members(self_t)
    fields = set(members.fields)
    methods = set(members.methods)
    for inst in table.closure(self_t):
        idecl = table.get_interface(inst.name)
        if idecl is not None:
            methods |= {m.name for m in idecl.methods}
    supply = NameSupply(fields | methods | getter_names)
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


def _bump_depth(depth: str, delta: int) -> Assign:
    op = "+" if delta > 0 else "-"
    return Assign(
        _this_field(depth), Binary(op, _this_field(depth), IntLit(abs(delta)))
    )


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
        MethodDecl(naming.getter(c.name, fname), "public", [], [], ftype)
        for fname, ftype in entry.own_signatures
    ]
    return InterfaceDecl(naming.interface_names[c.name], list(c.type_params), extends, methods)


# ---------------------------------------------------------------------------
# Exposed class generation
# ---------------------------------------------------------------------------


def _public_methods_to_wrap(
    table: ClassTable, c: ClassDecl, self_t: NamedType
) -> list[tuple[MethodHit, str]]:
    """(most-derived declaration as `self_t` sees it, declaring class) for
    every public method with an implementation anywhere on c's chain, in
    chain order."""
    out: list[tuple[MethodHit, str]] = []
    seen: set[str] = set()
    impls = table.members(self_t).impls
    for anc in table.class_chain(c.name):
        for m in anc.methods:
            if m.name in seen:
                continue
            seen.add(m.name)
            if m.visibility == "public" and m.name in impls:
                out.append((table.find_method(self_t, m.name), anc.name))
    return out


def gen_exposed_class(
    c: ClassDecl,
    naming: WeaveNaming,
    table: ClassTable,
    plan: ExposurePlan,
    wraps: list[tuple[MethodHit, str]],
    walks: tuple = (),
) -> ClassDecl:
    """The exposed class of `c`; `wraps` is `_public_methods_to_wrap` of it.  `walks`, when a
    predicate on its specified chain is quantified, so that its check takes a loop's steps: the
    visitor and what the check evaluates (`_evaluated`), which its mark carries."""
    self_t = c.self_type()
    hooks = _hook_names(table, self_t, set(naming.getter_names.values()))
    visitor = naming.visitor_name

    def gate(phase) -> IfStmt:
        """At depth zero: trace, and record a violation if `inv()` fails.
        `phase()` makes the phase node, fresh for each use."""
        fail = [
            LocalDecl(NamedType(visitor), "v", SingletonRef(visitor)),
            ViolationStmt(
                MethodCall(VarRead("v"), "failed_class", []),
                MethodCall(VarRead("v"), "failed_index", []),
                phase(),
                VarRead("m"),
            ),
        ]
        return IfStmt(
            Binary("==", _this_field(hooks.depth), IntLit(0)),
            [
                TraceStmt(ThisExpr(), StringLit(c.name), phase(), VarRead("m")),
                IfStmt(Unary("!", _this_call(hooks.inv, [])), fail, None),
            ],
            None,
        )

    # (2) entry gate: check when the depth counter is zero, then increment.
    check_entry = MethodDecl(
        hooks.check_entry,
        "private",
        [],
        [Param("m", _STRING_T)],
        None,
        [gate(lambda: StringLit(PHASE_ENTRY)), _bump_depth(hooks.depth, +1)],
    )
    # (3) exit gate: decrement, then check when the counter returns to zero.
    check_exit = MethodDecl(
        hooks.check_exit,
        "private",
        [],
        [Param("phase", _STRING_T), Param("m", _STRING_T)],
        None,
        [_bump_depth(hooks.depth, -1), gate(lambda: VarRead("phase"))],
    )
    # (4) the accept hook: delegate to the shared visitor and read the verdict.
    inv = MethodDecl(
        hooks.inv,
        "protected",
        [],
        [],
        _BOOL_T,
        [
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
        "public",
        [Param(p.name, p.type) for p in ctor_params],
        [
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
    for hit, _ in wraps:
        name = hit.method.name
        call = MethodCall(SuperExpr(), name, [VarRead(p.name) for p in hit.method.params])
        enter = ExprStmt(_this_call(hooks.check_entry, [StringLit(name)]))
        leave = ExprStmt(_this_call(hooks.check_exit, [StringLit(PHASE_EXIT), StringLit(name)]))
        if hit.return_type is None:
            body: list[Stmt] = [enter, ExprStmt(call), leave]
        else:
            result_name = "_result"
            while any(p.name == result_name for p in hit.method.params):
                result_name = "_" + result_name
            result = LocalDecl(hit.return_type, result_name, call)
            body = [enter, result, leave, ReturnStmt(VarRead(result_name))]
        params = [Param(p.name, t) for p, t in zip(hit.method.params, hit.param_types)]
        wrappers.append(
            MethodDecl(name, "public", list(hit.method.type_params), params, hit.return_type, body)
        )
    # (7) getters for the whole interface chain, root-first.
    getters: list[MethodDecl] = []
    for owner in plan.per_class[c.name].chain:
        for fname, _ftype in plan.per_class[owner].own_signatures:
            hit = table.find_field(self_t, fname)
            assert hit is not None
            if hit.field.visibility == "private":
                read: Expr = ReflectGet(ThisExpr(), fname)
            else:
                read = _this_field(fname)
            getters.append(
                MethodDecl(naming.getter(owner, fname), "public", [], [], hit.type, [ReturnStmt(read)])
            )

    exposed = ClassDecl(
        naming.exposed_names[c.name],
        list(c.type_params),
        self_t,
        [NamedType(naming.interface_names[c.name], self_t.args)],
        c.is_abstract,
        [FieldDecl(hooks.depth, _INT_T, "private")],
        constructor,
        [check_entry, check_exit, inv] + wrappers + getters,
    )
    exposed._mark = (inv if walks else None, (hooks.depth,), walks)
    return exposed


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


def _bound(table: ClassTable, c: ClassDecl, free: list[str]) -> list[tuple[str, TypeExpr]]:
    """Each of `c`'s free variables `free` with the type its visit method binds it with."""
    self_t = c.self_type()
    hits = [table.find_field(self_t, var) for var in free]
    assert None not in hits
    return [(var, hit.type) for var, hit in zip(free, hits)]


def _evaluated(table: ClassTable, spec: InvariantSpec, chain: list[str]) -> tuple:
    """What the check of a class with specified chain `chain` evaluates, root first: each
    class's predicates and its free variables, each with its type, as its visit method binds them."""
    classes = [table.get_class(name) for name in chain]
    return tuple((spec.predicates(a.name), _bound(table, a, class_free_vars_ordered(a.name, spec))) for a in classes)


def gen_visitor(
    table: ClassTable,
    spec: InvariantSpec,
    specified: list[ClassDecl],
    plan: ExposurePlan,
    naming: WeaveNaming,
) -> ClassDecl:
    visit_methods: list[MethodDecl] = []
    for c in specified:
        chain = plan.per_class[c.name].chain
        self_t = c.self_type()
        fv = class_free_vars_ordered(c.name, spec)
        preds = spec.predicates(c.name)
        # The visited object's name must not be a local of the body.
        obj = NameSupply(set(fv) | {p.var for p in preds if isinstance(p, Forall)}).take("obj")
        body: list[Stmt] = []
        if len(chain) > 1:
            body.append(ExprStmt(_this_call("visit_" + chain[-2], [VarRead(obj)])))
        if preds:
            inner: list[Stmt] = []
            for var, var_t in _bound(table, c, fv):
                getter = naming.getter(plan.getter_owner(c.name, var), var)
                inner.append(LocalDecl(var_t, var, MethodCall(VarRead(obj), getter, [])))
            for i, p in enumerate(preds):
                inner.extend(_predicate_stmts(table, c, i, p))
            body.append(IfStmt(_ok_read(), inner, None))
        iface_t = NamedType(naming.interface_names[c.name], self_t.args)
        visit_methods.append(
            MethodDecl("visit_" + c.name, "public", list(c.type_params), [Param(obj, iface_t)], None, body)
        )

    fields = [
        FieldDecl("_ok", _BOOL_T, "private"),
        FieldDecl("_fail_class", _STRING_T, "private"),
        FieldDecl("_fail_index", _INT_T, "private"),
    ]
    reset = MethodDecl(
        "reset",
        "public",
        [],
        [],
        None,
        [
            Assign(_this_field("_ok"), BoolLit(True)),
            Assign(_this_field("_fail_class"), StringLit("")),
            Assign(_this_field("_fail_index"), Unary("-", IntLit(1))),
        ],
    )
    valid = MethodDecl("valid", "public", [], [], _BOOL_T, [ReturnStmt(_this_field("_ok"))])
    failed_class = MethodDecl(
        "failed_class", "public", [], [], _STRING_T, [ReturnStmt(_this_field("_fail_class"))]
    )
    failed_index = MethodDecl(
        "failed_index", "public", [], [], _INT_T, [ReturnStmt(_this_field("_fail_index"))]
    )
    record = MethodDecl(
        "_record",
        "private",
        [],
        [Param("c", _STRING_T), Param("i", _INT_T)],
        None,
        [
            Assign(_this_field("_ok"), BoolLit(False)),
            Assign(_this_field("_fail_class"), VarRead("c")),
            Assign(_this_field("_fail_index"), VarRead("i")),
        ],
    )
    methods = [reset, valid, failed_class, failed_index]
    if visit_methods:
        methods.append(record)
    methods.extend(visit_methods)
    constructor = ConstructorDecl("public", [], [ExprStmt(_this_call("reset", []))])
    visitor = ClassDecl(naming.visitor_name, [], None, [], False, fields, constructor, methods)
    visitor._mark = (None, tuple(f.name for f in fields), ())
    return visitor


# ---------------------------------------------------------------------------
# Whole-program weaving and the space report
# ---------------------------------------------------------------------------


def weave_program(unit: SourceUnit, spec: InvariantSpec) -> WovenArtifacts:
    """Weave a unit with a specification; original declarations are
    untouched (new nodes only).

    `unit` is typechecked and `spec` validated and planned first; their
    diagnostics are raised as they are.  The merged unit then gets the
    structural check: inheritance cycles, headers, field shadowing,
    overrides, interface satisfaction and bodiless methods of concrete
    classes.  A fault there is a bug of the weaver, raised as
    `weave-internal`.  The generated bodies are not typed here (see the
    module docstring), and no typecheck verdict is kept for them.

    One ClassTable of `unit` serves every stage on it: the typecheck, spec
    validation, the exposure plan and its verification, and generation.  It
    is the table kept with the unit's own clean verdict (see
    `typecheck.class_table`), so weaving a unit already checked builds no
    table of it.  The structural check builds one of the merged unit."""
    diags = errors_only(typecheck_program(unit))
    if diags:
        raise WeaveError(diags)
    sdiags = errors_only(validate_spec(spec, unit))
    if sdiags:
        raise WeaveError(sdiags)
    table = class_table(unit)
    plan = compute_plan(table, spec)
    vdiags = errors_only(verify_exposure(plan, table, spec))
    if vdiags:
        raise WeaveError(vdiags)

    specified = [c for c in unit.classes if spec.specifies(c.name)]
    naming = choose_names(unit, table, specified, plan)
    interfaces: list[InterfaceDecl] = []
    exposed: list[ClassDecl] = []
    wraps = {c.name: _public_methods_to_wrap(table, c, c.self_type()) for c in specified}
    visitor = gen_visitor(table, spec, specified, plan, naming)
    for c in specified:
        chain = plan.per_class[c.name].chain
        walks = any(isinstance(p, Forall) for a in chain for p in spec.predicates(a))
        interfaces.append(gen_exposure_interface(c, plan, naming))
        checked = (visitor, _evaluated(table, spec, chain)) if walks else ()
        exposed.append(gen_exposed_class(c, naming, table, plan, wraps[c.name], checked))

    artifacts = WovenArtifacts(
        interfaces=interfaces,
        exposed_classes=exposed,
        visitor=visitor,
        report=_build_report(plan, specified, wraps),
        naming=naming,
        source_unit=unit,
        spec=spec,
    )
    merged_diags = errors_only(check_structure(artifacts.merged_unit()))
    if merged_diags:
        raise WeaveError(
            [Diagnostic("weave-internal", "woven unit does not typecheck")] + merged_diags
        )
    return artifacts


def _build_report(
    plan: ExposurePlan, specified: list[ClassDecl], wraps: dict[str, list[tuple[MethodHit, str]]]
) -> GenerationReport:
    """The space report, counted off the plan and each class's wrap list: a
    getter per signature on the class's specified chain and a wrapper per
    wrapped method.  Those declared for an ancestor are inherited members."""
    per_class: dict[str, dict[str, int]] = {}
    for c in specified:
        entry = plan.per_class[c.name]
        own = len(entry.own_signatures)
        getters = sum(len(plan.per_class[owner].own_signatures) for owner in entry.chain)
        inherited_wrappers = sum(declaring != c.name for _, declaring in wraps[c.name])
        per_class[c.name] = {
            "getters": getters,
            "wrappers": len(wraps[c.name]),
            "interface_signatures": own,
            "inherited_members": getters - own + inherited_wrappers,
        }
    depth = max((len(plan.per_class[c.name].chain) - 1 for c in specified), default=0)
    max_new_members = max((len(c.fields) + len(c.methods) for c in specified), default=0)
    return GenerationReport(per_class, depth, max_new_members, depth * (depth + 1) // 2 * max_new_members)


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
