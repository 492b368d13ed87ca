"""Resolve-once interpreter for MiniOO.

What the program text fixes is looked up once per run, not on every visit.
Objects hold a flat `name -> value` field dict copied from a per-class
zero-value layout (shadowing is rejected, so a name is one slot along a class
chain).  Each class has one vtable (`name -> most-derived implementation`)
that serves both dispatch and `super.m(...)`.  A body is compiled into
closures over the call frame the first time it runs, with locals resolved to
frame slots; the driver is compiled one statement at a time, so a run pays
only for code it reaches and keeps none it has finished with.  Compiled code
reaches run state through the frame, never holding the Interpreter, so a
finished run is freed by reference counting.  A field read off `this` or a
local is one closure that goes straight to the object's dict, and objects
compare by identity through Python's own `==`, so an invariant loop over a
structure makes few Python calls per node.

Dispatch always selects the most-derived override, so `this`-calls made
inside original method bodies land on woven wrappers - exactly the mechanism
the per-object depth counter depends on.  Type arguments are erased at
runtime; the typechecker has already done the parametric work.

A run produces printed output lines, an optional check-event trace
(`CHECK <object-id> <class> <entry|exit|construction> <method>`, one line
per invariant evaluation), and an optional violation record when a woven
check fails, at which point execution stops.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .syntax import (
    ClassDecl,
    ConstructorDecl,
    FieldAccess,
    MethodDecl,
    NamedType,
    SourceUnit,
    SuperCall,
    SuperExpr,
    ThisExpr,
    TypeExpr,
    VarRead,
)


class MiniOORuntimeError(Exception):
    """Runtime fault (null dereference, missing field, ...): aborts the run.
    Raised out of a run, `result` holds what the run produced before it."""

    result: Optional["ExecutionResult"] = None


@dataclass(frozen=True)
class ViolationRecord:
    class_name: str
    predicate_index: int
    phase: str  # entry | exit | construction
    method: str  # method name or "<init>"

    def __str__(self) -> str:
        return "VIOLATION %s %d %s %s" % (
            self.class_name,
            self.predicate_index,
            self.phase,
            self.method,
        )


class _Violation(Exception):
    def __init__(self, record: ViolationRecord):
        super().__init__(str(record))
        self.record = record


@dataclass(eq=False)  # `==` on objects is identity, as in MiniOO
class ObjectInstance:
    class_name: str
    obj_id: int
    fields: dict[str, object] = field(default_factory=dict)

    def __repr__(self) -> str:
        return "%s@%d" % (self.class_name, self.obj_id)


@dataclass
class ExecutionResult:
    output: list[str]
    trace: list[str]
    violation: Optional[ViolationRecord]
    combined: list[str] = field(default_factory=list)  # output and trace, interleaved


_ZERO = {"int": 0, "bool": False, "string": ""}


def _zero_value(t: TypeExpr):
    return _ZERO.get(t.name) if isinstance(t, NamedType) else None


def stringify(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, ObjectInstance):
        return repr(value)
    return str(value)


def _field_fault(obj, name: str, verb: str = "reading") -> MiniOORuntimeError:
    if obj is None:
        return MiniOORuntimeError("null dereference %s %r" % (verb, name))
    if not isinstance(obj, ObjectInstance):
        return MiniOORuntimeError("%r has no fields" % (obj,))
    return MiniOORuntimeError("no such field %r on %s" % (name, obj.class_name))


def _reflect_fault(obj, name: str) -> MiniOORuntimeError:
    if obj is None:
        return MiniOORuntimeError("null dereference in reflective read of %r" % name)
    if not isinstance(obj, ObjectInstance):
        return MiniOORuntimeError("reflective read on a non-object")
    return MiniOORuntimeError("no such field %r on %s" % (name, obj.class_name))


def _divide(left, right):
    if right == 0:
        raise MiniOORuntimeError("division by zero")
    q = abs(left) // abs(right)
    return -q if (left < 0) != (right < 0) else q


_BINARY: dict[str, Callable] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
}

# A statement's code returns _RETURN when a `return` ended it and stored the
# value in the frame; `ret` keeps _NO_VALUE while no `return` has run.
_RETURN = object()
_NO_VALUE = object()


@dataclass(slots=True)
class _Frame:
    rt: "Interpreter"
    this: Optional[ObjectInstance]
    slots: list
    ret: object = _NO_VALUE


_Code = Callable[[_Frame], object]


def _constant(value) -> _Code:
    return lambda f: value


def _fault_after(parts: tuple, message: str) -> _Code:
    """Code that evaluates `parts` in order, then faults with `message`."""
    def run(f):
        for part in parts:
            part(f)
        raise MiniOORuntimeError(message)
    return run


def _reader(obj: _Code, name: str, fault: Callable) -> _Code:
    def run(f):
        o = obj(f)
        try:
            return o.fields[name]
        except (AttributeError, KeyError):
            raise fault(o, name) from None
    return run


class _Compiler:
    """Compiles one body into closures that capture only constants and other
    closures.  Local names are resolved to frame slots here, following the
    language's block scoping, so a local costs one list index at run time.
    `owner` is the lexically enclosing class; None marks the driver block,
    the one place with no `this`."""

    def __init__(self, owner: Optional[ClassDecl], params: list):
        self.owner = owner
        self.scopes: list[dict[str, int]] = [{p.name: i for i, p in enumerate(params)}]
        self.nslots = len(params)

    def slot(self, name: str) -> Optional[int]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def block(self, body: list, scoped: bool = True) -> _Code:
        if scoped:
            self.scopes.append({})
        steps = tuple(self.stmt(s) for s in body)
        if scoped:
            self.scopes.pop()
        if len(steps) == 1:
            return steps[0]
        def run(f):
            for step in steps:
                if step(f) is _RETURN:
                    return _RETURN
        return run

    def stmt(self, s) -> _Code:
        compile_stmt = getattr(self, "stmt_" + type(s).__name__, None)
        if compile_stmt is None:
            return _fault_after((), "unknown statement %r" % type(s).__name__)
        return compile_stmt(s)

    def expr(self, e) -> _Code:
        compile_expr = getattr(self, "expr_" + type(e).__name__, None)
        if compile_expr is None:
            return _fault_after((), "unknown expression %r" % type(e).__name__)
        return compile_expr(e)

    def exprs(self, es: list) -> tuple:
        return tuple(self.expr(e) for e in es)

    # -- statements ----------------------------------------------------------

    def stmt_LocalDecl(self, s) -> _Code:
        init = _constant(_zero_value(s.decl_type)) if s.init is None else self.expr(s.init)
        i = self.scopes[-1][s.name] = self.nslots
        self.nslots += 1
        def run(f):
            f.slots[i] = init(f)
        return run

    def stmt_Assign(self, s) -> _Code:
        value, target = self.expr(s.value), s.target
        i = self.slot(target.name) if isinstance(target, VarRead) else None
        if i is not None:
            def run(f):
                f.slots[i] = value(f)
        elif isinstance(target, VarRead):
            name = target.name
            def run(f):
                v, this = value(f), f.this
                if this is None or name not in this.fields:
                    raise MiniOORuntimeError("unknown variable %r" % name)
                this.fields[name] = v
        elif isinstance(target, FieldAccess):
            obj, name = self.expr(target.obj), target.name
            def run(f):
                v, o = value(f), obj(f)
                if not isinstance(o, ObjectInstance) or name not in o.fields:
                    raise _field_fault(o, name, "writing")
                o.fields[name] = v
        else:
            run = _fault_after((value,), "invalid assignment target")
        return run

    def stmt_IfStmt(self, s) -> _Code:
        cond, then = self.expr(s.cond), self.block(s.then_body)
        orelse = None if s.else_body is None else self.block(s.else_body)
        def run(f):
            c = cond(f)
            if c is True:
                return then(f)
            if c is False:
                return None if orelse is None else orelse(f)
            raise MiniOORuntimeError("condition is not a bool")
        return run

    def stmt_WhileStmt(self, s) -> _Code:
        cond, body = self.expr(s.cond), self.block(s.body)
        def run(f):
            while True:
                c = cond(f)
                if c is not True:
                    if c is False:
                        return None
                    raise MiniOORuntimeError("condition is not a bool")
                if body(f) is _RETURN:
                    return _RETURN
        return run

    def stmt_ReturnStmt(self, s) -> _Code:
        value = _constant(None) if s.value is None else self.expr(s.value)
        def run(f):
            f.ret = value(f)
            return _RETURN
        return run

    def stmt_ExprStmt(self, s) -> _Code:
        return self.expr(s.expr)  # no expression evaluates to _RETURN

    def stmt_PrintStmt(self, s) -> _Code:
        e = self.expr(s.value)
        def run(f):
            line = stringify(e(f))
            f.rt.output.append(line)
            f.rt.combined.append(line)
        return run

    def stmt_SuperCall(self, s) -> _Code:
        args, owner = self.exprs(s.args), self.owner
        if owner is None:
            return _fault_after((), "super(...) outside a constructor")
        if owner.super_class is None:
            return _fault_after((), "super(...) with no superclass")
        parent = owner.super_class.name
        return lambda f: f.rt._run_constructor(f.this, parent, [a(f) for a in args])

    def stmt_TraceStmt(self, s) -> _Code:
        obj, cls, phase, method = self.exprs([s.obj, s.check_class, s.phase, s.method])
        def run(f):
            rt = f.rt
            if rt.trace_enabled:  # the operands are evaluated only when tracing
                o = obj(f)
                if not isinstance(o, ObjectInstance):
                    raise MiniOORuntimeError("@trace target is not an object")
                line = "CHECK %d %s %s %s" % (o.obj_id, cls(f), phase(f), method(f))
                rt.trace.append(line)
                rt.combined.append(line)
        return run

    def stmt_ViolationStmt(self, s) -> _Code:
        cls, index, phase, method = self.exprs([s.check_class, s.index, s.phase, s.method])
        def run(f):
            raise _Violation(
                ViolationRecord(str(cls(f)), int(index(f)), str(phase(f)), str(method(f)))  # type: ignore[arg-type]
            )
        return run

    # -- expressions -----------------------------------------------------------

    def expr_IntLit(self, e) -> _Code:
        return _constant(e.value)

    expr_BoolLit = expr_StringLit = expr_IntLit

    def expr_NullLit(self, e) -> _Code:
        return _constant(None)

    def expr_ThisExpr(self, e) -> _Code:
        if self.owner is None:
            return _fault_after((), "this outside a method")
        return lambda f: f.this

    def expr_SuperExpr(self, e) -> _Code:
        return _fault_after((), "super outside a call")

    def expr_VarRead(self, e) -> _Code:
        i, name = self.slot(e.name), e.name
        if i is not None:
            return lambda f: f.slots[i]
        def run(f):
            this = f.this
            if this is not None and name in this.fields:
                return this.fields[name]
            raise MiniOORuntimeError("unknown variable %r" % name)
        return run

    def expr_FieldAccess(self, e) -> _Code:
        return self.field_read(e.obj, e.name, _field_fault)

    def expr_ReflectGet(self, e) -> _Code:
        return self.field_read(e.obj, e.field_name, _reflect_fault)

    def field_read(self, obj, name: str, fault: Callable) -> _Code:
        """A read of field `name` of `obj`.  Off `this` or a local it is one
        closure, not two: such reads are most of the work of a check loop."""
        i = self.slot(obj.name) if isinstance(obj, VarRead) else None
        if i is not None:
            def run(f):
                try:
                    return f.slots[i].fields[name]
                except (AttributeError, KeyError):
                    raise fault(f.slots[i], name) from None
            return run
        if isinstance(obj, ThisExpr) and self.owner is not None:
            def run(f):
                try:
                    return f.this.fields[name]
                except (AttributeError, KeyError):
                    raise fault(f.this, name) from None
            return run
        return _reader(self.expr(obj), name, fault)

    def expr_MethodCall(self, e) -> _Code:
        args, name, owner = self.exprs(e.args), e.name, self.owner
        if isinstance(e.receiver, SuperExpr):
            if owner is None:
                return _fault_after(args, "super call outside a method")
            return lambda f: f.rt._super_call(f.this, owner, name, [a(f) for a in args])
        if e.receiver is None:
            if owner is None:
                return _fault_after(args, "call of %r outside a class" % name)
            return lambda f: f.rt.dispatch_call(f.this, name, [a(f) for a in args])
        target = self.expr(e.receiver)
        def run(f):
            argv = [a(f) for a in args]  # arguments before the receiver
            o = target(f)
            if not isinstance(o, ObjectInstance):
                if o is None:
                    raise MiniOORuntimeError("null dereference calling %r" % name)
                raise MiniOORuntimeError("%r has no methods" % (o,))
            return f.rt.dispatch_call(o, name, argv)
        return run

    def expr_NewObject(self, e) -> _Code:
        args, class_name = self.exprs(e.args), e.type.name
        return lambda f: f.rt.construct(class_name, [a(f) for a in args])

    def expr_Binary(self, e) -> _Code:
        left, right, op = self.expr(e.left), self.expr(e.right), e.op
        if op == "&&":
            return lambda f: bool(right(f)) if left(f) else False
        if op == "||":
            return lambda f: True if left(f) else bool(right(f))
        fn = _BINARY.get(op)
        if fn is None:
            return _fault_after((left, right), "unknown operator %r" % op)
        return lambda f: fn(left(f), right(f))

    def expr_Unary(self, e) -> _Code:
        operand = self.expr(e.operand)
        if e.op == "!":
            return lambda f: not operand(f)
        return lambda f: -operand(f)

    def expr_SingletonRef(self, e) -> _Code:
        class_name = e.class_name
        return lambda f: f.rt.singleton(class_name)


@dataclass(slots=True)
class _Body:
    """A method or constructor with its declaring class, compiled on first run."""

    owner: ClassDecl
    decl: Union[MethodDecl, ConstructorDecl]
    code: Optional[tuple[_Code, int]] = None

    def enter(self, rt: "Interpreter", this: ObjectInstance, args: list) -> tuple[_Code, _Frame]:
        """The body's code and a fresh frame for it (the caller runs the code,
        which keeps one Python frame per MiniOO call off the stack)."""
        if self.code is None:
            compiler = _Compiler(self.owner, self.decl.params)
            self.code = compiler.block(self.decl.body, scoped=False), compiler.nslots  # type: ignore[arg-type]
        run, nslots = self.code
        return run, _Frame(rt, this, args + [None] * (nslots - len(args)))


@dataclass(slots=True)
class _Class:
    """A class's runtime tables: its superclass name, the zero-value field
    layout of its objects, its vtable and its constructor."""

    parent: Optional[str]
    layout: dict
    vtable: dict[str, _Body]
    ctor: Optional[_Body]


class Interpreter:
    """One execution per instance; not safe for concurrent use."""

    def __init__(self, unit: SourceUnit, trace: bool = False):
        self.unit = unit
        self.decls = {c.name: c for c in unit.classes}
        self.trace_enabled = trace
        self.output: list[str] = []
        self.trace: list[str] = []
        self.combined: list[str] = []
        self.singletons: dict[str, ObjectInstance] = {}
        self._classes: dict[str, _Class] = {}
        self._next_id = 0

    # -- object model -------------------------------------------------------

    def _class(self, name: str) -> Optional[_Class]:
        """The runtime tables of a declared class, built on first use."""
        c = self._classes.get(name)
        if c is not None or name not in self.decls:
            return c
        decl = self.decls[name]
        parent_name = None if decl.super_class is None else decl.super_class.name
        parent = None if parent_name is None else self._class(parent_name)
        inherited = {} if parent is None else parent.layout
        layout = dict(inherited)
        for f in decl.fields:
            if f.name in inherited:
                raise MiniOORuntimeError(
                    "field %r of %s shadows an inherited field (shadowing is not supported)"
                    % (f.name, name)
                )
            layout[f.name] = _zero_value(f.declared_type)
        vtable = {} if parent is None else dict(parent.vtable)
        for m in reversed(decl.methods):  # the first of two same-named methods wins
            if m.body is not None:
                vtable[m.name] = _Body(decl, m)
        ctor = None if decl.constructor is None else _Body(decl, decl.constructor)
        c = self._classes[name] = _Class(parent_name, layout, vtable, ctor)
        return c

    def construct(self, class_name: str, args: list) -> ObjectInstance:
        self._next_id += 1
        c = self._class(class_name)
        obj = ObjectInstance(class_name, self._next_id, {} if c is None else dict(c.layout))
        self._run_constructor(obj, class_name, args)
        return obj

    def _run_constructor(self, obj: ObjectInstance, class_name: str, args: list) -> None:
        c = self._class(class_name)
        if c is None:
            raise MiniOORuntimeError("unknown class %r" % class_name)
        if c.ctor is None:
            if c.parent is not None:
                self._run_constructor(obj, c.parent, [])
            return
        ctor = c.ctor.decl
        if len(args) != len(ctor.params):
            raise MiniOORuntimeError(
                "constructor of %s takes %d argument(s)" % (class_name, len(ctor.params))
            )
        explicit_super = bool(ctor.body) and isinstance(ctor.body[0], SuperCall)
        if not explicit_super and c.parent is not None:
            self._run_constructor(obj, c.parent, [])
        run, frame = c.ctor.enter(self, obj, args)
        run(frame)

    def reflect_get(self, obj: ObjectInstance, name: str):
        """Visibility-blind read of a field by name; the name is unique along
        the object's class chain because shadowing is rejected."""
        try:
            return obj.fields[name]
        except (AttributeError, KeyError):
            raise _reflect_fault(obj, name) from None

    def singleton(self, class_name: str) -> ObjectInstance:
        if class_name not in self.singletons:
            self.singletons[class_name] = self.construct(class_name, [])
        return self.singletons[class_name]

    # -- dispatch -----------------------------------------------------------

    def dispatch_call(self, receiver: ObjectInstance, name: str, args: list):
        """Execute the most-derived override of `name` on the receiver."""
        c = self._class(receiver.class_name)
        m = None if c is None else c.vtable.get(name)
        if m is None:
            raise MiniOORuntimeError(
                "no implementation of %r on %s" % (name, receiver.class_name)
            )
        return self._invoke(m, receiver, args)

    def _super_call(self, receiver: ObjectInstance, owner: ClassDecl, name: str, args: list):
        if owner.super_class is None:
            raise MiniOORuntimeError("no superclass for %s" % owner.name)
        c = self._class(owner.super_class.name)
        m = None if c is None else c.vtable.get(name)
        if m is None:
            raise MiniOORuntimeError("no implementation of %r above %s" % (name, owner.name))
        return self._invoke(m, receiver, args)

    def _invoke(self, m: _Body, receiver: ObjectInstance, args: list):
        decl = m.decl
        if len(args) != len(decl.params):
            raise MiniOORuntimeError(
                "%s.%s takes %d argument(s)" % (m.owner.name, decl.name, len(decl.params))
            )
        run, frame = m.enter(self, receiver, args)
        run(frame)
        if frame.ret is not _NO_VALUE:
            return frame.ret
        if decl.return_type is not None:
            raise MiniOORuntimeError(
                "%s.%s finished without returning a value" % (m.owner.name, decl.name)
            )
        return None

    # -- entry point ------------------------------------------------------------

    def run(self) -> ExecutionResult:
        if self.unit.driver is None:
            raise MiniOORuntimeError("no driver block to execute")
        compiler = _Compiler(None, [])
        frame = _Frame(self, None, [])
        violation = None
        try:
            # One statement at a time: a long driver runs each of its
            # statements once, so keeping their code would only cost memory.
            for s in self.unit.driver.body:
                step = compiler.stmt(s)
                frame.slots.extend([None] * (compiler.nslots - len(frame.slots)))
                if step(frame) is _RETURN:
                    break
        except _Violation as v:
            violation = v.record
        except (MiniOORuntimeError, RecursionError) as exc:
            fault = exc if isinstance(exc, MiniOORuntimeError) else MiniOORuntimeError(
                "MiniOO calls nested too deeply"
            )
            fault.result = ExecutionResult(self.output, self.trace, None, self.combined)
            raise fault
        return ExecutionResult(self.output, self.trace, violation, self.combined)


def run_program(unit: SourceUnit, check_trace: bool = False) -> ExecutionResult:
    """Execute the unit's driver block.  Invariant violations stop execution
    and are returned in the result; runtime faults raise MiniOORuntimeError,
    whose `result` holds the output produced before the fault."""
    return Interpreter(unit, trace=check_trace).run()
