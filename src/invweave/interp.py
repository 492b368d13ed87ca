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
finished run is freed by reference counting.  A read path (`n.next.prev`) is
one closure, which also stores or compares its value; operators read locals
and fields every `this` has inline; objects compare by identity through
Python's `==`: a woven invariant loop makes five Python calls per list node.

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
    Binary,
    ClassDecl,
    ConstructorDecl,
    FieldAccess,
    MethodDecl,
    NamedType,
    ReflectGet,
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


def _field_fault(obj, name: str, verb: Optional[str] = "reading") -> MiniOORuntimeError:
    if obj is None:  # verb None: a reflective read, `@field`
        message = "null dereference %s %r" % (verb or "in reflective read of", name)
    elif not isinstance(obj, ObjectInstance):
        message = "%r has no fields" % (obj,) if verb else "reflective read on a non-object"
    else:
        message = "no such field %r on %s" % (name, obj.class_name)
    return MiniOORuntimeError(message)


def _divide(left, right):
    if right == 0:
        raise MiniOORuntimeError("division by zero")
    q = abs(left) // abs(right)
    return -q if (left < 0) != (right < 0) else q


_BINARY: dict[str, Callable] = {  # `==` and `!=` are compared inline
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
_NO_STEP = (None, None)  # pads a read path's steps to the two a closure unrolls


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


def _path_fault(o, steps: tuple) -> MiniOORuntimeError:
    for name, verb in steps:  # the first step `o` cannot take
        if not isinstance(o, ObjectInstance) or name not in o.fields:
            return _field_fault(o, name, verb)
        o = o.fields[name]


def _path(root, steps: tuple, store: Optional[int] = None, eq=None, other: int = 0) -> _Code:
    """One closure for a read path: the (name, verb) `steps` taken in order from
    `root` (a frame slot, None for `this`, or code), faulting as nested reads
    would.  It returns the value, puts it in slot `store`, or compares it to
    slot `other` (`==` if `eq` is True, `!=` if False)."""
    if len(steps) > 2:  # two steps per closure, unrolled
        root, steps = _path(root, steps[:-2]), steps[-2:]
    slot, k, ((a, _), (b, _)) = isinstance(root, int), len(steps), (*steps, _NO_STEP, _NO_STEP)[:2]
    def run(f):
        o = r = f.slots[root] if slot else f.this if root is None else root(f)
        try:
            o = o.fields[a] if k == 1 else o.fields[a].fields[b] if k else o
        except (AttributeError, KeyError):
            raise _path_fault(r, steps) from None
        if store is None:
            return o if eq is None else (o == f.slots[other]) is eq
        f.slots[store] = o
    return run


class _Compiler:
    """Compiles one body into closures that capture only constants and other
    closures.  Local names are resolved to frame slots here, following the
    language's block scoping, so a local costs one list index at run time.
    `owner` is the lexically enclosing class; None marks the driver block,
    the one place with no `this`.  Every `this` of the body has `fields`."""

    def __init__(self, owner: Optional[ClassDecl], params: list, fields=()):
        self.owner, self.fields = owner, fields
        self.scopes: list[dict[str, int]] = [{p.name: i for i, p in enumerate(params)}]
        self.nslots = len(params)

    def slot(self, name: str) -> Optional[int]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def block(self, body: list) -> _Code:
        self.scopes.append({})
        steps = tuple([self.stmt(s) for s in body])
        self.scopes.pop()
        if len(steps) == 1:
            return steps[0]
        def run(f):
            for step in steps:
                if step(f) is _RETURN:
                    return _RETURN
        return run

    def stmt(self, s) -> _Code:
        compile_stmt = _STMT_RULES.get(type(s).__name__)
        if compile_stmt is None:
            return _fault_after((), "unknown statement %r" % type(s).__name__)
        return compile_stmt(self, s)

    def expr(self, e) -> _Code:
        compile_expr = _EXPR_RULES.get(type(e).__name__)
        if compile_expr is None:
            return _fault_after((), "unknown expression %r" % type(e).__name__)
        return compile_expr(self, e)

    def exprs(self, es: list) -> tuple:
        return tuple([self.expr(e) for e in es])

    # -- statements ----------------------------------------------------------

    def store(self, i: int, e, zero=None) -> _Code:
        """Code that puts `e` (`zero` if None) in slot `i`: one closure for a read path."""
        root, steps = self.path(e) or (_constant(zero) if e is None else self.expr(e), ())
        return _path(root, steps, store=i)

    def stmt_LocalDecl(self, s) -> _Code:
        run = self.store(self.nslots, s.init, _zero_value(s.decl_type))
        self.scopes[-1][s.name], self.nslots = self.nslots, self.nslots + 1
        return run

    def stmt_Assign(self, s) -> _Code:
        i = self.slot(s.target.name) if isinstance(s.target, VarRead) else None
        if i is not None:
            return self.store(i, s.value)
        value, target = self.expr(s.value), s.target
        if isinstance(target, VarRead):
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
        cond = self.expr(s.cond)
        self.scopes.append({})  # the loop calls the first statement itself, not via a block
        a = self.stmt(s.body[0]) if s.body else None
        b = self.block(s.body[1:]) if len(s.body) > 1 else None
        self.scopes.pop()
        def run(f):
            while True:
                c = cond(f)
                if c is not True:
                    if c is False:
                        return None
                    raise MiniOORuntimeError("condition is not a bool")
                if a is not None and a(f) is _RETURN or b is not None and b(f) is _RETURN:
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
        name, _, code = self.operand(e)  # a field every `this` has needs no check
        return code or (lambda f: f.this.fields[name])

    expr_ReflectGet = expr_FieldAccess

    def path(self, e) -> Optional[tuple]:
        """`e` as a `_path`'s (root, steps) if it is a read path, else None."""
        steps: tuple = ()
        while isinstance(e, (FieldAccess, ReflectGet)):
            is_field = isinstance(e, FieldAccess)
            steps = ((e.name, "reading") if is_field else (e.field_name, None),) + steps
            e = e.obj
        i = self.slot(e.name) if isinstance(e, VarRead) else None
        if i is not None or (isinstance(e, ThisExpr) and self.owner is not None):
            return i, steps
        return (self.expr(e), steps) if steps else None

    def operand(self, e, path=None) -> tuple:
        """(slot, True, None) or (name, False, None) for a local or a field every `this`
        has, which operators read inline: it cannot fault or act.  Else (None, False, code)."""
        root, steps = path or self.path(e) or (e, None)
        if isinstance(root, int) and not steps:
            return root, True, None
        if root is None and len(steps) == 1 and steps[0][0] in self.fields:
            return steps[0][0], False, None
        return None, False, self.expr(e) if steps is None else _path(root, steps)

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
            argv = [a(f) for a in args] if args else []  # arguments before the receiver
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

    def expr_Binary(self, e, op: str = "") -> _Code:
        op, fn = op or e.op, _BINARY.get(op or e.op)
        if op in ("&&", "||"):
            (k, s, left), right, short = self.operand(e.left), self.expr(e.right), op == "||"
            def run(f):
                if f.slots[k] if s else f.this.fields[k] if left is None else left(f):
                    return True if short or right(f) else False
                return True if short and right(f) else False
            return run
        eq = {"==": True, "!=": False}.get(op)  # compared inline: a != b is (a == b) is False
        if fn is None and eq is None:
            return _fault_after(self.exprs([e.left, e.right]), "unknown operator %r" % op)
        (rk, rs, right), path = self.operand(e.right), self.path(e.left)
        if eq is not None and rs and path and path[1]:
            return _path(*path, eq=eq, other=rk)  # a read path compared to a local: one closure
        lk, ls, left = self.operand(e.left, path or (e.left, None))
        def run(f):
            a = f.slots[lk] if ls else f.this.fields[lk] if left is None else left(f)
            b = f.slots[rk] if rs else f.this.fields[rk] if right is None else right(f)
            return fn(a, b) if eq is None else (a == b) is eq
        return run

    def expr_Unary(self, e) -> _Code:
        if e.op == "!" and isinstance(e.operand, Binary) and e.operand.op in ("==", "!="):
            # not (a == b) is a != b: every MiniOO value's `!=` negates its `==`
            return self.expr_Binary(e.operand, "!=" if e.operand.op == "==" else "==")
        operand = self.expr(e.operand)
        if e.op == "!":
            return lambda f: not operand(f)
        return lambda f: -operand(f)

    def expr_SingletonRef(self, e) -> _Code:
        class_name = e.class_name
        return lambda f: f.rt.singleton(class_name)


_STMT_RULES = {n[5:]: rule for n, rule in vars(_Compiler).items() if n.startswith("stmt_")}
_EXPR_RULES = {n[5:]: rule for n, rule in vars(_Compiler).items() if n.startswith("expr_")}


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
            compiler = _Compiler(self.owner, self.decl.params, rt._classes[self.owner.name].layout)
            self.code = compiler.block(self.decl.body), compiler.nslots  # type: ignore[arg-type]
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
        """The runtime tables of a declared class, built on first use after its ancestors'."""
        if (c := self._classes.get(name)) is not None:
            return c
        chain, up = [], name  # the classes to build, leaf first
        while up in self.decls and up not in self._classes:
            chain.append(self.decls[up])
            if len(chain) > len(self.decls):
                raise MiniOORuntimeError("inheritance cycle through %r" % up)
            up = getattr(chain[-1].super_class, "name", None)
        for decl in reversed(chain):
            parent_name = None if decl.super_class is None else decl.super_class.name
            parent = self._classes.get(parent_name)  # type: ignore[arg-type]
            inherited = {} if parent is None else parent.layout
            layout = dict(inherited)
            for f in decl.fields:
                if f.name in inherited:
                    raise MiniOORuntimeError(
                        "field %r of %s shadows an inherited field (shadowing is not supported)"
                        % (f.name, decl.name)
                    )
                layout[f.name] = _zero_value(f.declared_type)
            vtable = {} if parent is None else dict(parent.vtable)
            for m in reversed(decl.methods):  # the first of two same-named methods wins
                if m.body is not None:
                    vtable[m.name] = _Body(decl, m)
            ctor = None if decl.constructor is None else _Body(decl, decl.constructor)
            self._classes[decl.name] = _Class(parent_name, layout, vtable, ctor)
        return self._classes.get(name)

    def construct(self, class_name: str, args: list) -> ObjectInstance:
        self._next_id += 1
        c = self._class(class_name)
        obj = ObjectInstance(class_name, self._next_id, {} if c is None else dict(c.layout))
        self._run_constructor(obj, class_name, args)
        return obj

    def _run_constructor(self, obj: ObjectInstance, class_name: str, args: list) -> None:
        """Checks arities up the implicit `super()` chain, then runs the bodies top-down."""
        bodies = []
        while class_name is not None:
            c = self._class(class_name)
            if c is None:
                raise MiniOORuntimeError("unknown class %r" % class_name)
            if (ctor := c.ctor and c.ctor.decl) is not None:
                if len(args) != len(ctor.params):
                    raise MiniOORuntimeError(
                        "constructor of %s takes %d argument(s)" % (class_name, len(ctor.params))
                    )
                bodies.append(c.ctor.enter(self, obj, args))
                if ctor.body and isinstance(ctor.body[0], SuperCall):
                    break
            class_name, args = c.parent, []
        for run, frame in reversed(bodies):
            run(frame)

    def reflect_get(self, obj: ObjectInstance, name: str):
        """Visibility-blind read of a field by name; the name is unique along
        the object's class chain because shadowing is rejected."""
        try:
            return obj.fields[name]
        except (AttributeError, KeyError):
            raise _field_fault(obj, name, None) from None

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
