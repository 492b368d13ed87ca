"""Compiling interpreter for MiniOO.

Each class gets runtime tables: its objects' layout and Python class, its
vtable and its constructor.  They are built the first time a run needs them
and kept in the class declaration's `_code` slot (declarations are never
changed once run, see `syntax`), one set for each set of its superclass's
tables, so a run over a hierarchy an earlier run used builds none.  Each
class layout has its own Python class: its `__slots__` are the layout's
fields, each under the prefix `f_`, and its `__init__` sets their zero
values.  An object holds its class's vtable, which maps each method name,
and the name with the arity of its most-derived implementation (`size/0`),
to that implementation, so `this`-calls in original bodies land on woven
wrappers.

Each method and constructor body becomes the source of one Python function
`(rt, depth, this, *params)`, compiled the first time any run reaches it and
kept in its tables; it is named after its declaration (`List.add`,
`List.<init>`), so a profile tells the bodies apart.  MiniOO locals are
Python locals, each kept with its declared type.
`==` and `!=` are Python's `is` and `is not` where an operand is `null`,
`this`, a `new` or such a local, and Python's own elsewhere: in a unit that
typechecks, such a value is an object or null, and those compare by identity.
A call is one Python call through the receiver's vtable,
`o.vt['size/0'].fn(rt, d + 1, o)`; its arguments and receiver are put in
names first, unless literals, as MiniOO evaluates them before the lookup.
Each method body starts by checking its depth and drawing a step (below).
The driver runs once, so its simple statements (`_op`) are not compiled: each
is one op, five plain values in a table that `Interpreter.run` walks.  The
others are emitted as bodies are, as `<driver>` at depth 0, at most `_CHUNK`
in a row to one function; ops and functions share the driver's locals.

A read path (`n.next.prev`) is plain attribute loads (`n.f_next.f_prev`), and
a field write one store; fields every `this` has are read and written with no
check at all.  Bodies and driver chunks handle no exception: each function's
sites are kept with its code (`_SITES`), and when the instruction that raised an
AttributeError or KeyError is a site, `Interpreter.run`, where every run is
entered, turns it into a fault (`_read_fault`).  A read's fault is built from
the value and field the AttributeError names, so faults and messages are
those of reading one step at a time.  A write, or a call that finds no
method, is told from the local it went through.  Deep expressions are
spilled into temporaries in evaluation order, and deeply nested statements
into closures.

A run has a budget of steps, one shared iterator: each `while` loop draws a
step per pass, as does each call and construction, and a run that needs more
is a fault.  The same program always stops at the same step.

A run produces printed output lines, an optional check-event trace
(`CHECK <object-id> <class> <entry|exit|construction> <method>`, one line
per check point), and an optional violation record when a woven check
fails, at which point execution stops.

A unit that holds a check body the weaver marked (in a class's `_mark`, see
`weave`) logs its field writes: each store its bodies and driver make
appends the object it wrote to `rt.log`, except a generated class's stores
of its own bookkeeping fields in `this`.  The log holds at most `_LOG_SIZE`
entries.  Its bodies and driver are compiled apart from those of other units.
Each marked check body is compiled into one closure with its re-check plan
(`_replaying`).  A pass
of the body that constructed, wrote and printed nothing is kept with the
log's length.  The body's next check of that object, at no greater depth, is
replayed if nothing has been logged since: the run draws the steps the pass
took and goes on, as predicates only read fields.  After writes, a check
whose quantified predicates all walk a chain of nodes by one field (the
`forall (n = head; n != tail; n = n.next)` shape) is re-checked from the
nodes its pass walked and the objects written since (`recheck`).  Any other
check runs in full.
"""

from __future__ import annotations

import itertools
import sys
import weakref
from collections import deque, namedtuple
from types import CodeType
from typing import Callable, Optional, Union

from .syntax import (
    Binary, BoolLit, ClassDecl, ConstructorDecl, DriverBlock, FieldAccess, IfStmt, LocalDecl, MethodCall, MethodDecl,
    NamedType, NewObject, Record, ReflectGet, SourceUnit, SuperCall, SuperExpr, ThisExpr, TypeExpr, Unary, VarRead,
    WhileStmt,
)

# Calls and constructions nested deeper are a runtime fault, well before Python's frame limit.
MAX_CALL_DEPTH = 256
_TOO_DEEP = "MiniOO calls nested too deeply"
# Loop passes, calls and constructions a run may take by default: every corpus program needs far fewer.
MAX_STEPS = 10_000_000
_LOG_SIZE = 1 << 14  # entries the write log holds; once full, every kept pass is dropped


class MiniOORuntimeError(Exception):
    """Runtime fault (null dereference, missing field, ...): aborts the run.
    Raised out of a run, `result` holds what the run produced before it."""

    result: Optional["ExecutionResult"] = None


class ViolationRecord(Record):
    __slots__ = ("class_name", "predicate_index", "phase", "method")
    def __init__(self, class_name: str, predicate_index: int, phase: str, method: str):
        self.class_name, self.predicate_index = class_name, predicate_index
        self.phase = phase  # entry | exit | construction
        self.method = method  # method name or "<init>"

    def __str__(self) -> str:
        return "VIOLATION %s %d %s %s" % (self.class_name, self.predicate_index, self.phase, self.method)


class _Violation(Exception):
    def __init__(self, record: ViolationRecord):
        super().__init__(str(record))
        self.record = record


class ObjectInstance:  # not a Record: `==` on objects is identity, as in MiniOO
    """The base of the Python class of each object layout (see `_class_tables`),
    whose slots hold the fields, each under the prefix `f_`."""

    __slots__ = ("class_name", "obj_id", "vt")  # `vt` is its class's vtable
    def __init__(self, class_name: str, obj_id: int, vt: dict):
        self.class_name, self.obj_id, self.vt = class_name, obj_id, vt

    def __repr__(self) -> str:
        return "%s@%d" % (self.class_name, self.obj_id)


class ExecutionResult(Record):
    __slots__ = ("output", "trace", "violation", "combined")
    def __init__(self, output: list, trace: list, violation: ViolationRecord | None, combined: list | None = None):
        self.output, self.trace, self.violation = output, trace, violation
        self.combined = [] if combined is None else combined  # output and trace, interleaved


_ZERO = {"int": 0, "bool": False, "string": ""}


def _zero_value(t: TypeExpr):
    return _ZERO.get(t.name) if isinstance(t, NamedType) else None


def stringify(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    try:
        return repr(value) if isinstance(value, ObjectInstance) else str(value)
    except ValueError:  # an int past Python's limit on digits converted to text
        limit = sys.get_int_max_str_digits()
        raise MiniOORuntimeError("integer of more than %d digits cannot be printed" % limit) from None


def _field_fault(obj, name: str, verb: Optional[str] = "reading") -> MiniOORuntimeError:
    if obj is None:  # verb None: a reflective read, `@field`
        message = "null dereference %s %r" % (verb or "in reflective read of", name)
    elif not isinstance(obj, ObjectInstance):
        message = "%r has no fields" % (obj,) if verb else "reflective read on a non-object"
    else:
        message = "no such field %r on %s" % (name, obj.class_name)
    return MiniOORuntimeError(message)


# id of the code of an emitted function or closure -> its function's sites (`_Emitter.build`), while the
# code lives.  Code objects compare by value, and `p.next` and `@field(p, "next")` emit alike but mark apart.
_SITES: dict = {}


def _read_fault(exc: Exception) -> Exception:
    """The fault of an AttributeError or KeyError that an instruction of emitted code at a site raised,
    or else `exc`.  A site maps the position of each read path to its verb, of each field write to its
    target local and field, of each call to its receiver local, key and None (a super call: its
    superclass's name, key and where), and of other sites to a message."""
    tb = exc.__traceback__
    while tb.tb_next is not None:  # the innermost frame
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    if (sites := _SITES.get(id(code))) is None:
        return exc  # raised below the emitted code
    pos = next(itertools.islice(code.co_positions(), tb.tb_lasti // 2, None), None)
    site = sites.get(pos and (pos[0], pos[2]), exc)
    if not isinstance(site, tuple):
        return site if site is exc else MiniOORuntimeError(site)
    if len(site) == 1:  # the load that failed names its value and field
        return _field_fault(exc.obj, exc.name[2:], *site)
    f = tb.tb_frame.f_locals
    if len(site) == 2:
        return _field_fault(f[site[0]], site[1], "writing")
    o, key, where = site
    return _no_method(key, f[o] if where is None else f["rt"]._classes[o].vt, where)


def _divide(left, right):
    if right == 0:
        raise MiniOORuntimeError("division by zero")
    q = abs(left) // abs(right)
    return -q if (left < 0) != (right < 0) else q


def _fail(message: str, *evaluated):  # a fault after the operands before it
    raise MiniOORuntimeError(message)


def _print(rt: "Interpreter", value) -> None:
    line = stringify(value)
    rt.output.append(line)
    rt.combined.append(line)


def _no_method(key: str, o, where: Optional[str] = None) -> MiniOORuntimeError:
    """Why `key` (`name/arity`) is not in `o`'s vtable or, given `where`, in `o`, a superclass's vtable."""
    name = key.rpartition("/")[0]
    if where is None:
        if not isinstance(o, ObjectInstance):
            message = "null dereference calling %r" % name if o is None else "%r has no methods" % (o,)
            return MiniOORuntimeError(message)
        o, where = o.vt, "on " + o.class_name
    if (m := o.get(name)) is None:
        return MiniOORuntimeError("no implementation of %r %s" % (name, where))
    return MiniOORuntimeError("%s takes %d argument(s)" % (m.name, m.arity))


_NS: dict = {  # the globals of emitted code
    "_err": MiniOORuntimeError, "_Obj": ObjectInstance, "_Violation": _Violation, "_VR": ViolationRecord,
    "_div": _divide, "_fail": _fail, "_print": _print,
    "_TOO_DEEP": _TOO_DEEP, "MAX_CALL_DEPTH": MAX_CALL_DEPTH,
}


# Python precedence of emitted text, lowest first (0: a conditional expression).
_OR, _AND, _NOT, _CMP, _ADD, _MUL, _NEG, _ATOM = range(1, 9)
_PREC = {"==": _CMP, "!=": _CMP, "<": _CMP, "<=": _CMP, ">": _CMP, ">=": _CMP, "+": _ADD, "-": _ADD, "*": _MUL}
_LIMIT = 40  # nesting of emitted text beyond which a value is spilled into a temporary
_MAX_NEST, _MAX_LOOPS = 64, 18  # nested blocks and loops per function; CPython allows 99 and 19
_CHUNK = 50  # compiled top-level driver statements in a row per emitted function
_LITERALS = ("IntLit", "BoolLit", "StringLit", "NullLit")
_IS = {"==": "is", "!=": "is not"}  # on an object or null, identity gives what `==` gives
_REFS = ("NullLit", "ThisExpr", "NewObject")  # the expressions whose value is always an object or null


def _is_bool(e) -> bool:  # whether `e`'s value is always a bool, so a condition needs no check
    if isinstance(e, Binary):
        return e.op in ("&&", "||") or _PREC.get(e.op) == _CMP
    return isinstance(e, BoolLit) or isinstance(e, Unary) and e.op == "!"


class _Emitter:
    """Emits the Python source of one body, or of one chunk of a driver, as a
    function.  `owner` is the enclosing class, None in the driver; every
    `this` has `fields`.  An expression is a fragment `(pre, text, prec,
    height, stable)`: `pre` lists the (temporary, text, height) spills done
    before `text`; a stable text is a name nothing else in the statement sets."""

    def __init__(self, owner: Optional[ClassDecl], fields=(), unlogged: Optional[tuple] = None):
        self.owner, self.fields = owner, fields
        self.unlogged = unlogged  # in a unit that logs writes, the fields whose stores in `this` it does not log
        self.locals: dict[str, tuple] = {}  # MiniOO name -> (Python text, declared type), for the names in scope
        self.ntemps = self.nest = self.loops = 0
        self.sites: list = []  # what `\x01<k>\x02` in a line marks: a read path, a write, a call or a fault message
        self.marked: dict = {}  # the site at each (line, column) of the functions emitted
        self.out, self.lines = [], []  # the lines of the finished functions, of the one being emitted
        self.defs, self.boxed = [], owner is None  # its closures; whether it returns `(value,)`

    def declare(self, name: str, t: TypeExpr) -> str:  # a shadowed name is in `locals`, so its new number is higher
        text = "%s_%d" % (name, len(self.locals))
        self.locals[name] = text, t
        return text

    def local(self, name: str) -> Optional[str]:  # the Python text of a local in scope, or None
        return self.locals.get(name, (None,))[0]

    def texts(self) -> str:  # the Python names of the locals in scope
        return ", ".join(text for text, _ in self.locals.values())

    def temp(self) -> str:
        self.ntemps += 1
        return "_t%d" % self.ntemps

    def site(self, payload) -> str:
        self.sites.append(payload)
        return "\x01%d\x02" % (len(self.sites) - 1)

    def logged(self, obj: str, field: Optional[str] = None) -> str:  # what follows a store of `field` into `obj`
        return "" if self.unlogged is None or field in self.unlogged else "; rt.log.append(%s)" % obj

    def line(self, *texts: str) -> None:
        self.lines += [" " * (self.nest + 2) + text for text in texts]

    def finish(self, head: str, prologue: list) -> None:
        """Close the function, noting the position of each marked site."""
        for text in [head] + ["  " + p for p in prologue] + self.defs + (self.lines or ["  pass"]):
            text, *parts = text.split("\x01")
            for part in parts:
                k, rest = part.split("\x02", 1)
                self.marked[len(self.out) + 1, len(text)] = self.sites[int(k)]
                text += rest
            self.out.append(text)
        self.lines, self.defs = [], []

    def build(self, name: str) -> Callable:
        """The one function emitted, named `name`, its globals `_NS`; its sites go to `_SITES`."""
        exec(compile("\n".join(self.out), "<minioo>", "exec"), _NS)
        self.out, fn = [], _NS.pop("_f")
        fn.__code__ = fn.__code__.replace(co_name=name, co_qualname=name)
        codes = [fn.__code__] if self.marked else []
        for code in codes:  # the function's, then its closures'
            _SITES[id(code)] = self.marked
            weakref.finalize(code, _SITES.pop, id(code))
            codes += [c for c in code.co_consts if isinstance(c, CodeType)]
        self.marked = {}
        return fn

    def block(self, body: list, loop: int = 0) -> None:
        outer = dict(self.locals)
        self.nest, self.loops = self.nest + 1, self.loops + loop
        for s in body:  # `emitter` returns first, so a level of nesting costs two Python frames
            self.emitter(s)(s)
        self.line("pass")  # for an empty block
        self.nest, self.loops = self.nest - 1, self.loops - loop
        self.locals = outer

    def emitter(self, s) -> Callable:  # what emits statement `s`, given it
        if isinstance(s, (IfStmt, WhileStmt)) and (self.nest >= _MAX_NEST or self.loops >= _MAX_LOOPS):
            return self.split
        return getattr(self, "s_" + type(s).__name__, self.s_unknown)

    def s_unknown(self, s) -> None:
        self.line("raise _err(%s)" % ascii("unknown statement %r" % type(s).__name__))

    def split(self, s) -> None:
        """Emit `s` as a closure, defined at the top of the function being emitted,
        that shares its locals: CPython nests blocks and loops in one function only so deep."""
        outer = self.lines, self.defs, self.nest, self.loops, self.boxed
        self.lines, self.defs, self.nest, self.loops, self.boxed = [], [], 0, 0, True
        self.emitter(s)(s)
        body = ["  nonlocal " + self.texts()] * bool(self.locals) + self.defs + self.lines
        self.lines, self.defs, self.nest, self.loops, self.boxed = outer
        self.defs += ["  def %s():" % (f := self.temp())] + [" " + text for text in body]
        self.line("if (%s := %s()) is not None:" % (r := self.temp(), f), " return " + r + "[0]" * (not self.boxed))

    def values(self, *es) -> list:  # the texts of `es`, their spills as statements before
        pre, frags = self.seq([self.expr(e) for e in es])
        self.line(*("%s = %s" % (t, x) for t, x, _ in pre))
        return [f[0] for f in frags]

    def s_LocalDecl(self, s) -> None:
        init = repr(_zero_value(s.decl_type)) if s.init is None else self.values(s.init)[0]
        self.line("%s = %s" % (self.declare(s.name, s.decl_type), init))

    def s_Assign(self, s) -> None:
        target, message = s.target, None
        name, obj = getattr(target, "name", None), getattr(target, "obj", ThisExpr())
        if isinstance(target, VarRead):
            if (text := self.local(name)) is not None:
                return self.line("%s = %s" % (text, *self.values(s.value)))
            if self.owner and name in self.fields:
                return self.line("this.f_%s = %s" % (name, *self.values(s.value)) + self.logged("this", name))
            message = "unknown variable %r" % name  # unless a subclass's `this` has the field
            if self.owner is None:
                return self.line("_fail(%s, %s)" % (ascii(message), *self.values(s.value)))
        elif not isinstance(target, FieldAccess):
            return self.line("_fail('invalid assignment target', %s)" % tuple(self.values(s.value)))
        elif isinstance(obj, ThisExpr) and self.owner is not None and name in self.fields:
            return self.line("this.f_%s = %s" % (name, *self.values(s.value)) + self.logged("this", name))
        pre, ((v, _, _, stable), (o, *_)) = self.seq([self.expr(s.value), self.expr(obj)])
        self.line(*("%s = %s" % (t, x) for t, x, _ in pre))
        if not stable:  # the value is taken before the object
            self.line("%s = %s" % (t := self.temp(), v))
            v = t
        if not self.named(o):
            self.line("%s = %s" % (t := self.temp(), o))
            o = t
        self.line(self.site(message or (o, name)) + "%s.f_%s = %s" % (o, name, v) + self.logged(o))

    def s_IfStmt(self, s) -> None:
        known, t = _is_bool(s.cond), self.temp()
        cond = self.values(s.cond)[0]
        self.line("if %s:" % cond if known else "if (%s := %s) is True:" % (t, cond))
        self.block(s.then_body)
        if not known:
            self.line("elif %s is not False:" % t, " raise _err('condition is not a bool')")
        if s.else_body is not None:
            self.line("else:")
            self.block(s.else_body)

    def s_WhileStmt(self, s) -> None:
        """`if cond:`, then a loop that draws one step of the run's budget per pass
        and tests `cond` again at its end; a loop that runs out of steps is a fault."""
        known, t = _is_bool(s.cond), self.temp()
        cond = self.inline(self.expr(s.cond))[0]  # evaluated before every pass
        self.line("if %s:" % cond if known else "if (%s := %s) is True:" % (t, cond), " for _ in rt.ticks:")
        self.nest += 1
        self.block(s.body, 1)
        self.line(" if not (%s):" % cond if known else " if (%s := %s) is not True:" % (t, cond), "  break")
        self.line("else:", " raise rt.spent()")
        self.nest -= 1
        if not known:
            self.line("if %s is not False:" % t, " raise _err('condition is not a bool')")

    def s_ReturnStmt(self, s) -> None:
        v = "None" if s.value is None else self.values(s.value)[0]
        self.line("return (%s,)" % v if self.boxed else "return " + v)

    def s_ExprStmt(self, s) -> None:
        self.line(self.values(s.expr)[0])

    def s_PrintStmt(self, s) -> None:
        self.line("_print(rt, %s)" % tuple(self.values(s.value)))

    def s_SuperCall(self, s) -> None:
        if self.owner is None or self.owner.super_class is None:
            where = "outside a constructor" if self.owner is None else "with no superclass"
            return self.line("raise _err('super(...) %s')" % where)
        args = ", ".join(self.values(*s.args))
        self.line("rt.init(this, %s, [%s], d)" % (ascii(self.owner.super_class.name), args))

    def s_TraceStmt(self, s) -> None:
        self.line("if rt.trace_enabled:")  # the operands are evaluated only when tracing
        self.nest += 1
        obj = self.values(s.obj)[0]
        if not (isinstance(s.obj, ThisExpr) and self.owner is not None):
            self.line("if not isinstance(%s := %s, _Obj):" % (t := self.temp(), obj))
            self.line(" raise _err('@trace target is not an object')")
            obj = t
        args = ", ".join(self.values(s.check_class, s.phase, s.method))
        self.line("%s = 'CHECK %%d %%s %%s %%s' %% (%s.obj_id, %s)" % (t := self.temp(), obj, args))
        self.line("rt.trace.append(%s)" % t, "rt.combined.append(%s)" % t)
        self.nest -= 1

    def s_ViolationStmt(self, s) -> None:
        args = self.values(s.check_class, s.index, s.phase, s.method)
        self.line("raise _Violation(_VR(str(%s), int(%s), str(%s), str(%s)))" % tuple(args))

    def expr(self, e) -> tuple:
        """`e` as a fragment, built children first from a stack, not by recursion."""
        todo, done = [(e, 0)], []
        while todo:
            node, n = todo.pop()
            if n:
                args = done[-n:]
                del done[-n:]
                done.append(self.node(node, args))
            elif kids := self.kids(node):
                todo.append((node, len(kids)))
                todo += [(k, 0) for k in reversed(kids)]
            else:
                done.append(self.node(node, ()))
        return done[0]

    def kids(self, e) -> list:  # the operands of `e` that are fragments of their own
        if isinstance(e, (FieldAccess, ReflectGet)):
            return [e.obj]
        if isinstance(e, Binary):
            return [e.left, e.right]
        if isinstance(e, Unary):
            o = e.operand
            return [o.left, o.right] if e.op == "!" and isinstance(o, Binary) and o.op in ("==", "!=") else [o]
        receiver = [r] if (r := getattr(e, "receiver", None)) is not None and not isinstance(r, SuperExpr) else []
        return getattr(e, "args", []) + receiver

    def node(self, e, args: list) -> tuple:
        kind = type(e).__name__
        if kind == "VarRead":
            return self.var(e.name)
        if kind == "MethodCall":
            return self.call(e, args)
        if kind in _LITERALS:
            text = ascii(v) if isinstance(v := getattr(e, "value", None), str) else repr(v)
            return [], "(%s)" % text if text[0] == "-" else text, _ATOM, 1, True
        if kind in ("FieldAccess", "ReflectGet"):
            return self.read((e.name, "reading") if kind == "FieldAccess" else (e.field_name, None), args[0])
        if kind == "Binary":
            return self.binary(e.op, args, self.refs(e))
        if kind == "Unary":
            o = e.operand
            if e.op == "!" and isinstance(o, Binary) and o.op in ("==", "!="):
                return self.binary("!=" if o.op == "==" else "==", args, self.refs(o))  # !(a == b) is a != b
            (pre, text, prec, h, _), = args
            op, need = ("not ", _NOT) if e.op == "!" else ("-", _NEG)
            return self.done(list(pre), op + self.wrap(text, prec, need), need, h + 1)
        if kind == "NewObject":
            head, tail = self.new(e)
            return self.apply(head, args, tail)
        if kind == "ThisExpr" and self.owner is not None:
            return [], "this", _ATOM, 1, True
        if kind == "SingletonRef":
            return [], "_singleton(rt, %s, d)" % ascii(e.class_name), _ATOM, 1, False
        messages = {"ThisExpr": "this outside a method", "SuperExpr": "super outside a call"}
        return self.fail(messages.get(kind, "unknown expression %r" % kind), [])

    @staticmethod
    def wrap(text: str, prec: int, need: int) -> str:
        return "(%s)" % text if prec < need else text

    @staticmethod
    def named(text: str) -> bool:  # a local, `this` or a temporary, for a fault handler to read
        return text.isidentifier() and text not in ("True", "False", "None")

    def done(self, pre: list, text: str, prec: int, h: int, stable: bool = False) -> tuple:
        if h > _LIMIT:  # too deep for CPython: the value goes to a temporary
            return self.spill(pre, text, h)
        return pre, text, prec, h, stable

    def spill(self, pre: list, text: str, h: int) -> tuple:  # the value of `text` in a temporary
        return [*pre, (t := self.temp(), text, h)], t, _ATOM, 1, True

    def seq(self, frags: list) -> tuple:
        """The spills and (text, prec, height, stable) of `frags` evaluated in order:
        a text is spilled first where a later fragment's spills could change it."""
        pre, out = [], []
        for f in frags:
            if f[0]:
                for i, (text, _, h, stable) in enumerate(out):
                    if not stable:
                        pre.append((t := self.temp(), text, h))
                        out[i] = t, _ATOM, 1, True
                pre += f[0]
            out.append(f[1:])
        return pre, out

    def inline(self, frag: tuple) -> tuple:
        """(text, prec, height) of `frag` as one expression, its spills included."""
        pre, text, prec, h = frag[:4]
        if not pre:
            return text, prec, h
        spills = "".join("%s := %s, " % (t, x) for t, x, _ in pre)
        return "(%s%s)[-1]" % (spills, text), _ATOM, max([p[2] for p in pre] + [h]) + 2

    def apply(self, head: str, args: list, tail: str = ")") -> tuple:
        """`head`, the texts of `args` evaluated in order, then `tail`."""
        pre, frags = self.seq(args)
        text = head + ", ".join(f[0] for f in frags) + tail
        return self.done(pre, text, _ATOM, max([f[2] for f in frags] + [0]) + 2)

    def fail(self, message: str, args: list) -> tuple:
        return self.apply("_fail(%s%s" % (ascii(message), ", " * bool(args)), args)

    def var(self, name: str) -> tuple:
        if (text := self.local(name)) is not None:
            return [], text, _ATOM, 1, True
        if self.owner is None:
            return self.fail("unknown variable %r" % name, [])
        if name in self.fields:  # as `this.name`
            return self.read((name, "reading"), ([], "this", _ATOM, 1, True))
        return [], self.site("unknown variable %r" % name) + "this.f_" + name, _ATOM, 2, False

    def read(self, step: tuple, obj: tuple) -> tuple:
        """A read of the (name, verb) `step` from `obj`, one attribute, marked with its verb.  The
        steps of a path with one verb from a name or a `this.` path share the mark of the first;
        any other `obj` goes in parentheses, so that each mark keeps a position of its own."""
        (name, verb), (pre, text, _, h, _) = step, obj
        attr = "f_" + name
        if text == "this" and name in self.fields:  # every `this` has it
            return pre, "this." + attr, _ATOM, 2, False
        if not (attr.isascii() and attr.isidentifier()):  # a reflective read of a name no field has
            return self.done(pre, self.site((verb,)) + "getattr(%s, %s)" % (text, ascii(attr)), _ATOM, h + 2)
        mark, _, chain = text.partition("\x02") if text[0] == "\x01" else ("", "", text)
        if not all(map(str.isidentifier, chain.split("."))) or mark and self.sites[int(mark[1:])] != (verb,):
            text, h, mark = "(%s)" % text, h + 1, ""  # not a bare chain of names, or not of this verb
        if not mark:
            text = self.site((verb,)) + text
        return self.done(pre, text + "." + attr, _ATOM, h + 2)

    def new(self, e) -> tuple:  # the text of a `new` before and after its arguments
        if e.args:
            return "_new(rt, %s, [" % ascii(e.type.name), "], d)"
        return "_new(rt, %s, (), d" % ascii(e.type.name), ")"

    def call(self, e, args: list) -> tuple:
        n, owner, receiver = len(e.args), self.owner, e.receiver
        key = "%s/%d" % (e.name, n)
        if isinstance(receiver, SuperExpr):
            if owner is None or owner.super_class is None:
                where = "no superclass for %s" % owner.name if owner else "super call outside a method"
                return self.fail(where, args)
        elif receiver is None and owner is None:
            return self.fail("call of %r outside a class" % e.name, args)
        # Python looks the method up before it evaluates the arguments: they and the receiver go first
        args = [f if f[4] and (i < n or self.named(f[1])) else self.spill(f[0], f[1], f[3]) for i, f in enumerate(args)]
        pre, frags = self.seq(args)
        *texts, o = [f[0] for f in frags] + ["this"] * (len(frags) == n)
        head, site = o, (o, key, None)
        if isinstance(receiver, SuperExpr):  # `this` was made, so the superclass has its tables
            head = "rt._classes[%s]" % ascii(owner.super_class.name)
            site = owner.super_class.name, key, "above " + owner.name
        text = "%s.vt[%s].fn(rt, d + 1, %s)" % (head, ascii(key), ", ".join([o, *texts]))
        return pre, self.site(site) + text, _ATOM, 4, False

    def refs(self, e: Binary) -> bool:
        """Whether `e` is `==` or `!=` with an operand that, in a unit that typechecks, is an
        object or null: `null`, `this`, a `new`, or a local of class or interface type."""
        for o in (e.left, e.right) if e.op in _IS else ():
            t = self.locals.get(o.name, (None, None))[1] if isinstance(o, VarRead) else None
            if type(o).__name__ in _REFS or isinstance(t, NamedType) and t.name not in _ZERO:
                return True
        return False

    def binary(self, op: str, args: list, same: bool = False) -> tuple:  # `same`: `==`/`!=` as `is`/`is not`
        if op in ("&&", "||"):  # a bool; as a condition CPython compiles this to jumps alone
            (pre, a, ap, ah, _), b = args
            word, p = ("and", _AND) if op == "&&" else ("or", _OR)
            b, bp, bh = self.inline(b)  # evaluated only as the left operand says
            text = "True if %s %s %s else False" % (self.wrap(a, ap, p), word, self.wrap(b, bp, p))
            return self.done(list(pre), text, 0, max(ah, bh) + 2)
        if op == "/":
            return self.apply("_div(", args)
        p = _PREC.get(op)
        if p is None:
            return self.fail("unknown operator %r" % op, args)
        pre, ((a, ap, ah, _), (b, bp, bh, _)) = self.seq(args)
        text = "%s %s %s" % (self.wrap(a, ap, p + (p == _CMP)), _IS[op] if same else op, self.wrap(b, bp, p + 1))
        return self.done(pre, text, p, max(ah, bh) + 2)  # comparisons above must not chain


def _compile_body(
    owner: ClassDecl, decl: Union[MethodDecl, ConstructorDecl], layout: dict, name: str, counted: bool
) -> Callable:
    """A method's function starts by checking its depth and drawing a step, as `Interpreter.init`
    does for each construction.  In a unit that logs writes, a marked check body replays its
    passes and, when its check walks, re-checks them after writes (`recheck`)."""
    check, own, walks = owner._mark or (None, (), ())
    em = _Emitter(owner, layout, own if counted else None)
    params = [em.declare(p.name, p.type) for p in decl.params]
    for s in decl.body:
        em.emitter(s)(s)
    if isinstance(decl, MethodDecl) and decl.return_type is not None:
        em.line("raise _err(%s)" % ascii("%s.%s finished without returning a value" % (owner.name, decl.name)))
    prologue = ["if d > MAX_CALL_DEPTH: raise _err(_TOO_DEEP)", "if next(rt.ticks, 1): raise rt.spent()"]
    em.finish("def _f(%s):" % ", ".join(["rt", "d", "this"] + params), prologue * isinstance(decl, MethodDecl))
    fn = em.build(name)
    return _replaying(fn, owner.name, walks) if counted and decl is check else fn


def _replaying(check: Callable, name: str, walks: tuple) -> Callable:
    """`check`, the marked check body of class `name` whose mark holds `walks`, replayed while
    nothing is logged since its last pass and re-checked after writes (`recheck`, which units
    that log nothing do not import)."""
    from .recheck import replaying

    return replaying(check, name, walks)


# The kinds of op of a driver's simple statement (see `_op` and `Interpreter.run`): a call with no
# argument or one literal (the kind is the arity), with others; a `new`; a literal or a local; code.
_CALL0_OP, _CALL1_OP, _CALLN_OP, _NEW_OP, _VALUE_OP, _CODE_OP = range(6)
_PRINT = "print"  # the destination of a `print`


def _operand(e, slots: dict) -> Optional[tuple]:  # (None, value) of a literal, (index in L, None) of a local
    if isinstance(e, VarRead):
        return (slots[e.name], None) if e.name in slots else None
    return (None, getattr(e, "value", None)) if type(e).__name__ in _LITERALS else None


def _gather(args, L: list):  # literal arguments as they are; else their (index in L or None, literal) pairs read
    return args if args.__class__ is tuple else [v if i is None else L[i] for i, v in args]


def _op(s, slots: dict) -> Optional[tuple]:
    """The op `(kind, dest, key, o, args)` of a simple driver statement, or None: `T x;`,
    `T x = E;`, `x = E;`, `E;` or `print(E);`, where `E` is a literal, a local,
    `new C(A...)` or `l.m(A...)` on a local `l`, and each `A` a literal or a local.
    `slots` holds the index in `L` of each local in scope."""
    stmt = type(s).__name__
    if stmt == "LocalDecl":
        dest, e = slots.get(s.name, len(slots)), s.init
    elif stmt == "Assign" and isinstance(s.target, VarRead) and s.target.name in slots:
        dest, e = slots[s.target.name], s.value
    elif stmt in ("ExprStmt", "PrintStmt"):
        dest, e = (None, s.expr) if stmt == "ExprStmt" else (_PRINT, s.value)
    else:
        return None
    if e is None:  # `T x;`
        return _VALUE_OP, dest, None, None, (_zero_value(s.decl_type),)
    call = isinstance(e, MethodCall)
    if call and not (isinstance(e.receiver, VarRead) and e.receiver.name in slots):
        return None
    args = [_operand(a, slots) for a in (e.args if call or isinstance(e, NewObject) else [e])]
    if None in args:
        return None
    if all(i is None for i, _ in args):  # literals only, passed as they are
        args = tuple(v for _, v in args)
    if isinstance(e, NewObject):
        return _NEW_OP, dest, e.type.name, None, args
    if not call:
        return _VALUE_OP, dest, None, None, args
    kind = _CALLN_OP if len(args) > 1 or isinstance(args, list) else len(args)
    key = sys.intern("%s/%d" % (e.name, len(args)))
    return kind, dest, key, slots[e.receiver.name], args[0] if kind == _CALL1_OP else args


def _driver_code(driver: DriverBlock, counted: bool = False) -> tuple:
    """The op table that runs `driver`, five values per statement (see `Interpreter.run`):
    each simple statement is one op (`_op`), and at most `_CHUNK` others in a row one
    function `(rt, d, L)`, which reads the driver's locals from the list `L` and, when
    anything follows, writes them back (CPython compiles short functions in less memory).
    Built once for a unit that logs writes and once for others."""
    if (made := driver._code) is None:
        made = driver._code = {}
    if (table := made.get(counted)) is not None:
        return table
    em = _Emitter(None, (), () if counted else None)
    table, slots, n, carried = [], {}, 0, ""  # n: the statements of the chunk being emitted

    def close(more: bool) -> None:
        if more and em.locals:
            em.line("L[:] = %s," % em.texts())
        em.finish("def _f(rt, d, L):", ["%s, = L" % carried] if carried else [])
        table.extend((_CODE_OP, None, em.build("<driver>"), None, None))

    for s in driver.body:
        op = _op(s, slots)
        if n and (op is not None or n == _CHUNK):  # before an op declares a local the chunk must not write back
            close(True)
            n = 0
        if op is None:
            carried = carried if n else em.texts()  # the locals in scope as the chunk starts
            em.emitter(s)(s)
            n += 1
        elif isinstance(s, LocalDecl):
            em.declare(s.name, s.decl_type)
        table += op or ()
        if isinstance(s, LocalDecl):  # a top-level local, its index in L the next free one
            slots.setdefault(s.name, len(slots))
    if n:
        close(False)
    made[counted] = table = tuple(table)
    return table


class _Body:
    """A method or constructor of a class's runtime tables, named `Class.method` or
    `Class.<init>`; `fn(rt, depth, this, *args)` runs it.  `fn` is `load` until the
    first call of any run compiles it.  It holds its declarations weakly, as its tables
    are kept in one's `_code`: a declaration goes with no cycle to collect."""

    __slots__ = ("name", "arity", "chains", "fn", "source")

    def __init__(self, owner: ClassDecl, decl: Union[MethodDecl, ConstructorDecl], layout: dict, counted: bool):
        self.name, self.arity = "%s.%s" % (owner.name, getattr(decl, "name", "<init>")), len(decl.params)
        self.fn = self.load
        self.chains = bool(decl.body) and isinstance(decl.body[0], SuperCall)  # a constructor's own `super(...)`
        self.source = weakref.ref(owner), weakref.ref(decl), layout, counted

    def load(self, *args):
        owner, decl, layout, counted = self.source
        self.fn = _compile_body(owner(), decl(), layout, self.name, counted)
        return self.fn(*args)


# A class's runtime tables and objects' class; `parent` is its superclass's `_Class`,
# or the name of a superclass the unit does not declare.
_Class = namedtuple("_Class", "parent layout vt ctor new")


def _class_tables(decl: ClassDecl, parent: Optional[_Class], counted: bool) -> _Class:
    """`decl`'s runtime tables below `parent`, its superclass's, in a unit that logs writes
    or not, built once and kept in `decl._code`.  Its objects' Python class has a slot for each
    field of the layout, named with the prefix `f_`, which its `__init__` sets to the zero
    value; that of the superclass's objects, which is made with `parent`, stands for `parent`."""
    if (made := decl._code) is None:
        made = decl._code = {}
    if (c := made.get(key := (getattr(parent, "new", None), counted))) is not None:
        return c
    layout = dict(inherited := getattr(parent, "layout", {}))
    for f in decl.fields:
        if f.name in inherited:
            message = "field %r of %s shadows an inherited field (shadowing is not supported)"
            raise MiniOORuntimeError(message % (f.name, decl.name))
        layout[f.name] = _zero_value(f.declared_type)
    vt = dict(getattr(parent, "vt", {}))
    for m in reversed(decl.methods):  # the first of two same-named methods wins
        if m.body is not None:
            if (old := vt.get(m.name)) is not None:
                del vt["%s/%d" % (m.name, old.arity)]
            vt[m.name] = vt[sys.intern("%s/%d" % (m.name, len(m.params)))] = _Body(decl, m, layout, counted)
    ctor = None if decl.constructor is None else _Body(decl, decl.constructor, layout, counted)
    init = ["def __init__(self, class_name, obj_id, vt):", " self.class_name, self.obj_id = class_name, obj_id"]
    init += [" self.vt = vt"] + [" self.f_%s = %r" % field for field in layout.items()] + [" self._walk = None"] * counted
    exec("\n".join(init), ns := {})
    # in a unit that logs writes, an object also holds the walk it is on, if any, and its place there (`recheck`)
    members = {"__slots__": ["f_" + name for name in layout] + ["_walk", "_at"] * counted, "__init__": ns["__init__"]}
    new = type(decl.name, (ObjectInstance,), members)
    made[key] = c = _Class(parent or getattr(decl.super_class, "name", None), layout, vt, ctor, new)
    return c


def _counted(unit: SourceUnit) -> bool:
    """Whether a run of `unit` logs its field writes: whether it holds a marked check body."""
    return any(c._mark is not None and c._mark[0] is not None for c in unit.classes)


class Interpreter:
    """One execution per instance; not safe for concurrent use.  Each loop pass,
    call and construction draws one step from `ticks`; a run that needs more
    than `max_steps` is a fault, at the same point on every run."""

    def __init__(self, unit: SourceUnit, trace: bool = False, max_steps: int = MAX_STEPS):
        self.unit = unit
        self.max_steps, self.ticks = max_steps, itertools.repeat(None, max_steps)
        self.decls = {c.name: c for c in unit.classes}
        self.trace_enabled = trace
        self.output, self.trace, self.combined = [], [], []  # output and trace lines, and both interleaved
        self.singletons, self._classes = {}, {}  # class name -> its one instance, its runtime tables
        self._next_id = 0
        self.counted, self.log = _counted(unit), deque(maxlen=_LOG_SIZE)  # the objects written
        # object -> (check body, log length, steps, depth, its walks or None) of a pass that may settle its next check
        self.passed: dict = {}

    def _class(self, name: str) -> Optional[_Class]:
        """The runtime tables of a declared class, found on first use after its ancestors'."""
        if (c := self._classes.get(name)) is not None:
            return c
        chain, up = [], name  # the classes to build, leaf first
        while up in self.decls and up not in self._classes:
            chain.append(self.decls[up])
            if len(chain) > len(self.decls):
                raise MiniOORuntimeError("inheritance cycle through %r" % up)
            up = getattr(chain[-1].super_class, "name", None)
        for decl in reversed(chain):
            parent = self._classes.get(getattr(decl.super_class, "name", None))  # type: ignore[arg-type]
            self._classes[decl.name] = _class_tables(decl, parent, self.counted)
        return self._classes.get(name)

    def _new(self, class_name: str, args=(), d: int = 0) -> ObjectInstance:  # `new` in the driver and in bodies
        self._next_id += 1
        c = self._class(class_name)
        obj = getattr(c, "new", ObjectInstance)(class_name, self._next_id, getattr(c, "vt", {}))
        self.init(obj, c or class_name, args, d)
        return obj

    def init(self, obj: ObjectInstance, c: Union[_Class, str, None], args: list, d: int) -> None:
        """Run the constructors of a new object of the class with tables `c`, or those of
        `super(args)`, a class name: the depth and the arities up the implicit `super()`
        chain are checked first."""
        if d >= MAX_CALL_DEPTH:
            raise MiniOORuntimeError(_TOO_DEEP)
        if next(self.ticks, 1):
            raise self.spent()
        bodies = []
        while c is not None:
            if isinstance(c, str) and (c := self._class(name := c)) is None:
                raise MiniOORuntimeError("unknown class %r" % name)
            if (ctor := c.ctor) is not None:
                if len(args) != ctor.arity:
                    message = "constructor of %s takes %d argument(s)"
                    raise MiniOORuntimeError(message % (c.new.__name__, ctor.arity))
                bodies.append((ctor, args))
                if ctor.chains:
                    break
            c, args = c.parent, []
        for m, argv in reversed(bodies):
            m.fn(self, d + 1, obj, *argv)

    def spent(self) -> MiniOORuntimeError:
        return MiniOORuntimeError("run used up its budget of %d steps" % self.max_steps)

    def singleton(self, class_name: str, d: int) -> ObjectInstance:
        """The one object of a class, made on first use, at depth `d`."""
        one = self.singletons
        return one.get(class_name) or one.setdefault(class_name, self._new(class_name, [], d))

    def run(self) -> ExecutionResult:
        if self.unit.driver is None:
            raise MiniOORuntimeError("no driver block to execute")
        violation, L = None, []  # L: the driver's top-level locals, in the order they were declared
        try:
            it = iter(_driver_code(self.unit.driver, self.counted))
            for kind, dest, key, o, args in zip(it, it, it, it, it):
                if kind <= _CALLN_OP:  # `L[o].key(...)` at depth 1, looked up as a body looks a call up
                    o = L[o]
                    try:
                        m = o.vt[key]
                    except (AttributeError, KeyError):
                        raise _no_method(key, o) from None
                    if kind == _CALL1_OP:  # a call that spreads its arguments costs Python far more
                        value = m.fn(self, 1, o, args)
                    else:
                        value = m.fn(self, 1, o) if kind == _CALL0_OP else m.fn(self, 1, o, *_gather(args, L))
                elif kind == _NEW_OP:  # `new key(*args)`
                    value = self._new(key, _gather(args, L))
                elif kind == _CODE_OP:  # compiled statements, `key(rt, d, L)`; `dest` is None
                    if key(self, 0, L) is not None:  # a `return` ended the driver
                        break
                else:  # a literal or a local
                    value = _gather(args, L)[0]
                if dest is _PRINT:
                    _print(self, value)
                elif dest is not None:  # sets the local at `dest`, or declares the next one
                    L[dest:dest + 1] = (value,)
        except _Violation as v:
            violation = v.record
        except (MiniOORuntimeError, RecursionError, AttributeError, KeyError) as exc:
            fault = MiniOORuntimeError(_TOO_DEEP) if isinstance(exc, RecursionError) else exc
            if not isinstance(fault, MiniOORuntimeError) and (fault := _read_fault(exc)) is exc:
                raise  # not raised at a site of emitted code: not a MiniOO fault
            fault.result = ExecutionResult(self.output, self.trace, None, self.combined)
            raise fault.with_traceback(exc.__traceback__)
        return ExecutionResult(self.output, self.trace, violation, self.combined)


_NS.update(_new=Interpreter._new, _singleton=Interpreter.singleton)


def run_program(unit: SourceUnit, check_trace: bool = False, max_steps: int = MAX_STEPS) -> ExecutionResult:
    """Execute the unit's driver block in at most `max_steps` loop passes,
    calls and constructions.  Invariant violations stop execution and are
    returned in the result; runtime faults raise MiniOORuntimeError, whose
    `result` holds the output produced before the fault.  The unit need not
    typecheck (the CLI typechecks it first), but then a local of class type
    that holds an int, bool or string compares by identity."""
    return Interpreter(unit, check_trace, max_steps).run()
