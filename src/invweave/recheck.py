"""Replayed and incremental re-checks of woven checks (see `interp`).

Each marked check body runs in one closure (`replaying`) with its plan.  A
pass of the body that constructed, wrote and printed nothing is kept with
the length of the run's write log, and the body's next check of that object
at no greater depth is replayed if nothing has been logged since: the run
draws the steps the pass took.  A pass is replayed or settled only by the
body that made it, and it keeps walks only on an object of the body's own
class: the objects of a class woven twice run two check bodies, and each
draws the steps of its own check.

An exposed class's check evaluates the predicates of its specified chain.
When each quantified one walks a chain of nodes by one field,

    forall (n = head; n != tail; n = n.next) : n.next.prev == n

that is, its init is a free variable, its condition is `n != v` or
`n != null` for a free variable `v`, its step is `n.f` for one field `f`,
and its body reads nothing but `n`, literals, `n.g` and `n.f.g` paths, then
one iteration reads node i, and node i + 1 when the body reads an `n.f.g`
path: its window.  A pass of the check keeps each walk's nodes in order
(`_Walk`).  After writes, a check whose walks start and stop at the same
objects is settled from them: the unquantified predicates are evaluated
again, and each walk from the first iteration whose window holds a written
object, evaluating every iteration, until it reaches a node the old walk
visited after the last such iteration; from there on it is the old walk.
Its steps are the pass's plus the change in loop passes.  Anything else (a
predicate that fails, Python raising, a walk longer than any the writes
could make, as when a write closes a cycle) runs the check in full.

A plan's `settle` is emitted as one Python function, its predicates as the
visitor's bodies emit them, so it compares and faults alike.  In a unit that
logs writes each object has two more slots: the walk it is on and its index
there plus the walk's `base`, so a written object is placed by reading it;
after an edit, the nodes before it or those after it keep their index,
whichever are fewer.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Optional

from .interp import _LOG_SIZE, _NS, _Emitter, _is_bool
from .invspec import Forall
from .syntax import Binary, FieldAccess, NullLit, VarRead, walk

_BODY_NODES = ("IntLit", "BoolLit", "StringLit", "NullLit", "Binary", "Unary")  # besides the variable and its paths


def _is_var(e, name: str) -> bool:
    return isinstance(e, VarRead) and e.name == name


def _shape(p: Forall, free: dict) -> Optional[tuple]:
    """(init, stop or None for null, step field, whether an iteration reads the next node) of `p` if
    it walks nodes by one field, else None; `free` holds the class's free variables."""
    cond, step, var = p.cond, p.step, p.var
    if not (isinstance(p.init, VarRead) and p.init.name in free and isinstance(cond, Binary) and cond.op == "!="):
        return None
    if not (isinstance(step, FieldAccess) and _is_var(step.obj, var)):
        return None
    other = cond.right if _is_var(cond.left, var) else cond.left if _is_var(cond.right, var) else None
    if not (isinstance(other, NullLit) or isinstance(other, VarRead) and other.name in free):
        return None
    ahead = 0
    for e in walk(p.body):
        if isinstance(e, FieldAccess):
            if isinstance(e.obj, FieldAccess) and e.obj.name == step.name and _is_var(e.obj.obj, var):
                ahead = 1
            elif not _is_var(e.obj, var):
                return None
        elif not (_is_var(e, var) or type(e).__name__ in _BODY_NODES):
            return None
    return p.init.name, getattr(other, "name", None), step.name, ahead


def plan(visitor, chain: tuple) -> Optional["_Plan"]:
    """How a check that evaluates `chain` (the mark's `(predicates, free variables)` per class of
    the specified chain) with `visitor` is re-checked, or None if a quantifier does not walk.
    `settle(rt, d, this, last)` settles the check on `this` at depth `d` from `last`, its pass with
    walks at no smaller depth, and the writes logged since: it brings the pass's walks up to date,
    draws the steps and returns True, or else returns None and the check runs in full."""
    em, shapes = _Emitter(None), []
    em.line("try:")  # below, a fault, a value no pass got, or a failing iteration
    em.nest += 1
    em.line("logged, steps, walks, log = last[1], last[2], last[4], rt.log")
    for preds, free in chain:  # each class's free variables, as its visit method's getters read them
        em.locals, free = {}, dict(free)
        for var, t in free.items():
            em.line("%s = this.f_%s" % (em.declare(var, t), var))
        for p in preds:
            if not isinstance(p, Forall):
                em.line(("if not (%s):" if _is_bool(p) else "if (%s) is not True:") % em.values(p)[0], " raise _Full")
                continue
            if (shape := _shape(p, free)) is None:
                return None
            init, stop, step, ahead = shape
            k, x = len(shapes), em.declare(p.var, free[init])
            em.line("w%d = walks[%d]" % (k, k), "stop, base, nodes = w%d.stop, w%d.base, w%d.nodes" % (k, k, k))
            em.line("if %s is not w%d.first or %s is not stop:" % (em.local(init), k, em.local(stop) or "None"))
            em.line(" raise _Full", "n = len(nodes)", "lo, hi, fresh%d = n + base + 1, base - 1, None" % k)
            em.line("for %s in _islice(reversed(log), len(log) - logged):" % x)
            em.line(" if %s._walk is w%d and nodes[%s._at - base] is %s:" % (x, k, x, x), "  i = %s._at" % x)
            if ahead and stop:  # an iteration reads `stop` as the next node: as if at index n
                em.line(" elif %s is stop:" % x, "  i = n + base")
            em.line(" else:", "  continue")
            em.line(" if i < lo:", "  lo = i", " if i > hi:", "  hi = i")
            em.line("lo, hi = lo - base, hi - base", "if hi >= n:", " hi = n - 1")
            body = ("if not (%s):" if _is_bool(p.body) else "if (%s) is not True:") % em.inline(em.expr(p.body))[0]
            if ahead:  # the iteration before the first written node reads it as the next node
                em.line("if 0 < lo <= n:", " %s = nodes[lo - 1]" % x, " " + body, "  raise _Full")
            em.line("if lo <= hi:")  # from the first written node on, every iteration is evaluated
            em.nest += 1
            em.line("top, fresh%d, %s = hi + base, [], nodes[lo]" % (k, x), "for _ in range(n + len(log) - logged + 2):")
            em.line(" if %s is stop:" % x, "  end%d = n" % k, "  break")
            em.nest += 1
            em.line(body, " raise _Full", "fresh%d.append(%s)" % (k, x), "%s = %s.f_%s" % (x, x, step))
            em.line("if %s._walk is w%d and %s._at > top and nodes[%s._at - base] is %s:" % (x, k, x, x, x))
            em.line(" end%d = %s._at - base" % (k, x), " break")
            em.nest -= 1
            em.line("else:", " raise _Full")  # longer than the writes could make it: a cycle
            em.line("lo%d = lo" % k, "steps += len(fresh%d) - end%d + lo" % (k, k))
            em.nest -= 1
            shapes.append(shape)
    em.nest -= 1
    em.line("except Exception:", " pass", "else:")
    em.nest += 1
    em.line("if rt.ticks.__length_hint__() >= steps:")
    for k in range(len(shapes)):  # the nodes before the edit or those after keep their index, whichever are fewer
        em.line(" if fresh%d is not None:" % k, "  nodes, m = w%d.nodes, lo%d + len(fresh%d)" % (k, k, k))
        em.line("  nodes[lo%d:end%d] = fresh%d" % (k, k, k), "  if len(nodes) - m <= lo%d:" % k)
        em.line("   w%d.number(nodes, lo%d + 1, len(nodes))" % (k, k), "  else:")  # nodes[lo] keeps its index
        em.line("   w%d.base += end%d - m" % (k, k), "   w%d.number(nodes, 0, m)" % k)
    em.line(" rt.passed[this] = last[0], len(log), steps, last[3], walks", " next(_islice(rt.ticks, steps - 1, None))")
    em.line(" return True")
    em.nest -= 1
    em.finish("def _f(rt, d, this, last):", [])
    return _Plan(visitor, em.build("<settle>"), shapes)


def replaying(check: Callable, name: str, walks: tuple) -> Callable:
    """`check`, the marked check body of class `name` whose mark holds `walks`, run only when its
    own last pass on `this` can be neither replayed nor settled.  That pass constructed, wrote and
    printed nothing, at a depth no less than `d`.  With nothing logged since, a replay draws its
    steps from the budget and returns True; after writes, the body's plan, made here once, settles
    it if it kept walks (`plan`).  A pass keeps the walks of the plan only on an object of class
    `name`: of a subclass, the getters the check calls could be others."""
    planned = walks and plan(*walks)
    settle, track = (planned.settle, planned.track) if planned else (None, None)

    def replay(rt, d: int, this):
        log, passed = rt.log, rt.passed
        if len(log) == _LOG_SIZE:  # it may have dropped entries
            log.clear()
            passed.clear()
        last = passed.get(this)
        if last is not None and last[0] is check and d <= last[3]:
            if last[1] == len(log):
                if next(islice(rt.ticks, last[2] - 1, None), 1):  # too few steps left: all are drawn
                    raise rt.spent()
                return True
            if last[4] and settle(rt, d, this, last):
                return True
        made, logged, lines, left = rt._next_id, len(log), len(rt.combined), rt.ticks.__length_hint__()
        verdict = check(rt, d, this)
        if verdict is True and made == rt._next_id and logged == len(log) and lines == len(rt.combined):
            if passed.get(this) is last:
                kept = track is not None and this.class_name == name and track(rt, this)
                passed[this] = check, logged, left - rt.ticks.__length_hint__(), d, kept
        return verdict

    return replay


class _Plan:
    __slots__ = ("visitor", "settle", "shapes")

    def __init__(self, visitor, settle: Callable, shapes: list):
        self.visitor, self.settle, self.shapes = visitor, settle, shapes

    def track(self, rt, this) -> Optional[list]:
        """The walks of the check that just passed on `this`, or None if the run's visitor is another."""
        if rt.decls.get(self.visitor.name) is not self.visitor:
            return None
        return [_Walk(shape, this) for shape in self.shapes]


class _Walk:
    """The nodes one quantifier's loop visited from `first` until `stop`, in order.  Each holds the
    walk in its slot `_walk` and its index plus `base` in `_at`; a node no longer on the walk may
    still hold it, so a node is on it only if found at that index."""

    __slots__ = ("first", "stop", "nodes", "base")

    def __init__(self, shape: tuple, this):
        init, stop, step, _ = shape
        self.first = x = getattr(this, "f_" + init)
        self.stop = stop = stop and getattr(this, "f_" + stop)
        self.nodes, self.base, step = [], 0, "f_" + step
        while x is not stop:  # the pass's loop ended, reading the same slots
            self.nodes.append(x)
            x = getattr(x, step)
        self.number(self.nodes, 0, len(self.nodes))

    def number(self, nodes: list, start: int, stop: int) -> None:
        """Mark nodes[start:stop] as this walk's.  A walk that held one of them can no longer
        tell its nodes: its `first` is changed, so that its next check runs in full."""
        base = self.base
        for i in range(start, stop):
            x = nodes[i]
            if (other := x._walk) is not self and other is not None:
                other.first = _Walk
            x._walk, x._at = self, i + base


class _Full(Exception):
    """The check runs in full."""


_NS.update(_islice=islice, _Full=_Full)  # the globals of `settle`
