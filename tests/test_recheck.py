"""Checks re-checked after writes: in a unit the weaver built in process, a
check whose quantifiers walk nodes by one field is settled from its last
pass and the objects written since (see `recheck`).  Every run here must
give what it gives with every check run in full: the output, the trace,
the violation, the fault and the steps used."""

import operator
import random

import pytest

from invweave import interp as interp_module
from invweave import recheck as recheck_module
from invweave.interp import Interpreter, MiniOORuntimeError
from invweave.invspec import load_spec
from invweave.parser import parse_unit
from invweave.syntax import merge_units
from invweave.weave import weave_program

from helpers import counting_settles, load_dlist

_OPS = ["add", "addFirst", "remove", "removeFirst", "set", "clear"]


def _mutations(rng: random.Random, size: int, calls: int, ops: list = _OPS) -> list:
    """(method, args) calls that build a list of `size` elements, then change it at random places
    with `ops`."""
    model, made = [], []
    for k in range(size + calls):
        op = rng.choice(["add", "addFirst"] if k < size else ops if model else ["add", "addFirst", "clear"])
        v = "v%d" % rng.randrange(size + 5)
        if op in ("add", "addFirst"):
            model.insert(len(model) if op == "add" else 0, v)
        elif op == "remove":  # found or not
            model.remove(v) if v in model else None
        elif op == "set":
            i = rng.randrange(len(model))
            model[i] = v
            made.append((op, [i, v]))
            continue
        elif op == "removeFirst":
            model.pop(0)
        else:
            model.clear()
        made.append((op, [v] if op in ("add", "addFirst", "remove") else []))
    return made


def _literal(v) -> str:
    return '"%s"' % v if isinstance(v, str) else str(v)


def _driver(calls: list, tail: str = "", cls: str = "ExposedDLinkedList") -> str:
    lines = ["%s<string> ls = new %s<string>();" % (cls, cls)]
    lines += ["print(ls.%s(%s));" % (m, ", ".join(map(_literal, a))) if m in ("remove", "removeFirst")
              else "ls.%s(%s);" % (m, ", ".join(map(_literal, a))) for m, a in calls]
    return "driver { %s %s print(ls.size()); }" % (" ".join(lines), tail)


def _dlist(driver: str):
    """The woven fixed list with `driver`, parsed afresh so that no run shares compiled code."""
    unit, spec = load_dlist(fixed=True)
    return merge_units([unit, weave_program(unit, spec).declarations_unit(), parse_unit(driver)])


def _observe(unit, max_steps: int = 2_000_000) -> tuple:
    interp = Interpreter(unit, trace=True, max_steps=max_steps)
    try:
        r, fault = interp.run(), None
    except MiniOORuntimeError as exc:
        r, fault = exc.result, str(exc)
    return (r.output, r.trace, r.combined, r.violation, fault), max_steps - operator.length_hint(interp.ticks)


def _alike(monkeypatch, build, *args) -> tuple:
    """What `build()`'s unit does with checks settled, with them replayed only, and with every
    check run in full; all three must agree.  The settled run's counts of settles are returned."""
    counts = counting_settles(monkeypatch)
    on = _observe(build(), *args)
    with monkeypatch.context() as m:
        m.setattr(recheck_module, "plan", lambda *_: None)
        replayed = _observe(build(), *args)
    with monkeypatch.context() as m:
        m.setattr(interp_module, "_counted", lambda unit: False)
        full = _observe(build(), *args)
    assert on == replayed == full
    return on, counts


@pytest.mark.parametrize("seed", range(12))
def test_seeded_mutations_from_the_driver_are_settled_as_a_full_walk_checks_them(monkeypatch, seed):
    rng = random.Random(2600 + seed)
    calls = _mutations(rng, rng.choice([0, 1, 2, rng.randrange(300)]), rng.randrange(5, 40))
    (seen, _), counts = _alike(monkeypatch, lambda: _dlist(_driver(calls)))
    assert seen[3] is None and seen[4] is None and counts[0] - counts[1] >= min(len(calls), 5) - 1


@pytest.mark.parametrize("seed", range(4))
def test_thirty_mutations_of_a_built_list_are_settled_as_a_full_walk_checks_them(monkeypatch, seed):
    # A list of up to 300 elements, then 30 calls that change it: longer walks than the seeds above.
    rng = random.Random(2700 + seed)
    calls = _mutations(rng, rng.randrange(300), 30)
    (seen, _), counts = _alike(monkeypatch, lambda: _dlist(_driver(calls)))
    assert seen[3] is None and seen[4] is None and counts[0] - counts[1] >= 4


# Writes a driver makes into the list's nodes, a few calls after it is built: each breaks the
# invariant or the walk, or links a node from outside in.
_ADVERSARIAL = {
    "broken-prev": "ls.head.next.next.next.prev = ls.head; print(ls.size());",
    "cycle": "DNode<string> l = ls.tail.prev; l.next = ls.head; ls.head.prev = l; print(ls.size());",
    "cycle-broken": "ls.head.next.next.next.next = ls.head.next; print(ls.size());",
    "outside-node": "DNode<string> o = new DNode<string>(\"o\"); ls.head.next.next = o; print(ls.size());",
    "outside-node-linked": "DNode<string> o = new DNode<string>(\"o\"); DNode<string> a = ls.head.next;"
    " o.prev = a; o.next = a.next; a.next.prev = o; a.next = o; print(ls.size()); ls.add(\"z\"); print(ls.size());",
    "outside-list-linked": "ExposedDLinkedList<string> b = new ExposedDLinkedList<string>(); b.add(\"p\"); b.add(\"q\");"
    " ls.tail.prev.next = b.head.next; print(ls.size());",
    "tail-moved": "ls.tail.prev.prev.next = ls.tail; print(ls.size());",
    "size-negative": "ls.size = -1; print(ls.size());",
    "head-moved": "ls.head = ls.head.next; print(ls.size()); ls.add(\"y\"); print(ls.size());",
    "null-next": "ls.tail.prev.next = null; print(ls.size());",
    "repaired": "DNode<string> a = ls.head.next; a.next.prev = ls.head; a.next.prev = a; print(ls.size());",
}


@pytest.mark.parametrize("case", sorted(_ADVERSARIAL))
def test_adversarial_writes_are_seen_as_a_full_walk_sees_them(monkeypatch, case):
    calls = [("add", ["a"]), ("add", ["b"]), ("addFirst", ["c"]), ("add", ["d"]), ("remove", ["b"])]
    (seen, _), _ = _alike(monkeypatch, lambda: _dlist(_driver(calls, _ADVERSARIAL[case])), 20_000)
    ended = {"cycle": "run used up its budget of 20000 steps", "size-negative": "VIOLATION AbstractList 0 entry size",
             "null-next": "null dereference in reflective read of 'prev'", "head-moved": None,
             "outside-node-linked": None, "repaired": None}.get(case, "VIOLATION DLinkedList 0 entry size")
    assert ended == (seen[4] or seen[3] and str(seen[3]))


_REACH = """
class Reach {
    public void reach(List<string> ls, int n) { if (n == 0) { ls.add("r"); } else { this.reach(ls, n - 1); } }
}
"""


@pytest.mark.parametrize("n", range(246, 256))
def test_a_check_deeper_than_its_pass_runs_in_full(monkeypatch, n):
    # `ls` passes its checks at call depth 1; `reach` then writes it from n levels down, where
    # its checks run out of call depth for the larger n.
    driver = "driver { ExposedDLinkedList<string> ls = new ExposedDLinkedList<string>(); ls.add(\"a\");" \
        " Reach r = new Reach(); r.reach(ls, %d); print(ls.size()); }" % n

    def build():
        unit, spec = load_dlist(fixed=True)
        return merge_units([unit, weave_program(unit, spec).declarations_unit(), parse_unit(_REACH + driver)])

    (seen, _), _ = _alike(monkeypatch, build)
    assert seen[4] == (None if n < 250 else "MiniOO calls nested too deeply")


_BAG = """
class Link { public int w; public Link next; public Link(int v) { this.w = v; } }
class Bag {
    protected Link first;
    protected int count;
    public Bag() { this.first = new Link(0); this.count = 0; }
    public Link at(int i) { Link c = this.first; while (i > 0 && c.next != null) { c = c.next; i = i - 1; } return c; }
    public void put(int i, int v) { Link c = this.at(i); Link n = new Link(v); n.next = c.next; c.next = n; this.count = this.count + 1; }
    public void drop(int i) { Link c = this.at(i); if (c.next != null) { c.next = c.next.next; this.count = this.count - 1; } }
    public void poke(int i, int v) { this.at(i).w = v; }
    public int count() { return this.count; }
}
"""
_BAG_SPEC = '{"classes": [{"name": "Bag", "invariant": ["count >= 0", "forall (c = first; c != null; c = c.next) : %s"]}]}'
_BODIES = ["c.w >= 0", "c.w" + " + 0" * 60 + " >= 0"]  # the second too deep for one Python expression


def _bag(driver: str, body: str = _BODIES[0]):
    unit = parse_unit(_BAG)
    spec = load_spec(_BAG_SPEC % body)
    return merge_units([unit, weave_program(unit, spec).declarations_unit(), parse_unit(driver)])


@pytest.mark.parametrize("seed", range(6))
def test_a_walk_to_null_is_settled_as_a_full_walk_checks_it(monkeypatch, seed):
    rng, lines, n = random.Random(2800 + seed), ["ExposedBag b = new ExposedBag();"], 0
    for _ in range(rng.randrange(20, 120)):
        op = rng.choice(["put", "put", "put", "drop", "poke", "count"])
        i = rng.randrange(n + 1)
        if op == "put":
            lines.append("b.put(%d, %d);" % (i, rng.randrange(50)))
            n += 1
        elif op == "drop":
            lines.append("b.drop(%d);" % i)
            n -= i < n
        elif op == "poke":  # now and then negative: a violation
            lines.append("b.poke(%d, %d);" % (i, rng.randrange(-1, 400)))
        else:
            lines.append("print(b.count());")
    lines.append("b.poke(%d, 5); b.at(0).next = b.at(%d); print(b.count());" % (n, max(n - 1, 0)))  # a cycle
    body = _BODIES[seed % 2]
    (seen, used), counts = _alike(monkeypatch, lambda: _bag("driver { %s }" % " ".join(lines), body), 50_000)
    assert counts[0] - counts[1] >= 10 and used > 0


def test_two_walks_over_the_same_nodes_are_checked_as_in_full(monkeypatch):
    # A node holds one walk: the walk back takes the nodes from the walk forth, whose next check
    # then runs in full, and so on.
    unit, _ = load_dlist(fixed=True)
    both = '{"classes": [{"name": "DLinkedList", "invariant": ["forall (n = head; n != tail; n = n.next) : n.next.prev == n",' \
        ' "forall (p = tail; p != head; p = p.prev) : p.prev.next == p"]}]}'
    calls = _mutations(random.Random(2900), 40, 30)

    def build():
        return merge_units([unit, weave_program(unit, load_spec(both)).declarations_unit(), parse_unit(_driver(calls))])

    (seen, _), counts = _alike(monkeypatch, build)
    assert seen[3] is None and seen[4] is None and counts[1] > 0


def _stop_alike_at_every_budget(monkeypatch, build) -> int:
    """Run `build()`'s unit with each budget up to the steps it uses, as it is and with every
    check run in full: both stop at the same step, alike.  The settles of the first are returned."""
    counts = counting_settles(monkeypatch)
    on, full = build(), build()
    _, used = _observe(on)
    settled = counts[0] - counts[1]
    for budget in range(used + 1):
        seen = _observe(on, budget)
        with monkeypatch.context() as m:  # `_counted` is read as each interpreter is made
            m.setattr(interp_module, "_counted", lambda unit: False)
            assert _observe(full, budget) == seen, budget
        assert (seen[0][4] is None) == (budget == used), budget
    return settled


def test_a_subclass_with_its_own_getter_is_checked_as_in_full(monkeypatch):
    # `Skip` overrides the getter its check binds `head` with, so its walk starts a node on: a
    # pass on a `Skip` keeps no walks, as `settle` would read the field itself.
    skip = "class Skip<T> extends ExposedDLinkedList<T> { public Skip() { super(); }" \
        " public DNode<T> _get_head() { return this.head.next; } }"
    calls = _mutations(random.Random(3100), 20, 30)

    def build():
        unit, spec = load_dlist(fixed=True)
        woven = weave_program(unit, spec).declarations_unit()
        return merge_units([unit, woven, parse_unit(skip + _driver(calls, cls="Skip"))])

    (seen, _), counts = _alike(monkeypatch, build)
    assert seen[3] is None and seen[4] is None and counts[0] == counts[1] > 0


def test_a_short_mutation_driver_stops_alike_at_every_budget(monkeypatch):
    calls = [("add", ["a"]), ("addFirst", ["b"]), ("add", ["c"]), ("set", [1, "d"]), ("remove", ["a"]),
             ("removeFirst", []), ("add", ["e"]), ("clear", []), ("add", ["f"])]
    assert _stop_alike_at_every_budget(monkeypatch, lambda: _dlist(_driver(calls))) >= 7


def test_the_write_log_stays_bounded_between_two_checks(monkeypatch):
    # 50,000 logged stores between two checks fill the log: every kept pass is dropped, and the
    # second check runs in full.
    loop = 'DNode<string> n = new DNode<string>("x"); int i = 0; while (i < 50000) { n.data = "y"; i = i + 1; }'
    driver = 'driver { ExposedDLinkedList<string> ls = new ExposedDLinkedList<string>(); ls.add("a"); %s ls.add("b"); }'
    sizes = []
    append = interp_module.deque.append

    class Spy(interp_module.deque):
        def append(self, x):
            append(self, x)
            sizes.append(len(self))

    monkeypatch.setattr(interp_module, "deque", Spy)
    interp = Interpreter(_dlist(driver % loop), trace=True)
    result = interp.run()
    assert max(sizes) == interp_module._LOG_SIZE < 50_000 and len(interp.log) < interp_module._LOG_SIZE
    monkeypatch.setattr(interp_module, "_counted", lambda unit: False)
    full = Interpreter(_dlist(driver % loop), trace=True)
    assert full.run() == result and operator.length_hint(full.ticks) == operator.length_hint(interp.ticks)


# `G` subclasses the woven list's exposed class and is woven in turn, so an `ExposedG` runs the
# check bodies of both exposed classes.  Each replays and settles only its own passes, and only
# `ExposedG`'s keeps walks on it.
_G = "class G<T> extends ExposedDLinkedList<T> { public G() { super(); } }"
_G_SPEC = '{"classes": [{"name": "G", "invariant": ["forall (p = tail; p != head; p = p.prev) : p.prev.next == p"]}]}'
_REWOVEN_OPS = ["add", "addFirst", "remove", "removeFirst", "clear"]


def _rewoven(driver: str):
    unit, spec = load_dlist(fixed=True)
    base = merge_units([unit, weave_program(unit, spec).declarations_unit(), parse_unit(_G)])
    return merge_units([base, weave_program(base, load_spec(_G_SPEC)).declarations_unit(), parse_unit(driver)])


@pytest.mark.parametrize("seed", range(8))
def test_seeded_mutations_of_a_class_woven_twice_are_checked_as_in_full(monkeypatch, seed):
    rng = random.Random(3000 + seed)
    calls = _mutations(rng, rng.choice([0, 1, rng.randrange(60)]), rng.randrange(5, 40), _REWOVEN_OPS)
    (seen, _), _ = _alike(monkeypatch, lambda: _rewoven(_driver(calls, cls="ExposedG")))
    assert seen[3] is None and seen[4] is None


def test_a_short_driver_on_a_class_woven_twice_stops_alike_at_every_budget(monkeypatch):
    calls = [("add", ["a"]), ("addFirst", ["b"]), ("add", ["c"]), ("remove", ["a"]), ("removeFirst", []),
             ("add", ["e"]), ("clear", []), ("add", ["f"])]
    _stop_alike_at_every_budget(monkeypatch, lambda: _rewoven(_driver(calls, cls="ExposedG")))
