"""Read-path faults, differentially: a seeded set of read paths, each run in a
method body, faults with the message that reading it one step at a time gives.  The reference below is that step-by-step walk: from the root value,
each step either finds the field or is the fault."""

import random

from invweave.interp import Interpreter, MiniOORuntimeError, ObjectInstance, _field_fault
from invweave.parser import parse_unit

_CLASSES = """
class N {
    public N next;
    public int k;
    public string s;
    public N self() { return this; }
    public void probe(N p) { print(%s); }
}
"""
_ROOTS = {"local": "p", "this": "this", "call": "p.self()", "new": "new N()"}
_LITERALS = {"null": None, "7": 7, '"lit"': "lit"}
_NAMES = ["next", "k", "s", "nope", "x y"]  # "nope" is no field of N, "x y" no identifier


def _walk(o, steps: list) -> tuple:
    """The reference: the fault message of reading `steps` from `o` one at a time (None if
    none faults), the number of the step that faulted and the kind of value it read from."""
    for i, (name, verb) in enumerate(steps, 1):
        if not isinstance(o, ObjectInstance) or not hasattr(o, "f_" + name):
            kind = {type(None): "null", int: "int", str: "string"}.get(type(o), "object")
            return str(_field_fault(o, name, verb)), i, kind
        o = getattr(o, "f_" + name)
    return None, None, None


def _case(rng: random.Random) -> tuple:
    """A root (a name of `_ROOTS` or a literal), 1-6 (name, verb) steps, verb None for `@field`,
    and the length of the chain of objects the root reaches: from an object, the value at a
    random step is null, an int, a string or an object that lacks the field."""
    root, n = rng.choice(list(_ROOTS) + list(_LITERALS)), rng.randint(1, 6)
    at, kind = rng.randint(1, n), rng.choice(["null", "int", "string", "object"])
    names = ["next"] * (at - 1)
    if kind in ("int", "string") and names:
        names[-1] = "k" if kind == "int" else "s"
    names.append(rng.choice(["nope", "x y"]) if kind == "object" else rng.choice(_NAMES))
    names += [rng.choice(_NAMES) for _ in range(n - at)]
    steps = [(name, None if name == "x y" or rng.random() < 0.4 else "reading") for name in names]
    return root, steps, max(1, at - (kind == "null"))


def _text(root: str, steps: list) -> str:
    text = _ROOTS.get(root) or "(%s)" % root
    for name, verb in steps:
        text = "%s.%s" % (text, name) if verb else '@field(%s, "%s")' % (text, name)
    return text


def _run(root: str, steps: list, length: int) -> tuple:
    """The fault of the path run from a chain of `length` objects, and the reference's verdict.  The
    driver builds the chain and keeps its first node and a new one in a holder, for the reference."""
    links = ["N n%d = new N(); n%d.k = %d; n%d.s = \"s%d\";" % (i, i, i, i, i) for i in range(length)]
    links += ["n%d.next = n%d;" % (i, i + 1) for i in range(length - 1)]
    holder = "class Keep { public N first; public N fresh; }"
    driver = "driver { %s Keep keep = @singleton(Keep); keep.first = n0; keep.fresh = new N(); n0.probe(n0); }"
    interp = Interpreter(parse_unit(_CLASSES % _text(root, steps) + holder + driver % " ".join(links)))
    try:
        interp.run()
        got = None
    except MiniOORuntimeError as exc:
        got = str(exc)
    keep = interp.singletons["Keep"]
    start = keep.f_fresh if root == "new" else keep.f_first
    return got, _walk(_LITERALS[root] if root in _LITERALS else start, steps)


def test_each_read_path_faults_as_its_step_by_step_walk():
    rng, seen = random.Random(2525), set()  # seen: (root, step, kind of value, verb) of each fault
    for root, steps, length in (_case(rng) for _ in range(400)):
        got, (expected, step, kind) = _run(root, steps, length)
        assert got == expected, _text(root, steps)
        if expected is not None:
            seen.add((root if root in _ROOTS else "literal", step, kind, steps[step - 1][1]))
    assert {s for _, s, _, _ in seen} == set(range(1, 7))
    for root in list(_ROOTS) + ["literal"]:
        kinds = {k for r, _, k, _ in seen if r == root}
        assert kinds == {"null", "int", "string"} | ({"object"} if root != "literal" else set()), root
    assert {(k, v) for _, _, k, v in seen} >= {(k, v) for k in ("null", "int", "object") for v in ("reading", None)}
