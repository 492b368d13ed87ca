"""Differential replay of recorded spec-validation diagnostics.

`spec_goldens.json` holds, per case, the diagnostics `validate_spec` gave
when the file was recorded, as `[code, line, col, message]` lists in the
order they were reported, and the outcome of `weave_program` on the same
unit and spec: `"ok"`, `"spec"` when it refused with exactly those
diagnostics, or its own diagnostics in the same list form.  Every case here
must replay byte-identically, so a change to how predicates are typed cannot
change a verdict, a message, a position or the order of diagnostics
unnoticed.

The cases: every corpus specification on its program, and seeded
one-predicate specifications for each class of each corpus program, over
that class's fields.  The seeded predicates mix literals, field paths, `!`
and unary `-`, all twelve binary operators, `null` and `forall` forms; most
are well-typed, some deliberately are not.  Re-record (only when a change of
behaviour is intended) with `PYTHONPATH=src python tests/test_spec_goldens.py`.
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

from invweave.diagnostics import WeaveError
from invweave.invspec import load_spec, validate_spec
from invweave.parser import parse_unit
from invweave.syntax import BOOL, INT, STRING, NamedType
from invweave.typecheck import ClassTable, typecheck_program
from invweave.weave import weave_program

from helpers import CORPUS, GATING, TRANSPARENCY

GOLDENS = Path(__file__).resolve().parent / "spec_goldens.json"

PREDICATES_PER_CLASS = 40
BINARY_OPS = ("&&", "||", "<", "<=", ">", ">=", "==", "!=", "+", "-", "*", "/")
KINDS = ("bool", "int", "string", "ref")


def programs() -> list[tuple[str, Path, Path]]:
    """(name, source, spec) for each corpus program with its specification."""
    out = [("transparency/" + m.stem, m, m.with_suffix(".json")) for m in TRANSPARENCY]
    out += [("gating/" + m.stem, m, m.with_suffix(".json")) for m in GATING]
    for name in ("list", "list_fixed"):
        out.append(("dlist/" + name, CORPUS / "dlist" / (name + ".moo"), CORPUS / "dlist" / "invariants.json"))
    fixtures = CORPUS / "fixtures"
    out.append(("fixtures/binding_flaw", fixtures / "binding_flaw_original.moo", fixtures / "binding_flaw.json"))
    return out


def _kind(t) -> str:
    if t == INT:
        return "int"
    if t == BOOL:
        return "bool"
    if t == STRING:
        return "string"
    return "ref"


class PredicateMaker:
    """Seeded predicate texts over one class's own and inherited fields."""

    def __init__(self, rng: random.Random, table: ClassTable, cls):
        self.rng = rng
        self.table = table
        self.self_t = cls.self_type()
        self.field_names = list(self.fields(self.self_t))

    def fields(self, t) -> dict:
        if not isinstance(t, NamedType):
            return {}
        return {n: self.table.find_field(t, n).type for n in self.table.members(t).fields}

    def paths(self, roots: dict) -> list[tuple[str, object]]:
        """Field paths of up to three reads from `roots` (name -> type)."""
        out: list[tuple[str, object]] = []
        frontier = list(roots.items())
        for _ in range(3):
            out.extend(frontier)
            frontier = [(p + "." + n, ft) for p, t in frontier for n, ft in self.fields(t).items()]
        return out

    def atom(self, kind: str, paths) -> str:
        rng = self.rng
        if rng.random() < 0.03:
            return rng.choice(["ghost", self.field_names[0] + ".ghost" if self.field_names else "ghost"])
        fitting = [p for p, t in paths if _kind(t) == kind]
        if fitting and rng.random() < 0.65:
            return rng.choice(fitting)
        return {
            "int": str(rng.randint(0, 9)),
            "bool": rng.choice(["true", "false"]),
            "string": '"s"',
            "ref": "null",
        }[kind]

    def expr(self, kind: str, depth: int, paths) -> str:
        rng = self.rng
        if rng.random() < 0.1:
            kind = rng.choice(KINDS)  # a deliberate mismatch
        if depth <= 0 or kind == "ref" or rng.random() < 0.3:
            return self.atom(kind, paths)
        sub = lambda k: self.expr(k, depth - 1, paths)
        if kind == "int":
            if rng.random() < 0.2:
                return "-(%s)" % sub("int")
            return "(%s %s %s)" % (sub("int"), rng.choice("+-*/"), sub("int"))
        if kind == "string":
            return "(%s + %s)" % (sub("string"), sub(rng.choice(["string", "string", "int"])))
        form = rng.choice(["not", "logic", "compare", "equal", "null"])
        if form == "not":
            return "!(%s)" % sub("bool")
        if form == "logic":
            return "(%s %s %s)" % (sub("bool"), rng.choice(["&&", "||"]), sub("bool"))
        if form == "compare":
            return "(%s %s %s)" % (sub("int"), rng.choice(["<", "<=", ">", ">="]), sub("int"))
        op = rng.choice(["==", "!="])
        if form == "null":
            return "(%s %s null)" % (sub("ref" if rng.random() < 0.7 else rng.choice(KINDS)), op)
        k = rng.choice(KINDS)
        return "(%s %s %s)" % (sub(k), op, sub(k))

    def forall(self, paths) -> str:
        rng = self.rng
        var = rng.choice(self.field_names) if self.field_names and rng.random() < 0.05 else "n"
        links = [
            (p, t, n)
            for p, t in paths
            if _kind(t) == "ref"
            for n, ft in self.fields(t).items()
            if ft == t
        ]
        if links and rng.random() < 0.7:
            init, t, link = rng.choice(links)
            if rng.random() < 0.05:
                init = "null"
            ends = [p for p, pt in paths if pt == t] + ["null"]
            cond = "%s != %s" % (var, rng.choice(ends))
            step = "%s.%s" % (var, link if rng.random() < 0.9 else rng.choice(list(self.fields(t))))
        else:
            t = INT
            init = self.atom("int", paths)
            cond = "%s < %s" % (var, self.atom("int", paths))
            step = "%s + 1" % var if rng.random() < 0.9 else "%s == 1" % var
        if rng.random() < 0.1:
            cond = self.expr(rng.choice(KINDS), 1, paths)
        inner = paths + self.paths({var: t})
        body = self.expr("bool" if rng.random() < 0.9 else rng.choice(KINDS), 2, inner)
        return "forall (%s = %s; %s; %s = %s) : %s" % (var, init, cond, var, step, body)

    def predicate(self) -> str:
        paths = self.paths(self.fields(self.self_t))
        if self.rng.random() < 0.2:
            return self.forall(paths)
        kind = "bool" if self.rng.random() < 0.9 else self.rng.choice(KINDS)
        return self.expr(kind, self.rng.randint(1, 3), paths)


def _rows(diags) -> list[list]:
    return [[d.code, d.line, d.col, d.message] for d in diags]


def record(unit, spec) -> dict:
    spec_rows = _rows(validate_spec(spec, unit))
    try:
        weave_program(unit, spec)
        weave = "ok"
    except WeaveError as exc:
        rows = _rows(exc.diagnostics)
        weave = "spec" if rows == spec_rows else rows
    return {"spec": spec_rows, "weave": weave}


def cases():
    """(case id, predicate text or None, unit, spec), in a fixed order."""
    for name, source, spec_path in programs():
        unit = parse_unit(source.read_text())
        yield "corpus/" + name, None, unit, load_spec(spec_path.read_text())
    for name, source, _ in programs():
        if name == "dlist/list_fixed":
            continue  # the same classes as dlist/list
        unit = parse_unit(source.read_text())
        table = ClassTable(unit)
        for cls in unit.classes:
            maker = PredicateMaker(random.Random("spec-goldens-%s-%s" % (name, cls.name)), table, cls)
            for k in range(PREDICATES_PER_CLASS):
                text = maker.predicate()
                doc = json.dumps({"classes": [{"name": cls.name, "invariant": [text]}]})
                yield "seeded/%s/%s/%02d" % (name, cls.name, k), text, unit, load_spec(doc)


@functools.lru_cache(maxsize=None)
def recorded() -> dict:
    out = {}
    for case_id, text, unit, spec in cases():
        entry = record(unit, spec)
        if text is not None:
            entry = {"predicate": text, **entry}
        out[case_id] = entry
    return out


def test_recorded_spec_diagnostics_replay_identically():
    goldens = json.loads(GOLDENS.read_text())
    now = recorded()
    for case_id, entry in now.items():
        assert entry == goldens.get(case_id), case_id
    assert sorted(now) == sorted(goldens)


def test_goldens_cover_the_predicate_forms():
    goldens = json.loads(GOLDENS.read_text())
    seeded = [e for c, e in goldens.items() if c.startswith("seeded/")]
    texts = " ".join(e["predicate"] for e in seeded)
    for op in BINARY_OPS:
        assert " %s " % op in texts, op
    for token in ("!(", "-(", "null", "forall", '"s"', "true"):
        assert token in texts, token
    clean = [e for e in seeded if not e["spec"]]
    assert len(clean) >= 200
    codes = {row[0] for e in seeded for row in e["spec"]}
    assert {"unknown-field", "non-boolean-predicate", "predicate-grammar"} <= codes
    assert all(not e["spec"] and e["weave"] == "ok" for c, e in goldens.items() if c.startswith("corpus/"))


def test_every_clean_spec_weaves():
    # Validation accepts exactly the predicates whose woven checks typecheck.
    # weave_program checks only the structure of what it generates, so the
    # generated bodies are typed here.
    now = recorded()
    for case_id, _, unit, spec in cases():
        if not now[case_id]["spec"]:
            assert now[case_id]["weave"] == "ok", case_id
            assert typecheck_program(weave_program(unit, spec).merged_unit()) == [], case_id


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(recorded(), indent=0, sort_keys=True) + "\n")
    print("recorded %d cases in %s" % (len(recorded()), GOLDENS))
