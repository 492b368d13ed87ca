"""Differential replay of recorded woven output.

`weave_goldens.json` holds, per case, what weaving produced when the file was
recorded: every file of `render_artifacts` (interfaces, exposed classes, the
visitor and the space report), the diagnostics of `verify_exposure`, and the
exposure plan's getter signatures and inherited-exposure sets, in plan order.
Corpus programs also record their driver after `swap_driver_constructors`.
Corpus cases are stored as full text; each seeded chain is stored as the
sha256 of its record, so the file stays small while any change to one byte of
woven output, one diagnostic or the order of either still fails the replay.

The seeded chains come in four kinds, 100 of each:

  - `full`: every class specified, as in the acceptance tests;
  - `gaps`: random classes left out of the specification;
  - `ancestor`: predicates that also name a field of some ancestor, with a
    few classes left out, so that getters are re-declared below a gap;
  - `shuffled`: the specification lists the classes in a shuffled order,
    with gaps and ancestor fields as well.

Re-record (only when a change of output is intended) with
`PYTHONPATH=src python tests/test_weave_goldens.py`.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from invweave.exposure import compute_plan, verify_exposure
from invweave.invspec import InvariantSpec, load_spec, parse_predicate
from invweave.parser import parse_unit
from invweave.printer import render_source
from invweave.syntax import SourceUnit, merge_units
from invweave.typecheck import ClassTable
from invweave.weave import render_artifacts, swap_driver_constructors, weave_program

from helpers import (
    CORPUS,
    GATING,
    TRANSPARENCY,
    dlist_driver,
    load_dlist,
    load_program,
    make_chain_program,
)

GOLDENS = Path(__file__).resolve().parent / "weave_goldens.json"

CHAINS_PER_KIND = 100
CHAIN_KINDS = ("full", "gaps", "ancestor", "shuffled")


def record(unit: SourceUnit, spec: InvariantSpec) -> dict:
    """Everything weaving decides for one program, as plain JSON data."""
    table = ClassTable(unit)
    plan = compute_plan(table, spec)
    out: dict = {
        "plan": [
            [name, [[f, str(t)] for f, t in e.own_signatures], sorted(e.inherited_exposed)]
            for name, e in plan.per_class.items()
        ],
        "diagnostics": [
            [d.code, d.severity, d.message] for d in verify_exposure(plan, table, spec)
        ],
    }
    artifacts = weave_program(unit, spec)
    out["files"] = [[name, text] for name, text in render_artifacts(artifacts).items()]
    if unit.driver is not None:
        swapped = swap_driver_constructors(unit, artifacts)
        out["swapped_driver"] = render_source(SourceUnit(driver=swapped.driver))
    return out


def digest(rec: dict) -> str:
    return hashlib.sha256(json.dumps(rec, sort_keys=True).encode()).hexdigest()


def corpus_cases():
    for moo in TRANSPARENCY + GATING:
        yield "corpus/%s/%s" % (moo.parent.name, moo.stem), *load_program(moo)
    for fixed in (False, True):
        unit, spec = load_dlist(fixed)
        name = "list_fixed" if fixed else "list"
        yield "corpus/dlist/%s" % name, unit, spec
        yield "corpus/dlist/%s+driver" % name, merge_units([unit, dlist_driver(False)]), spec
    orig = parse_unit((CORPUS / "fixtures" / "binding_flaw_original.moo").read_text())
    spec = load_spec((CORPUS / "fixtures" / "binding_flaw.json").read_text())
    yield "corpus/fixtures/binding_flaw_original", orig, spec


def _chain_spec(rng: random.Random, spec: InvariantSpec, kind: str) -> InvariantSpec:
    """A variant of a fully specified chain's specification (C0 first)."""
    names = spec.classes()
    entries = {name: list(spec.predicates(name)) for name in names}
    if kind in ("ancestor", "shuffled"):
        for i in range(1, len(names)):
            if rng.random() < 0.5:
                j = rng.randrange(i)
                entries[names[i]].append(parse_predicate("v%d_0 >= %d" % (j, rng.randint(0, 3))))
    drop = {"full": 0.0, "gaps": 0.4, "ancestor": 0.2, "shuffled": 0.25}[kind]
    kept = [n for n in names if rng.random() >= drop] or [rng.choice(names)]
    if kind == "shuffled":
        rng.shuffle(kept)
    return InvariantSpec({n: entries[n] for n in kept})


def chain_cases():
    for kind in CHAIN_KINDS:
        rng = random.Random("weave-goldens-" + kind)
        for k in range(CHAINS_PER_KIND):
            unit, spec = make_chain_program(rng, depth=rng.randint(0, 8))
            yield "chain/%s/%03d" % (kind, k), unit, _chain_spec(rng, spec, kind)


def recorded():
    """(case id, stored value) pairs, in a fixed order."""
    for case_id, unit, spec in corpus_cases():
        yield case_id, record(unit, spec)
    for case_id, unit, spec in chain_cases():
        yield case_id, digest(record(unit, spec))


def test_recorded_weaves_replay_identically():
    goldens = json.loads(GOLDENS.read_text())
    seen = []
    for case_id, value in recorded():
        seen.append(case_id)
        assert value == goldens[case_id], case_id
    assert sorted(seen) == sorted(goldens)


def test_chain_kinds_reach_their_paths():
    # Each kind must reach what it exists for: gaps give a prop-note, an
    # ancestor's field named below a gap re-declares its getter (an
    # exposure-note), and a shuffled specification plans out of unit order.
    codes: dict[str, set[str]] = {kind: set() for kind in CHAIN_KINDS}
    reordered = 0
    for case_id, unit, spec in chain_cases():
        kind = case_id.split("/")[1]
        table = ClassTable(unit)
        plan = compute_plan(table, spec)
        codes[kind] |= {d.code for d in verify_exposure(plan, table, spec)}
        in_unit_order = [c.name for c in unit.classes if c.name in plan.per_class]
        reordered += list(plan.per_class) != in_unit_order
    assert codes["full"] == set()
    assert codes["gaps"] == {"prop-note"}
    assert codes["ancestor"] == codes["shuffled"] == {"prop-note", "exposure-note"}
    assert reordered >= CHAINS_PER_KIND // 2


if __name__ == "__main__":
    out = dict(recorded())
    GOLDENS.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print("recorded %d cases in %s" % (len(out), GOLDENS))
