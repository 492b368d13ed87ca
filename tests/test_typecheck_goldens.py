"""Differential replay of recorded typechecker diagnostics.

`typecheck_goldens.json` holds, per case, the diagnostics `typecheck_program`
gave when the file was recorded, as `[code, message, line, col]` lists in the
order they were reported.  Every case here must replay byte-identically, so a
rewrite of the checker's lookups cannot change a verdict, a message, a
position or the order of diagnostics unnoticed.

The cases: every corpus program, plain and merged with its woven
declarations; the 500 random chains of the acceptance tests (seed
`0xC0FFEE`), original and woven-merged; 300 seeded gating scripts merged with
their woven hierarchy; and seeded ill-typed mutants of those programs (a
renamed call, a wrong argument, a narrowed override, a member made private, a
missing interface method, a shadowed field), so that the error paths are
replayed too.  Re-record (only when a change of behaviour is intended) with
`PYTHONPATH=src python tests/test_typecheck_goldens.py`.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

from invweave.invspec import load_spec
from invweave.parser import parse_unit
from invweave.syntax import (
    ClassDecl,
    FieldDecl,
    IntLit,
    MethodCall,
    NewObject,
    Record,
    StringLit,
    SuperCall,
    merge_units,
)
from invweave.typecheck import typecheck_program
from invweave.weave import weave_program

from helpers import (
    CORPUS,
    GATING_PROFILES,
    TRANSPARENCY,
    dlist_driver,
    load_dlist,
    load_program,
    make_script,
    woven_chain_corpus,
)

GOLDENS = Path(__file__).resolve().parent / "typecheck_goldens.json"

SCRIPTS_PER_HIERARCHY = 100
MUTANTS = 150
MUTANT_CHAIN_SOURCES = 40  # the first chains, original and woven, also get mutated


def corpus_cases():
    for moo in TRANSPARENCY:
        unit, spec = load_program(moo)
        yield "corpus/transparency/%s/plain" % moo.stem, unit
        yield "corpus/transparency/%s/woven" % moo.stem, weave_program(unit, spec).merged_unit()
    for fixed in (False, True):
        unit, spec = load_dlist(fixed)
        name = "list_fixed" if fixed else "list"
        woven = weave_program(unit, spec)
        yield "corpus/dlist/%s/plain" % name, unit
        yield "corpus/dlist/%s/woven" % name, woven.merged_unit()
        yield "corpus/dlist/%s/driver_plain" % name, merge_units([unit, dlist_driver(checked=False)])
        yield "corpus/dlist/%s/driver_checked" % name, merge_units(
            [unit, woven.declarations_unit(), dlist_driver(checked=True)]
        )
    for gname in sorted(GATING_PROFILES):
        unit, spec = load_program(CORPUS / "gating" / (gname + ".moo"))
        yield "corpus/gating/%s/plain" % gname, unit
        yield "corpus/gating/%s/woven" % gname, weave_program(unit, spec).merged_unit()
    orig = parse_unit((CORPUS / "fixtures" / "binding_flaw_original.moo").read_text())
    spec = load_spec((CORPUS / "fixtures" / "binding_flaw.json").read_text())
    naive = parse_unit((CORPUS / "fixtures" / "binding_flaw_naive.moo").read_text())
    yield "corpus/fixtures/binding_flaw_original/plain", orig
    yield "corpus/fixtures/binding_flaw_original/woven", weave_program(orig, spec).merged_unit()
    yield "corpus/fixtures/binding_flaw_naive/merged", merge_units([orig, naive])


def chain_cases():
    for k, (unit, _, artifacts) in enumerate(woven_chain_corpus()):
        yield "chain/%03d/original" % k, unit
        yield "chain/%03d/merged" % k, artifacts.merged_unit()


def gating_cases():
    for gname, profile in sorted(GATING_PROFILES.items()):
        unit, spec = load_program(CORPUS / "gating" / (gname + ".moo"))
        base = merge_units([unit, weave_program(unit, spec).declarations_unit()])
        rng = random.Random("typecheck-gating-" + gname)
        for k in range(SCRIPTS_PER_HIERARCHY):
            text, _ = make_script(rng, profile, rng.randint(1, 20))
            yield "gating/%s/script%03d" % (gname, k), merge_units([base, parse_unit(text)])


# ---------------------------------------------------------------------------
# Ill-typed mutants
# ---------------------------------------------------------------------------


def _nodes(root) -> list:
    """Every AST node under `root`, in source order."""
    out, todo = [], [root]
    while todo:
        node = todo.pop()
        if isinstance(node, (list, tuple)):
            todo.extend(reversed(node))
        elif isinstance(node, Record):
            out.append(node)
            todo.extend(reversed([getattr(node, f) for f in node._fields]))
    return out


def _ancestors(unit, c: ClassDecl) -> list[ClassDecl]:
    classes = {d.name: d for d in unit.classes}
    out: list[ClassDecl] = []
    while c.super_class is not None and c.super_class.name in classes and len(out) < len(classes):
        c = classes[c.super_class.name]
        out.append(c)
    return out


def _interface_method_names(unit, c: ClassDecl) -> set[str]:
    interfaces = {i.name: i for i in unit.interfaces}
    names: set[str] = set()
    todo = [t.name for t in c.interfaces]
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        if name in seen or name not in interfaces:
            continue
        seen.add(name)
        names |= {m.name for m in interfaces[name].methods}
        todo.extend(e.name for e in interfaces[name].extends)
    return names


def mutate_renamed_call(rng, unit) -> bool:
    calls = [n for n in _nodes(unit) if isinstance(n, MethodCall)]
    if not calls:
        return False
    rng.choice(calls).name += "_q"
    return True


def mutate_wrong_argument(rng, unit) -> bool:
    sites = [n for n in _nodes(unit) if isinstance(n, (MethodCall, NewObject, SuperCall))]
    if not sites:
        return False
    site = rng.choice(sites)
    if not site.args:
        site.args.append(IntLit(1))
        return True
    k = rng.randrange(len(site.args))
    old = site.args[k]
    new = IntLit(0) if isinstance(old, StringLit) else StringLit("?")
    new.line, new.col = getattr(old, "line", 0), getattr(old, "col", 0)
    site.args[k] = new
    return True


def mutate_narrowed_override(rng, unit) -> bool:
    options = []
    for c in unit.classes:
        own = {m.name: m for m in c.methods}
        for anc in _ancestors(unit, c):
            for m in anc.methods:
                if m.visibility == "public":
                    options.append((c, own.get(m.name), m))
    if not options:
        return False
    c, override, inherited = rng.choice(options)
    if override is None:
        override = copy.deepcopy(inherited)
        c.methods.append(override)
    override.visibility = rng.choice(["protected", "private"])
    return True


def mutate_private_member(rng, unit) -> bool:
    members = [
        (c, m)
        for c in unit.classes
        for m in list(c.fields) + list(c.methods)
        if m.visibility != "private"
    ]
    if not members:
        return False
    # Prefer a member whose name is used outside its own class.
    owners = list(unit.classes) + [unit.driver]
    names = [{getattr(n, "name", None) for n in _nodes(d)} for d in owners]
    used_outside = [
        (c, m)
        for c, m in members
        if any(m.name in ns for d, ns in zip(owners, names) if d is not c)
    ]
    _, member = rng.choice(used_outside or members)
    member.visibility = "private"
    return True


def mutate_missing_interface_method(rng, unit) -> bool:
    options = []
    for c in unit.classes:
        required = _interface_method_names(unit, c)
        options.extend((c, m) for m in c.methods if m.name in required)
    if not options:
        return False
    c, m = rng.choice(options)
    c.methods.remove(m)
    return True


def mutate_shadowed_field(rng, unit) -> bool:
    options = [
        (c, f) for c in unit.classes for anc in _ancestors(unit, c) for f in anc.fields
    ]
    if not options:
        return False
    c, f = rng.choice(options)
    c.fields.append(FieldDecl(f.name, f.declared_type, rng.choice(["public", "protected"])))
    return True


MUTATIONS = {
    "renamed-call": mutate_renamed_call,
    "wrong-argument": mutate_wrong_argument,
    "narrowed-override": mutate_narrowed_override,
    "private-member": mutate_private_member,
    "missing-interface-method": mutate_missing_interface_method,
    "shadowed-field": mutate_shadowed_field,
}


def mutant_cases(sources: list[tuple[str, object]]):
    rng = random.Random(0x7E57)
    made = 0
    while made < MUTANTS:
        case_id, unit = rng.choice(sources)
        kind = rng.choice(sorted(MUTATIONS))
        mutant = copy.deepcopy(unit)
        if MUTATIONS[kind](rng, mutant):
            yield "mutant/%03d/%s/%s" % (made, kind, case_id), mutant
            made += 1


def cases():
    """(case id, unit) pairs, in a fixed order."""
    sources = []
    for case_id, unit in corpus_cases():
        sources.append((case_id, unit))
        yield case_id, unit
    for case_id, unit in chain_cases():
        if int(case_id.split("/")[1]) < MUTANT_CHAIN_SOURCES:
            sources.append((case_id, unit))
        yield case_id, unit
    for case_id, unit in gating_cases():
        if case_id.endswith("0"):
            sources.append((case_id, unit))
        yield case_id, unit
    yield from mutant_cases(sources)


def record(unit) -> list[list]:
    return [[d.code, d.message, d.line, d.col] for d in typecheck_program(unit)]


def test_recorded_diagnostics_replay_identically():
    goldens = json.loads(GOLDENS.read_text())
    seen = []
    for case_id, unit in cases():
        seen.append(case_id)
        assert record(unit) == goldens[case_id], case_id
    assert sorted(seen) == sorted(goldens)


def test_mutants_are_drawn_from_every_node():
    # The mutations pick their sites from `_nodes`; a walk that missed nodes
    # would mutate fewer places, so the totals are pinned.
    assert sum(len(_nodes(unit)) for _, unit in corpus_cases()) == 15323
    goldens = json.loads(GOLDENS.read_text())
    mutants = [d for c, d in goldens.items() if c.startswith("mutant/")]
    assert (len(mutants), sum(1 for d in mutants if d)) == (MUTANTS, 135) == (150, 135)


def test_goldens_cover_every_mutation_with_errors():
    goldens = json.loads(GOLDENS.read_text())
    for kind in MUTATIONS:
        ill_typed = [c for c, d in goldens.items() if c.split("/")[2:3] == [kind] and d]
        assert len(ill_typed) >= 5, kind
    assert sum(1 for c, d in goldens.items() if c.startswith("mutant/") and d) >= 100


if __name__ == "__main__":
    recorded = {case_id: record(unit) for case_id, unit in cases()}
    GOLDENS.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    print("recorded %d cases in %s" % (len(recorded), GOLDENS))
