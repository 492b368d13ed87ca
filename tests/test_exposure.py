"""Exposure-set computations checked against direct oracles."""

import random

from invweave import exposure
from invweave.exposure import (
    bound_vars,
    class_free_vars,
    compute_plan,
    free_vars_ordered,
    verify_exposure,
)
from invweave.invspec import InvariantSpec, load_spec, parse_predicate
from invweave.parser import parse_unit
from invweave.syntax import NamedType, TypeVar
from invweave.typecheck import ClassTable

from helpers import load_dlist, make_chain_program


def test_free_vars_single_identifier():
    assert set(free_vars_ordered(parse_predicate("size >= 0"))) == {"size"}


def test_free_vars_quantifier_excludes_bound():
    p = parse_predicate("forall (n = head.next; n != tail; n = n.next) : n.next.prev == n")
    assert set(free_vars_ordered(p)) == {"head", "tail"}


def test_free_vars_boolean_literal_empty():
    assert set(free_vars_ordered(parse_predicate("true"))) == set()


def test_free_vars_chained_path_contributes_root():
    assert set(free_vars_ordered(parse_predicate("head.next.prev == tail"))) == {"head", "tail"}


def test_bound_vars_dlist_corpus():
    unit, _ = load_dlist()
    by_name = {c.name: c for c in unit.classes}
    assert bound_vars(by_name["AbstractList"]) == {"size"}
    assert bound_vars(by_name["DLinkedList"]) == {"head", "tail"}
    assert bound_vars(by_name["DNode"]) == {"data", "prev", "next"}


def test_bound_vars_fieldless_class():
    unit = parse_unit("class A { }")
    assert bound_vars(unit.classes[0]) == set()


def _entry(unit, spec, name):
    return compute_plan(ClassTable(unit), spec).per_class[name]


def test_inherited_exposed_no_specified_superclass():
    unit, spec = load_dlist()
    assert _entry(unit, spec, "AbstractList").inherited_exposed == set()


def test_inherited_exposed_dlist():
    unit, spec = load_dlist()
    assert _entry(unit, spec, "DLinkedList").inherited_exposed == {"size"}


def test_inherited_exposed_three_level_chain():
    unit = parse_unit(
        """
        class A { protected int a; }
        class B extends A { protected int b; }
        class C extends B { protected int c; }
        """
    )
    spec = load_spec(
        '{"classes":[{"name":"A","invariant":["a >= 0"]},'
        '{"name":"B","invariant":["b >= 0"]},'
        '{"name":"C","invariant":["c >= 0"]}]}'
    )
    assert _entry(unit, spec, "C").inherited_exposed == {"a", "b"}


def test_inherited_exposed_stops_at_unspecified_ancestor():
    unit = parse_unit(
        """
        class A { protected int a; }
        class B extends A { protected int b; }
        class C extends B { protected int c; }
        """
    )
    spec = load_spec(
        '{"classes":[{"name":"A","invariant":["a >= 0"]},'
        '{"name":"C","invariant":["c >= 0"]}]}'
    )
    # B is unspecified, so C's chain is C alone.
    assert _entry(unit, spec, "C").inherited_exposed == set()
    assert _entry(unit, spec, "C").chain == ["C"]


def _inherited_oracle(table, cls, spec):
    """Closed-form walk: union BV and FV over the maximal specified prefix of
    strict ancestors."""
    out = set()
    cur = cls
    while cur.super_class is not None and spec.specifies(cur.super_class.name):
        sup = table.get_class(cur.super_class.name)
        out |= bound_vars(sup) | class_free_vars(sup.name, spec)
        cur = sup
    return out


def test_inherited_exposed_matches_oracle_on_random_chains():
    rng = random.Random(20260808)
    for trial in range(60):
        unit, spec = make_chain_program(rng, depth=rng.randint(0, 8))
        table = ClassTable(unit)
        plan = compute_plan(table, spec)
        for c in unit.classes:
            want = _inherited_oracle(table, c, spec)
            assert plan.per_class[c.name].inherited_exposed == want, (trial, c.name)


def _chain_oracle(table, cls, spec):
    """The class after its consecutive specified ancestors, root first."""
    chain = [cls.name]
    while cls.super_class is not None and spec.specifies(cls.super_class.name):
        cls = table.get_class(cls.super_class.name)
        chain.insert(0, cls.name)
    return chain


def test_plan_matches_oracles_on_chains_with_gaps(monkeypatch):
    # Random classes are left out of the specification, so chains stop at
    # gaps; each I(A) is still computed once, from the specified parent.
    calls = []
    counted = exposure.class_free_vars

    def counting_class_free_vars(name, spec):
        calls.append(name)
        return counted(name, spec)

    monkeypatch.setattr(exposure, "class_free_vars", counting_class_free_vars)
    rng = random.Random(0x6A95)
    gaps = 0
    for trial in range(60):
        unit, full = make_chain_program(rng, depth=rng.randint(0, 8))
        kept = [n for n in full.classes() if rng.random() < 0.6] or [full.classes()[-1]]
        spec = InvariantSpec({n: full.predicates(n) for n in kept})
        table = ClassTable(unit)
        calls.clear()
        plan = compute_plan(table, spec)
        assert sorted(calls) == sorted(kept), trial
        assert list(plan.per_class) == kept
        for name, entry in plan.per_class.items():
            c = table.get_class(name)
            assert entry.chain == _chain_oracle(table, c, spec), (trial, name)
            assert entry.inherited_exposed == _inherited_oracle(table, c, spec), (trial, name)
            gaps += len(entry.chain) < len(table.class_chain(name))
    assert gaps > 0


def test_interface_body_dlist():
    unit, spec = load_dlist()
    plan = compute_plan(ClassTable(unit), spec)
    body = plan.per_class["DLinkedList"].own_signatures
    t = (TypeVar("T"),)
    assert body == [
        ("head", NamedType("DNode", t)),
        ("tail", NamedType("DNode", t)),
    ]
    assert plan.per_class["AbstractList"].own_signatures == [("size", NamedType("int"))]


def test_interface_body_fieldless_true_class():
    unit = parse_unit("class A { }")
    spec = load_spec('{"classes":[{"name":"A","invariant":["true"]}]}')
    assert _entry(unit, spec, "A").own_signatures == []


def test_interface_body_includes_unspecified_ancestor_field():
    # A root-of-specification class whose predicate reaches an inherited
    # field of an unspecified superclass: the getter is declared here.
    unit = parse_unit(
        """
        class Raw { protected int x; }
        class Cooked extends Raw { protected int y; }
        """
    )
    spec = load_spec('{"classes":[{"name":"Cooked","invariant":["x >= 0", "y >= 0"]}]}')
    body = _entry(unit, spec, "Cooked").own_signatures
    assert ("x", NamedType("int")) in body
    assert ("y", NamedType("int")) in body
    # own fields first, then the inherited extra
    assert [n for n, _ in body] == ["y", "x"]


def test_def2_identity_on_corpus_and_chains():
    rng = random.Random(7)
    cases = [load_dlist()]
    for _ in range(40):
        cases.append(make_chain_program(rng, depth=rng.randint(0, 6)))
    for unit, spec in cases:
        table = ClassTable(unit)
        plan = compute_plan(table, spec)
        for name, entry in plan.per_class.items():
            c = table.get_class(name)
            want = (bound_vars(c) | class_free_vars(name, spec)) - entry.inherited_exposed
            assert entry.signature_names() == want, name


def test_verify_exposure_clean_on_dlist():
    unit, spec = load_dlist()
    table = ClassTable(unit)
    plan = compute_plan(table, spec)
    diags = verify_exposure(plan, table, spec)
    assert [d for d in diags if d.severity == "error"] == []
    assert [d for d in diags if d.severity == "note"] == []


def test_verify_exposure_detects_hand_broken_plan():
    unit, spec = load_dlist()
    table = ClassTable(unit)
    plan = compute_plan(table, spec)
    entry = plan.per_class["DLinkedList"]
    entry.own_signatures = [s for s in entry.own_signatures if s[0] != "head"]
    diags = verify_exposure(plan, table, spec)
    gaps = [d for d in diags if d.code == "exposure-gap"]
    assert len(gaps) >= 1
    assert any("head" in d.message and "DLinkedList" in d.message for d in gaps)


def test_prop2_lookup_on_random_chains():
    rng = random.Random(99)
    for _ in range(40):
        unit, spec = make_chain_program(rng, depth=rng.randint(0, 8))
        table = ClassTable(unit)
        plan = compute_plan(table, spec)
        for name, entry in plan.per_class.items():
            for var in entry.free_vars:
                assert plan.getter_owner(name, var) is not None


def test_fully_specified_reference_hypothesis_always_holds():
    # With every ancestor specified, any inherited-field reference lands in
    # the inherited-exposure set, so no note fires and the interface body is
    # exactly the class's own fields.
    unit = parse_unit(
        """
        class A { protected int a; protected int hidden; }
        class B extends A { protected int b; }
        """
    )
    spec = load_spec(
        '{"classes":[{"name":"A","invariant":["a >= 0"]},'
        '{"name":"B","invariant":["b >= 0", "hidden >= 0"]}]}'
    )
    table = ClassTable(unit)
    plan = compute_plan(table, spec)
    diags = verify_exposure(plan, table, spec)
    assert diags == []
    assert plan.per_class["B"].signature_names() == {"b"}


def test_prop3_note_when_specified_chain_has_a_gap():
    # A specified, B unspecified, C specified: C sits below a specified class
    # but the chain is broken, so the triviality hypothesis fails and C's
    # interface re-declares what the gap hides.
    unit = parse_unit(
        """
        class A { protected int a; }
        class B extends A { protected int b; }
        class C extends B { protected int c; }
        """
    )
    spec = load_spec(
        '{"classes":[{"name":"A","invariant":["a >= 0"]},'
        '{"name":"C","invariant":["c >= 0", "a >= 0"]}]}'
    )
    table = ClassTable(unit)
    plan = compute_plan(table, spec)
    diags = verify_exposure(plan, table, spec)
    assert any(d.code == "prop-note" and d.severity == "note" for d in diags)
    assert any(d.code == "exposure-note" and d.severity == "note" for d in diags)
    assert not [d for d in diags if d.severity == "error"]
    # The gap forces C to re-declare the getter for a.
    assert plan.per_class["C"].signature_names() == {"c", "a"}
