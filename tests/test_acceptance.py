"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

import pytest

from invweave.cli import main
from invweave.exposure import (
    bound_vars,
    class_free_vars,
    compute_plan,
    verify_exposure,
)
from invweave.interp import run_program
from invweave.parser import parse_unit
from invweave.syntax import merge_units
from invweave.typecheck import ClassTable, typecheck_program
from invweave.weave import (
    render_artifacts,
    swap_driver_constructors,
    weave_program,
)

from helpers import (
    CORPUS,
    GATING_PROFILES,
    TRANSPARENCY,
    expected_trace,
    load_dlist,
    load_program,
    make_script,
    woven_chain_corpus,
)

DLIST = CORPUS / "dlist"

GENERATED = [
    "IExposedAbstractList.moo",
    "IExposedDLinkedList.moo",
    "ExposedAbstractList.moo",
    "ExposedDLinkedList.moo",
    "InvV.moo",
]


@pytest.fixture(scope="module")
def chain_corpus():
    """The randomized hierarchies shared by criteria 4 and 6: 500 chains,
    depth <= 8, at most 7 members per class, fully specified, each with its
    woven artifacts."""
    return woven_chain_corpus()


def test_criterion_1_case_study_reproduction(tmp_path, capsys):
    started = time.perf_counter()
    out = tmp_path / "woven"
    assert (
        main(
            [
                "weave",
                str(DLIST / "list.moo"),
                "--spec",
                str(DLIST / "invariants.json"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    unwoven = main(["run", str(DLIST / "list.moo"), str(DLIST / "driver_plain.moo")])
    unwoven_out = capsys.readouterr().out.splitlines()
    woven = main(
        ["run", str(DLIST / "list.moo")]
        + [str(out / n) for n in GENERATED]
        + [str(DLIST / "driver_checked.moo")]
    )
    woven_out = capsys.readouterr().out.splitlines()
    elapsed = time.perf_counter() - started

    assert unwoven == 0, "the unchecked run must miss the fault"
    assert unwoven_out == ["testRemove complete"]
    assert woven == 3, "the checked run must stop on the violation"
    assert woven_out[-1] == "VIOLATION DLinkedList 0 exit remove"
    assert elapsed < 1.0, "runtime budget: %.3fs" % elapsed
    print("\nACCEPTANCE 1 case-study reproduction: PASS (%.3fs)" % elapsed)


def test_criterion_2_transparency_suite():
    assert len(TRANSPARENCY) >= 10
    for moo in TRANSPARENCY:
        unit, spec = load_program(moo)
        plain = run_program(unit)
        assert plain.violation is None, moo.name
        artifacts = weave_program(unit, spec)
        swapped = swap_driver_constructors(unit, artifacts)
        woven_unit = merge_units([swapped, artifacts.declarations_unit()])
        assert typecheck_program(woven_unit) == [], moo.name
        woven = run_program(woven_unit)
        assert woven.violation is None, moo.name
        assert woven.output == plain.output, moo.name
    print("\nACCEPTANCE 2 transparency suite: PASS (%d programs)" % len(TRANSPARENCY))


def test_criterion_3_check_gating_property():
    rng = random.Random(0x5EED)
    total = 0
    for gname, profile in sorted(GATING_PROFILES.items()):
        unit, spec = load_program(CORPUS / "gating" / (gname + ".moo"))
        artifacts = weave_program(unit, spec)
        base = merge_units([unit, artifacts.declarations_unit()])
        assert typecheck_program(base) == [], gname
        for _ in range(340):
            text, steps = make_script(rng, profile, rng.randint(3, 12))
            merged = merge_units([base, parse_unit(text)])
            result = run_program(merged, check_trace=True)
            assert result.violation is None, (gname, text)
            mismatch = expected_trace(steps, result.trace)
            assert mismatch is None, (gname, mismatch, text, result.trace)
            total += 1
    assert total >= 1000
    print("\nACCEPTANCE 3 check-gating property: PASS (%d scripts)" % total)


def test_criterion_4_definitions_and_propositions(chain_corpus):
    started = time.perf_counter()
    checked = 0
    for unit, spec, _ in chain_corpus:
        table = ClassTable(unit)
        plan = compute_plan(table, spec)
        assert [d for d in verify_exposure(plan, table, spec) if d.severity == "error"] == []
        memo_oracle: dict[str, set[str]] = {}
        for c in unit.classes:
            entry = plan.per_class[c.name]
            bv = bound_vars(c)
            fv = class_free_vars(c.name, spec)
            inherited = entry.inherited_exposed
            # interface body identity: BV | FV \ I, as name sets
            assert entry.signature_names() == (bv | fv) - inherited, c.name
            # exposure lookup succeeds for every free variable
            for var in fv:
                assert plan.getter_owner(c.name, var) is not None, (c.name, var)
            # triviality on fully-specified chains: the body is exactly the
            # class's own fields, and FV \ I = BV holds literally (every own
            # field occurs in the class's own predicates by construction)
            if c.super_class is not None:
                assert entry.signature_names() == bv, c.name
                assert fv - inherited == bv, c.name
            # the recursion agrees with a memoized-recursion oracle
            assert plan.per_class[c.name].inherited_exposed == _memo_oracle(
                table, spec, c.name, memo_oracle
            ), c.name
            checked += 1
    elapsed = time.perf_counter() - started
    assert len(chain_corpus) >= 500
    assert elapsed < 30.0, "runtime budget: %.1fs" % elapsed
    print(
        "\nACCEPTANCE 4 definitions/propositions: PASS (%d hierarchies, %d classes, %.1fs)"
        % (len(chain_corpus), checked, elapsed)
    )


def _memo_oracle(table, spec, name, memo):
    if name in memo:
        return memo[name]
    c = table.get_class(name)
    if c.super_class is None or not spec.specifies(c.super_class.name):
        memo[name] = set()
        return memo[name]
    sup = c.super_class.name
    memo[name] = (
        _memo_oracle(table, spec, sup, memo)
        | bound_vars(table.get_class(sup))
        | class_free_vars(sup, spec)
    )
    return memo[name]


def test_criterion_5_substitutability():
    unit, spec = load_dlist()
    artifacts = weave_program(unit, spec)
    base = merge_units([unit, artifacts.declarations_unit()])
    vectors = ["int", "string", "DNode<int>"]
    for tau in vectors:
        driver = parse_unit(
            "driver {\n"
            "    DLinkedList<%(t)s> a = new ExposedDLinkedList<%(t)s>();\n"
            "    AbstractList<%(t)s> b = new ExposedDLinkedList<%(t)s>();\n"
            "    List<%(t)s> c = new ExposedDLinkedList<%(t)s>();\n"
            "    IExposedDLinkedList<%(t)s> d = new ExposedDLinkedList<%(t)s>();\n"
            "}" % {"t": tau}
        )
        assert typecheck_program(merge_units([base, driver])) == [], tau
    # Generic transparency classes get the same treatment.
    zero = {"int": "0", "string": '""', "bool": "false"}
    for moo, cls, needs_seed in [
        ("t01.moo", "Seq", False),
        ("t04.moo", "LabeledBox", True),
        ("t09.moo", "Table", False),
    ]:
        t_unit, t_spec = load_program(CORPUS / "transparency" / moo)
        t_unit = merge_units([t_unit])  # shallow copy container
        t_unit.driver = None
        t_art = weave_program(t_unit, t_spec)
        t_base = merge_units([t_unit, t_art.declarations_unit()])
        inner_vectors = ["int", "string", "bool"]
        for tau in inner_vectors:
            args = tau if cls != "Table" else tau + ", " + tau
            ctor_args = zero[tau] if needs_seed else ""
            driver = parse_unit(
                "driver { %s<%s> v = new Exposed%s<%s>(%s); }"
                % (cls, args, cls, args, ctor_args)
            )
            assert typecheck_program(merge_units([t_base, driver])) == [], (moo, tau)
    # Negative direction: the ill-kinded vector is rejected for the original
    # and the exposed class identically.
    bad_orig = merge_units([base, parse_unit("driver { DLinkedList<int, int> x = null; }")])
    bad_exp = merge_units(
        [base, parse_unit("driver { ExposedDLinkedList<int, int> x = null; }")]
    )
    codes_orig = [d.code for d in typecheck_program(bad_orig)]
    codes_exp = [d.code for d in typecheck_program(bad_exp)]
    assert codes_orig == ["arity"]
    assert codes_exp == ["arity"]
    print("\nACCEPTANCE 5 substitutability: PASS (%d vectors + negative)" % (len(vectors) + 9))


def test_criterion_6_space_bound(chain_corpus):
    for unit, spec, artifacts in chain_corpus:
        report = artifacts.report
        assert report.measured_redundant() <= report.formula_bound
        plan = compute_plan(ClassTable(unit), spec)
        for name, counts in report.per_class.items():
            depth = len(plan.per_class[name].chain) - 1
            assert counts["wrappers"] + counts["getters"] <= report.max_new_members * (
                depth + 1
            ), name
    # The synthetic depth-8 chain with 7 members per class: bound 8*9/2*7.
    unit, spec = _synthetic_chain(depth=8, members=7)
    artifacts = weave_program(unit, spec)
    assert artifacts.report.depth == 8
    assert artifacts.report.max_new_members == 7
    assert artifacts.report.formula_bound == 252
    assert artifacts.report.measured_redundant() <= 252
    print(
        "\nACCEPTANCE 6 space bound: PASS (%d hierarchies; synthetic bound %d)"
        % (len(chain_corpus), artifacts.report.formula_bound)
    )


def _synthetic_chain(depth: int, members: int):
    from invweave.invspec import load_spec

    lines = []
    entries = []
    for i in range(depth + 1):
        fields = ["f%d_%d" % (i, k) for k in range(2)]
        methods = ["m%d_%d" % (i, k) for k in range(members - 2)]
        header = "class K%d" % i + (" extends K%d" % (i - 1) if i else "")
        lines.append(header + " {")
        for f in fields:
            lines.append("    protected int %s;" % f)
        lines.append("    public K%d() {" % i)
        if i:
            lines.append("        super();")
        lines.append("    }")
        for m in methods:
            lines.append("    public void %s() {" % m)
            lines.append("        this.%s = this.%s + 1;" % (fields[0], fields[0]))
            lines.append("    }")
        lines.append("}")
        entries.append(
            '{"name": "K%d", "invariant": [%s]}'
            % (i, ", ".join('"%s >= 0"' % f for f in fields))
        )
    return (
        parse_unit("\n".join(lines)),
        load_spec('{"classes": [%s]}' % ", ".join(entries)),
    )


def test_criterion_7_negative_design():
    orig = parse_unit((CORPUS / "fixtures" / "binding_flaw_original.moo").read_text())
    naive = parse_unit((CORPUS / "fixtures" / "binding_flaw_naive.moo").read_text())
    from invweave.invspec import load_spec

    spec = load_spec((CORPUS / "fixtures" / "binding_flaw.json").read_text())
    # The naive layout (exposed extends exposed, parameter copied as a bare
    # variable under a non-trivial instantiation) fails the binding check:
    diags = typecheck_program(merge_units([orig, naive]))
    assert any(d.code == "type-mismatch" and "_get_kept" in d.message for d in diags)
    # The shipped construction passes it on the same original hierarchy:
    artifacts = weave_program(orig, spec)
    assert typecheck_program(artifacts.merged_unit()) == []
    exposed = {c.name: c for c in artifacts.exposed_classes}
    assert exposed["ExposedItemHolder"].super_class.name == "ItemHolder"
    print("\nACCEPTANCE 7 negative design test: PASS")


def test_criterion_8_golden_stability(tmp_path):
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert (
            main(
                [
                    "weave",
                    str(DLIST / "list.moo"),
                    "--spec",
                    str(DLIST / "invariants.json"),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(GENERATED + ["report.json"])
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    # In-memory rendering is deterministic too.
    unit, spec = load_dlist()
    assert render_artifacts(weave_program(unit, spec)) == render_artifacts(
        weave_program(unit, spec)
    )
    print("\nACCEPTANCE 8 golden-file stability: PASS")
