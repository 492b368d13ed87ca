"""CLI exit codes, output formats, and golden-file determinism."""

import json
import os
import re
import subprocess
import sys

import pytest

from invweave.cli import main
from invweave.interp import MAX_CALL_DEPTH, MAX_STEPS

from helpers import CORPUS, REPO

DLIST = CORPUS / "dlist"


def weave_args(out_dir):
    return [
        "weave",
        str(DLIST / "list.moo"),
        "--spec",
        str(DLIST / "invariants.json"),
        "--out",
        str(out_dir),
    ]


GENERATED = [
    "ExposedAbstractList.moo",
    "ExposedDLinkedList.moo",
    "IExposedAbstractList.moo",
    "IExposedDLinkedList.moo",
    "InvV.moo",
]


def test_weave_writes_five_declarations_and_report(tmp_path, capsys):
    assert main(weave_args(tmp_path / "out")) == 0
    names = sorted(os.listdir(tmp_path / "out"))
    assert names == sorted(GENERATED + ["report.json"])


def test_weave_malformed_spec_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"classes":[{"name":"DLinkedList","invariant":["size >="]}]}')
    code = main(
        ["weave", str(DLIST / "list.moo"), "--spec", str(bad), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "DLinkedList, invariant[0]" in err


def test_weave_unknown_class_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"classes":[{"name":"Ghost","invariant":["x > 0"]}]}')
    code = main(
        ["weave", str(DLIST / "list.moo"), "--spec", str(bad), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "unknown-class" in capsys.readouterr().err


ILL_TYPED_SOURCE = """class A {
    public int x;
    public void f() { this.x = true; }
    public int g() { return "s"; }
}
"""

INVALID_SPEC = (
    '{"classes": [{"name": "Ghost", "invariant": ["x > 0"]}, '
    '{"name": "DLinkedList", "invariant": ["nope > 0", "size >= 0"]}]}'
)


@pytest.mark.parametrize("command", ["weave", "report"])
@pytest.mark.parametrize(
    "bad, want",
    [
        (
            "source",
            "3:23: error [type-mismatch] cannot assign bool to int\n"
            "4:22: error [type-mismatch] cannot assign string to int\n",
        ),
        (
            "spec",
            "-: error [unknown-class] specification names unknown class 'Ghost'\n"
            "1:1: error [unknown-field] DLinkedList, invariant[0]: no field 'nope' on "
            "DLinkedList or its ancestors\n",
        ),
    ],
)
def test_weave_and_report_print_every_static_diagnostic(command, bad, want, tmp_path, capsys):
    source, spec = DLIST / "list.moo", DLIST / "invariants.json"
    if bad == "source":
        source = tmp_path / "bad.moo"
        source.write_text(ILL_TYPED_SOURCE)
    else:
        spec = tmp_path / "bad.json"
        spec.write_text(INVALID_SPEC)
    args = [command, str(source), "--spec", str(spec)]
    if command == "weave":
        args += ["--out", str(tmp_path / "o")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", want)
    assert not (tmp_path / "o").exists()


def test_weave_unwritable_outdir_exit_2(tmp_path, capsys):
    # A regular file where the output directory should go defeats even a
    # root-privileged test runner.
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main(weave_args(blocker))
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


def test_weave_missing_source_exit_2(tmp_path, capsys):
    code = main(
        [
            "weave",
            str(tmp_path / "nope.moo"),
            "--spec",
            str(DLIST / "invariants.json"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2


def test_run_unwoven_faulty_exit_0(capsys):
    code = main(["run", str(DLIST / "list.moo"), str(DLIST / "driver_plain.moo")])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["testRemove complete"]


def test_run_woven_faulty_exit_3_with_violation_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(weave_args(out)) == 0
    capsys.readouterr()
    code = main(
        ["run", str(DLIST / "list.moo")]
        + [str(out / n) for n in GENERATED]
        + [str(DLIST / "driver_checked.moo")]
    )
    assert code == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "VIOLATION DLinkedList 0 exit remove"


def test_run_woven_fixed_output_matches_unwoven(tmp_path, capsys):
    code = main(["run", str(DLIST / "list_fixed.moo"), str(DLIST / "driver_plain.moo")])
    assert code == 0
    plain_out = capsys.readouterr().out
    out = tmp_path / "out"
    assert (
        main(
            [
                "weave",
                str(DLIST / "list_fixed.moo"),
                "--spec",
                str(DLIST / "invariants.json"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    code = main(
        ["run", str(DLIST / "list_fixed.moo")]
        + [str(out / n) for n in GENERATED]
        + [str(DLIST / "driver_checked.moo")]
    )
    assert code == 0
    assert capsys.readouterr().out == plain_out


def test_run_trace_interleaves_checks(tmp_path, capsys):
    out = tmp_path / "out"
    assert (
        main(
            [
                "weave",
                str(DLIST / "list_fixed.moo"),
                "--spec",
                str(DLIST / "invariants.json"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    code = main(
        ["run", "--trace", str(DLIST / "list_fixed.moo")]
        + [str(out / n) for n in GENERATED]
        + [str(DLIST / "driver_checked.moo")]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "CHECK 1 DLinkedList construction <init>"
    assert "testRemove complete" in lines
    assert any(l.startswith("CHECK") and " exit remove" in l for l in lines)


def test_run_type_error_exit_1(tmp_path, capsys):
    src = tmp_path / "bad.moo"
    src.write_text("class A { public int x; public void f() { this.x = true; } }\ndriver { }\n")
    assert main(["run", str(src)]) == 1
    assert "type-mismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, col", [("if (true) { super(2); }", 56), ("while (this.x < 2) { super(2); }", 65)]
)
def test_run_super_call_nested_in_a_constructor_is_a_one_line_error(block, col, tmp_path, capsys):
    # Only the first top-level statement of a constructor may call super(...).
    src = tmp_path / "twice.moo"
    src.write_text(
        "class A { public int x; public A(int v) { this.x = v; } }\n"
        "class B extends A { public B() { super(1); %s } }\n"
        "driver { B b = new B(); print(b.x); }\n" % block
    )
    assert main(["run", str(src)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["2:%d: error [type-mismatch] super(...) must be the first statement" % col]


def test_run_parse_error_exit_1(tmp_path, capsys):
    src = tmp_path / "bad.moo"
    src.write_text("class A {")
    assert main(["run", str(src)]) == 1


def test_run_runtime_fault_exit_1(tmp_path, capsys):
    src = tmp_path / "crash.moo"
    src.write_text(
        "class N { public N other; }\ndriver {\n    N n = null;\n    print(n.other);\n}\n"
    )
    assert main(["run", str(src)]) == 1
    assert "runtime fault" in capsys.readouterr().err


BOOM = """
class W {
    protected int x;
    public W() { this.x = 1; }
    public int boom(W o) { return o.x; }
}
"""


def test_run_runtime_fault_prints_prior_output_first(tmp_path, capsys):
    src = tmp_path / "boom.moo"
    src.write_text(BOOM + 'driver { print("before"); W w = new W(); print(w.boom(null)); }\n')
    assert main(["run", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "before\n"
    assert captured.err == "runtime fault: null dereference reading 'x'\n"


def test_run_trace_runtime_fault_prints_prior_combined_lines(tmp_path, capsys):
    src = tmp_path / "boom.moo"
    src.write_text(BOOM)
    spec = tmp_path / "boom.json"
    spec.write_text('{"classes": [{"name": "W", "invariant": ["x >= 0"]}]}')
    out = tmp_path / "out"
    assert main(["weave", str(src), "--spec", str(spec), "--out", str(out)]) == 0
    drv = tmp_path / "drv.moo"
    drv.write_text('driver { W w = new ExposedW(); print("before"); print(w.boom(null)); }\n')
    capsys.readouterr()
    woven = [str(p) for p in sorted(out.glob("*.moo"))]
    assert main(["run", "--trace", str(src), *woven, str(drv)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "CHECK 1 W construction <init>",
        "before",
        "CHECK 1 W entry boom",
    ]
    assert captured.err == "runtime fault: null dereference reading 'x'\n"


@pytest.mark.parametrize("bad", ["source", "spec"])
def test_non_utf8_input_is_an_io_failure(bad, tmp_path, capsys):
    paths = {"source": str(DLIST / "list.moo"), "spec": str(DLIST / "invariants.json")}
    paths[bad] = str(tmp_path / "latin1")
    (tmp_path / "latin1").write_bytes(b"// caf\xe9\n")
    code = main(["weave", paths["source"], "--spec", paths["spec"], "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cannot read %s: " % paths[bad])


def test_run_deep_minioo_recursion_is_a_one_line_fault(tmp_path, capsys):
    src = tmp_path / "deep.moo"
    src.write_text(
        "class D { public int down(int n) { if (n == 0) { return 0; } return this.down(n - 1); } }\n"
        'driver { print("before"); D d = new D(); print(d.down(5000)); }\n'
    )
    assert main(["run", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "before\n"
    assert captured.err == "runtime fault: MiniOO calls nested too deeply\n"


def test_run_endless_loop_is_a_one_line_fault(tmp_path, capsys):
    src = tmp_path / "spin.moo"
    src.write_text("driver { print(1); while (true) { } }\n")
    assert main(["run", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "1\n"
    assert captured.err == "runtime fault: run used up its budget of %d steps\n" % MAX_STEPS
    assert main(["run", "--max-steps", "7", str(src)]) == 1
    assert capsys.readouterr() == ("1\n", "runtime fault: run used up its budget of 7 steps\n")


def test_run_checked_list_stops_at_the_same_step_every_time(tmp_path, capsys):
    out = tmp_path / "out"
    spec = str(DLIST / "invariants.json")
    assert main(["weave", str(DLIST / "list_fixed.moo"), "--spec", spec, "--out", str(out)]) == 0
    capsys.readouterr()
    files = [str(DLIST / "list_fixed.moo")] + [str(out / n) for n in GENERATED] + [str(DLIST / "driver_checked.moo")]
    assert main(["run", "--trace"] + files) == 0
    full = capsys.readouterr().out
    runs = []
    for _ in range(3):
        assert main(["run", "--trace", "--max-steps", "200"] + files) == 1
        runs.append(capsys.readouterr())
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].err == "runtime fault: run used up its budget of 200 steps\n"
    assert runs[0].out and full.startswith(runs[0].out) and len(runs[0].out) < len(full)
    assert len(runs[0].out.splitlines()) == 14  # the step the budget runs out at


@pytest.mark.parametrize(
    "steps, out",
    [("3", "1\n"), ("7", "1\n2\n2\n1\n0\n2\n")],  # the 4th step is a call, the 8th a construction
)
def test_run_max_steps_runs_out_on_a_call_or_a_construction(tmp_path, capsys, steps, out):
    src = tmp_path / "steps.moo"
    src.write_text(
        "class D { public int down(int n) { if (n == 0) { return 0; } return this.down(n - 1) + 1; } }\n"
        "class C { public C c; public C(int n) { print(n); if (n > 0) { this.c = new C(n - 1); } } }\n"
        "class E extends C { public E() { super(1); print(9); } }\n"
        "driver { print(1); D d = new D(); print(d.down(2)); C c = new C(2); print(2); E e = new E(); }\n"
    )
    assert main(["run", "--max-steps", steps, str(src)]) == 1
    assert capsys.readouterr() == (out, "runtime fault: run used up its budget of %s steps\n" % steps)


@pytest.mark.parametrize("steps", ["-1", "many", "1.5", "\u0664"])
def test_run_max_steps_must_be_a_whole_number(steps, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--max-steps", steps, str(DLIST / "list.moo")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("is not a whole number of steps")


def test_run_printing_an_integer_past_the_digit_limit_is_a_one_line_fault(tmp_path, capsys):
    src = tmp_path / "big.moo"
    src.write_text(
        'driver { print("before"); int x = 1; int i = 0;\n'
        "    while (i < 5000) { x = x * 10; i = i + 1; }\n    print(x); }\n"
    )
    assert main(["run", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "before\n"
    limit = sys.get_int_max_str_digits()
    assert captured.err == "runtime fault: integer of more than %d digits cannot be printed\n" % limit


def test_run_integer_literal_past_the_digit_limit_is_a_positioned_error(tmp_path, capsys):
    src = tmp_path / "big.moo"
    src.write_text("driver {\n    int x = %s;\n}\n" % ("9" * 5000))
    assert main(["run", str(src)]) == 1
    captured = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert captured.out == ""
    assert captured.err == "%s:2:13: error [syntax] integer literal of more than %d digits\n" % (src, limit)


def test_report_spec_integer_literal_past_the_digit_limit_is_a_positioned_error(tmp_path, capsys):
    spec = tmp_path / "big.json"
    spec.write_text('{"classes":[{"name":"AbstractList","invariant":["size >= %s"]}]}' % ("9" * 5000))
    assert main(["report", str(DLIST / "list.moo"), "--spec", str(spec)]) == 1
    captured = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert captured.out == ""
    assert captured.err == (
        "%s: 1:9: error [syntax] AbstractList, invariant[0]: integer literal of more than %d digits\n"
        % (spec, limit)
    )


@pytest.mark.parametrize("n, code", [(MAX_CALL_DEPTH - 1, 0), (MAX_CALL_DEPTH, 1)])
def test_run_recursion_up_to_the_call_depth_limit(n, code, tmp_path, capsys):
    # down(n) nests n + 1 calls under the driver: the limit itself runs, one more faults.
    src = tmp_path / "deep.moo"
    src.write_text(
        "class D { public int down(int n) { if (n == 0) { return 0; } return this.down(n - 1); } }\n"
        'driver { print("before"); D d = new D(); print(d.down(%d)); }\n' % n
    )
    assert main(["run", str(src)]) == code
    captured = capsys.readouterr()
    assert captured.out == ("before\n0\n" if code == 0 else "before\n")
    assert captured.err == ("" if code == 0 else "runtime fault: MiniOO calls nested too deeply\n")


_N = "class N { public N n; public N() { this.n = this; } }\n"


@pytest.mark.parametrize(
    "program, printed",
    [
        pytest.param("driver { int x = %s; print(x); }" % " + ".join(["1"] * 400), "400", id="sum-400"),
        pytest.param("driver { int x = %s; print(x); }" % " / ".join(["8"] + ["1"] * 400), "8", id="quotient-400"),
        # Each term nests one more Binary on the left, each step one more FieldAccess.
        pytest.param("driver { int x = %s; print(x); }" % " + ".join(["1"] * 4000), "4000", id="sum-4000"),
        pytest.param(_N + "driver { N a = new N(); N b = a%s; print(b == a); }" % (".n" * 1000), "true", id="field-chain-1000"),
        pytest.param(_N + "driver { N a = new N(); N b = a%s; print(b == a); }" % (".n" * 4000), "true", id="field-chain-4000"),
        pytest.param("driver { print(%strue); }" % ("!" * 900), "true", id="not-900"),
    ],
)
def test_run_long_operator_chain(program, printed, tmp_path, capsys):
    src = tmp_path / "long.moo"
    src.write_text(program + "\n")
    assert main(["run", str(src)]) == 0
    assert capsys.readouterr().out == printed + "\n"


def test_report_long_flat_sum_predicate(tmp_path, capsys):
    data = json.loads((DLIST / "invariants.json").read_text())
    assert data["classes"][0]["name"] == "AbstractList"
    data["classes"][0]["invariant"] = [" + ".join(["size"] * 600) + " >= 0"]
    spec = tmp_path / "flat.json"
    spec.write_text(json.dumps(data))
    assert main(["report", str(DLIST / "list.moo"), "--spec", str(spec)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "SPACE PASS (3 <= 14)"


def test_weave_and_run_long_flat_sum_predicate(tmp_path, capsys):
    data = json.loads((DLIST / "invariants.json").read_text())
    data["classes"][0]["invariant"] = [" + ".join(["size"] * 4000) + " >= 0"]
    spec, out = tmp_path / "flat.json", tmp_path / "out"
    spec.write_text(json.dumps(data))
    assert main(["weave", str(DLIST / "list.moo"), "--spec", str(spec), "--out", str(out)]) == 0
    capsys.readouterr()
    woven = [str(out / n) for n in GENERATED]
    assert main(["run", str(DLIST / "list.moo"), *woven, str(DLIST / "driver_checked.moo")]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == "VIOLATION DLinkedList 0 exit remove"


@pytest.mark.parametrize("command", ["report", "weave"])
def test_deeply_nested_spec_predicate_is_a_positioned_error(command, tmp_path, capsys):
    data = json.loads((DLIST / "invariants.json").read_text())
    text = "(" * 3000 + "size >= 0" + ")" * 3000
    data["classes"][0]["invariant"] = [text]
    spec = tmp_path / "nested.json"
    spec.write_text(json.dumps(data))
    argv = [command, str(DLIST / "list.moo"), "--spec", str(spec)]
    assert main(argv + (["--out", str(tmp_path / "out")] if command == "weave" else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # The column is where the Python stack gave out, so it depends on the caller's depth.
    found = re.fullmatch(
        r"%s: 1:(\d+): error \[syntax\] AbstractList, invariant\[0\]: expression nested too deeply\n"
        % re.escape(str(spec)),
        captured.err,
    )
    assert found is not None, captured.err
    assert text[int(found.group(1)) - 1] == "("


def test_run_deeply_nested_expression_is_a_one_line_error(tmp_path, capsys):
    src = tmp_path / "nested.moo"
    text = "driver { print(%s1%s); }\n" % ("(" * 3000, ")" * 3000)
    src.write_text(text)
    assert main(["run", str(src)]) == 1
    err = capsys.readouterr().err
    # The column is where the Python stack gave out, so it depends on the caller's depth.
    found = re.fullmatch(
        r"%s:1:(\d+): error \[syntax\] expression nested too deeply\n" % re.escape(str(src)), err
    )
    assert found is not None, err
    assert text[int(found.group(1)) - 1] == "("


_CHAIN = "int x = 3; if (x == 0) { print(0); }" + "".join(
    " else if (x == %d) { print(%d); }" % (i, i) for i in range(1, 401)
)


@pytest.mark.parametrize(
    "text, level_201",  # what comes before the brace that opens the 201st statement level
    [
        (
            "driver { %s print(1); %s }\n" % ("if (true) { " * 400, "} " * 400),
            "driver { " + "if (true) { " * 200 + "if (true) ",
        ),
        ("driver { %s }\n" % _CHAIN, "else if (x == 200) "),
        ("class A { public void m() { %s } }\ndriver { A a = new A(); a.m(); }\n" % _CHAIN, "else if (x == 200) "),
    ],
    ids=["nested", "driver-chain", "method-chain"],
)
def test_run_deeply_nested_statements_are_a_one_line_error(text, level_201, tmp_path, capsys):
    src = tmp_path / "nested.moo"
    src.write_text(text)
    assert main(["run", str(src)]) == 1
    captured = capsys.readouterr()
    found = re.fullmatch(
        r"%s:1:(\d+): error \[syntax\] statement nested too deeply\n" % re.escape(str(src)), captured.err
    )
    assert found is not None and captured.out == "", captured.err
    col = int(found.group(1))
    assert text[col - 1] == "{" and text[: col - 1].endswith(level_201)


@pytest.mark.parametrize("depth", [80, 150])
def test_run_moderately_nested_expression_still_runs(depth, tmp_path, capsys):
    src = tmp_path / "nested.moo"
    src.write_text("driver { print(%s1%s); }\n" % ("(" * depth, ")" * depth))
    assert main(["run", str(src)]) == 0
    assert capsys.readouterr().out == "1\n"


def test_run_no_driver_exit_1(capsys):
    assert main(["run", str(DLIST / "list.moo")]) == 1


def test_run_entry_selects_driver(tmp_path, capsys):
    a = tmp_path / "a.moo"
    b = tmp_path / "b.moo"
    a.write_text('driver { print("from a"); }\n')
    b.write_text('driver { print("from b"); }\n')
    assert main(["run", str(a), str(b)]) == 1  # ambiguous without --entry
    capsys.readouterr()
    assert main(["run", str(a), str(b), "--entry", str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == ["from b"]


def test_report_output_and_exit(capsys):
    code = main(
        ["report", str(DLIST / "list.moo"), "--spec", str(DLIST / "invariants.json")]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "depth h=1" in lines
    assert any(l.startswith("class AbstractList:") for l in lines)
    assert any(l.startswith("class DLinkedList:") for l in lines)
    assert lines[-1].startswith("SPACE PASS")


def test_report_synthetic_depth8_bound(tmp_path, capsys):
    lines = []
    entries = []
    for i in range(9):
        header = "class K%d" % i + (" extends K%d" % (i - 1) if i else "")
        lines.append(header + " {")
        lines.append("    protected int f%d;" % i)
        lines.append("    public K%d() {" % i)
        if i:
            lines.append("        super();")
        lines.append("    }")
        for k in range(6):
            lines.append("    public void m%d_%d() {" % (i, k))
            lines.append("        this.f%d = this.f%d + 1;" % (i, i))
            lines.append("    }")
        lines.append("}")
        entries.append('{"name": "K%d", "invariant": ["f%d >= 0"]}' % (i, i))
    src = tmp_path / "chain.moo"
    src.write_text("\n".join(lines) + "\n")
    spec = tmp_path / "chain.json"
    spec.write_text('{"classes": [%s]}' % ", ".join(entries))
    code = main(["report", str(src), "--spec", str(spec)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert "depth h=8" in out
    assert "max_new_members n=7" in out
    assert "formula_bound=252" in out
    assert out[-1].startswith("SPACE PASS")


def test_report_single_class_h0(tmp_path, capsys):
    src = tmp_path / "one.moo"
    src.write_text("class Solo { protected int x; }\n")
    spec = tmp_path / "one.json"
    spec.write_text('{"classes": [{"name": "Solo", "invariant": ["x >= 0"]}]}')
    assert main(["report", str(src), "--spec", str(spec)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "depth h=0" in out
    assert "formula_bound=0" in out
    assert out[-1] == "SPACE PASS (0 <= 0)"


def test_weave_deterministic_byte_identical(tmp_path):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(weave_args(out1)) == 0
    assert main(weave_args(out2)) == 0
    for name in GENERATED + ["report.json"]:
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, name


@pytest.mark.parametrize("command", ["weave", "run", "report"])
def test_exit_codes_stay_in_contract(command, tmp_path, capsys):
    # A missing file is an I/O failure for every subcommand.
    args = [command, str(tmp_path / "missing.moo")]
    if command in ("weave", "report"):
        args += ["--spec", str(DLIST / "invariants.json")]
    if command == "weave":
        args += ["--out", str(tmp_path / "o")]
    assert main(args) == 2


def _cli_process(argv, stdout=subprocess.PIPE, **env):
    """`python -m invweave.cli ARGV` in a child process, which writes the
    `invweave.*` modules it loaded to the last line of its stderr as it exits."""
    script = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('invweave.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    sys.stderr.write('\\n' + ' '.join(m for m in sys.modules if m.startswith('invweave.')))\n"
    )
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run(
        [sys.executable, "-c", script] + argv, cwd=REPO, env=env, stdout=stdout,
        stderr=subprocess.PIPE, text=True, timeout=60,
    )


def _loaded(stderr: str) -> set[str]:
    return {m.split(".", 1)[1] for m in stderr.rsplit("\n", 1)[-1].split()}


@pytest.mark.parametrize(
    "command, unused",
    [
        ("--help", {"interp", "weave", "exposure", "invspec", "printer"}),  # importing the CLI alone
        ("report", {"interp"}),
        ("run", {"weave", "exposure", "invspec", "printer"}),
        ("weave", {"interp"}),
    ],
)
def test_each_subcommand_imports_only_the_layers_it_runs(command, unused, tmp_path):
    argv = {
        "--help": ["--help"],
        "report": ["report", str(DLIST / "list.moo"), "--spec", str(DLIST / "invariants.json")],
        "run": ["run", str(DLIST / "list.moo"), str(DLIST / "driver_plain.moo")],
        "weave": weave_args(tmp_path / "out"),
    }[command]
    proc = _cli_process(argv)
    assert proc.returncode == 0, proc.stderr
    loaded = _loaded(proc.stderr)
    assert "parser" in loaded and not loaded & unused


def test_no_subcommand_imports_dataclasses_or_inspect():
    # Both cost a CLI process about a fifth of its start-up.
    script = (
        "import sys\n"
        "import invweave.cli, invweave.interp, invweave.invspec, invweave.exposure, invweave.weave, invweave.printer\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_every_package_export_is_its_home_modules_object():
    import invweave

    for name in invweave.__all__:
        obj = getattr(invweave, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    with pytest.raises(AttributeError):
        invweave.no_such_name


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_is_an_io_failure_without_a_traceback(unbuffered, tmp_path):
    # The reader is gone before the CLI writes, whether stdout is flushed
    # at each line or only when the CLI returns.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process(weave_args(tmp_path / "out"), stdout=write_end, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.rpartition("\n")[0].splitlines() == ["cannot write to stdout: [Errno 32] Broken pipe"]
    assert "Exception ignored" not in proc.stderr
