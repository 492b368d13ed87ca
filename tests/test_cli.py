"""CLI exit codes, output formats, and golden-file determinism."""

import os
import re

import pytest

from invweave.cli import main

from helpers import CORPUS

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


def test_run_deeply_nested_statements_are_a_one_line_error(tmp_path, capsys):
    src = tmp_path / "nested.moo"
    src.write_text("driver { %s print(1); %s }\n" % ("if (true) { " * 400, "} " * 400))
    assert main(["run", str(src)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"%s:1:\d+: error \[syntax\] statement nested too deeply\n" % re.escape(str(src)), err
    ), err


def test_run_moderately_nested_expression_still_runs(tmp_path, capsys):
    src = tmp_path / "nested.moo"
    src.write_text("driver { print(%s1%s); }\n" % ("(" * 80, ")" * 80))
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
