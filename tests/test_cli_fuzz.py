"""Seeded mutations of corpus files through `invweave run`, `weave` and `report`.

Whatever the input, the CLI keeps its contract: the exit code is 0, 1, 2 or
3, no Python traceback escapes, and every message on stderr is one line.
Every run is under a small step budget, so a mutation that makes a driver
loop for ever ends as a one-line fault.  Most mutations stop at a static
error, so seeded well-typed call scripts over the woven gating hierarchies
go through `invweave run --trace` too, each to the end of its driver.
Hypothesis draws the cases from a fixed seed (`derandomize`), so every run
of the suite tries the same ones.
"""

from __future__ import annotations

import contextlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invweave.cli import main

from helpers import CORPUS, GATING_PROFILES, expected_trace, make_script

# (subcommand, source files, specification file or None); the mutated file is one of them
CASES = [
    ("run", ["dlist/list.moo", "dlist/driver_plain.moo"], None),
    ("run", ["transparency/t01.moo"], None),
    ("run", ["transparency/t04.moo"], None),
    ("run", ["transparency/t09.moo"], None),
    ("weave", ["dlist/list_fixed.moo"], "dlist/invariants.json"),
    ("weave", ["transparency/t05.moo"], "transparency/t05.json"),
    ("report", ["dlist/list.moo"], "dlist/invariants.json"),
    ("report", ["gating/g2.moo"], "gating/g2.json"),
]

# Text a mutation may insert: MiniOO and JSON fragments that reach many error paths.
FRAGMENTS = [
    "{", "}", "(", ")", ";", ".", ",", "[", "]", "\"", "\n", "0", "-1", "99999999999999999999",
    "null", "this", "super", "new", "extends", "class", "return", "int", "bool", "<T>",
    "while (true) { }", "print(this);", "@field(this, \"x y\")", "this.f(this.f(1));",
    "\"invariant\": [\"size >= 0\"]", "\"name\": \"Nope\"", "forall", "&&", "/ 0", "==",
]

edits = st.lists(
    st.tuples(
        st.sampled_from(["delete", "duplicate", "insert"]),
        st.floats(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=12),
        st.sampled_from(FRAGMENTS),
    ),
    min_size=1,
    max_size=3,
)


def mutate(text: str, changes: list) -> str:
    for kind, where, length, fragment in changes:
        at = int(where * len(text))
        if kind == "delete":
            text = text[:at] + text[at + length:]
        elif kind == "duplicate":
            text = text[:at] + text[at:at + length] * 2 + text[at + length:]
        else:
            text = text[:at] + fragment + text[at:]
    return text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(case=st.sampled_from(CASES), target=st.integers(min_value=0, max_value=2), changes=edits)
def test_cli_contract_holds_for_mutated_corpus_files(workdir, case, target, changes):
    command, sources, spec = case
    names = sources + ([spec] if spec else [])
    victim = names[target % len(names)]
    paths = []
    for i, name in enumerate(names):
        text = (CORPUS / name).read_text()
        path = workdir / ("%d_%s" % (i, name.rsplit("/", 1)[-1]))
        path.write_text(mutate(text, changes) if name == victim else text)
        paths.append(str(path))
    argv = [command] + paths[: len(sources)]
    if spec:
        argv += ["--spec", paths[-1]]
    argv += {"run": ["--max-steps", "20000"], "weave": ["--out", str(workdir / "out")], "report": []}[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert all(line and not line[0].isspace() for line in lines), lines
    if code in (0, 3):
        assert lines == []
    if code == 2 or any(line.startswith("runtime fault:") for line in lines):
        assert len(lines) == 1, lines


@pytest.fixture(scope="module")
def woven_gating(tmp_path_factory):
    """Each gating hierarchy's source and woven files, as `invweave weave` writes them."""
    out, files = tmp_path_factory.mktemp("gating"), {}
    for name in sorted(GATING_PROFILES):
        moo = CORPUS / "gating" / (name + ".moo")
        spec = str(moo.with_suffix(".json"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["weave", str(moo), "--spec", spec, "--out", str(out / name)]) == 0
        files[name] = [str(moo)] + sorted(str(p) for p in (out / name).glob("*.moo"))
    return out, files


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(GATING_PROFILES)), seed=st.integers(0, 2**32), length=st.integers(1, 20))
def test_well_typed_gating_scripts_run_to_the_end(woven_gating, name, seed, length):
    out_dir, files = woven_gating
    text, steps = make_script(random.Random(seed), GATING_PROFILES[name], length)
    script = out_dir / ("%s_script.moo" % name)
    script.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--trace", "--max-steps", "20000"] + files[name] + [str(script)])
    assert (code, err.getvalue()) == (0, "")
    assert expected_trace(steps, out.getvalue().splitlines()) is None, text
