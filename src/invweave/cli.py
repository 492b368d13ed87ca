"""Command-line surface: weave, run, and report over MiniOO file sets.

Exit codes (total and disjoint):
  0  success
  1  static diagnostics (parse, type, or specification errors) or runtime fault
  2  I/O failure (unreadable input, unwritable output directory)
  3  invariant violation during `run`
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .diagnostics import Diagnostic, ParseError, SpecError, WeaveError, errors_only
from .interp import ExecutionResult, MiniOORuntimeError, run_program
from .invspec import load_spec
from .parser import parse_unit
from .syntax import SourceUnit, merge_units
from .typecheck import typecheck_program
from .weave import render_artifacts, weave_program

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_IO = 2
EXIT_VIOLATION = 3


def _print_diags(diags: list[Diagnostic]) -> int:
    for d in diags:
        print(d, file=sys.stderr)
    return EXIT_DIAGNOSTICS


def _read_sources(paths: list[str]) -> Optional[list[tuple[str, str]]]:
    out = []
    for p in paths:
        try:
            with open(p, "r", encoding="utf-8") as fh:
                out.append((p, fh.read()))
        except (OSError, UnicodeDecodeError) as exc:
            print("cannot read %s: %s" % (p, exc), file=sys.stderr)
            return None
    return out


def _parse_all(
    sources: list[tuple[str, str]], entry: Optional[str]
) -> tuple[Optional[SourceUnit], int]:
    units = []
    entry_index: Optional[int] = None
    for idx, (path, text) in enumerate(sources):
        try:
            units.append(parse_unit(text))
        except ParseError as exc:
            print("%s:%s" % (path, exc.diagnostic), file=sys.stderr)
            return None, EXIT_DIAGNOSTICS
        if entry is not None and os.path.abspath(path) == os.path.abspath(entry):
            entry_index = idx
    if entry is not None and entry_index is None:
        print("--entry %s is not among the source files" % entry, file=sys.stderr)
        return None, EXIT_DIAGNOSTICS
    try:
        merged = merge_units(units, driver_from=entry_index)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None, EXIT_DIAGNOSTICS
    from .parser import validate_structure

    try:
        validate_structure(merged)
    except ParseError as exc:
        print(str(exc.diagnostic), file=sys.stderr)
        return None, EXIT_DIAGNOSTICS
    return merged, EXIT_OK


def _load_spec_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print("cannot read %s: %s" % (path, exc), file=sys.stderr)
        return None, EXIT_IO
    try:
        return load_spec(text), EXIT_OK
    except SpecError as exc:
        print("%s: %s" % (path, exc.diagnostic), file=sys.stderr)
        return None, EXIT_DIAGNOSTICS


def _weave_checked(unit: SourceUnit, spec):
    try:
        return weave_program(unit, spec), EXIT_OK
    except WeaveError as exc:
        return None, _print_diags(exc.diagnostics)


def cmd_weave(args: argparse.Namespace) -> int:
    sources = _read_sources(args.sources)
    if sources is None:
        return EXIT_IO
    unit, code = _parse_all(sources, None)
    if unit is None:
        return code
    spec, code = _load_spec_file(args.spec)
    if spec is None:
        return code
    artifacts, code = _weave_checked(unit, spec)
    if artifacts is None:
        return code
    files = render_artifacts(artifacts)
    try:
        os.makedirs(args.out, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print("cannot write to %s: %s" % (args.out, exc), file=sys.stderr)
        return EXIT_IO
    for name in sorted(files):
        print("wrote %s" % os.path.join(args.out, name))
    return EXIT_OK


def _print_lines(result: ExecutionResult, trace: bool) -> None:
    for line in result.combined if trace else result.output:
        print(line)


def cmd_run(args: argparse.Namespace) -> int:
    sources = _read_sources(args.sources)
    if sources is None:
        return EXIT_IO
    unit, code = _parse_all(sources, args.entry)
    if unit is None:
        return code
    diags = errors_only(typecheck_program(unit))
    if diags:
        return _print_diags(diags)
    if unit.driver is None:
        print("no driver block among the sources", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    try:
        result = run_program(unit, check_trace=args.trace)
    except MiniOORuntimeError as exc:
        if exc.result is not None:  # what the program printed before the fault
            _print_lines(exc.result, args.trace)
        print("runtime fault: %s" % exc, file=sys.stderr)
        return EXIT_DIAGNOSTICS
    _print_lines(result, args.trace)
    if result.violation is not None:
        print(str(result.violation))
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    sources = _read_sources(args.sources)
    if sources is None:
        return EXIT_IO
    unit, code = _parse_all(sources, None)
    if unit is None:
        return code
    spec, code = _load_spec_file(args.spec)
    if spec is None:
        return code
    artifacts, code = _weave_checked(unit, spec)
    if artifacts is None:
        return code
    report = artifacts.report
    for name, counts in report.per_class.items():
        print(
            "class %s: getters=%d wrappers=%d interface_signatures=%d inherited_members=%d"
            % (
                name,
                counts["getters"],
                counts["wrappers"],
                counts["interface_signatures"],
                counts["inherited_members"],
            )
        )
    print("depth h=%d" % report.depth)
    print("max_new_members n=%d" % report.max_new_members)
    print("formula_bound=%d" % report.formula_bound)
    measured = report.measured_redundant()
    if report.within_bound():
        print("SPACE PASS (%d <= %d)" % (measured, report.formula_bound))
        return EXIT_OK
    print("SPACE FAIL (%d > %d)" % (measured, report.formula_bound))
    return EXIT_DIAGNOSTICS


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invweave",
        description="Weave class-invariant checks into MiniOO programs and run them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_weave = sub.add_parser("weave", help="generate exposure artifacts")
    p_weave.add_argument("sources", nargs="+", help="MiniOO source files (.moo)")
    p_weave.add_argument("--spec", required=True, help="invariant specification (JSON)")
    p_weave.add_argument("--out", required=True, help="output directory")
    p_weave.set_defaults(func=cmd_weave)

    p_run = sub.add_parser("run", help="execute a program's driver block")
    p_run.add_argument("sources", nargs="+", help="MiniOO source files (.moo)")
    p_run.add_argument("--trace", action="store_true", help="log check events")
    p_run.add_argument(
        "--entry", help="file whose driver to execute when several have one"
    )
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="space report for woven artifacts")
    p_report.add_argument("sources", nargs="+", help="MiniOO source files (.moo)")
    p_report.add_argument("--spec", required=True, help="invariant specification (JSON)")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except RecursionError:  # a parse or check nested deeper than the Python stack
        print("input nested too deeply to process", file=sys.stderr)
        return EXIT_DIAGNOSTICS


if __name__ == "__main__":
    sys.exit(main())
