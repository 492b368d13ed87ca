"""Span recording around the public entry points of each invweave layer.

The tracer replaces module attributes with wrappers, from the benchmark's
side only: the entry point itself, and every reference another module
imported (such as `weave.typecheck_program` or `cli.run_program`), so that a
call from one layer into another shows up as a nested span.  Spans are kept
in memory and summarised once, at the end of the traced run.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable

# layer -> public functions whose calls are that layer's spans
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "lexer": ("tokenize",),
    "parser": ("parse_unit", "validate_structure"),
    "typecheck": ("typecheck_program",),
    "invspec": ("load_spec", "validate_spec", "type_predicate"),
    "exposure": ("compute_plan", "verify_exposure"),
    "weave": ("weave_program", "swap_driver_constructors", "render_artifacts"),
    "printer": ("render_source",),
    "interp": ("run_program",),
    "cli": ("main",),
    "syntax": ("merge_units",),
}


def _generated_members(artifacts: Any) -> int:
    classes = list(artifacts.exposed_classes) + [artifacts.visitor]
    members = sum(len(c.fields) + len(c.methods) + (c.constructor is not None) for c in classes)
    return members + sum(len(i.methods) for i in artifacts.interfaces)


# "layer.function" -> counts taken from a call's result as it returns
COUNTERS: dict[str, Callable[[Any], dict[str, int]]] = {
    "interp.run_program": lambda r: {"interp.checks": len(r.trace), "interp.output_lines": len(r.output)},
    "typecheck.typecheck_program": lambda r: {"typecheck.calls": 1},
    "weave.weave_program": lambda r: {"weave.generated_members": _generated_members(r)},
    "exposure.compute_plan": lambda r: {
        "exposure.getters": sum(len(c.own_signatures) for c in r.per_class.values())
    },
    "invspec.load_spec": lambda r: {"invspec.predicates": sum(len(p) for p in r.entries.values())},
    "lexer.tokenize": lambda r: {"lexer.tokens": len(r)},
    "printer.render_source": lambda r: {"printer.bytes": len(r.encode())},
}


COUNT_KEYS = (
    "interp.checks",
    "interp.output_lines",
    "typecheck.calls",
    "weave.generated_members",
    "exposure.getters",
    "invspec.predicates",
    "lexer.tokens",
    "parser.nodes",
    "printer.bytes",
)


@dataclass
class Span:
    layer: str
    name: str
    parent: int  # index into Tracer.spans, -1 at top level
    arg: Any = None  # first positional argument, held only while the span is open
    start: float = 0.0
    end: float = 0.0
    children_s: float = 0.0
    selfcheck: bool = False  # a typecheck of weave_program's output, not its input
    counts: dict[str, int] = field(default_factory=dict)
    unit: Any = None  # a parsed unit, whose nodes are counted after the run

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    modules: dict[str, ModuleType]  # modules to patch, by short name
    entry_points: dict[str, tuple[str, ...]]
    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    paused: bool = False
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[ModuleType, str, Callable]] = field(default_factory=list)

    def install(self) -> None:
        """Wrap every entry point that exists; record the rest as missing."""
        self.missing = []
        for layer, names in self.entry_points.items():
            home = self.modules.get(layer)
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    self.missing.append("%s.%s" % (layer, name))
                    continue
                wrapper = self._wrap(layer, name, fn)
                for mod in self.modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, fn))

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        key = "%s.%s" % (layer, name)
        counter = COUNTERS.get(key)

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = Span(layer, name, stack[-1] if stack else -1, args[0] if args else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf()
                stack.pop()
            if span.parent >= 0:
                parent = spans[span.parent]
                parent.children_s += span.duration
                span.selfcheck = (
                    key == "typecheck.typecheck_program"
                    and parent.name == "weave_program"
                    and span.arg is not parent.arg
                )
            span.arg = None
            if counter is not None:
                span.counts = counter(result)
            elif key == "parser.parse_unit":
                span.unit = result
            return result

        traced.__wrapped__ = fn
        return traced


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """What tracing adds to one call: the time of a traced call of a function
    that does nothing, nested in another traced call, less that of the same
    call untraced.  The median over `repeats` alternating measurements."""
    probe = ModuleType("span_probe")
    probe.noop = lambda x: x
    probe.outer = lambda: [probe.noop(k) for k in range(calls)]
    tracer = Tracer({"span_probe": probe}, {"span_probe": ("noop", "outer")})
    perf = time.perf_counter
    costs = []
    for _ in range(repeats):
        t0 = perf()
        probe.outer()
        bare = perf() - t0
        tracer.install()
        try:
            t0 = perf()
            probe.outer()
            traced = perf() - t0
        finally:
            tracer.remove()
        tracer.spans.clear()
        costs.append((traced - bare) / (calls + 1))
    return statistics.median(costs)


def invweave_modules() -> dict[str, ModuleType]:
    return {
        name.rsplit(".", 1)[1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("invweave.") and mod is not None
    }


def count_nodes(root: Any) -> int:
    """AST nodes reachable from a parsed unit: every dataclass instance."""
    count = 0
    todo = [root]
    while todo:
        node = todo.pop()
        if isinstance(node, (list, tuple)):
            todo.extend(node)
        elif hasattr(node, "__dataclass_fields__"):
            count += 1
            todo.extend(getattr(node, f) for f in node.__dataclass_fields__)
    return count


def layer_metrics(spans: list[Span], layers: tuple[str, ...]) -> dict[str, float]:
    """Self time per layer and the counts the layers' results gave."""
    out: dict[str, float] = {"%s.s" % layer: 0.0 for layer in layers}
    out.update({key: 0 for key in COUNT_KEYS})
    out.update({"weave.selfcheck_s": 0.0, "cli.main_s": 0.0})
    for span in spans:
        if span.layer not in layers:
            continue
        out["%s.s" % span.layer] += span.self_s
        for k, v in span.counts.items():
            out[k] += v
        if span.selfcheck:
            out["weave.selfcheck_s"] += span.duration
        if span.unit is not None:
            out["parser.nodes"] += count_nodes(span.unit)
        if span.layer == "cli" and span.name == "main":
            out["cli.main_s"] += span.duration
    out["weave.self_s"] = out.pop("weave.s")
    return out
