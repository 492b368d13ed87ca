"""invweave: class-invariant check weaving for the MiniOO subject language.

The pipeline: parse MiniOO sources, load a JSON invariant specification,
analyze the class hierarchy for representation exposure, generate exposure
interfaces / exposed subclasses / an invariant visitor, and execute original
or woven programs by compiling each MiniOO body to a Python function.

The names below are imported from their home module on first use (PEP 562),
so importing the package, or one of its modules, loads only what is used.
"""

import importlib

# public name -> the module that defines it
_HOME = {
    "Diagnostic": "diagnostics",
    "ParseError": "diagnostics",
    "SpecError": "diagnostics",
    "WeaveError": "diagnostics",
    "ExecutionResult": "interp",
    "MiniOORuntimeError": "interp",
    "ViolationRecord": "interp",
    "run_program": "interp",
    "InvariantSpec": "invspec",
    "load_spec": "invspec",
    "serialize_spec": "invspec",
    "validate_spec": "invspec",
    "parse_unit": "parser",
    "render_source": "printer",
    "SourceUnit": "syntax",
    "merge_units": "syntax",
    "typecheck_program": "typecheck",
    "WovenArtifacts": "weave",
    "render_artifacts": "weave",
    "swap_driver_constructors": "weave",
    "weave_program": "weave",
}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + home, __name__), name)
