"""The benchmark's tracer wraps invweave functions by name: a rename that it
does not follow must fail here, not only show as `trace.missing` after a
benchmark run."""

import importlib
import sys

from helpers import REPO


def test_every_traced_name_is_a_function_of_its_layer():
    sys.path.insert(0, str(REPO / "bench"))
    try:
        from tracer import COUNTERS, ENTRY_POINTS
    finally:
        sys.path.remove(str(REPO / "bench"))
    traced = set()
    for layer, names in ENTRY_POINTS.items():
        module = importlib.import_module("invweave." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), "%s.%s" % (layer, name)
            traced.add("%s.%s" % (layer, name))
    assert set(COUNTERS) <= traced
