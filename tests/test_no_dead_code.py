"""Every top-level function and class of the package is used.

A definition counts as used when its name occurs as a name or an attribute
somewhere under `src/` or `bench/` outside the definition itself, or when it
is listed in `invweave.__all__`.  A module's `__getattr__` counts as used too:
the import system calls it by that name (PEP 562) when an attribute is missing.
The scan is by name only, so it errs on the side of keeping code; what it
reports has no caller at all.  Likewise every name a module imports at its
top level is used in that module.
"""

import ast
from pathlib import Path

import invweave

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "invweave"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names() -> set[str]:
    names: set[str] = set()
    for path in sorted((REPO / "src").rglob("*.py")) + sorted((REPO / "bench").rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            own = top.name if isinstance(top, _DEFS) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    names.add(name)
    return names


def test_every_top_level_definition_is_referenced():
    used = _referenced_names() | set(invweave.__all__) | {"__getattr__"}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            if isinstance(top, _DEFS) and top.name not in used:
                unused.append("%s:%d %s" % (path.name, top.lineno, top.name))
    assert unused == []


def test_every_top_level_import_is_referenced():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for top in tree.body:
            if isinstance(top, (ast.Import, ast.ImportFrom)) and getattr(top, "module", "") != "__future__":
                for alias in top.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.append("%s:%d %s" % (path.name, top.lineno, name))
    assert unused == []
