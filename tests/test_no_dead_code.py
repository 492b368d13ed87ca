"""Every top-level function and class of the package, and every method, is used.

A definition counts as used when its name occurs as a name or an attribute
somewhere under `src/` or `bench/` outside the definition itself, or when it
is listed in `invweave.__all__`.  A module's `__getattr__` counts as used too:
the import system calls it by that name (PEP 562) when an attribute is missing.
A method counts as used on the same terms, where a name in `tests/` counts too
(tests call a class's entry points by name, as host code would),
and so do a dunder, which Python calls, and a method whose name starts with
the prefix of a call by a name built at run time (`getattr(self, "s_" + ...)`).
A name in a table, such as the typing rules of `typecheck._Checker`, is a
reference.  The scan is by name only, so it errs on the side of keeping code;
what it reports has no caller at all.  Likewise every name a module imports at
its top level is used in that module.
"""

import ast
from collections import Counter
from pathlib import Path

import invweave

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "invweave"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(tree: ast.AST) -> Counter:
    """How often each name occurs in `tree` as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _trees(*dirs: str) -> list:
    return [ast.parse(path.read_text(), str(path)) for d in dirs for path in sorted((REPO / d).rglob("*.py"))]


def _prefixes(trees: list) -> set[str]:
    """The prefixes `p` of each `getattr(..., "p" + ...)`: a call by a name built at run time."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr" and len(node.args) > 1:
                name = node.args[1]
                if isinstance(name, ast.BinOp) and isinstance(name.left, ast.Constant):
                    out.add(name.left.value)
    return out


def _package() -> list:
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in sorted(PACKAGE.glob("*.py"))]


def test_every_top_level_definition_is_referenced():
    names = sum(map(_names, _trees("src", "bench")), Counter())
    used = set(invweave.__all__) | {"__getattr__"}
    unused = []
    for module, tree in _package():
        for top in tree.body:
            if isinstance(top, _DEFS) and top.name not in used and names[top.name] == _names(top)[top.name]:
                unused.append("%s:%d %s" % (module, top.lineno, top.name))
    assert unused == []


def test_every_method_is_referenced():
    trees = _trees("src", "bench", "tests")
    names, prefixes = sum(map(_names, trees), Counter()), _prefixes(trees)
    unused = []
    for module, tree in _package():
        for cls in (top for top in tree.body if isinstance(top, ast.ClassDef)):
            for m in cls.body:
                if not isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if m.name.startswith("__") and m.name.endswith("__") or m.name.startswith(tuple(prefixes)):
                    continue
                if names[m.name] == _names(m)[m.name]:
                    unused.append("%s:%d %s.%s" % (module, m.lineno, cls.name, m.name))
    assert unused == []


def test_every_top_level_import_is_referenced():
    unused = []
    for module, tree in _package():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for top in tree.body:
            if isinstance(top, (ast.Import, ast.ImportFrom)) and getattr(top, "module", "") != "__future__":
                for alias in top.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.append("%s:%d %s" % (module, top.lineno, name))
    assert unused == []
