"""Type-parameter substitution and deterministic fresh names.

A substitution is a `dict` from type-variable names to types.  It is
simultaneous: one application replaces each bound variable once and does
not rescan its own images.  A chain of substitutions, as the hierarchy walk
meets when a subclass instantiates its superclass's parameters, is applied
innermost first.
"""

from __future__ import annotations

from .syntax import NamedType, Record, TypeExpr, TypeVar


def substitute(subst: dict[str, TypeExpr], t: TypeExpr) -> TypeExpr:
    if isinstance(t, TypeVar):
        return subst.get(t.name, t)
    if not t.args:
        return t
    return NamedType(t.name, tuple(substitute(subst, a) for a in t.args))


class NameSupply(Record):
    """Deterministic fresh names: `base_X1`, `base_X2`, ... skipping taken ones."""

    __slots__ = ("taken",)
    def __init__(self, taken: set[str] | None = None):
        self.taken = set() if taken is None else taken

    def reserve(self, name: str) -> None:
        self.taken.add(name)

    def take(self, base: str) -> str:
        """`base` if it is free, else a fresh name; either way now taken."""
        if base in self.taken:
            return self.fresh(base)
        self.taken.add(base)
        return base

    def fresh(self, base: str) -> str:
        i = 1
        while "%s_X%d" % (base, i) in self.taken:
            i += 1
        name = "%s_X%d" % (base, i)
        self.taken.add(name)
        return name
