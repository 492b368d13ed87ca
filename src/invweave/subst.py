"""Type-parameter substitution and deterministic fresh names.

Substitutions are simultaneous: one application replaces each bound variable
once and does not rescan its own images.  A chain of substitutions, as the
hierarchy walk meets when a subclass instantiates its superclass's
parameters, is applied innermost first.
"""

from __future__ import annotations

from .syntax import Frozen, NamedType, Record, TypeExpr, TypeVar, set_field


class TypeSubstitution(Frozen):
    """An ordered, duplicate-free map from type-variable names to types."""

    __slots__ = ("bindings", "_hash")
    def __init__(self, bindings: tuple[tuple[str, TypeExpr], ...] = ()):
        if len({n for n, _ in bindings}) != len(bindings):
            raise ValueError("duplicate variable in substitution")
        set_field(self, "bindings", bindings)

    def lookup(self, name: str) -> TypeExpr | None:
        for n, t in self.bindings:
            if n == name:
                return t
        return None

    def __str__(self) -> str:
        return "[%s]" % ", ".join("%s->%s" % (n, t) for n, t in self.bindings)


def substitute(subst: TypeSubstitution, t: TypeExpr) -> TypeExpr:
    if isinstance(t, TypeVar):
        image = subst.lookup(t.name)
        return t if image is None else image
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

    def fresh(self, base: str) -> str:
        i = 1
        while "%s_X%d" % (base, i) in self.taken:
            i += 1
        name = "%s_X%d" % (base, i)
        self.taken.add(name)
        return name
