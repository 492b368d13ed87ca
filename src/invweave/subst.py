"""Type-parameter substitution and deterministic fresh names.

Substitutions are simultaneous: one application replaces each bound variable
once and does not rescan its own images.  A chain of substitutions, as the
hierarchy walk meets when a subclass instantiates its superclass's
parameters, is applied innermost first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import NamedType, TypeExpr, TypeVar


@dataclass(frozen=True)
class TypeSubstitution:
    """An ordered, duplicate-free map from type-variable names to types."""

    bindings: tuple[tuple[str, TypeExpr], ...] = ()

    def __post_init__(self) -> None:
        names = [n for n, _ in self.bindings]
        if len(names) != len(set(names)):
            raise ValueError("duplicate variable in substitution")

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


@dataclass
class NameSupply:
    """Deterministic fresh names: `base_X1`, `base_X2`, ... skipping taken ones."""

    taken: set[str] = field(default_factory=set)

    def reserve(self, name: str) -> None:
        self.taken.add(name)

    def fresh(self, base: str) -> str:
        i = 1
        while "%s_X%d" % (base, i) in self.taken:
            i += 1
        name = "%s_X%d" % (base, i)
        self.taken.add(name)
        return name
