"""Substitution, fresh names, and the naive-inheritance binding failure
reproduced at the substitution level."""

from invweave.subst import NameSupply, substitute
from invweave.syntax import NamedType, TypeVar


def T(name, *args):
    return NamedType(name, tuple(args))


S = TypeVar


def test_substitute_simple():
    sub = {"S": T("int")}
    assert substitute(sub, T("List", S("S"))) == T("List", T("int"))


def test_substitute_unbound_identity():
    sub = {"S": T("Pair", T("int"), T("bool"))}
    t = T("List", S("U"))
    assert substitute(sub, t) == t


def test_substitute_empty_identity():
    t = T("Map", S("K"), T("List", S("V")))
    assert substitute({}, t) == t


def test_substitution_is_simultaneous_not_iterated():
    # [A -> B, B -> int] applied once must not rewrite the produced B.
    sub = {"A": S("B"), "B": T("int")}
    assert substitute(sub, S("A")) == S("B")


def test_chain_binding_evaluates_to_tau():
    # The chain [S_B2->string][S_B->S_B2][S_A->S_B] applied to S_A, inner first.
    t = substitute(
        {"S_B2": T("string")},
        substitute(
            {"S_B": S("S_B2")},
            substitute({"S_A": S("S_B")}, S("S_A")),
        ),
    )
    assert t == T("string")


def test_naive_scheme_misbinds_renamed_parameter():
    """With the wrapper subclass extending the original subclass, the chain
    reaching A's parameter resolves to the instantiation, but the renamed
    parameter of A's wrapper is never on that chain: it keeps its naive copy
    binding and disagrees whenever the instantiation is not that variable."""
    tau = T("string")
    b2_to_tau = {"S_B2": tau}
    b_to_b2 = {"S_B": S("S_B2")}
    a_to_b = {"S_A": S("S_B")}
    # What A's own parameter receives through B2<tau>:
    assert substitute(b2_to_tau, substitute(b_to_b2, substitute(a_to_b, S("S_A")))) == tau
    # The naive copy relation binds A2's parameter to A's extends argument,
    # which the chain above never resolves:
    naive = substitute(b2_to_tau, substitute(b_to_b2, substitute(a_to_b, S("S_A2"))))
    assert naive == S("S_A2")
    assert naive != tau
    # Correct chain, available only when the wrapper extends the wrapper of A:
    a2_to_b2 = {"S_A2": S("S_B2")}
    a_to_a2 = {"S_A": S("S_A2")}
    assert substitute(b2_to_tau, substitute(a2_to_b2, substitute(a_to_a2, S("S_A")))) == tau
    # Boundary: when tau IS the naive binding's variable the two coincide.
    assert substitute(b2_to_tau, substitute(b_to_b2, substitute(a_to_b, S("S_B")))) == tau


def test_name_supply_is_deterministic_and_skips_taken():
    supply = NameSupply({"x_X1"})
    assert supply.fresh("x") == "x_X2"
    assert supply.fresh("x") == "x_X3"
    assert supply.fresh("y") == "y_X1"
