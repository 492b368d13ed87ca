import json

import pytest

from invweave.diagnostics import SpecError
from invweave.exposure import free_vars_ordered
from invweave.invspec import (
    Forall,
    InvariantSpec,
    load_spec,
    parse_predicate,
    render_predicate,
    serialize_spec,
    validate_spec,
)
from invweave.syntax import (
    Binary,
    BoolLit,
    ExprStmt,
    FieldAccess,
    IntLit,
    MethodCall,
    NamedType,
    NewObject,
    NullLit,
    ThisExpr,
    VarRead,
)

from helpers import load_dlist


def test_load_single_entry():
    spec = load_spec('{"classes":[{"name":"AbstractList","invariant":["size >= 0"]}]}')
    assert spec.classes() == ["AbstractList"]
    preds = spec.predicates("AbstractList")
    assert len(preds) == 1
    p = preds[0]
    assert isinstance(p, Binary) and p.op == ">="
    assert p.left == VarRead("size") and p.right == IntLit(0)


def test_load_empty_spec():
    spec = load_spec('{"classes":[]}')
    assert spec.classes() == []


def test_quantified_entry_free_vars():
    spec = load_spec(
        '{"classes":[{"name":"DLinkedList","invariant":'
        '["forall (n = head.next; n != tail; n = n.next) : n.next.prev == n"]}]}'
    )
    p = spec.predicates("DLinkedList")[0]
    assert isinstance(p, Forall)
    assert set(free_vars_ordered(p)) == {"head", "tail"}


def test_unknown_top_level_key_rejected():
    with pytest.raises(SpecError):
        load_spec('{"classes":[], "extra": 1}')


def test_unknown_entry_key_rejected():
    with pytest.raises(SpecError):
        load_spec('{"classes":[{"name":"A","invariant":[],"notes":"x"}]}')


def test_malformed_json_rejected():
    with pytest.raises(SpecError) as exc:
        load_spec("{")
    assert exc.value.diagnostic.code == "spec-format"


def test_duplicate_class_entry_rejected():
    with pytest.raises(SpecError):
        load_spec(
            '{"classes":[{"name":"A","invariant":[]},{"name":"A","invariant":[]}]}'
        )


def test_predicate_parse_error_names_class_and_index():
    with pytest.raises(SpecError) as exc:
        load_spec('{"classes":[{"name":"A","invariant":["size >=", "x > 0"]}]}')
    assert "A, invariant[0]" in exc.value.diagnostic.message


@pytest.mark.parametrize(
    "bad",
    [
        "this.size >= 0",  # no receiver keyword in predicates
        "f() == 1",  # calls
        "new A() == null",  # allocation
        "size = 1",  # assignment is not an expression
        "forall (n = head; n != tail; n = tail) : true",  # step must mention n
        "forall (n = head; n != tail; m = n.next) : true",  # step assigns n only
    ],
)
def test_restricted_grammar_rejections(bad):
    with pytest.raises(Exception):
        parse_predicate(bad)


def test_serialize_roundtrip_is_identity():
    doc = (
        '{"classes":[{"name":"AbstractList","invariant":["size >= 0"]},'
        '{"name":"DLinkedList","invariant":'
        '["forall (n = head; n != tail; n = n.next) : n.next.prev == n","size >= 0"]}]}'
    )
    spec = load_spec(doc)
    again = load_spec(serialize_spec(spec))
    assert again == spec
    # Canonical serialization is a fixed point.
    assert serialize_spec(again) == serialize_spec(spec)


def test_render_predicate_forall_shape():
    p = parse_predicate("forall (n = head; n != tail; n = n.next) : n.next.prev == n")
    assert (
        render_predicate(p)
        == "forall (n = head; n != tail; n = n.next) : n.next.prev == n"
    )


def test_validate_dlist_spec_clean():
    unit, spec = load_dlist()
    assert validate_spec(spec, unit) == []


def test_validate_unknown_class():
    unit, _ = load_dlist()
    spec = load_spec('{"classes":[{"name":"Ghost","invariant":["x > 0"]}]}')
    diags = validate_spec(spec, unit)
    assert [d.code for d in diags] == ["unknown-class"]


def test_validate_unknown_field():
    unit, _ = load_dlist()
    spec = load_spec('{"classes":[{"name":"DLinkedList","invariant":["ghost > 0"]}]}')
    diags = validate_spec(spec, unit)
    assert [d.code for d in diags] == ["unknown-field"]


def test_validate_non_boolean_predicate():
    unit, _ = load_dlist()
    spec = load_spec('{"classes":[{"name":"AbstractList","invariant":["size + 1"]}]}')
    diags = validate_spec(spec, unit)
    assert [d.code for d in diags] == ["non-boolean-predicate"]


def test_validate_inherited_field_resolves():
    unit, _ = load_dlist()
    spec = load_spec('{"classes":[{"name":"DLinkedList","invariant":["size >= 0"]}]}')
    assert validate_spec(spec, unit) == []


def test_validate_quantifier_shadowing_field_rejected():
    unit, _ = load_dlist()
    spec = load_spec(
        '{"classes":[{"name":"DLinkedList","invariant":'
        '["forall (size = head; size != tail; size = size.next) : true"]}]}'
    )
    diags = validate_spec(spec, unit)
    assert any(d.code == "predicate-grammar" for d in diags)


def test_validate_is_monotone_in_predicates():
    unit, _ = load_dlist()
    base = '{"classes":[{"name":"DLinkedList","invariant":["ghost > 0"%s]}]}'
    d1 = validate_spec(load_spec(base % ""), unit)
    d2 = validate_spec(load_spec(base % ', "size >= 0"'), unit)
    d3 = validate_spec(load_spec(base % ', "phantom > 0"'), unit)
    as_set = lambda ds: {(d.code, d.message) for d in ds}
    assert as_set(d1) <= as_set(d2) | as_set(d1)
    assert as_set(d1) <= as_set(d3)
    assert len(d3) == len(d1) + 1


def test_validate_rejects_calls_allocation_and_this_in_a_spec_built_in_code():
    # parse_predicate never builds these nodes, so only a hand-built spec has them.
    unit, _ = load_dlist()
    spec = InvariantSpec(
        {
            "AbstractList": [
                Binary(">=", MethodCall(ThisExpr(), "size", []), IntLit(0)),
                Binary("!=", NewObject(NamedType("DNode", (NamedType("int"),)), [IntLit(1)]), NullLit()),
                Binary(">=", FieldAccess(ThisExpr(), "size"), IntLit(0)),
                Binary(">=", VarRead("size"), IntLit(0)),
                # The rules above a disallowed node still run, in order.
                Binary("&&", MethodCall(ThisExpr(), "size", []), VarRead("nosuch")),
                # So does a node that is no expression at all.
                Binary("||", ExprStmt(IntLit(1)), BoolLit(True)),
            ]
        }
    )
    diags = validate_spec(spec, unit)
    expected = [
        ("predicate-grammar", "AbstractList, invariant[0]: MethodCall is not allowed in a predicate"),
        ("predicate-grammar", "AbstractList, invariant[1]: NewObject is not allowed in a predicate"),
        ("predicate-grammar", "AbstractList, invariant[2]: ThisExpr is not allowed in a predicate"),
    ]
    assert [(d.code, d.message) for d in diags] == expected + [
        ("predicate-grammar", "AbstractList, invariant[4]: MethodCall is not allowed in a predicate"),
        ("unknown-field", "AbstractList, invariant[4]: no field 'nosuch' on AbstractList or its ancestors"),
        ("predicate-grammar", "AbstractList, invariant[5]: ExprStmt is not allowed in a predicate"),
    ]
    # Written as text, the same predicates are refused at load time in the same words.
    for j, text in enumerate(["size() >= 0", "new DNode<int>(1) != null", "this.size >= 0"]):
        doc = {"classes": [{"name": "AbstractList", "invariant": ["size >= 0"] * j + [text]}]}
        with pytest.raises(SpecError) as exc:
            load_spec(json.dumps(doc))
        assert (exc.value.diagnostic.code, exc.value.diagnostic.message) == expected[j]


@pytest.mark.parametrize(
    "pred, message",
    [
        ("size == null", "cannot compare int with null"),
        ("size + true > 0", "+ expects int or string operands"),
        ("head * 2 > 0", "* expects int operands"),
        ("!size", "! expects bool, got int"),
    ],
)
def test_validate_types_predicates_by_the_minioo_rules(pred, message):
    unit, _ = load_dlist()
    spec = load_spec('{"classes":[{"name":"DLinkedList","invariant":["%s"]}]}' % pred)
    diags = validate_spec(spec, unit)
    assert (diags[0].code, diags[0].message) == (
        "non-boolean-predicate",
        "DLinkedList, invariant[0]: " + message,
    )
