import json
import random

import pytest

from taut.circle import CircleMap, leaf_exponents
from taut.construct import connect_tuple, random_element
from taut.errors import (
    ExprSyntaxError,
    ExprTypeError,
    SchemaError,
    ValidationError,
)
from taut.expr import (
    canonical_json,
    deserialize,
    evaluate_str,
    serialize,
    to_expression,
)
from taut.lift import LiftMap
from taut.plmap import commutator, conjugate, power
from taut.ring import ONE, TAU, ZTau, tau_pow

TORSION_SRC = ('treepair {"p": ["s+", ["s+", "leaf", "leaf"], "leaf"],'
               ' "q": ["s+", ["s+", "leaf", "leaf"], "leaf"], "shift": 1}')


def _grammar_corpus():
    """Expression texts over the whole grammar, each with the element the
    library builds for it directly."""
    r = CircleMap.rotation(TAU)
    s = CircleMap.rotation(ONE - TAU)
    tree = leaf_exponents(["s+", ["s+", "leaf", "leaf"], "leaf"])
    torsion = CircleMap.from_tree_pair(tree, tree, 1)
    lift_r = LiftMap(r.table)
    corpus = [
        ("trans(t)", LiftMap.translation(TAU)),
        ("rot(1-t)", s),
        ("trans(-1+2*t)", LiftMap.translation(ZTau(-1, 2))),
        ("lift(rot(t), 0)^2", power(lift_r.translate(0), 2)),
        ("comm(rot(t), rot(1-t))", commutator(r, s)),
        ("conj(rot(t), rot(1-t)) * rot(t)", conjugate(r, s) * r),
        ("rot(t)^-1", r.inverse()),
        ("(rot(t) * rot(1-t))^3", power(r * s, 3)),
        ("lift(" + TORSION_SRC + ", -2)", LiftMap(torsion.table).translate(-2)),
        ("let g = rot(t); let h = conj(g, g); comm(g, h)",
         commutator(r, conjugate(r, r))),
        # a let chain of elements that do not commute
        ("let a = " + TORSION_SRC + "; let b = conj(rot(t), a); comm(a, b) * b^2",
         commutator(torsion, conjugate(r, torsion))
         * power(conjugate(r, torsion), 2)),
        # '^' binds tighter than '*', and '@' means '*'
        ("rot(t) * rot(1-t)^2", r * power(s, 2)),
        ("lift(rot(t), 1) @ trans(t)^-1",
         lift_r.translate(1) * LiftMap.translation(TAU).inverse()),
        # lift of a lift offsets its integer part
        ("lift(lift(rot(t), 1), -3)", lift_r.translate(1).translate(-3)),
    ]
    return corpus


def test_parse_examples():
    for text, expected in _grammar_corpus():
        assert serialize(evaluate_str(text)) == serialize(expected), text


def test_parse_print_parse_identity():
    # read, print the element back as text, read again: the same element
    for text, _ in _grammar_corpus():
        element = evaluate_str(text)
        printed = to_expression(element)
        again = evaluate_str(printed)
        assert serialize(again) == serialize(element), text
        assert to_expression(again) == printed, text


def test_evaluate_basics():
    v = evaluate_str("trans(t)")
    assert isinstance(v, LiftMap) and v.translation_amount() == TAU
    assert evaluate_str("comm(rot(t), rot(t))").is_identity()
    c = evaluate_str(TORSION_SRC)
    assert isinstance(c, CircleMap) and c.v == tau_pow(2)
    assert evaluate_str("rot(t) * rot(1-t)").is_identity()
    assert evaluate_str("trans(1+t)") == LiftMap(CircleMap.rotation(TAU).table).translate(1)


def test_evaluate_promotions():
    conn = connect_tuple((TAU,), (tau_pow(2),)).element
    env = {"g": conn, "r": CircleMap.rotation(TAU)}
    mixed = evaluate_str("g * r", env)
    assert isinstance(mixed, CircleMap)
    with pytest.raises(ExprTypeError):
        evaluate_str("g * trans(t)", env)
    lifted = evaluate_str("lift(g, 1)", env)
    assert isinstance(lifted, LiftMap) and lifted.n == 1
    # lift of a lift offsets the central part
    assert evaluate_str("lift(trans(t), 2)").n == 2


def test_evaluate_unbound_name():
    with pytest.raises(ExprTypeError):
        evaluate_str("nope")
    # evaluated as read: the unbound name comes before the open parenthesis
    with pytest.raises(ExprTypeError):
        evaluate_str("nope * (")


def test_syntax_errors_have_positions():
    with pytest.raises(ExprSyntaxError) as err:
        evaluate_str("trans(")
    assert "column" in str(err.value)
    with pytest.raises(ExprSyntaxError):
        evaluate_str("rot(t) rot(t)")
    with pytest.raises(ExprSyntaxError):
        evaluate_str("map {broken")


def test_element_expression_round_trip():
    rng = random.Random(51)
    elements = []
    for _ in range(20):
        elements.append(random_element(rng.randrange(2**63), 4, "F_tau"))
        elements.append(random_element(rng.randrange(2**63), 4, "T_tau"))
        elements.append(random_element(rng.randrange(2**63), 4, "Lift"))
    for el in elements:
        assert evaluate_str(to_expression(el)) == el


def test_serialize_round_trip():
    rng = random.Random(52)
    for _ in range(30):
        el = random_element(rng.randrange(2**63), 5, "T_tau")
        assert deserialize(serialize(el)) == el
    f = random_element(7, 4, "Lift")
    assert deserialize(serialize(f)) == f
    g = random_element(8, 4, "F_tau")
    assert deserialize(serialize(g)) == g


def test_serialize_canonical_bytes():
    el = random_element(99, 5, "T_tau")
    assert serialize(el) == serialize(deserialize(serialize(el)))
    payload = json.loads(serialize(el))
    assert payload["schema"] == 1
    shuffled = json.dumps(payload, sort_keys=False)
    assert canonical_json(json.loads(shuffled)) == serialize(el)


def test_tampered_payload_rejected():
    el = random_element(77, 4, "T_tau")
    payload = json.loads(serialize(el))
    payload["ks"][0] += 1
    with pytest.raises(ValidationError):
        deserialize(json.dumps(payload))
    with pytest.raises(SchemaError):
        deserialize("")
    with pytest.raises(SchemaError):
        deserialize("[1, 2]")
    with pytest.raises(SchemaError):
        deserialize('{"kind": "wat"}')


def test_certificate_serialization():
    cert = connect_tuple((TAU,), (tau_pow(2),))
    back = deserialize(serialize(cert))
    back.verify()
    assert back.element == cert.element
