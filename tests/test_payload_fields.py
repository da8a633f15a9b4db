"""Each field of a certificate payload is written and read by one codec, and
a field that does not read ends in SchemaError or CertificateError."""

import inspect
import json
from functools import cache

import pytest

from taut.circle import CircleMap
from taut.cli import main
from taut.construct import (CommutatorCertificate, DefectWitness, FactorCertificate,
                            TransitivityCertificate, commutator_trick,
                            connect_tuple_derived, defect_witness, factor_local,
                            random_element)
from taut.errors import ExprSyntaxError
from taut.expr import evaluate_str, serialize
from taut.ring import ONE, TAU, ZERO

MAKERS = {
    TransitivityCertificate: lambda: connect_tuple_derived((ONE - TAU,), (TAU,)),
    FactorCertificate: lambda: factor_local(CircleMap.rotation(TAU)),
    CommutatorCertificate: lambda: commutator_trick(random_element(3, 3, "T_tau"), ZERO),
    DefectWitness: lambda: defect_witness(1),
}


@cache
def made(cls):
    return MAKERS[cls]()


def check_outcome(tmp_path, capsys, payload) -> tuple[str, str]:
    """The reported type and message of `taut check --json` on payload, or
    ("ok", "") if it passes; any exit but 0 and 1 fails the test."""
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    rc = main(["check", "--json", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc in (0, 1), out
    if rc == 0:
        return "ok", ""
    return out["error"]["type"], out["error"]["message"]


def _required(cls, field: str) -> bool:
    return inspect.signature(cls).parameters[field].default is inspect.Parameter.empty


# (field, value) pairs that read and re-check: a connect certificate may
# state no expression, and a defect witness states its n as any JSON
# integer or null (n names the member of the family, and is not re-checked)
ACCEPTED = [(TransitivityCertificate, "expr", None), (DefectWitness, "n", None),
            (DefectWitness, "n", 7)]


@pytest.mark.parametrize("cls, field", [(cls, field) for cls in MAKERS for field in cls.FIELDS],
                         ids=lambda p: getattr(p, "__name__", p))
def test_each_field_reads_back_or_is_a_schema_or_certificate_error(cls, field, tmp_path,
                                                                   capsys):
    cert = made(cls)
    assert cls.from_json(cert.to_json()) == cert
    payload = json.loads(serialize(cert))
    assert check_outcome(tmp_path, capsys, payload) == ("ok", "")

    dropped = {k: v for k, v in payload.items() if k != field}
    kind, message = check_outcome(tmp_path, capsys, dropped)
    if _required(cls, field):
        assert kind == "SchemaError" and repr(field) in message
    else:
        assert kind in ("ok", "SchemaError", "CertificateError")

    for value in (7, [], {}, None):
        kind, message = check_outcome(tmp_path, capsys, dict(payload, **{field: value}))
        if (cls, field, value) in ACCEPTED:
            assert kind == "ok"
        elif field in ("sources", "targets") and value == []:
            # tuples of unequal length are refused with the construction's
            # message, as a fault of the certificate
            assert kind == "CertificateError" and "equal length" in message
        else:
            assert kind in ("SchemaError", "CertificateError"), (value, kind, message)


LIFT = ('lift(treepair {"p": ["s+", ["s-", "leaf", "leaf"], "leaf"], '
        '"q": ["s+", "leaf", ["s+", "leaf", "leaf"]], "shift": 1}, 0)')


def _answer(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_bad_root_of_a_rot_result_is_a_schema_error(tmp_path, capsys):
    payload = _answer(capsys, "rot", "--json", LIFT)
    assert payload["kind"] == "rational"
    payload["certificate"]["root"] = "1+*t"
    kind, message = check_outcome(tmp_path, capsys, payload)
    assert kind == "SchemaError" and "bad ring literal" in message


def test_bad_value_of_a_translation_result_is_a_schema_error(tmp_path, capsys):
    payload = _answer(capsys, "rot", "--json", "trans(t)")
    assert payload["kind"] == "ztau"
    payload["value"] = "1+*t"
    kind, message = check_outcome(tmp_path, capsys, payload)
    assert kind == "SchemaError" and "bad ring literal" in message


def test_bad_nested_rot_root_of_an_scl_result_is_a_schema_error(tmp_path, capsys):
    payload = _answer(capsys, "scl", "--json", LIFT)
    payload["certificate"]["rot"]["certificate"]["root"] = "(1 2)/3"
    kind, message = check_outcome(tmp_path, capsys, payload)
    assert kind == "SchemaError" and "bad ring literal" in message


TABLE_TAIL = '"ys": [{"a": "0"}, {"a": "1"}], "ks": [0]}'


@pytest.mark.parametrize("text, message, column", [
    ('map {"xs": [{"a": "0"}, null], ' + TABLE_TAIL, "bad ring element payload: None", 5),
    ('treepair {"p": "leaf"}', "treepair payload needs 'p' and 'q'", 10),
    ('rot(t) * treepair {"p": ["s+", "leaf"], "q": "leaf"}',
     "bad subdivision tree payload: ['s+', 'leaf']", 19),
    ('treepair {"p": "leaf", "q": "leaf", "shift": "1"}',
     "treepair shift must be a JSON integer, not str", 10),
], ids=["map", "treepair-keys", "tree", "shift"])
def test_a_fault_inside_an_inline_payload_is_reported_where_it_starts(text, message,
                                                                      column):
    with pytest.raises(ExprSyntaxError) as info:
        evaluate_str(text)
    assert str(info.value) == f"{message} (line 1, column {column})"
