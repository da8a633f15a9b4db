"""Each field of a certificate payload is written and read by one codec, and
a field that does not read ends in SchemaError or CertificateError."""

import copy
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
    """A stored field without a default; a claim, such as expr, is no
    stored field: it is written from the certificate, so it may be left out."""
    return field in cls.FIELDS and field not in cls.DEFAULTS


# (field, value) pairs that read and re-check: a defect witness states its
# n as any JSON integer or null (n names the member of the family, and is
# not re-checked)
ACCEPTED = [(DefectWitness, "n", None), (DefectWitness, "n", 7)]


@pytest.mark.parametrize("cls, field", [(cls, field) for cls in MAKERS
                                        for field in (*cls.FIELDS, *cls.CLAIMS)],
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


@pytest.mark.parametrize("cls", MAKERS, ids=lambda c: c.__name__)
def test_a_certificate_names_each_field_once_and_refuses_an_unknown_key(
        cls, tmp_path, capsys):
    assert cls.__slots__ == tuple(cls.FIELDS)
    assert not cls.FIELDS.keys() & cls.CLAIMS.keys()
    assert cls.DEFAULTS.keys() <= cls.FIELDS.keys()
    payload = json.loads(serialize(made(cls)))
    kind, message = check_outcome(tmp_path, capsys, dict(payload, bogus=1))
    assert kind == "SchemaError" and "'bogus'" in message


TREE = ('treepair {"p": ["s+", ["s-", "leaf", "leaf"], "leaf"], '
        '"q": ["s+", "leaf", ["s+", "leaf", "leaf"]], "shift": 1}')
LIFT = f"lift({TREE}, 0)"                      # rot 1/3
ENCLOSED = f"lift(conj(rot(t), {TREE}), 0)"    # rot tau


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


@pytest.mark.parametrize("command, text, place", [
    ("eval", LIFT, lambda p: p),
    ("rot", LIFT, lambda p: p),
    ("rot", LIFT, lambda p: p["certificate"]),
    ("rot", LIFT, lambda p: p["certificate"]["element"]),
    ("rot", "trans(t)", lambda p: p),
    ("rot", "trans(t)", lambda p: p["certificate"]),
    ("rot", ENCLOSED, lambda p: p),
    ("rot", ENCLOSED, lambda p: p["certificate"]),
    ("scl", LIFT, lambda p: p),
    ("scl", LIFT, lambda p: p["certificate"]),
    ("scl", LIFT, lambda p: p["certificate"]["rot"]),
    ("scl", LIFT, lambda p: p["certificate"]["rot"]["certificate"]),
    ("scl", "trans(t)", lambda p: p["certificate"]["rot"]),
], ids=["lift", "rational", "rational-certificate", "embedded-lift", "ztau",
        "ztau-certificate", "enclosure", "enclosure-certificate", "scl",
        "scl-certificate", "scl-rot", "scl-rot-certificate", "ztau-half-rot"])
def test_a_lift_or_result_with_an_unknown_key_is_a_schema_error(command, text, place,
                                                                tmp_path, capsys):
    payload = _answer(capsys, command, "--json", text)
    if command == "eval":
        assert payload["kind"] == "lift"
    assert check_outcome(tmp_path, capsys, payload) == ("ok", "")
    place(payload)["extra"] = 3
    kind, message = check_outcome(tmp_path, capsys, payload)
    assert kind == "SchemaError" and "'extra'" in message, message


# Every place where one payload stands inside another: (where it comes
# from, the keys that lead to it, the kind it is read as).  A rot's kind
# (None here) selects its own fields, so no other kind contradicts it.
NESTED = {
    "connect-element": (TransitivityCertificate, ("element",), "plmap"),
    "connect-piece-l": (TransitivityCertificate, ("pieces", "l"), "plmap"),
    "connect-piece-f": (TransitivityCertificate, ("pieces", "f"), "plmap"),
    **{f"factor-{name}": (FactorCertificate, (name,), "circle") for name in "guv"},
    **{f"factor-piece-{name}": (FactorCertificate, ("pieces", name), "circle")
       for name in ("f", "h1", "h2")},
    **{f"commutator-{name}": (CommutatorCertificate, (name,), "circle")
       for name in ("result", "g", "h")},
    "defect-g": (DefectWitness, ("g",), "lift"),
    "defect-h": (DefectWitness, ("h",), "lift"),
    "defect-g-base": (DefectWitness, ("g", "base"), "circle"),
    **{f"defect-rot-{i}": (DefectWitness, ("rots", i), None) for i in range(3)},
    "rot-element": ("rot", ("certificate", "element"), "lift"),
    "scl-rot": ("scl", ("certificate", "rot"), None),
    "scl-rot-element": ("scl", ("certificate", "rot", "certificate", "element"), "lift"),
    "inline-map": ("map", (), "circle"),
}
OTHER_KIND = {"plmap": "circle", "circle": "lift", "lift": "circle"}


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


@pytest.mark.parametrize("source, path, kind", NESTED.values(), ids=NESTED)
def test_a_nested_payload_states_its_own_envelope_or_none(source, path, kind,
                                                          tmp_path, capsys):
    if source in ("rot", "scl"):
        base = _answer(capsys, source, "--json", LIFT)
    elif source == "map":
        base = made(FactorCertificate).g.to_json()
    else:
        base = json.loads(serialize(made(source)))

    def outcome(**envelope) -> tuple[str, str]:
        payload = copy.deepcopy(base)
        _at(payload, path).update(envelope)
        if source != "map":
            return check_outcome(tmp_path, capsys, payload)
        try:  # an inline payload's fault is reported where the payload starts
            evaluate_str(f"map {json.dumps(payload)}")
        except ExprSyntaxError as exc:
            return type(exc.__cause__).__name__, str(exc.__cause__)
        return "ok", ""

    nested = _at(base, path)
    own = kind or nested["kind"]
    assert outcome() == ("ok", "")
    # the envelope that taut eval --json writes
    assert outcome(kind=own, schema=1) == ("ok", "")
    for schema in (2, 0, "1", 1.0, None, [1, 2], {"x": [1]}):
        kind_of, message = outcome(schema=schema)
        assert kind_of == "SchemaError" and "schema" in message, (schema, message)
    if kind is not None:
        for other in (OTHER_KIND[kind], "nonsense", 12):
            kind_of, message = outcome(kind=other)
            assert kind_of == "SchemaError" and message.endswith(
                f"payload states kind {other!r}, not {kind!r}"), message
    if source is DefectWitness and path[0] == "rots":
        # the witness's g, h and g*h are its rots' elements
        cert = dict(nested["certificate"], element=base["g"])
        kind_of, message = outcome(certificate=cert)
        assert kind_of == "SchemaError" and "'element'" in message, message
