import json
from fractions import Fraction

import pytest

from taut.circle import CircleMap
from taut.cli import main
from taut.construct import commutator_trick, random_element
from taut.expr import deserialize
from taut.lift import LiftMap, rot_enclosure
from taut.plmap import PLMap
from taut.ring import TAU, ZERO

TORSION_LIFT = ('lift(treepair {"p": ["s+", ["s+", "leaf", "leaf"], "leaf"],'
                ' "q": ["s+", ["s+", "leaf", "leaf"], "leaf"], "shift": 1}, 0)')
# a lift with irrational rot: answered by an enclosure
ENCLOSED_LIFT = ('lift(conj(rot(t), treepair {"p": ["s+", ["s-", "leaf", "leaf"],'
                 ' "leaf"], "q": ["s+", "leaf", ["s+", "leaf", "leaf"]],'
                 ' "shift": 0}), 0)')


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_scl_golden_json(capsys):
    rc, out, _ = run(capsys, "scl", "lift(trans(t),0)", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["kind"] == "ztau-half"
    assert payload["value"] == "(0+1*t)/2"


def test_scl_human_line_of_a_tiny_and_a_huge_translation(capsys):
    # tau**60 / 2 is about 1.4e-13, once printed as -0.0000610352 and
    # then, with ten decimals, as 0.0000000000
    rc, out, _ = run(capsys, "scl", "--", "trans(956722026041-1548008755920*t)")
    assert rc == 0
    assert out == "(956722026041-1548008755920*t)/2 = 1.444480187e-13 (exact)\n"
    # ten significant digits read the golden values as ten decimals did
    for expression, line in (("trans(t)", "(t)/2 = 0.3090169944 (exact)\n"),
                             ("trans(-1+2*t)", "(-1+2*t)/2 = 0.1180339887 (exact)\n")):
        assert run(capsys, "scl", "--", expression)[:2] == (0, line)
    # past the float range, the exact value alone
    big = "1" + "0" * 400
    rc, out, err = run(capsys, "scl", "--", f"trans({big})")
    assert (rc, out, err) == (0, f"({big})/2 (exact)\n", "")


def test_rot_human(capsys):
    rc, out, _ = run(capsys, "rot", TORSION_LIFT)
    assert rc == 0
    assert out.strip() == "1/3 (exact, certified)"


def test_rot_translation_human(capsys):
    rc, out, _ = run(capsys, "rot", "trans(t)")
    assert rc == 0
    assert "exact, translation" in out


def test_eval_json_round_trip(capsys):
    rc, out, _ = run(capsys, "eval", TORSION_LIFT, "--json")
    assert rc == 0
    el = deserialize(out.strip())
    assert el.n == 0


def test_check_expression(capsys):
    rc, out, _ = run(capsys, "check", "comm(rot(t), rot(1-t))")
    assert rc == 0
    assert "ok" in out


def test_check_certificate_file(tmp_path, capsys):
    rc, out, _ = run(capsys, "connect", "1-t", "t", "--derived", "--json")
    assert rc == 0
    path = tmp_path / "cert.json"
    path.write_text(out.strip())
    rc2, out2, _ = run(capsys, "check", str(path))
    assert rc2 == 0

    tampered = json.loads(out.strip())
    tampered["targets"] = ["1-1*t"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tampered))
    rc3, _, err3 = run(capsys, "check", str(bad))
    assert rc3 == 1
    assert "does not map" in err3


def test_check_rot_result_file(tmp_path, capsys):
    rc, out, _ = run(capsys, "rot", TORSION_LIFT, "--json")
    assert rc == 0
    path = tmp_path / "rot.json"
    path.write_text(out.strip())
    rc2, out2, _ = run(capsys, "check", str(path))
    assert rc2 == 0


def test_budget_exhaustion_is_exit_2(capsys):
    # rot(g*h) = -1/2 for n = 2 cannot be certified with denominators <= 1
    rc, _, err = run(capsys, "defect", "--n", "2", "--max-den", "1")
    assert rc == 2


def test_usage_error_is_exit_3(capsys):
    rc, _, _ = run(capsys, "bogus")
    assert rc == 3
    rc2, _, _ = run(capsys, "rot")
    assert rc2 == 3
    for argv in (["rot", "trans(t)", "--max-iter", "0"],
                 ["scl", "trans(t)", "--max-den", "-1"],
                 ["check", "rot(t)", "--max-iter", "0"],
                 ["defect", "--search", "--samples", "0"],
                 ["defect", "--search", "--samples", "-2"],
                 ["defect", "--max-den", "0"]):
        rc, _, err = run(capsys, *argv)
        assert rc == 3 and "budgets must be positive" in err, argv
    rc, _, err = run(capsys, "rot", "trans(t)", "--max-iter", "x")
    assert rc == 3 and "invalid int value: 'x'" in err


# the options each subcommand reads, with a positional argument it needs
KEPT_OPTIONS = {
    "eval": (["rot(t)"], set()),
    "rot": (["trans(t)"], {"--max-iter", "--max-den"}),
    "scl": (["trans(t)"], {"--max-iter", "--max-den"}),
    "check": (["rot(t)"], {"--max-iter", "--max-den"}),
    "defect": ([], {"--max-den", "--seed"}),
    "factor": (["rot(t)"], set()),
    "random": ([], {"--seed"}),
    "connect": (["1-t", "t"], set()),
}


@pytest.mark.parametrize("command", sorted(KEPT_OPTIONS))
def test_option_a_command_does_not_read_is_a_usage_error(capsys, command):
    positional, kept = KEPT_OPTIONS[command]
    for option in ("--max-iter", "--max-den", "--piece-cap", "--depth",
                   "--seed"):
        if option not in kept:
            rc, _, err = run(capsys, command, option, "5", *positional)
            assert rc == 3 and option in err, (command, option)


def test_domain_error_is_exit_1(capsys):
    rc, _, err = run(capsys, "rot", "trans(")
    assert rc == 1
    rc2, out, _ = run(capsys, "rot", "trans(", "--json")
    assert rc2 == 1
    payload = json.loads(out)
    assert payload["error"]["type"] == "ExprSyntaxError"


def test_seeded_commands_are_byte_identical(capsys):
    a = run(capsys, "random", "--size", "5", "--seed", "11", "--json")
    b = run(capsys, "random", "--size", "5", "--seed", "11", "--json")
    assert a == b
    c = run(capsys, "defect", "--search", "--samples", "5", "--seed", "3",
            "--max-den", "64", "--json")
    d = run(capsys, "defect", "--search", "--samples", "5", "--seed", "3",
            "--max-den", "64", "--json")
    assert c == d and c[0] == 0
    e = run(capsys, "rot", TORSION_LIFT, "--json")
    f = run(capsys, "rot", TORSION_LIFT, "--json")
    assert e == f


def test_factor_command(capsys):
    rc, out, _ = run(capsys, "factor", "rot(t)", "--json")
    assert rc == 0
    cert = deserialize(out.strip())
    cert.verify()


def test_random_flavors(capsys):
    for flavor in ("F_tau", "T_tau", "Lift"):
        rc, out, _ = run(capsys, "random", "--flavor", flavor, "--seed", "4",
                         "--json")
        assert rc == 0
        deserialize(out.strip())


def test_check_scl_result_file(tmp_path, capsys):
    rc, out, _ = run(capsys, "scl", "lift(trans(t),0)", "--json")
    assert rc == 0
    path = tmp_path / "scl.json"
    path.write_text(out.strip())
    rc2, out2, _ = run(capsys, "check", str(path))
    assert rc2 == 0 and "scl-result" in out2

    tampered = json.loads(out.strip())
    tampered["value"] = "(1+1*t)/2"
    bad = tmp_path / "bad-scl.json"
    bad.write_text(json.dumps(tampered))
    rc3, _, err3 = run(capsys, "check", str(bad))
    assert rc3 == 1 and "fails re-checking" in err3


def test_check_tampered_rot_result(tmp_path, capsys):
    rc, out, _ = run(capsys, "rot", TORSION_LIFT, "--json")
    assert rc == 0
    tampered = json.loads(out.strip())
    tampered["value"] = "2/3"
    bad = tmp_path / "bad-rot.json"
    bad.write_text(json.dumps(tampered))
    rc2, _, err2 = run(capsys, "check", str(bad))
    assert rc2 == 1 and "fails re-checking" in err2


def _set(field, value):
    def tamper(payload):
        payload[field] = value
    return tamper


def _move_enclosure(payload):
    # scl and its rot certificate moved together: caught by re-checking rot
    rot_payload = payload["certificate"]["rot"]
    rot_payload["lo"] = str(Fraction(rot_payload["lo"]) - 1)
    payload["lo"] = "0"


# the ztau-half kind is tampered in test_check_scl_result_file
@pytest.mark.parametrize("argv, tamper", [
    ([TORSION_LIFT], _set("value", "1/3")),
    ([ENCLOSED_LIFT, "--max-iter", "64"], _set("lo", "0")),
    ([ENCLOSED_LIFT, "--max-iter", "64"], _set("iterations", 32)),
    ([ENCLOSED_LIFT, "--max-iter", "64"], _move_enclosure),
], ids=["rational-value", "enclosure-lo", "enclosure-iterations",
        "enclosure-with-rot"])
def test_check_tampered_scl_result_of_every_kind(tmp_path, capsys, argv,
                                                  tamper):
    rc, out, _ = run(capsys, "scl", *argv, "--json")
    assert rc == 0
    path = tmp_path / "scl.json"
    path.write_text(out.strip())
    assert run(capsys, "check", str(path))[0] == 0

    tampered = json.loads(out)
    tamper(tampered)
    path.write_text(json.dumps(tampered))
    rc2, _, err2 = run(capsys, "check", str(path))
    assert rc2 == 1 and "fails re-checking" in err2


@pytest.mark.parametrize("command", ["rot", "scl"])
def test_check_result_without_element_is_rejected(tmp_path, capsys, command):
    rc, out, _ = run(capsys, command, TORSION_LIFT, "--json")
    assert rc == 0
    payload = json.loads(out)
    rot_payload = payload["certificate"]["rot"] if command == "scl" else payload
    del rot_payload["certificate"]["element"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(payload))
    rc2, _, err2 = run(capsys, "check", str(path))
    assert rc2 == 1
    assert "SchemaError" in err2 and "no embedded element" in err2


@pytest.mark.parametrize("field", ["sources", "targets"])
def test_check_connect_cert_with_an_extra_point_is_rejected(tmp_path, capsys,
                                                            field):
    rc, out, _ = run(capsys, "connect", "--json", "--", "1-t", "t")
    assert rc == 0
    tampered = json.loads(out)
    tampered[field].append("0+1*t")
    path = tmp_path / "extra-point.json"
    path.write_text(json.dumps(tampered))
    rc2, _, err2 = run(capsys, "check", str(path))
    assert rc2 == 1 and "CertificateError" in err2 and "equal length" in err2


@pytest.mark.parametrize("field", ["sources", "targets"])
@pytest.mark.parametrize("points, message", [
    (["0+1*t", "1+0*t"], "not strictly inside (0, 1)"),
    (["0+1*t", "1-1*t"], "strictly increasing"),
])
def test_check_connect_cert_with_a_bad_stored_tuple_is_rejected(
        tmp_path, capsys, field, points, message):
    # a stored tuple is the certificate's fault, not the request's: the
    # same refusal as connect's, as a CertificateError
    rc, out, _ = run(capsys, "connect", "--json", "--", "1-t,t", "2*t-1,t")
    assert rc == 0
    tampered = dict(json.loads(out), **{field: points})
    path = tmp_path / "bad-tuple.json"
    path.write_text(json.dumps(tampered))
    rc2, _, err2 = run(capsys, "check", str(path))
    assert rc2 == 1 and "CertificateError" in err2 and message in err2
    assert "BadTuple" not in err2


def test_connect_still_refuses_a_bad_request_as_bad_tuple(capsys):
    rc, _, err = run(capsys, "connect", "--", "t,1-t", "t,1-t")
    assert rc == 1 and "BadTuple" in err and "strictly increasing" in err


def _assign(target, source):
    def tamper(payload):
        payload[target] = payload[source]
    return tamper


def _swap_u_and_v(payload):
    payload["u"], payload["v"] = payload["v"], payload["u"]


def _collapse(payload):
    # h = g commutes with g, so [g, h] is the identity
    payload["h"] = payload["g"]
    payload["result"] = CircleMap.identity().to_json()


def _compact_claim(payload):
    # a plain connect restated as comm(l, f) of two identities: its element
    # is not compactly supported, which is checked before the product
    identity = PLMap.identity().to_json()
    payload.update(compact=True, expr="comm(l, f)", pieces={"l": identity, "f": identity})


def _plain_with_a_piece(payload):
    payload["pieces"] = {"l": PLMap.identity().to_json()}


def _result_to_h(payload):
    payload.update(expr="h", result=payload["h"])


def _expr_over_one_piece(payload):
    payload.update(expr="a", pieces={"a": payload["element"]})


def _x_to_arc_start(payload):
    payload["x"] = payload["arc"][0]


def _element_to_piece_f(payload):
    payload["element"] = payload["pieces"]["f"]


def _outside_ftau(payload):
    payload["element"] = PLMap.identity(ZERO, TAU).to_json()


def _third_rot_to_one_seventh(payload):
    # consistent in itself (power 7, shift 1), but not rot(g*h)
    third = payload["rots"][2]
    third["value"] = "1/7"
    third["certificate"].update(power=7, shift=1)


def _first_rot_to_enclosure(payload):
    # a sound enclosure of rot(g), which a witness may not carry
    g = LiftMap.from_json(payload["g"])
    payload["rots"][0] = rot_enclosure(g, 64).to_json()


def _certificate(capsys, kind):
    if kind == "commutator":
        return commutator_trick(random_element(3, 3, "T_tau"), ZERO).to_json()
    argv = {"factor": ["factor", "--json", "rot(t)"],
            "derived": ["connect", "--json", "--derived", "--", "1-t", "t"],
            "connect": ["connect", "--json", "--", "1-t", "t"],
            "defect": ["defect", "--json", "--n", "2"]}[kind]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    return json.loads(out)


# one case per check of FactorCertificate, CommutatorCertificate,
# TransitivityCertificate and DefectWitness, and per stated claim: a
# certificate states one fixed claim, and a payload that states another
# is refused on reading
@pytest.mark.parametrize("kind, tamper, message", [
    ("factor", _assign("u", "v"), "u differs from g * f^-1 * comm(h2, h1)^-1"),
    ("factor", _assign("v", "u"), "v differs from comm(h2, h1) * f"),
    ("factor", _swap_u_and_v, "u differs from g * f^-1 * comm(h2, h1)^-1"),
    ("factor", _assign("x", "y"), "u does not fix a neighbourhood of x"),
    ("factor", _assign("y", "x"), "piece f does not fix a neighbourhood of y"),
    ("commutator", _assign("result", "g"), "result differs from g^-1 * conj(g, h)"),
    ("commutator", _x_to_arc_start, "result does not fix a neighbourhood of x"),
    ("commutator", _collapse, "commutator collapsed to the identity"),
    ("derived", _element_to_piece_f, "element differs from comm(l, f)"),
    ("derived", _set("pieces", {}), "pieces must be l and f if compact"),
    ("connect", _compact_claim, "support closure is not inside (0, 1)"),
    ("connect", _plain_with_a_piece, "and none if not"),
    ("connect", _outside_ftau, "element does not fix 0 and 1"),
    ("defect", _third_rot_to_one_seventh, "stored rot of g*h fails re-checking"),
    ("defect", _first_rot_to_enclosure, "rot is an enclosure, not exact"),
    ("defect", _set("delta", "(1+0*t)/7"), "recomputed defect delta disagrees"),
    ("factor", _set("arc", ["5+0*t", "5+0*t"]), "arc does not hold x inside it"),
    ("commutator", _set("arc", ["5+0*t", "5+0*t"]), "arc is not displaced off itself"),
    ("commutator", _result_to_h, "commutator-cert states expr 'h', not its claim"),
    ("derived", _set("expr", None), "connect-cert states expr None, not its claim"),
    ("derived", _expr_over_one_piece, "connect-cert states expr 'a', not its claim"),
    ("connect", _set("expr", "comm(l, f)"), "not its claim None"),
    ("factor", _set("u_expr", "g"), "factor-cert states u_expr 'g', not its claim"),
], ids=["factor-u", "factor-v", "factor-swapped", "factor-x", "factor-y",
        "commutator-result", "commutator-x", "commutator-collapsed",
        "derived-element", "derived-no-pieces", "connect-compact", "connect-piece",
        "connect-outside-ftau",
        "defect-third-rot", "defect-enclosure-rot", "defect-delta",
        "factor-arc", "commutator-arc", "commutator-expr-h", "derived-expr-null",
        "derived-expr-a", "connect-expr", "factor-u-expr"])
def test_check_tampered_certificate(tmp_path, capsys, kind, tamper, message):
    payload = _certificate(capsys, kind)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    assert run(capsys, "check", str(path))[0] == 0

    tamper(payload)
    path.write_text(json.dumps(payload))
    rc, _, err = run(capsys, "check", str(path))
    assert rc == 1 and "CertificateError" in err and message in err


@pytest.mark.parametrize("keep", [0, 2])
def test_defect_witness_needs_three_rots(tmp_path, capsys, keep):
    payload = _certificate(capsys, "defect")
    payload["rots"] = payload["rots"][:keep]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(payload))
    rc, _, err = run(capsys, "check", str(path))
    assert rc == 1 and "SchemaError" in err and "list of three" in err


@pytest.mark.parametrize("answer, budget, message", [
    # the stored rot(g*h) = -1/2 needs the power q = 2
    (["--n", "2"], ["--max-den", "1"], "more than the max_den budget of 1"),
], ids=["max-den"])
def test_defect_witness_recheck_is_budgeted(tmp_path, capsys, answer, budget,
                                            message):
    rc, out, _ = run(capsys, "defect", "--json", *answer)
    assert rc == 0
    path = tmp_path / "witness.json"
    path.write_text(out)
    assert run(capsys, "check", str(path))[0] == 0
    rc, _, err = run(capsys, "check", str(path), *budget)
    assert rc == 2 and message in err
