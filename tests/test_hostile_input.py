"""Hostile input ends in a documented exit code, never in a traceback."""

import json
import time

from taut.cli import main
from taut.construct import commutator_trick, random_element
from taut.expr import MAX_NESTING
from taut.ring import ZERO


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def assert_one_line_error(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == "" and err.count("\n") == 1 and err.startswith("error (")
    return err


def test_deep_parentheses_are_rejected(capsys):
    deep = "(" * 500 + "rot(t)" + ")" * 500
    err = assert_one_line_error(capsys, "eval", deep)
    assert "ExprSyntaxError" in err and "nests deeper" in err
    # the bound itself is accepted: MAX_NESTING - 1 parentheses plus the top level
    ok = "(" * (MAX_NESTING - 1) + "rot(t)" + ")" * (MAX_NESTING - 1)
    assert run(capsys, "eval", ok)[0] == 0
    assert_one_line_error(capsys, "eval", "(" + ok + ")")


def test_deep_treepair_is_rejected(capsys):
    tree = '"leaf"'
    for _ in range(1500):
        tree = f'["s+", {tree}, "leaf"]'
    err = assert_one_line_error(capsys, "eval",
                                f'treepair {{"p": {tree}, "q": {tree}}}')
    assert "JSON nests deeper" in err


def test_deep_json_file_is_rejected(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"kind": "plmap", "xs": ' + "[" * 5000 + "]" * 5000 + "}")
    err = assert_one_line_error(capsys, "check", str(path))
    assert "SchemaError" in err and "JSON nests deeper" in err
    rc, out, _ = run(capsys, "check", str(path), "--json")
    assert rc == 1 and json.loads(out)["error"]["type"] == "SchemaError"


def test_brackets_inside_json_strings_do_not_count(tmp_path, capsys):
    path = tmp_path / "strings.json"
    path.write_text('{"kind": "plmap", "note": "\\\\\\"' + "]" * 500
                    + '", "xs": ' + "[" * 500 + "]" * 500 + "}")
    err = assert_one_line_error(capsys, "check", str(path))
    assert "JSON nests deeper" in err


def test_long_products_do_not_recurse(capsys):
    rc, out, _ = run(capsys, "eval", " * ".join(["rot(t)"] * 1500))
    assert rc == 0 and out.startswith("circle element")


def test_malformed_payloads_are_schema_errors(tmp_path, capsys):
    for payload in ({"kind": "rational"}, {"kind": ["plmap"]},
                    {"kind": "enclosure", "lo": "0", "hi": "1"}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        err = assert_one_line_error(capsys, "check", str(path))
        assert "SchemaError" in err


def test_v_keyed_map_literal_is_rejected(capsys):
    table = ('"xs": [{"a": "0"}, {"a": "1"}], "ys": [{"a": "0"}, {"a": "1"}],'
             ' "ks": [0]')
    assert run(capsys, "eval", f"map {{{table}}}")[0] == 0
    err = assert_one_line_error(capsys, "eval",
                                f'map {{{table}, "v": {{"a": "0"}}}}')
    assert "'v'" in err


def test_removed_tuple_flag_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "connect", "1-t", "t", "--tuple")
    assert rc == 3 and "--tuple" in err


def test_huge_slope_exponent_is_rejected_at_once(capsys):
    table = ('"xs": [{"a": "0"}, {"a": "1"}], "ys": [{"a": "0"}, {"a": "1"}],'
             ' "ks": [1000000000]')
    start = time.perf_counter()
    err = assert_one_line_error(capsys, "eval", f"map {{{table}}}")
    assert time.perf_counter() - start < 0.1
    assert "SlopeMismatch" in err


def test_certificate_that_is_not_an_object_is_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "ztau", "value": "1+0*t",
                                "certificate": "element"}))
    err = assert_one_line_error(capsys, "check", str(path))
    assert "SchemaError" in err


def _answer(capsys, command, *args):
    rc, out, _ = run(capsys, command, "--json", *args)
    assert rc == 0
    return json.loads(out)


def _check_file(tmp_path, capsys, payload):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    return assert_one_line_error(capsys, "check", str(path))


def test_expression_fields_must_be_strings(tmp_path, capsys):
    connect = _answer(capsys, "connect", "--", "1-t", "t")
    factor = _answer(capsys, "factor", "rot(t)")
    for payload, field, value in ((connect, "expr", 7), (connect, "expr", ["f"]),
                                  (factor, "u_expr", 5), (factor, "v_expr", None)):
        err = _check_file(tmp_path, capsys, dict(payload, **{field: value}))
        assert "SchemaError" in err and f"{field} must be a string" in err
    # a connect certificate without an expression stays valid
    path = tmp_path / "no-expr.json"
    path.write_text(json.dumps(dict(connect, expr=None)))
    assert run(capsys, "check", str(path))[0] == 0


def test_commutator_expression_must_be_a_string(tmp_path, capsys):
    cert = commutator_trick(random_element(3, 3, "T_tau"), ZERO).to_json()
    path = tmp_path / "comm.json"
    path.write_text(json.dumps(cert))
    assert run(capsys, "check", str(path))[0] == 0
    err = _check_file(tmp_path, capsys, dict(cert, expr={"g": 1}))
    assert "SchemaError" in err and "expr must be a string" in err


TABLE = '"xs": [{"a": "0"}, {"a": "1"}], "ys": [{"a": "0"}, {"a": "1"}]'


def test_integer_fields_must_be_json_integers(tmp_path, capsys):
    for shift in ("1e400", "1.0", '"3"', "true"):
        err = assert_one_line_error(
            capsys, "eval", f'treepair {{"p": "leaf", "q": "leaf", "shift": {shift}}}')
        assert "treepair shift must be a JSON integer" in err
    for ks in ("[0.5]", '["3"]', "[true]", "0"):
        err = assert_one_line_error(capsys, "eval", f'map {{{TABLE}, "ks": {ks}}}')
        assert "slope exponent" in err
    assert run(capsys, "eval", f'map {{{TABLE}, "ks": [0]}}')[0] == 0

    lift = _answer(capsys, "eval", "lift(rot(t), 2)")
    for n in (1.5, True, "2"):
        err = _check_file(tmp_path, capsys, dict(lift, n=n))
        assert "lift n must be a JSON integer" in err

    enclosure = _answer(capsys, "rot", "--max-iter", "64", "--",
                        'lift(conj(rot(t), treepair {"p": ["s+", ["s-", "leaf", '
                        '"leaf"], "leaf"], "q": ["s+", "leaf", ["s+", "leaf", '
                        '"leaf"]], "shift": 0}), 0)')
    assert enclosure["kind"] == "enclosure"
    for iterations in ("64", 64.0, True):
        err = _check_file(tmp_path, capsys, dict(enclosure, iterations=iterations))
        assert "iterations must be a JSON integer" in err

    witness = _answer(capsys, "defect", "--n", "1")
    for n in (1.5, "1"):
        err = _check_file(tmp_path, capsys, dict(witness, n=n))
        assert "defect n must be a JSON integer" in err


def test_compact_must_be_a_json_boolean(tmp_path, capsys):
    connect = _answer(capsys, "connect", "--", "1-t", "t")
    assert connect["compact"] is False
    for compact in ("false", "yes", 1, [1], 0, None):
        err = _check_file(tmp_path, capsys, dict(connect, compact=compact))
        assert "SchemaError" in err and "compact must be a JSON boolean" in err
    # false and a missing field are read as false
    path = tmp_path / "plain.json"
    for payload in (connect, {k: v for k, v in connect.items() if k != "compact"}):
        path.write_text(json.dumps(payload))
        assert run(capsys, "check", str(path))[0] == 0
