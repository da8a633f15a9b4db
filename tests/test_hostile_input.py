"""Hostile input ends in a documented exit code, never in a traceback."""

import json
import os
import sys
import time
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taut import circle, lift
from taut.circle import leaf_exponents
from taut.cli import main
from taut.construct import commutator_trick, connect_tuple, random_element
from taut.errors import PowerBudgetExceeded
from taut.expr import (MAX_NESTING, MAX_POWER, MAX_POWER_WORK, _size, evaluate_str,
                       to_expression)
from taut.lift import LiftMap, rot_enclosure
from taut.plmap import MAX_PIECES, conjugate
from taut.ring import TAU, ZERO, tau_pow, ztau_literal


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


def test_unknown_kinds_are_not_echoed_whole(tmp_path, capsys):
    long_kind = "x" * 5000
    for payload in ({"kind": long_kind},
                    {"kind": "rational", "value": "1/2",
                     "certificate": {"rot": {"kind": long_kind}}}):
        path = tmp_path / "kind.json"
        path.write_text(json.dumps(payload))
        err = assert_one_line_error(capsys, "check", str(path))
        assert "SchemaError" in err and "kind 'xxxx" in err
        assert len(err.encode()) < 300
        rc, out, err = run(capsys, "check", "--json", str(path))
        assert rc == 1 and err == ""
        assert json.loads(out)["error"]["type"] == "SchemaError"
        assert len(out.encode()) < 300


BIG_POINT = [[0] * 50] * 40


@pytest.mark.parametrize("argv, code", [
    (("eval", "--", "x" * 100_000), 1),
    (("eval", "--", "map " + json.dumps({"xs": [BIG_POINT, {"a": "1"}],
                                         "ys": [{"a": "0"}, {"a": "1"}], "ks": [0]})), 1),
    (("eval", "--", "treepair " + json.dumps({"p": [["s+"] * 2000], "q": "leaf"})), 1),
    (("scl", "--max-den", "9" * 5001, "--", "trans(1)"), 3),
], ids=["name", "point", "tree", "budget"])
def test_outside_input_is_echoed_in_at_most_40_characters(capsys, argv, code):
    rc, out, err = run(capsys, *argv)
    assert rc == code and out == "" and err.count("\n") == 1
    assert len(err.encode()) < 200, err[:300]


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


@pytest.mark.parametrize("k", ["1000000000", "9" * 4000])
def test_zero_rise_with_huge_slope_exponent_is_rejected_at_once(capsys, k):
    table = ('"xs": [{"a": "0"}, {"a": "1"}], "ys": [{"a": "0"}, {"a": "0"}],'
             f' "ks": [{k}]')
    start = time.perf_counter()
    err = assert_one_line_error(capsys, "eval", f"map {{{table}}}")
    assert time.perf_counter() - start < 0.1
    assert "NotIncreasing" in err and "piece 0" in err


@pytest.mark.parametrize("k", [1000000, -1000000, MAX_POWER + 1])
def test_huge_power_exponent_is_rejected_at_once(capsys, k):
    start = time.perf_counter()
    rc, out, err = run(capsys, "eval", f"{_TREEPAIR}^{k}")
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == "" and err.count("\n") == 1
    assert "PowerBudgetExceeded" in err and f"exponent {k}" in err


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


def _map(x):
    return (f'{{"xs": [{{"a": "0"}}, {x}], "ys": [{{"a": "0"}}, {{"a": "1"}}],'
            ' "ks": [0]}')


def test_ring_coefficients_are_read_exactly_or_rejected(tmp_path, capsys):
    # a decimal string, as written, or a JSON integer; a ring element,
    # never a quotient, even one whose value is in the ring
    for good in ('{"a": "1"}', '{"a": 1}', '{"a": "1", "b": 0}',
                 '{"b": "0", "a": 1}'):
        assert run(capsys, "eval", "map " + _map(good))[0] == 0
    path = tmp_path / "map.json"
    for bad in ('{"a": 1.9}', '{"a": true}', '{"a": 1e400}', '{"a": "1.0"}',
                '{"a": "+1"}', '{"a": null}', '{"b": [1], "a": "1"}',
                '{"a": "' + "9" * 5000 + '"}',
                '{"num": {"a": "2"}, "den": 2}',
                '{"num": {"a": "-2"}, "den": "-2"}',
                '{"num": {"a": "2"}, "den": 2.7}',
                '{"num": {"a": "2"}, "den": "2/1"}'):
        err = assert_one_line_error(capsys, "eval", "map " + _map(bad))
        assert "ring coefficient" in err or "bad ring element payload" in err
        path.write_text('{"kind": "plmap", ' + _map(bad)[1:])
        assert "SchemaError" in assert_one_line_error(capsys, "check", str(path))


def _check_raw(tmp_path, capsys, payload, field, raw):
    """taut check of payload with field set to the raw JSON text."""
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(dict(payload, **{field: "@"})).replace('"@"', raw))
    return run(capsys, "check", str(path))


ENCLOSED = ('lift(conj(rot(t), treepair {"p": ["s+", ["s-", "leaf", "leaf"], '
            '"leaf"], "q": ["s+", "leaf", ["s+", "leaf", "leaf"]], '
            '"shift": 0}), 0)')
TORSION = ('lift(treepair {"p": ["s+", ["s+", "leaf", "leaf"], "leaf"], '
           '"q": ["s+", ["s+", "leaf", "leaf"], "leaf"], "shift": 1}, 0)')


def test_rot_results_are_read_strictly(tmp_path, capsys):
    enclosure = _answer(capsys, "rot", "--max-iter", "64", "--", ENCLOSED)
    rational = _answer(capsys, "rot", TORSION)
    assert (rational["value"], rational["certificate"]["power"],
            rational["certificate"]["shift"]) == ("1/3", 3, 1)
    for payload, field in ((enclosure, "lo"), (enclosure, "hi"),
                           (rational, "value")):
        for raw in ("1e400", "Infinity", '"1e3000000"', '"0.5"', '"1/0"',
                    '" 1"', "1", "null"):
            start = time.perf_counter()
            rc, out, err = _check_raw(tmp_path, capsys, payload, field, raw)
            assert rc == 1 and "SchemaError" in err, (field, raw)
            assert time.perf_counter() - start < 0.5
    cert = rational["certificate"]
    for tampered in (dict(cert, power=99), dict(cert, shift=-7),
                     dict(cert, power=6, shift=2)):
        err = _check_file(tmp_path, capsys, dict(rational, certificate=tampered))
        assert "CertificateError" in err and "fails re-checking" in err
    for tampered in (dict(cert, power="x"), dict(cert, shift=1.0),
                     {k: v for k, v in cert.items() if k != "power"}):
        err = _check_file(tmp_path, capsys, dict(rational, certificate=tampered))
        assert "SchemaError" in err and "must be a JSON integer" in err
    # the scl result reads its rot certificate the same way
    scl = _answer(capsys, "scl", TORSION)
    rot = dict(scl["certificate"]["rot"])
    rot["certificate"] = dict(rot["certificate"], shift=-7)
    err = _check_file(tmp_path, capsys, dict(scl, certificate={"rot": rot}))
    assert "fails re-checking" in err


def test_check_honours_max_iter_for_a_stored_enclosure(tmp_path, capsys):
    enclosure = _answer(capsys, "rot", "--max-iter", "64", "--", ENCLOSED)
    path = tmp_path / "enclosure.json"
    path.write_text(json.dumps(enclosure))
    assert run(capsys, "check", str(path), "--max-iter", "64")[0] == 0
    rc, _, err = run(capsys, "check", str(path), "--max-iter", "63")
    assert rc == 2 and "max_iter" in err
    # a tampered iteration count ends at the default budget, before any power
    path.write_text(json.dumps(dict(enclosure, iterations=10**6)))
    start = time.perf_counter()
    rc, out, _ = run(capsys, "check", str(path), "--json")
    assert rc == 2 and json.loads(out)["error"]["type"] == "BudgetExceeded"
    assert time.perf_counter() - start < 0.5


THREE_LEAF = ('lift(treepair {"p": ["s+", ["s-", "leaf", "leaf"], "leaf"], '
              '"q": ["s+", "leaf", ["s+", "leaf", "leaf"]], "shift": 0}, 0)')


def test_check_honours_max_den_for_a_stored_rational(tmp_path, capsys):
    rational = _answer(capsys, "rot", THREE_LEAF)
    assert rational["value"] == "0"
    # a stated power of 10**6 ends at the default budget, before any power
    cert = dict(rational["certificate"], power=10**6, shift=1)
    path = tmp_path / "rational.json"
    path.write_text(json.dumps(dict(rational, value="1/1000000", certificate=cert)))
    start = time.perf_counter()
    rc, out, _ = run(capsys, "check", str(path), "--json")
    assert rc == 2 and json.loads(out)["error"]["type"] == "BudgetExceeded"
    assert "max_den" in json.loads(out)["error"]["message"]
    assert time.perf_counter() - start < 1


def test_schema_and_translation_fields_are_read(tmp_path, capsys):
    translation = _answer(capsys, "rot", "trans(t)")
    scl = _answer(capsys, "scl", "trans(t)")
    lift = _answer(capsys, "eval", "lift(rot(t), 2)")
    # rot --json writes no schema; the other answers write schema 1
    assert "schema" not in translation and lift["schema"] == 1
    assert translation["certificate"]["translation"] is True
    path = tmp_path / "payload.json"
    for payload in (translation, lift, dict(translation, schema=1)):
        path.write_text(json.dumps(payload))
        assert run(capsys, "check", str(path))[0] == 0
    for raw in ("1e400", '"x"', "null", "[]", "{}", "true", "2"):
        for payload in (translation, scl, lift):
            rc, _, err = _check_raw(tmp_path, capsys, payload, "schema", raw)
            assert rc == 1 and "SchemaError" in err, (raw, payload["kind"])
    for raw in ("1e400", '"x"', "null", "[]", "{}", "1", "false"):
        rot_cert = dict(translation["certificate"], translation="@")
        rc, _, err = _check_raw(tmp_path, capsys, translation, "certificate",
                                json.dumps(rot_cert).replace('"@"', raw))
        assert rc == 1 and "SchemaError" in err, raw
        scl_rot = dict(scl["certificate"]["rot"], certificate=rot_cert)
        rc, _, err = _check_raw(tmp_path, capsys, scl, "certificate",
                                json.dumps({"rot": scl_rot}).replace('"@"', raw))
        assert rc == 1 and "SchemaError" in err, raw
    # a missing field is no statement of a translation either
    cert = {"element": translation["certificate"]["element"]}
    err = _check_file(tmp_path, capsys, dict(translation, certificate=cert))
    assert "SchemaError" in err and "translation" in err


# every successful --json answer pinned by the golden test
GOLDEN_ANSWERS = [
    json.loads(record["stdout"])
    for record in json.loads(
        Path(__file__).with_name("golden_cli.json").read_text())
    if record["exit"] == 0 and "--json" in record["argv"]
    and record["argv"][0] != "check"]
HOSTILE = ["1e400", "true", "1.5", '"1e99"', '"x"', "null", "[]", "{}"]


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i,))
    else:
        yield path


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GOLDEN_ANSWERS), st.data(), st.sampled_from(HOSTILE))
def test_hostile_leaf_in_a_stored_answer_ends_in_an_exit_code(tmp_path_factory,
                                                              answer, data, raw):
    path = data.draw(st.sampled_from(list(_leaves(answer))))
    payload = json.loads(json.dumps(answer))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@"
    target = tmp_path_factory.mktemp("fuzz") / "answer.json"
    target.write_text(json.dumps(payload).replace('"@"', raw))
    assert main(["check", str(target)]) in (0, 1, 2, 3)


def test_check_of_an_unreadable_path_is_a_domain_error(tmp_path, capsys):
    err = assert_one_line_error(capsys, "check", str(tmp_path))
    assert "cannot read" in err and "Is a directory" in err


# Expression text drawn from the grammar's alphabet, token by token.  The
# whole payloads are small valid elements; the extreme sizes (nesting past
# MAX_NESTING, a slope exponent of 10**9) are ones with a reject path, as
# no example may build a huge element.  Integers stay small and at most
# FUZZ_TOKENS tokens are joined, so no power exceeds 12**3.
_TREEPAIR = ('treepair {"p": ["s+", ["s-", "leaf", "leaf"], "leaf"], '
             '"q": ["s+", "leaf", ["s+", "leaf", "leaf"]], "shift": 1}')
_MAP = ('map {"xs": [{"a": "0"}, {"a": "0", "b": "1"}, {"a": "1"}], '
        '"ys": [{"a": "0"}, {"a": "1", "b": "-1"}, {"a": "1"}], "ks": [-1, 1]}')
_HUGE_K = ('map {"xs": [{"a": "0"}, {"a": "1"}], "ys": [{"a": "0"}, {"a": "1"}],'
           ' "ks": [1000000000]}')
FUZZ_TOKENS = 12
_WORDS = ["let", "rot", "trans", "comm", "conj", "lift", "map", "treepair",
          "t", "x", "y", "_"]
_MARKS = list("()*@^,;=+-{}[]:\"") + [" ", "\n", "\t", "/", "."]
_INTS = ["0", "1", "2", "3", "12", "-1", "+2", "007"]
_WHOLE = [_TREEPAIR, _MAP, _HUGE_K, '"leaf"', '["s+", "leaf", "leaf"]',
          '{"p": ', "(" * (MAX_NESTING + 20), "rot(t)", "lift(rot(2+3*t), -1)",
          "1-t", "2*t", "3t", "comm(", "conj(lift("]
FUZZ_TIME_S = 10.0


@st.composite
def expression_text(draw):
    tokens = draw(st.lists(st.sampled_from(_WORDS + _MARKS + _INTS + _WHOLE),
                           max_size=FUZZ_TOKENS))
    out = ""
    for tok in tokens:
        # adjacent integers would read as one large integer
        glue = " " if out[-1:].isdigit() and tok[:1] in "0123456789+-" else ""
        out += glue + draw(st.sampled_from(["", " "])) + tok
    return out


def _grammar_expressions():
    """Expressions the grammar derives, exponents kept small (3**depth)."""
    ring = st.sampled_from(["t", "2+3*t", "-1+t", "0", "5-2t"])
    ints = st.sampled_from(["-1", "0", "1", "2"])
    atoms = st.one_of(ring.map("rot({})".format), ring.map("trans({})".format),
                      st.sampled_from([_TREEPAIR, _MAP]))
    return st.recursive(atoms, lambda e: st.one_of(
        st.builds("({}) * ({})".format, e, e),
        st.builds("{}@{}".format, e, e),
        st.builds("({})^{}".format, e, st.sampled_from(["-1", "0", "2", "3"])),
        st.builds("comm({}, {})".format, e, e),
        st.builds("conj({}, {})".format, e, e),
        st.builds("lift({}, {})".format, e, ints),
        st.builds("let x = {}; x * {}".format, e, e)), max_leaves=6)


@st.composite
def edited_expression(draw):
    """A derived expression, sometimes cut or with one token put in; no
    digit is put in, since one next to an exponent would multiply it."""
    text = draw(_grammar_expressions())
    at = draw(st.integers(min_value=0, max_value=len(text)))
    edit = draw(st.sampled_from(["none", "cut", "insert"]))
    if edit == "cut":
        return text[:at] + text[at + draw(st.integers(1, 8)):]
    if edit == "insert":
        return text[:at] + draw(st.sampled_from(_WORDS + _MARKS)) + text[at:]
    return text


@settings(max_examples=150, deadline=None)
@given(st.one_of(expression_text(), edited_expression()))
def test_random_expression_text_ends_in_an_exit_code(tmp_path_factory, text):
    # in an empty directory, so that check reads the text as an expression
    where = tmp_path_factory.mktemp("fuzz")
    cwd = os.getcwd()
    os.chdir(where)
    try:
        for command in ("eval", "rot", "scl", "check"):
            start = time.perf_counter()
            rc = main([command, text, "--json"])
            assert rc in (0, 1, 2, 3), (command, text)
            assert time.perf_counter() - start < FUZZ_TIME_S, (command, text)
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("text", [
    f"({_TREEPAIR}^1000)^1000",
    f"let a = {_TREEPAIR}^1000; a^1000",
    f"let a = lift({_TREEPAIR}, 0)^-1000; a^1000",
])
def test_nested_powers_are_bounded_by_their_work(capsys, text):
    start = time.perf_counter()
    rc, out, err = run(capsys, "eval", text)
    assert time.perf_counter() - start < 2
    assert rc == 2 and out == "" and err.count("\n") == 1
    assert "PowerBudgetExceeded" in err and str(MAX_POWER_WORK) in err


def test_power_work_bound_admits_the_largest_plain_power():
    # |k| * size stays below the bound for E^MAX_POWER and (E^100)^100;
    # sizes only, so that no huge power is built
    size = _size(evaluate_str(_TREEPAIR))
    assert MAX_POWER * size <= MAX_POWER_WORK
    assert 100 * _size(evaluate_str(f"{_TREEPAIR}^100")) <= MAX_POWER_WORK


LONG = "9" * 5000  # past the interpreter's 4,300-digit conversion limit


@pytest.mark.parametrize("argv, column", [
    (["eval", f"rot(t)^{LONG}"], 8),
    (["eval", f"lift(rot(t), {LONG})"], 14),
    (["eval", f"lift(rot(t), -{LONG})"], 14),
    (["eval", f"rot({LONG}*t)"], 5),
    (["rot", f"trans(1+{LONG}t)"], 9),
])
def test_long_integer_in_an_expression_is_a_syntax_error(capsys, argv, column):
    err = assert_one_line_error(capsys, *argv)
    assert "ExprSyntaxError" in err and f"column {column})" in err
    rc, out, _ = run(capsys, argv[0], "--json", *argv[1:])
    assert rc == 1 and json.loads(out)["error"]["type"] == "ExprSyntaxError"


def _long_json_integers(tmp_path):
    """A JSON integer of LONG's digits where each reader of JSON meets it:
    an inline map coefficient, a tree pair's shift and a lift file's n."""
    yield (["eval", "map " + _map(f'{{"a": {LONG}}}')], "ExprSyntaxError",
           "bad inline JSON: {} (line 1, column 5)")
    yield (["eval", f'treepair {{"p": "leaf", "q": "leaf", "shift": {LONG}}}'],
           "ExprSyntaxError", "bad inline JSON: {} (line 1, column 10)")
    path = tmp_path / "lift.json"
    path.write_text('{"kind": "lift", "base": ' + _map('{"a": "1"}') + f', "n": {LONG}}}')
    yield ["check", str(path)], "SchemaError", "not valid JSON: {}"


def test_long_json_integer_is_named_as_such(tmp_path, capsys):
    too_long = f"integer too long (more than {sys.get_int_max_str_digits()} digits)"
    for argv, kind, message in _long_json_integers(tmp_path):
        message = message.format(too_long)
        err = assert_one_line_error(capsys, *argv)
        assert err == f"error ({kind}): {message}\n"
        rc, out, err = run(capsys, argv[0], "--json", *argv[1:])
        assert rc == 1 and err == ""
        assert json.loads(out)["error"] == {"kind": "domain", "message": message,
                                            "type": kind}
        assert "set_int_max_str_digits" not in out


def test_long_integer_in_a_ring_literal_is_positioned(capsys):
    err = assert_one_line_error(capsys, "connect", "--", f"{LONG}*t", "t")
    assert "bad ring literal" in err and "at column 1" in err
    err = assert_one_line_error(capsys, "connect", "--", f"t,1-{LONG}*t", "t,t")
    assert "at column 3" in err
    rc, out, _ = run(capsys, "connect", "--json", "--", f"{LONG}*t", "t")
    assert rc == 1 and json.loads(out)["error"]["type"] == "ValueError"


def test_long_denominator_in_a_stored_root_is_positioned(tmp_path, capsys):
    rc, out, _ = run(capsys, "rot", "--json", f"lift({_TREEPAIR}, 0)^2")
    obj = json.loads(out)
    assert rc == 0 and obj["kind"] == "rational"
    obj["certificate"]["root"] = f"(1+0*t)/{LONG}"
    path = tmp_path / "root.json"
    path.write_text(json.dumps(obj))
    err = assert_one_line_error(capsys, "check", str(path))
    assert "denominator too long at column 9" in err


def test_long_ring_literal_is_not_echoed_whole(capsys):
    argv = ("connect", "--", f"{LONG}*t", "t")
    err = assert_one_line_error(capsys, *argv)
    assert len(err.encode()) < 300 and "at column 1" in err
    rc, out, err = run(capsys, argv[0], "--json", *argv[1:])
    assert rc == 1 and err == "" and out.count("\n") == 1
    assert len(out.encode()) < 300
    assert "at column 1" in json.loads(out)["error"]["message"]


def test_long_rot_value_names_its_field(tmp_path, capsys):
    enclosure = _answer(capsys, "rot", "--max-iter", "64", "--", ENCLOSED)
    rational = _answer(capsys, "rot", TORSION)
    for payload, field, what in ((enclosure, "lo", "enclosure lo"),
                                 (enclosure, "hi", "enclosure hi"),
                                 (rational, "value", "rot value")):
        for raw in (f'"{LONG}"', f'"-1/{LONG}"'):
            rc, out, err = _check_raw(tmp_path, capsys, payload, field, raw)
            assert rc == 1 and "SchemaError" in err, (field, raw)
            assert f"{what} has an integer of 5000 digits" in err
            assert "set_int_max_str_digits" not in err


def test_huge_root_of_a_stored_rational_ends_in_bounded_time(tmp_path, capsys):
    rational = _answer(capsys, "rot", f"lift({_TREEPAIR}, 0)^2")
    assert rational["kind"] == "rational"
    # 4,000-digit coefficients, below the interpreter's conversion limit,
    # with no common factor, walked 99 steps
    big, den = str(10**3999 + 7), str(3**8383)
    assert len(big) == len(den) == 4000
    cert = dict(rational["certificate"], power=99, shift=1,
                root=f"({big}-{big}*t)/{den}")
    path = tmp_path / "root.json"
    path.write_text(json.dumps(dict(rational, value="1/99", certificate=cert)))
    start = time.perf_counter()
    err = assert_one_line_error(capsys, "check", str(path), "--max-den", "100")
    assert "fails re-checking" in err
    assert time.perf_counter() - start < 1


# 2*tau**18000, a point of (0, 1) written with 3,760-digit coefficients
FAR_POINT = ztau_literal(2 * tau_pow(18000))


@pytest.mark.parametrize("point", ["10000000000-16180339887*t", FAR_POINT],
                         ids=["ten-digit-coefficients", "two-tau-to-the-18000"])
def test_connect_of_a_point_far_from_its_target_is_bounded(tmp_path, capsys, point):
    start = time.perf_counter()
    rc, out, err = run(capsys, "connect", "--json", "--", point, "t")
    assert rc == 0 and err == ""
    path = tmp_path / "connect.json"
    path.write_text(out)
    assert run(capsys, "check", str(path))[0] == 0
    assert time.perf_counter() - start < 3
    # each of the two gaps is matched by at most two pieces
    assert len(json.loads(out)["element"]["ks"]) <= 4


def test_derived_connect_of_a_far_point_ends_in_an_exit_code(capsys):
    # the human answer is certified; its --json tables hold coefficients
    # of about 7,500 digits, past the limit on writing an integer
    start = time.perf_counter()
    rc, out, err = run(capsys, "connect", "--derived", "--", FAR_POINT, "t")
    assert time.perf_counter() - start < 1
    assert rc == 0 and err == "" and out.startswith("verified commutator element")
    start = time.perf_counter()
    rc, out, err = run(capsys, "connect", "--derived", "--json", "--", FAR_POINT, "t")
    assert time.perf_counter() - start < 1
    assert rc == 1 and err == ""
    message = json.loads(out)["error"]["message"]
    assert message.startswith("coefficient of ") and "the limit is 4300 digits" in message


def test_derived_connect_below_tau_to_the_4096_is_certified(tmp_path, capsys):
    # the former power walk gave up past tau**4096 with "power search ran away"
    point = ztau_literal(2 * tau_pow(4100))
    rc, out, err = run(capsys, "connect", "--derived", "--json", "--", point, "t")
    assert rc == 0 and err == ""
    path = tmp_path / "derived.json"
    path.write_text(out)
    assert run(capsys, "check", str(path)) == (0, "ok: connect-cert validated\n", "")


@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["human", "json"])
def test_answer_past_the_digit_limit_is_a_one_line_error(capsys, flag):
    # g**2 has coefficients of about 5,000 digits
    g = connect_tuple((2 * tau_pow(12000),), (tau_pow(1),)).element
    rc, out, err = run(capsys, "eval", *flag, f"({to_expression(g)})^2")
    assert rc == 1
    if flag:
        assert err == "" and json.loads(out)["error"]["type"] == "ValueError"
        message = json.loads(out)["error"]["message"]
    else:
        assert out == "" and err.count("\n") == 1
        message = err.removeprefix("error (ValueError): ").rstrip("\n")
    assert message == ("coefficient of 5015 digits is too long to write: "
                       "the limit is 4300 digits")


# rotations by tau**70 and tau**18000 move every arc of radius tau**2 to
# tau**63 by far less than its radius; the arc search then starts from
# the displacement
NEAR_ROTATIONS = {k: f"rot({ztau_literal(tau_pow(k))})" for k in (70, 18000)}


def test_factor_of_a_rotation_by_tau_to_the_70_is_certified(tmp_path, capsys):
    start = time.perf_counter()
    rc, out, err = run(capsys, "factor", "--json", "--", NEAR_ROTATIONS[70])
    assert time.perf_counter() - start < 1
    assert rc == 0 and err == ""
    path = tmp_path / "factor.json"
    path.write_text(out)
    assert run(capsys, "check", str(path)) == (0, "ok: factor-cert validated\n", "")


def test_factor_of_a_rotation_by_tau_to_the_18000_ends_in_an_exit_code(capsys):
    # the human answer is certified; its --json arc holds coefficients of
    # about 7,500 digits, past the limit on writing an integer
    start = time.perf_counter()
    rc, out, err = run(capsys, "factor", "--", NEAR_ROTATIONS[18000])
    assert time.perf_counter() - start < 3
    assert rc == 0 and err == "" and out.startswith("verified factorization")
    start = time.perf_counter()
    rc, out, err = run(capsys, "factor", "--json", "--", NEAR_ROTATIONS[18000])
    assert time.perf_counter() - start < 3
    assert rc == 1 and err == ""
    message = json.loads(out)["error"]["message"]
    assert message.startswith("coefficient of ") and "the limit is 4300 digits" in message


@pytest.mark.parametrize("k, bound", [(70, 0.5), (18000, 2)])
def test_commutator_trick_of_a_rotation_near_the_identity(k, bound):
    g = evaluate_str(NEAR_ROTATIONS[k])
    start = time.perf_counter()
    cert = commutator_trick(g, ZERO)
    assert time.perf_counter() - start < bound
    assert cert.g == g


@pytest.mark.parametrize("n", [MAX_POWER + 1, 10 ** 9])
def test_defect_power_is_bounded(capsys, n):
    start = time.perf_counter()
    rc, out, err = run(capsys, "defect", "--n", str(n))
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == "" and err.count("\n") == 1
    assert err == (f"error (PowerBudgetExceeded): n = {n} exceeds the bound "
                   f"{MAX_POWER} on the power g^n of a defect witness\n")


@pytest.mark.parametrize("size", [MAX_PIECES + 1, 10 ** 9])
def test_random_size_is_bounded(capsys, size):
    # a size-L element has L pieces before merging; past the piece bound
    # it is rejected before any tree is drawn
    start = time.perf_counter()
    rc, out, err = run(capsys, "random", "--size", str(size), "--flavor", "Lift")
    assert time.perf_counter() - start < 0.1
    assert rc == 2 and out == ""
    assert err == (f"error (PowerBudgetExceeded): size {size} exceeds the "
                   f"bound {MAX_PIECES} on pieces\n")


@cache
def _balanced_tree(leaves: int):
    """A tree payload with this many leaves, split as evenly as may be;
    equal subtrees are one list, so it is built in O(log leaves)."""
    if leaves == 1:
        return "leaf"
    return ["s+", _balanced_tree(leaves // 2), _balanced_tree(leaves - leaves // 2)]


def test_a_tree_past_the_piece_bound_is_refused(capsys, monkeypatch):
    # 2**17 leaves per tree once made a 131,072-piece table in about 3 s;
    # now the reader stops at the leaf past the bound
    tree = _balanced_tree(2 ** 17)
    start = time.process_time()
    with pytest.raises(PowerBudgetExceeded) as info:
        leaf_exponents(tree)
    assert time.process_time() - start < 1
    assert str(info.value) == (f"a tree of more than {MAX_PIECES} leaves exceeds "
                               "the bound on pieces")
    # the command line ends in exit 2 before any partition is built
    def no_partition(exponents):
        raise AssertionError("a partition was built")

    monkeypatch.setattr(circle, "_partition", no_partition)
    text = "lift(treepair " + json.dumps({"p": tree, "q": tree, "shift": 1}) + ", 0)"
    rc, out, err = run(capsys, "eval", text)
    assert rc == 2 and out == "" and err == f"error (PowerBudgetExceeded): {info.value}\n"
    # the bound itself is read, and one leaf more is not
    assert len(leaf_exponents(_balanced_tree(MAX_PIECES))) == MAX_PIECES
    with pytest.raises(PowerBudgetExceeded):
        leaf_exponents(_balanced_tree(MAX_PIECES + 1))


def test_a_stated_slope_of_a_huge_tau_power_is_read_at_once(tmp_path, capsys):
    # one piece of slope tau**-20000: [0, tau**20000] -> [0, 1]
    end = tau_pow(20000)
    table = {"xs": [{"a": "0"}, {"a": str(end.a), "b": str(end.b)}],
             "ys": [{"a": "0"}, {"a": "1"}], "ks": [-20000]}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(dict(table, kind="plmap")))
    start = time.perf_counter()
    rc, out, _ = run(capsys, "eval", f"map {json.dumps(table)}")
    assert rc == 0 and out.startswith("interval element")
    assert run(capsys, "check", str(path))[0] == 0
    assert time.perf_counter() - start < 1
    # with its exponent left out, the table is refused, not searched
    del table["ks"]
    start = time.perf_counter()
    err = assert_one_line_error(capsys, "eval", f"map {json.dumps(table)}")
    assert "bad piecewise map payload: 'ks'" in err
    assert time.perf_counter() - start < 1


_COMM_G = ('treepair {"p": ["s+", ["s-", "leaf", "leaf"], "leaf"], '
           '"q": ["s+", "leaf", ["s+", "leaf", "leaf"]], "shift": 0}')
_COMM_C = ('treepair {"p": ["s+", "leaf", ["s-", "leaf", "leaf"]], '
           '"q": ["s+", ["s+", "leaf", "leaf"], "leaf"], "shift": 1}')


@pytest.mark.parametrize("word, last", [("comm", "let c = comm(c, g); " * 5 + "c"),
                                        ("conj", "conj(c, c)")])
def test_nested_commutators_are_bounded_by_their_work(capsys, word, last):
    # each level multiplies the size about fourfold: 9 levels give about
    # 860,000 coefficient bits, 14 levels would give hundreds of millions
    text = (f"let g = {_COMM_G}; let c = {_COMM_C}; "
            + "let c = comm(c, g); " * 9 + last)
    start = time.perf_counter()
    rc, out, err = run(capsys, "eval", text)
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == "" and err.count("\n") == 1
    assert "PowerBudgetExceeded" in err and str(MAX_POWER_WORK) in err
    assert f"{word} of work" in err


@pytest.fixture(scope="module")
def big_conjugated_rotation():
    """conj(lift(rot(tau), 0), H) with H of 300 leaves: 491 pieces, rot
    irrational."""
    return conjugate(LiftMap.translation(TAU), random_element(11, 300, "Lift"))


@pytest.mark.parametrize("n", [256, 1000])
def test_enclosure_of_a_big_conjugated_rotation_is_bounded(big_conjugated_rotation, n,
                                                           monkeypatch):
    # past the probe's pieces(F) steps, the descent builds no mediant that
    # costs more than the steps left: F*F would cost 2 * 982 > 509 of them
    f = big_conjugated_rotation
    assert f.num_pieces == 491
    products = []
    mul = lift._capped_mul
    monkeypatch.setattr(lift, "_capped_mul",
                        lambda a, b: products.append(a) or mul(a, b))
    start = time.perf_counter()
    rot_enclosure(f, n)
    assert time.perf_counter() - start < 0.1
    assert not products


def test_rot_and_check_of_a_lift_whose_orbit_never_returns_are_bounded(tmp_path, capsys):
    # rot = -1, and 0 never returns to an integer: a stored enclosure at
    # 10,000 iterations is re-checked off the fixed point of F + 1
    g = random_element(131, 6, "Lift")
    start = time.perf_counter()
    rc, out, err = run(capsys, "rot", "--max-den", "1", "--json", "--", to_expression(g))
    assert rc == 0 and err == ""
    answer = tmp_path / "rot.json"
    answer.write_text(out)
    assert run(capsys, "check", str(answer)) == (0, "ok: rot-result validated\n", "")
    stored = tmp_path / "enclosure.json"
    stored.write_text(json.dumps(rot_enclosure(g, 10 ** 4).to_json(g)))
    assert run(capsys, "check", str(stored)) == (0, "ok: rot-result validated\n", "")
    assert time.perf_counter() - start < 1
