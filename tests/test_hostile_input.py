"""Hostile input ends in a documented exit code, never in a traceback."""

import json
import time

from taut.cli import main
from taut.expr import MAX_NESTING


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
