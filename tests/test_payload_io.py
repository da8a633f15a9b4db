"""Payload I/O in one pass: the one-pass point reader and the one-match ring
literal readers against the general readers they front, and the one
canonical encoder against json.dumps."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from taut import ring
from taut.expr import canonical_json
from taut.plmap import _json_points
from taut.ring import QTau, ZTau, qtau_literal, ztau_literal


def outcome(read, *args):
    """What read(*args) gives: ("ok", repr of the value), or the type and
    message of the error it raises."""
    try:
        return "ok", repr(read(*args))
    except Exception as exc:  # the comparison is of any error, type and message
        return type(exc), str(exc)


# -- points --------------------------------------------------------------------

LIMIT = sys.get_int_max_str_digits()
NEAR_MISSES = ["007", "+1", " 1", "1 ", "1_0", "١", "-0", "", "x", "1.0",
               "1" * (LIMIT + 1), "-" + "1" * (LIMIT + 1)]
COEFFS = st.one_of(
    st.integers().map(str),
    st.sampled_from(["9" * LIMIT] + NEAR_MISSES),
    st.integers(-5, 5),                      # JSON integers
    st.booleans(), st.floats(allow_nan=False), st.none())
CANONICAL = st.integers().map(str)
WRITTEN = st.builds(lambda a, b: {"a": a, "b": b}, CANONICAL, CANONICAL)
ITEMS = st.one_of(
    WRITTEN, WRITTEN, WRITTEN,
    st.builds(lambda a, b: {"a": a, "b": b}, COEFFS, COEFFS),
    st.builds(lambda a: {"a": a}, COEFFS),                # a missing key
    st.builds(lambda b: {"b": b}, COEFFS),
    st.builds(lambda a, b, c: {"a": a, "b": b, "c": c}, COEFFS, COEFFS, COEFFS),
    st.builds(lambda a, c: {"a": a, "c": c}, COEFFS, COEFFS),
    COEFFS, st.lists(COEFFS, max_size=2))                 # not a dict


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(ITEMS, max_size=6), ITEMS))
@example([{"a": "007", "b": "0"}])
@example([{"a": "1", "b": "2"}, {"a": "+1", "b": "0"}])
@example([{"a": "1" * (LIMIT + 1), "b": "0"}])
@example([{"a": "١", "b": "0"}])
@example({"a": "1", "b": "2"})
def test_one_pass_points_read_as_the_point_reader(values):
    expected = outcome(lambda: [ZTau.from_json(v) for v in values])
    assert outcome(_json_points, values) == expected


# -- ring literals -------------------------------------------------------------

NEVER = SimpleNamespace(fullmatch=lambda text: None)


def general(parse, pattern):
    """parse with its one-match form matching nothing: the general reader."""
    def read(text):
        with mock.patch.object(ring, pattern, NEVER):
            return parse(text)
    return read


LITERAL_NEAR_MISSES = [
    "1+-2*t", "01+2*t", "-0+0*t", "1+2*t ", " 1+2*t", "1+2t", "1+2*t*t", "1-2*t",
    "(2+4*t)/6", "(1+2*t)/0", "(1+2*t)/-3", "(1+2*t)/+3", "(1+2*t)/03", "(1+2*t)/",
    "(1+2*t)/" + "7" * (LIMIT + 1), "(" + "1" * (LIMIT + 1) + "+0*t)/1",
    "1" * (LIMIT + 1) + "+0*t", "0+" + "1" * (LIMIT + 1) + "*t",
    "(1+2*t)", "1+2*t/3", "3/4", "١+2*t", "(١+2*t)/3"]
ZLITERALS = st.builds(ZTau, st.integers(), st.integers()).map(ztau_literal)
QLITERALS = st.builds(lambda a, b, d: QTau(ZTau(a, b), d),
                      st.integers(), st.integers(), st.integers(1, 10**30)).map(qtau_literal)


@st.composite
def mutated(draw, texts):
    """A literal with one character put in, dropped or changed."""
    text = draw(texts)
    i = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from(" +-*/()t0189١_"))
    return draw(st.sampled_from([text[:i] + c + text[i:], text[:i] + text[i + 1:],
                                 text[:i] + c + text[i + 1:]]))


LITERALS = st.one_of(ZLITERALS, QLITERALS, mutated(ZLITERALS), mutated(QLITERALS),
                     st.sampled_from(LITERAL_NEAR_MISSES),
                     st.sampled_from([None, 5, True, 1.5, ["1+2*t"]]))


@settings(max_examples=400, deadline=None)
@given(LITERALS)
@example("1+-2*t")
@example("01+2*t")
@example("(2+4*t)/6")
@example("(1+2*t)/0")
@example("(1+2*t)/-3")
@example("(1+2*t)/" + "7" * (LIMIT + 1))
@example(None)
@example(5)
def test_one_match_literals_read_as_the_general_reader(text):
    assert outcome(ring.parse_ztau, text) == outcome(general(ring.parse_ztau, "_LITERAL"), text)
    assert outcome(ring.parse_qtau, text) == outcome(general(ring.parse_qtau, "_QLITERAL"), text)


# -- the encoder ---------------------------------------------------------------

JSON_TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
def test_the_one_encoder_writes_as_json_dumps(obj):
    assert canonical_json(obj) == dumps(obj)


def test_every_golden_json_record_is_the_encoder_of_its_payload():
    records = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
    outputs = [r["stdout"] for r in records if "--json" in r["argv"] and r["stdout"]]
    assert outputs
    for out in outputs:
        payload = json.loads(out)
        assert canonical_json(payload) == dumps(payload) == out.rstrip("\n")
