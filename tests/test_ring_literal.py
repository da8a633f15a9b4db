"""The one ring-literal reader, shared by parse_ztau and the expression parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taut.circle import CircleMap
from taut.cli import main
from taut.expr import evaluate_str
from taut.ring import (
    QTau,
    ZTau,
    parse_qtau,
    parse_ztau,
    qtau_literal,
    ztau_literal,
    ztau_str,
)

coefficients = st.integers(min_value=-2**200, max_value=2**200)
denominators = st.integers(min_value=1, max_value=2**200)


@settings(max_examples=300, deadline=None)
@given(coefficients, coefficients, denominators)
def test_text_forms_round_trip(a, b, d):
    z = ZTau(a, b)
    assert parse_ztau(ztau_str(z)) == parse_ztau(ztau_literal(z)) == z
    q = QTau(z, d)
    assert parse_qtau(qtau_literal(q)) == q


@settings(max_examples=100, deadline=None)
@given(coefficients, coefficients)
def test_expression_reads_the_same_literal(a, b):
    z = ZTau(a, b)
    assert evaluate_str(f"rot({ztau_str(z)})") == CircleMap.rotation(z)


@pytest.mark.parametrize("bad", ["1 2", "2*", "", "tt", "1++t", "t t",
                                 "(1 2)/3", "1 2/3"])
def test_malformed_literals_exit_1(bad, capsys):
    with pytest.raises(ValueError, match="bad ring literal"):
        parse_qtau(bad)
    assert main(["eval", f"rot({bad})"]) == 1
    assert main(["connect", "--", bad, "t"]) == 1
    assert main(["connect", "--", "t", bad]) == 1
    assert "bad ring literal" in capsys.readouterr().err


def test_blanks_between_tokens():
    assert parse_ztau(" -1 + 2 * t ") == ZTau(-1, 2)
    assert parse_ztau("3 t") == ZTau(0, 3)
    assert evaluate_str("rot( 1 - t )") == evaluate_str("rot(1-t)")
