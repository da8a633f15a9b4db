import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import decimal_value, zt
from taut.errors import NonPositive
from taut.ring import (
    INV_TAU,
    LN_TAU,
    ONE,
    QTau,
    TAU,
    ZERO,
    ZTau,
    _ln,
    is_tau_power,
    parse_qtau,
    parse_ztau,
    qtau_literal,
    qtau_str,
    tau_exponent,
    tau_pow,
    ztau_literal,
    ztau_str,
)

EPS = Decimal(10) ** -50


def test_multiplication_table():
    assert TAU * TAU == zt(1, -1)          # tau^2 = 1 - tau
    assert TAU * zt(1, 1) == ONE           # tau * (1 + tau) = 1
    assert zt(3, -2) + ZERO == zt(3, -2)


def test_mul_matches_decimal_oracle():
    rng = random.Random(1)
    for _ in range(300):
        x = zt(rng.randrange(-50, 50), rng.randrange(-50, 50))
        y = zt(rng.randrange(-50, 50), rng.randrange(-50, 50))
        assert abs(decimal_value(x * y)
                   - decimal_value(x) * decimal_value(y)) < EPS


def test_ring_laws_random_triples():
    rng = random.Random(2)
    big = 1 << 256
    for _ in range(1000):
        x, y, z = (zt(rng.randrange(-big, big), rng.randrange(-big, big))
                   for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z


def test_sign_examples():
    assert ZERO.sign() == 0
    assert zt(-1, 2).sign() == 1       # 2*tau > 1
    assert zt(13, -21).sign() == 1     # 21*tau = 12.978... < 13
    assert zt(-13, 21).sign() == -1
    assert zt(8, -13).sign() == -1     # 13*tau = 8.034... > 8


def test_sign_matches_decimal_oracle():
    rng = random.Random(3)
    for _ in range(2000):
        x = zt(rng.randrange(-10**9, 10**9), rng.randrange(-10**9, 10**9))
        d = decimal_value(x)
        expected = 0 if d == 0 else (1 if d > 0 else -1)
        assert x.sign() == expected


def test_tau_pow_values():
    assert tau_pow(0) == ONE
    assert tau_pow(1) == TAU
    assert tau_pow(2) == zt(1, -1)
    assert tau_pow(3) == zt(-1, 2)
    assert tau_pow(-1) == zt(1, 1)
    assert tau_pow(-2) == zt(2, 1)     # (1+tau)^2 = 2 + tau


def test_tau_pow_is_a_homomorphism():
    rng = random.Random(4)
    for n in range(-200, 201):
        assert tau_pow(n) * tau_pow(-n) == ONE
    for _ in range(200):
        m = rng.randrange(-60, 60)
        n = rng.randrange(-60, 60)
        assert tau_pow(m + n) == tau_pow(m) * tau_pow(n)


def iterated_tau_pow(k: int) -> ZTau:
    """tau**k by |k| multiplications with tau or 1/tau = 1 + tau."""
    a, b = 1, 0
    for _ in range(abs(k)):
        a, b = (b, a - b) if k > 0 else (a + b, a)
    return ZTau(a, b)


def test_tau_pow_matches_the_iterated_powers():
    for k in range(-300, 301):
        assert tau_pow(k) == iterated_tau_pow(k)
    # the largest exponent a table payload admits for a piece whose run and
    # rise have 4,000-digit coefficients: |k| <= 3 * bits(h) // 2 + 1
    c = 10 ** 4000 - 1
    h = (3 * c) * (3 * c)  # heights |a| + 2|b| of run and rise c + c*tau
    k = 3 * h.bit_length() // 2 + 1
    for e in (k, -k):
        assert tau_pow(e) == iterated_tau_pow(e)


def test_norm():
    assert TAU.norm() == -1
    assert zt(2).norm() == 4
    assert zt(2, 1).norm() == 1        # 2 + tau = tau^-2
    rng = random.Random(5)
    for _ in range(500):
        x = zt(rng.randrange(-999, 999), rng.randrange(-999, 999))
        y = zt(rng.randrange(-999, 999), rng.randrange(-999, 999))
        assert (x * y).norm() == x.norm() * y.norm()


def test_floor():
    assert zt(0, 3).floor() == 1       # 3*tau = 1.854...
    assert zt(5).floor() == 5
    assert zt(0, -1).floor() == -1
    rng = random.Random(6)
    for _ in range(1000):
        x = zt(rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6))
        n = x.floor()
        assert (x - n).sign() >= 0
        assert (x - n - 1).sign() < 0


def walk_tau_power(x):
    """The former is_tau_power, kept as the oracle: reject non-units by
    the norm, then walk the value into (tau, 1] by exact multiplications
    with tau and 1/tau, counting the steps."""
    x = QTau(x) if not isinstance(x, QTau) else x
    n = x.num.norm()
    d2 = x.den * x.den
    if n != d2 and n != -d2:
        return None
    k = 0
    one, qtau, qinv = QTau(ONE), QTau(TAU), QTau(INV_TAU)
    while True:
        if x > one:
            x, k = x * qtau, k + 1
        elif x <= qtau:
            x, k = x * qinv, k - 1
        else:
            break
    return -k if x == one else None


def test_is_tau_power_round_trip():
    for k in range(-40, 41):
        assert is_tau_power(tau_pow(k)) == k
    for k in (-20000, -4097, 4096, 20001):
        assert is_tau_power(tau_pow(k)) == k
        assert is_tau_power(QTau(tau_pow(k)) / QTau(tau_pow(3))) == k - 3


def test_is_tau_power_rejects():
    assert is_tau_power(ONE) == 0
    assert is_tau_power(zt(1, -1)) == 2
    assert is_tau_power(zt(2)) is None
    rng = random.Random(7)
    rejected = 0
    for _ in range(1000):
        x = zt(rng.randrange(1, 10**6), rng.randrange(0, 10**6))
        if abs(x.norm()) != 1:
            assert is_tau_power(x) is None
            rejected += 1
    assert rejected > 900
    with pytest.raises(NonPositive):
        is_tau_power(zt(-1))
    # y / y' has norm 1 but is no unit of Z[tau]: 11 splits in Z[tau]
    y = zt(1, 3)
    ratio = QTau(y) / QTau(y.conj())
    assert abs(ratio.num.norm()) == ratio.den ** 2 and ratio.den == 11
    assert is_tau_power(abs(ratio)) is None


def _positive_quotients():
    units = st.builds(tau_pow, st.integers(-3000, 3000))
    small = st.builds(zt, st.integers(-50, 50), st.integers(-50, 50))
    return st.one_of(
        units.map(QTau),
        st.tuples(units, units).map(lambda p: QTau(p[0]) / QTau(p[1])),
        st.tuples(units, small).map(lambda p: QTau(p[0] * p[1])),
        st.tuples(units, st.integers(2, 9)).map(lambda p: QTau(p[0], p[1])),
        st.tuples(units, units, small).map(
            lambda p: QTau(p[0] + p[1] * p[2])),
    ).filter(lambda q: q.sign() != 0).map(abs)


@settings(max_examples=200, deadline=None)
@given(_positive_quotients())
def test_is_tau_power_agrees_with_the_walk(x):
    assert is_tau_power(x) == walk_tau_power(x)


@pytest.mark.parametrize("k", [0, 1, -1, 2, -2, 5, -17, 400, -400, 18000])
@pytest.mark.parametrize("c", [ONE, TAU, zt(3), zt(2, 5), zt(7, -4)])
def test_ln_estimate_is_close(k, c):
    # ln(c * tau**k) = ln(c) + k*ln(tau); c * tau**k has large
    # coefficients and a small (k > 0) or large (k < 0) value
    z = c * tau_pow(k)
    assert abs(_ln(z.a, z.b) - (math.log(float(c)) + k * LN_TAU)) < 1e-9 * (1 + abs(k))


def walk_first_power_below(limit):
    """The former construct.first_power_below, kept as the oracle: the
    smallest m >= 1 with tau**m < limit, found by stepping m = 1, 2, ...;
    None past 4,096 steps, where it gave up."""
    m = 1
    while (limit - tau_pow(m)).sign() <= 0:
        m += 1
        if m > 4096:
            return None
    return m


@st.composite
def positive_ring_elements(draw):
    """A positive ring element with 2- to 1,000-digit coefficients, or a
    unit tau**+-3000 (or nearer) times a small ring element."""
    if draw(st.booleans()):
        bound = 10 ** draw(st.integers(2, 1000))
        z = zt(draw(st.integers(-bound, bound)), draw(st.integers(-bound, bound)))
    else:
        z = (tau_pow(draw(st.integers(-3000, 3000)))
             * zt(draw(st.integers(-50, 50)), draw(st.integers(-50, 50))))
    assume(z.sign() != 0)
    return abs(z)


@settings(max_examples=200, deadline=None)
@given(positive_ring_elements(), st.one_of(st.just(ONE), positive_ring_elements()))
def test_tau_exponent_brackets_x_between_powers_of_tau(x, y):
    j, m = tau_exponent(x, y)
    assert m == tau_pow(j) * y
    assert tau_pow(j + 1) * y < x <= m
    walked = walk_first_power_below(x)
    if walked is not None:
        assert walked == max(tau_exponent(x)[0] + 1, 1)


def test_tau_exponent_of_powers_and_far_points():
    for k in (-20000, -1, 0, 1, 4096, 4097, 20000):
        assert tau_exponent(tau_pow(k)) == (k, tau_pow(k))
        assert tau_exponent(tau_pow(k), TAU) == (k - 1, tau_pow(k))
    # 2 lies in (tau**-1, tau**-2], so 2*tau**18000 in (tau**17999, tau**17998]
    assert tau_exponent(2 * tau_pow(18000))[0] == 17998
    for x, y in ((ZERO, ONE), (ONE, ZERO), (zt(-1), ONE), (ONE, zt(0, -1))):
        with pytest.raises(NonPositive):
            tau_exponent(x, y)


@pytest.mark.parametrize("write", [ztau_str, ztau_literal, ZTau.to_json,
                                   lambda z: qtau_str(QTau(z, 3)),
                                   lambda z: qtau_literal(QTau(z, 3))])
@pytest.mark.parametrize("z", [zt(10 ** 5000 + 1, 7), zt(3, -10 ** 4999),
                               2 * tau_pow(24000)])
def test_writing_past_the_digit_limit_names_the_size(write, z):
    n = max(abs(z.a), abs(z.b))
    with pytest.raises(ValueError) as info:
        write(z)
    digits = int(str(info.value).split()[2])
    assert 10 ** (digits - 1) <= n < 10 ** digits
    assert str(info.value) == (f"coefficient of {digits} digits is too long to "
                               "write: the limit is 4300 digits")


def test_qtau_division():
    assert QTau(1) / QTau(TAU) == QTau(zt(1, 1))
    x = QTau(zt(3, -4), 5)
    assert x / QTau(1) == x
    assert QTau(1) / QTau(2) == QTau(1, 2)
    with pytest.raises(ZeroDivisionError):
        QTau(1) / QTau(0)


def test_qtau_canonical_form():
    q = QTau(zt(2, 4), -6)
    assert q.den == 3 and q.num == zt(-1, -2)
    assert QTau(zt(1, 2), 3) == QTau(zt(2, 4), 6)


def test_qtau_field_laws():
    rng = random.Random(8)
    for _ in range(300):
        def rnd():
            return QTau(zt(rng.randrange(-99, 99), rng.randrange(-99, 99)),
                        rng.randrange(1, 30))
        x, y, z = rnd(), rnd(), rnd()
        assert x * (y + z) == x * y + x * z
        if y:
            assert (x / y) * y == x


def test_qtau_floor():
    rng = random.Random(9)
    for _ in range(1000):
        x = QTau(zt(rng.randrange(-10**5, 10**5), rng.randrange(-10**5, 10**5)),
                 rng.randrange(1, 1000))
        n = x.floor()
        assert (x - n).sign() >= 0
        assert (x - (n + 1)).sign() < 0


def test_text_forms():
    assert ztau_str(TAU) == "t"
    assert ztau_str(zt(1, -1)) == "1-t"
    assert ztau_str(zt(-1, 2)) == "-1+2*t"
    assert ztau_literal(TAU) == "0+1*t"
    for text in ("t", "1-t", "-1+2*t", "7", "-3+0*t", "2t"):
        z = parse_ztau(text)
        assert parse_ztau(ztau_literal(z)) == z
        assert parse_ztau(ztau_str(z)) == z
    q = QTau(zt(1, 2), 3)
    assert parse_qtau(qtau_literal(q)) == q
    assert parse_qtau("(0+1*t)/2") == QTau(TAU, 2)
    assert parse_qtau("1/2") == QTau(1, 2)
    with pytest.raises(ValueError):
        parse_ztau("1++t")
    with pytest.raises(ValueError):
        parse_ztau("x")


def test_comparisons_and_fraction_interop():
    assert TAU < ONE
    assert QTau(TAU) > Fraction(1, 2)
    assert QTau(TAU) < Fraction(2, 3)
    assert QTau(zt(1), 2) == Fraction(1, 2)


def fraction_value(x: QTau, digits: int) -> Fraction:
    """(a + b*tau) / den with sqrt(5) read to `digits` decimals."""
    scale = 10 ** digits
    tau = (Fraction(math.isqrt(5 * scale * scale), scale) - 1) / 2
    return (x.num.a + x.num.b * tau) / x.den


@pytest.mark.parametrize("k", [60, -60, 200, -200, 1000])
def test_float_of_a_tau_power_does_not_cancel(k):
    # a + b*tau for tau**60 cancels 2**-13 of a and b*tau: 0.0000610352 once
    z = tau_pow(k)
    assert float(z) == float(QTau(z)) > 0
    assert math.isclose(float(z), float(fraction_value(QTau(z), 600)), rel_tol=2 ** -51)
    assert math.isclose(float(z), math.exp(k * LN_TAU), rel_tol=1e-12)


def test_float_of_halves_and_values_past_the_float_range():
    assert f"{float(QTau(TAU, 2)):.10f}" == "0.3090169944"
    assert f"{float(QTau(zt(-1, 2), 2)):.10f}" == "0.1180339887"
    assert float(zt(10 ** 400)) == math.inf
    assert float(zt(-(10 ** 400), 3)) == -math.inf
    assert float(QTau(zt(10 ** 400, 1), 3)) == math.inf
    assert float(QTau(ONE, 10 ** 400)) == 0.0
    assert float(ZERO) == 0.0


@st.composite
def near_cancelling_quotients(draw):
    """a + b*tau with a and b up to 2**300, often tau**k times a small
    factor plus a small shift, where a and b*tau nearly cancel."""
    big = st.integers(min_value=-2 ** 300, max_value=2 ** 300)
    if draw(st.booleans()):
        num = zt(draw(big), draw(big))
    else:
        z = tau_pow(draw(st.integers(min_value=-600, max_value=600)))
        c = draw(st.integers(min_value=-9, max_value=9))
        num = zt(c * z.a + draw(st.integers(-3, 3)), c * z.b + draw(st.integers(-3, 3)))
    return QTau(num, draw(st.integers(min_value=1, max_value=2 ** 64)))


@settings(max_examples=300, deadline=None)
@given(near_cancelling_quotients())
def test_float_matches_a_high_precision_fraction(x):
    digits = 2 * len(str(max(abs(x.num.a), abs(x.num.b), 1))) + 40
    want = float(fraction_value(x, digits))
    if x.num == ZERO:
        assert float(x) == 0.0
    else:
        assert math.isclose(float(x), want, rel_tol=2 ** -51)
        assert (float(x) > 0) == (x.sign() > 0)
