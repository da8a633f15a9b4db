"""Exact arithmetic in Z[tau] and its fraction field, tau = (sqrt(5)-1)/2.

tau is the positive root of x**2 + x - 1, hence tau**2 = 1 - tau and
1/tau = 1 + tau: tau is a unit.  {1, tau} is an integral basis, so an
element a + b*tau is a unique integer pair and all comparisons, floors
and divisions below are carried out in integer arithmetic only.  Floats
never decide anything.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import floor, gcd, inf, isqrt, log, log10

from .errors import NonPositive, SchemaError

# 2*tau = sqrt(5) - 1, and 5 is not a perfect square, which keeps the
# exact sign and floor comparisons below strict.
TAU_FLOAT = (5 ** 0.5 - 1) / 2
LN_TAU = log(TAU_FLOAT)


def _isign(n: int) -> int:
    return (n > 0) - (n < 0)


def _sign(a: int, b: int) -> int:
    """Sign of a + b*tau, on the integer coefficients alone."""
    # 2*(a + b*tau) = (2a - b) + b*sqrt(5); compare by squaring
    u = 2 * a - b
    if b == 0:
        return _isign(u)
    if u == 0:
        return _isign(b)
    if (u > 0) == (b > 0):
        return _isign(u)
    if u > 0:
        return 1 if u * u > 5 * b * b else -1
    return -1 if u * u > 5 * b * b else 1


def _cmp(x: ZTau, y: ZTau) -> int:
    """Sign of x - y, taken on coefficients without building the difference."""
    return _sign(x.a - y.a, x.b - y.b)


def _floor(a: int, b: int, den: int = 1) -> int:
    """Floor of (a + b*tau) / den for den > 0, on the integer coefficients."""
    # 2*(a + b*tau) = (2a - b) + b*sqrt(5), and m = floor(b*sqrt(5)) exactly
    if b == 0:
        return a // den
    m = isqrt(5 * b * b) if b > 0 else -isqrt(5 * b * b) - 1
    return (2 * a - b + m) // (2 * den)


def _float(a: int, b: int, den: int = 1) -> float:
    """(a + b*tau) / den for den > 0 as a float, inf past the float range.

    The norm of a + b*tau is a nonzero integer and its conjugate is at
    most |a| + 2|b|, so a nonzero |a + b*tau| >= 1/(|a| + 2|b|): reading
    b*sqrt(5) to 2**-k past that bound leaves 64 good bits however much
    2a - b and b*sqrt(5) cancel, and one integer division rounds them.
    """
    k = (abs(a) + 2 * abs(b)).bit_length() + 64 if b else 0
    s = isqrt(5 * b * b << 2 * k)
    try:
        return (((2 * a - b) << k) + (s if b > 0 else -s)) / (den << (k + 1))
    except OverflowError:
        return _sign(a, b) * inf


def _ln(a: int, b: int) -> float:
    """Natural log of the positive a + b*tau, to float precision.

    An estimate only, which callers confirm or correct exactly.  With
    u = 2a - b, the number is (u + b*sqrt(5))/2 and its conjugate
    (u - b*sqrt(5))/2.  The larger of the two in absolute value is
    (|u| + |b|*sqrt(5))/2, read from the top bits of |u| and |b| without
    cancellation; the smaller is the norm a**2 - a*b - b**2 over it.
    """
    u = 2 * a - b
    p, q = abs(u), abs(b)
    s = max(max(p, q).bit_length() - 64, 0)
    big = log((p >> s) + (q >> s) * 5 ** 0.5) + (s - 1) * log(2)
    if u >= 0 and b >= 0:
        return big
    return log(abs(a * a - a * b - b * b)) - big


def _through(x0: ZTau, y0: ZTau, k: int, x: ZTau, den: int = 1) -> ZTau:
    """den * (y0 + tau**k * (x/den - x0)), built as one ring element.

    This is the line of slope tau**k through (x0, y0) at x/den, scaled by
    den: y0*den + tau**k * (x - x0*den), formed on the integer
    coefficients, with tau**2 = 1 - tau doing the product.
    """
    t = tau_pow(k)
    ta, tb = t.a, t.b
    da, db = x.a - x0.a * den, x.b - x0.b * den
    return ZTau(y0.a * den + ta * da + tb * db,
                y0.b * den + ta * db + tb * (da - db))


@total_ordering
class ZTau:
    """The real number a + b*tau with arbitrary-precision integers a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0) -> None:
        self.a = a
        self.b = b

    def __repr__(self) -> str:
        return f"ZTau({self.a}, {self.b})"

    def __str__(self) -> str:
        return ztau_str(self)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ZTau):
            return self.a == other.a and self.b == other.b
        if isinstance(other, int):
            return self.a == other and self.b == 0
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if isinstance(other, ZTau):
            return _sign(self.a - other.a, self.b - other.b) < 0
        if isinstance(other, int):
            return _sign(self.a - other, self.b) < 0
        return NotImplemented

    def __add__(self, other: ZTau | int) -> ZTau:
        if isinstance(other, ZTau):
            return ZTau(self.a + other.a, self.b + other.b)
        if isinstance(other, int):
            return ZTau(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: ZTau | int) -> ZTau:
        if isinstance(other, ZTau):
            return ZTau(self.a - other.a, self.b - other.b)
        if isinstance(other, int):
            return ZTau(self.a - other, self.b)
        return NotImplemented

    def __rsub__(self, other: ZTau | int) -> ZTau:
        return (-self) + other

    def __neg__(self) -> ZTau:
        return ZTau(-self.a, -self.b)

    def __mul__(self, other: ZTau | int) -> ZTau:
        if isinstance(other, int):
            return ZTau(self.a * other, self.b * other)
        if isinstance(other, ZTau):
            # tau**2 = 1 - tau
            bb = self.b * other.b
            return ZTau(self.a * other.a + bb,
                        self.a * other.b + self.b * other.a - bb)
        return NotImplemented

    __rmul__ = __mul__

    def conj(self) -> ZTau:
        """Galois conjugate: tau -> -1 - tau, so a + b*tau -> (a-b) - b*tau."""
        return ZTau(self.a - self.b, -self.b)

    def norm(self) -> int:
        """Field norm a**2 - a*b - b**2; multiplicative, +-1 exactly on units."""
        return self.a * self.a - self.a * self.b - self.b * self.b

    def sign(self) -> int:
        return _sign(self.a, self.b)

    def floor(self) -> int:
        return _floor(self.a, self.b)

    def __abs__(self) -> ZTau:
        return -self if self.sign() < 0 else self

    def __float__(self) -> float:
        return _float(self.a, self.b)

    def to_json(self) -> dict:
        try:
            return {"a": str(self.a), "b": str(self.b)}
        except ValueError:  # past the interpreter's digit limit
            raise _too_long(self) from None

    @classmethod
    def from_json(cls, obj: object) -> ZTau:
        if not isinstance(obj, dict) or not obj.keys() <= {"a", "b"}:
            raise SchemaError(f"bad ring element payload: {obj!r:.40}")
        return cls(json_coeff(obj.get("a", "0"), "ring coefficient"),
                   json_coeff(obj.get("b", "0"), "ring coefficient"))


ZERO = ZTau(0)
ONE = ZTau(1)
TAU = ZTau(0, 1)
INV_TAU = ZTau(1, 1)


# Real tables use few, small exponents; the bound keeps the memory of
# hostile ones (up to the table reader's height bound) finite.
TAU_POW_CACHE = 1024


@lru_cache(maxsize=TAU_POW_CACHE)
def tau_pow(k: int) -> ZTau:
    """Exact tau**k for any integer k, in O(log |k|) steps.

    With Fibonacci numbers F: tau**k = (-1)**k * (F(k-1) - F(k)*tau) for
    k >= 0, and tau**-k = (1 + tau)**k = F(k+1) + F(k)*tau.
    """
    f, g = _fib_pair(abs(k))
    if k < 0:
        return ZTau(g, f)
    s = -1 if k & 1 else 1
    return ZTau(s * (g - f), -s * f)


def _fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) for n >= 0, by fast doubling over the bits of n."""
    f, g = 0, 1
    for bit in bin(n)[2:]:
        f, g = f * (2 * g - f), f * f + g * g
        if bit == "1":
            f, g = g, f + g
    return f, g


@total_ordering
class QTau:
    """Quotient (a + b*tau) / den in canonical form: den > 0, gcd cleared."""

    __slots__ = ("num", "den")

    def __init__(self, num: ZTau | int, den: int = 1) -> None:
        if isinstance(num, int):
            num = ZTau(num)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(gcd(abs(num.a), abs(num.b)), den)
        if g > 1:
            num = ZTau(num.a // g, num.b // g)
            den //= g
        self.num = num
        self.den = den

    def __repr__(self) -> str:
        return f"QTau({self.num!r}, {self.den})"

    def __str__(self) -> str:
        return qtau_str(self)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        other = _maybe_qtau(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __lt__(self, other: object) -> bool:
        other = _maybe_qtau(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __add__(self, other: object) -> QTau:
        other = _maybe_qtau(other)
        if other is None:
            return NotImplemented
        return QTau(self.num * other.den + other.num * self.den,
                    self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other: object) -> QTau:
        other = _maybe_qtau(other)
        if other is None:
            return NotImplemented
        return QTau(self.num * other.den - other.num * self.den,
                    self.den * other.den)

    def __rsub__(self, other: object) -> QTau:
        return (-self) + other

    def __neg__(self) -> QTau:
        return QTau(-self.num, self.den)

    def __abs__(self) -> QTau:
        return -self if self.sign() < 0 else self

    def __mul__(self, other: object) -> QTau:
        other = _maybe_qtau(other)
        if other is None:
            return NotImplemented
        return QTau(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> QTau:
        other = _maybe_qtau(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero")
        # 1/z = conj(z) / norm(z); the norm is a plain integer.
        n = other.num.norm()
        return QTau(self.num * other.num.conj() * other.den, self.den * n)

    def sign(self) -> int:
        return self.num.sign()

    def floor(self) -> int:
        return _floor(self.num.a, self.num.b, self.den)

    def __float__(self) -> float:
        return _float(self.num.a, self.num.b, self.den)


def _maybe_qtau(x: object) -> QTau | None:
    if isinstance(x, QTau):
        return x
    if isinstance(x, (int, ZTau)):
        return QTau(x)
    if isinstance(x, Fraction):
        return QTau(ZTau(x.numerator), x.denominator)
    return None


def _as_qtau(x: object) -> QTau:
    q = _maybe_qtau(x)
    if q is None:
        raise TypeError(f"cannot interpret {x!r} as a ring quotient")
    return q


def _as_ratio(x: object) -> tuple[ZTau, int]:
    """x as (num, den) with x = num / den and den > 0: (x, 1) at a ZTau."""
    if isinstance(x, ZTau):
        return x, 1
    q = _as_qtau(x)
    return q.num, q.den


def tau_exponent(x: ZTau, y: ZTau = ONE) -> tuple[int, ZTau]:
    """The one j with tau**(j+1) * y < x <= tau**j * y, and m = tau**j * y,
    for positive x and y: the search for a power of tau in the ring.

    j starts at the estimate (_ln(x) - _ln(y)) / ln(tau), which decides
    nothing: m is then stepped exactly by the units tau and 1/tau until
    both inequalities hold.
    """
    if x.sign() <= 0 or y.sign() <= 0:
        raise NonPositive("tau powers are positive")
    j = floor((_ln(x.a, x.b) - _ln(y.a, y.b)) / LN_TAU)
    m = tau_pow(j) * y
    while m < x:
        m, j = m * INV_TAU, j - 1
    while m * TAU >= x:
        m, j = m * TAU, j + 1
    return j, m


def is_tau_power(x: QTau | ZTau | int) -> int | None:
    """Return k with x = tau**k, or None: with x = num/den, the k of
    tau_exponent(num, den) when its m = tau**k * den is num itself."""
    x = _as_qtau(x)
    k, m = tau_exponent(x.num, ZTau(x.den))
    return k if m == x.num else None


def _too_long(z: ZTau) -> ValueError:
    """The error of writing z past the interpreter's digit limit."""
    n = max(abs(z.a), abs(z.b))
    d = int(n.bit_length() * log10(2))  # n has d or d + 1 digits
    return ValueError(f"coefficient of {d + (n >= 10 ** d)} digits is too long to "
                      f"write: the limit is {sys.get_int_max_str_digits()} digits")


def ztau_str(z: ZTau) -> str:
    """Compact human form: '0', 't', '1-t', '-1+2*t', '3'."""
    try:
        if z.b == 0:
            return str(z.a)
        if z.b == 1:
            t = "t"
        elif z.b == -1:
            t = "-t"
        else:
            t = f"{z.b}*t"
        if z.a == 0:
            return t
        return f"{z.a}+{t}" if not t.startswith("-") else f"{z.a}{t}"
    except ValueError:  # past the interpreter's digit limit
        raise _too_long(z) from None


def ztau_literal(z: ZTau) -> str:
    """Explicit canonical form 'a+b*t' used in serialized payloads."""
    try:
        return f"{z.a}{z.b:+}*t"
    except ValueError:  # past the interpreter's digit limit
        raise _too_long(z) from None


def qtau_str(q: QTau) -> str:
    if q.den == 1:
        return ztau_str(q.num)
    return f"({ztau_str(q.num)})/{q.den}"


def qtau_literal(q: QTau) -> str:
    return f"({ztau_literal(q.num)})/{q.den}"


class RingLiteralError(ValueError):
    """A malformed ring literal; pos is where reading stopped in the text."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(message)
        self.pos = pos


# one term: sign, coefficient, '*', 't', each optional, blanks between
_TERM = re.compile(r"\s*([+-]?)\s*(\d*)\s*(\*?)\s*(t(?!\w))?\s*")


def read_ztau(text: str, pos: int = 0) -> tuple[ZTau, int]:
    """Read the ring literal that starts at text[pos].

    A literal is a sum of terms INT, INT*t, INT t and t separated by
    signs, with an optional leading sign; blanks may separate tokens but
    not the digits of a number.  Returns the value and the position after
    it and the blanks that follow.  Raises RingLiteralError at the first
    position where no term can be read.
    """
    a = b = 0
    first = True
    while True:
        m = _TERM.match(text, pos)
        sign, digits, star, t = m.groups()
        if not (sign or first):
            return ZTau(a, b), m.start(2)
        if not (digits or t) or (star and not digits):
            raise RingLiteralError("expected a ring literal", m.start(2))
        if star and not t:
            raise RingLiteralError("expected 't' after '*'", m.end())
        try:
            coeff = (-1 if sign == "-" else 1) * int(digits or 1)
        except ValueError:  # past the interpreter's digit limit
            raise RingLiteralError(f"coefficient of {len(digits)} digits is "
                                   "too long", m.start(2)) from None
        if t:
            b += coeff
        else:
            a += coeff
        first = False
        pos = m.end()


def _read_exactly(text: str, start: int, stop: int) -> ZTau:
    """The ring literal that is text[start:stop] (see read_ztau)."""
    try:
        z, end = read_ztau(text, start)
        if end < stop:
            raise RingLiteralError("expected '+' or '-'", end)
    except RingLiteralError as exc:
        raise ValueError(f"bad ring literal {text!r:.40}: {exc} "
                         f"at column {exc.pos + 1}") from None
    return z


# the forms that ztau_literal and qtau_literal write, read with one match
_LITERAL = re.compile(r"(-?[0-9]+)([+-][0-9]+)\*t")
_QLITERAL = re.compile(r"\((-?[0-9]+)([+-][0-9]+)\*t\)/([0-9]+)")


def parse_ztau(text: str) -> ZTau:
    """Parse a text that is one ring literal 'a+b*t' (see read_ztau)."""
    if isinstance(text, str) and (m := _LITERAL.fullmatch(text)):
        try:
            return ZTau(int(m[1]), int(m[2]))
        except ValueError:  # past the interpreter's digit limit
            pass
    return _read_exactly(text, 0, len(text))


# '(' numerator ')/' denominator, or a numerator with an optional '/' denominator
_QUOTIENT = re.compile(r"\s*\((.*)\)\s*/\s*([+-]?\d+)\s*"
                       r"|(.*?)(?:/\s*([+-]?\d+)\s*)?", re.DOTALL)


def parse_qtau(text: str) -> QTau:
    """Parse '(a+b*t)/d', 'a+b*t/d', 'a+b*t' or a plain rational 'p/q',
    with blanks between tokens as in read_ztau.  The form '(a+b*t)/d' that
    qtau_literal writes is read with one match; any other text, and one
    whose integers pass the interpreter's digit limit, goes through the
    general reader and its errors."""
    if m := _QLITERAL.fullmatch(text):
        try:
            return QTau(ZTau(int(m[1]), int(m[2])), int(m[3]))
        except ValueError:  # past the interpreter's digit limit
            pass
    m = _QUOTIENT.fullmatch(text)
    num = 1 if m[1] is not None else 3
    z = _read_exactly(text, m.start(num), m.end(num))
    try:
        den = int(m[num + 1] or 1)
    except ValueError:  # past the interpreter's digit limit
        raise ValueError(f"bad ring literal {text!r:.40}: denominator too long "
                         f"at column {m.start(num + 1) + 1}") from None
    return QTau(z, den)


SCHEMA_VERSION = 1


def json_fields(obj: object, allowed, what: str, kind: str | None = None) -> dict:
    """obj, a JSON object none of whose keys lies outside allowed: the one
    unknown-key rule of every payload, a SchemaError that names the keys.
    A payload read as a kind, wherever it stands, may also state its
    envelope, "kind" (this kind) and "schema" (SCHEMA_VERSION), checked
    first; with kind None, as in a certificate's sub-object, neither."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} payload must be an object")
    unknown = obj.keys() - allowed
    if unknown and kind is not None:
        if "kind" in unknown and obj["kind"] != kind:
            raise SchemaError(f"{what} payload states kind {obj['kind']!r:.40}, "
                              f"not {kind!r}")
        if "schema" in unknown and json_int(obj["schema"], "schema") != SCHEMA_VERSION:
            raise SchemaError(f"unknown schema {obj['schema']!r:.40}, expected "
                              f"{SCHEMA_VERSION}")
        unknown -= {"kind", "schema"}
    if unknown:
        raise SchemaError(f"unknown {what} payload fields {sorted(unknown)}")
    return obj


def json_int(value: object, what: str) -> int:
    """An integer field of a JSON payload; bool, float and str are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SchemaError(f"{what} must be a JSON integer, not {type(value).__name__}")


def json_coeff(value: object, what: str) -> int:
    """An integer coefficient of a JSON payload: a decimal string exactly
    as to_json writes it, or a JSON integer; anything else is refused."""
    if type(value) is not str:
        return json_int(value, what)
    try:
        if str(n := int(value)) == value:
            return n
    except ValueError:  # not a number, or past the interpreter's digit limit
        pass
    raise SchemaError(f"{what} must be a decimal integer, not {value[:40]!r}")


def json_bool(value: object, what: str) -> bool:
    """A boolean field of a JSON payload: true or false, nothing else."""
    if isinstance(value, bool):
        return value
    raise SchemaError(f"{what} must be a JSON boolean, not {type(value).__name__}")
