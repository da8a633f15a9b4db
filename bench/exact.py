"""Independent exact arithmetic in Q(tau) and pointwise evaluation of elements.

This module is the benchmark's own oracle.  It shares no code with
`taut`: numbers are plain integer triples, and an element is evaluated one
point at a time by walking its breakpoint table, never by composing
tables.  tau = (sqrt(5) - 1)/2 satisfies tau**2 = 1 - tau.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


class Num:
    """The real number (a + b*tau) / d with integers a, b and d > 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int = 0, d: int = 1) -> None:
        if d <= 0:
            raise ValueError("denominator must be positive")
        self.a, self.b, self.d = a, b, d

    @classmethod
    def of(cls, x) -> "Num":
        if isinstance(x, Num):
            return x
        if isinstance(x, Fraction):
            return cls(x.numerator, 0, x.denominator)
        return cls(int(x))

    def __repr__(self) -> str:
        return f"Num({self.a}, {self.b}, {self.d})"

    def _align(self, o: "Num"):
        if self.d == o.d:
            return self.a, self.b, o.a, o.b, self.d
        return (self.a * o.d, self.b * o.d, o.a * self.d, o.b * self.d,
                self.d * o.d)

    def __add__(self, o) -> "Num":
        o = Num.of(o)
        a1, b1, a2, b2, d = self._align(o)
        return Num(a1 + a2, b1 + b2, d)

    def __sub__(self, o) -> "Num":
        o = Num.of(o)
        a1, b1, a2, b2, d = self._align(o)
        return Num(a1 - a2, b1 - b2, d)

    def __neg__(self) -> "Num":
        return Num(-self.a, -self.b, self.d)

    def times_tau_pow(self, k: int) -> "Num":
        a, b = self.a, self.b
        if k >= 0:
            for _ in range(k):          # (a + b t) t = b + (a - b) t
                a, b = b, a - b
        else:
            for _ in range(-k):         # (a + b t)(1 + t) = (a + b) + a t
                a, b = a + b, a
        return Num(a, b, self.d)

    def times_int(self, m: int) -> "Num":
        return Num(self.a * m, self.b * m, self.d)

    def sign(self) -> int:
        # 2(a + b t) = (2a - b) + b sqrt(5)
        u, v = 2 * self.a - self.b, self.b
        su = (u > 0) - (u < 0)
        sv = (v > 0) - (v < 0)
        if sv == 0 or su == sv:
            return su if su else sv
        if su == 0:
            return sv
        return su if u * u > 5 * v * v else sv

    def floor(self) -> int:
        u, v = 2 * self.a - self.b, self.b
        if v == 0:
            return u // (2 * self.d)
        m = isqrt(5 * v * v)
        if v < 0:
            m = -m - 1
        return (u + m) // (2 * self.d)

    def __eq__(self, o) -> bool:
        if not isinstance(o, (Num, int, Fraction)):
            return NotImplemented
        return (self - Num.of(o)).sign() == 0

    def __lt__(self, o) -> bool:
        return (self - Num.of(o)).sign() < 0

    def __le__(self, o) -> bool:
        return (self - Num.of(o)).sign() <= 0

    def __gt__(self, o) -> bool:
        return (self - Num.of(o)).sign() > 0

    def __ge__(self, o) -> bool:
        return (self - Num.of(o)).sign() >= 0

    __hash__ = None

    def is_ring(self) -> bool:
        return self.a % self.d == 0 and self.b % self.d == 0

    def literal(self) -> str:
        """'a+b*t' text of a ring element, as the program's parser reads it."""
        if not self.is_ring():
            raise ValueError("not a ring element")
        a, b = self.a // self.d, self.b // self.d
        return f"{a}{b:+}*t"


ZERO = Num(0)
ONE = Num(1)
TAU = Num(0, 1)


def abs_num(x: Num) -> Num:
    return -x if x.sign() < 0 else x


def parse_ring(text: str) -> Num:
    """Read 'a', 'b*t', 'a+b*t', '-a-t', ... into a ring element."""
    s = text.replace(" ", "")
    a = b = 0
    i = 0
    while i < len(s):
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i += 1
        j = i
        while j < len(s) and s[j].isdigit():
            j += 1
        has_digits = j > i
        coeff = int(s[i:j]) if has_digits else 1
        i = j
        if i < len(s) and s[i] == "*":
            i += 1
        if i < len(s) and s[i] == "t":
            b += sign * coeff
            i += 1
        elif has_digits:
            a += sign * coeff
        else:
            raise ValueError(f"bad ring literal {text!r}")
    return Num(a, b)


def parse_quotient(text: str) -> Num:
    """Read '(a+b*t)/d', 'a+b*t' or 'p/q'."""
    s = text.replace(" ", "")
    if "/" not in s:
        return parse_ring(s)
    left, _, right = s.rpartition("/")
    if left.startswith("(") and left.endswith(")"):
        left = left[1:-1]
    x = parse_ring(left)
    d = int(right)
    if d < 0:
        x, d = -x, -d
    return Num(x.a, x.b, d)


def ring_json(obj: dict) -> Num:
    return Num(int(obj.get("a", "0")), int(obj.get("b", "0")))


# -- elements as pointwise maps of the real line ---------------------------

class Table:
    """Lift x -> table(x - m) + m + n of a one-period breakpoint table.

    xs runs over [0, 1]; ys over [v, v + 1].  Piece i has slope tau**ks[i].
    """

    def __init__(self, xs, ys, ks, n: int = 0) -> None:
        self.xs, self.ys, self.ks, self.n = list(xs), list(ys), list(ks), n
        if len(self.xs) != len(self.ys) or len(self.ks) != len(self.xs) - 1:
            raise ValueError("inconsistent table")

    @classmethod
    def from_json(cls, obj: dict, n: int = 0) -> "Table":
        return cls([ring_json(x) for x in obj["xs"]],
                   [ring_json(y) for y in obj["ys"]],
                   [int(k) for k in obj["ks"]], n)

    @staticmethod
    def _piece(pts, r) -> int:
        j = 0
        for i in range(1, len(pts) - 1):
            if (r - pts[i]).sign() >= 0:
                j = i
            else:
                break
        return j

    def ev(self, x: Num) -> Num:
        m = x.floor()
        r = x - m
        j = self._piece(self.xs, r)
        return (self.ys[j] + (r - self.xs[j]).times_tau_pow(self.ks[j])) + (m + self.n)

    def inv(self, y: Num) -> Num:
        y = y - self.n
        m = (y - self.ys[0]).floor()
        r = y - m
        j = self._piece(self.ys, r)
        return (self.xs[j] + (r - self.ys[j]).times_tau_pow(-self.ks[j])) + m


class IntervalTable:
    """An increasing bijection of [xs[0], xs[-1]], no periodic extension."""

    def __init__(self, xs, ys, ks) -> None:
        self.xs, self.ys, self.ks = list(xs), list(ys), list(ks)

    @classmethod
    def from_json(cls, obj: dict) -> "IntervalTable":
        return cls([ring_json(x) for x in obj["xs"]],
                   [ring_json(y) for y in obj["ys"]],
                   [int(k) for k in obj["ks"]])

    def ev(self, x: Num) -> Num:
        if x < self.xs[0] or x > self.xs[-1]:
            raise ValueError("point outside the domain")
        j = Table._piece(self.xs, x)
        return self.ys[j] + (x - self.xs[j]).times_tau_pow(self.ks[j])

    def inv(self, y: Num) -> Num:
        if y < self.ys[0] or y > self.ys[-1]:
            raise ValueError("point outside the range")
        j = Table._piece(self.ys, y)
        return self.xs[j] + (y - self.ys[j]).times_tau_pow(-self.ks[j])


class Shift:
    """Translation of the line by a fixed amount."""

    def __init__(self, alpha: Num) -> None:
        self.alpha = alpha

    def ev(self, x: Num) -> Num:
        return x + self.alpha

    def inv(self, y: Num) -> Num:
        return y - self.alpha


class Chain:
    """Apply maps left to right (action order), minus a fixed integer."""

    def __init__(self, maps, offset: int = 0) -> None:
        self.maps, self.offset = list(maps), offset

    def ev(self, x: Num) -> Num:
        for m in self.maps:
            x = m.ev(x)
        return x - self.offset if self.offset else x

    def inv(self, y: Num) -> Num:
        if self.offset:
            y = y + self.offset
        for m in reversed(self.maps):
            y = m.inv(y)
        return y


class Inverse:
    def __init__(self, inner) -> None:
        self.inner = inner

    def ev(self, x: Num) -> Num:
        return self.inner.inv(x)

    def inv(self, y: Num) -> Num:
        return self.inner.ev(y)


class ConjugateShift:
    """b^-1 T b in action order, T the translation by `amount`.

    Its k-th iterate is b^-1 T^k b, so an orbit point k steps on costs
    three evaluations instead of 3k.
    """

    def __init__(self, b, amount: Num) -> None:
        self.b, self.amount = b, amount

    def ev(self, x: Num) -> Num:
        return self.iterate(x, 1)

    def inv(self, y: Num) -> Num:
        return self.iterate(y, -1)

    def iterate(self, x: Num, k: int) -> Num:
        return self.b.ev(self.b.inv(x) + self.amount.times_int(k))


def canonical(chain_maps) -> Chain:
    """Circle element: the lift through the maps, shifted so f(0) is in [0, 1)."""
    c = Chain(chain_maps)
    return Chain(chain_maps, c.ev(ZERO).floor())


# -- subdivision trees ------------------------------------------------------

def tree_leaves(tree) -> int:
    return 1 if tree == "leaf" else tree_leaves(tree[1]) + tree_leaves(tree[2])


def tree_boundaries(tree, lo: Num = ZERO, hi: Num = ONE) -> list:
    if tree == "leaf":
        return [lo, hi]
    mid = lo + (hi - lo).times_tau_pow(1 if tree[0] == "s+" else 2)
    return tree_boundaries(tree[1], lo, mid)[:-1] + tree_boundaries(tree[2], mid, hi)


def tree_exponents(tree) -> list:
    if tree == "leaf":
        return [0]
    first, second = (1, 2) if tree[0] == "s+" else (2, 1)
    return ([e + first for e in tree_exponents(tree[1])]
            + [e + second for e in tree_exponents(tree[2])])


def tree_pair_table(p, q, shift: int) -> Table:
    """Canonical lift of the circle map sending leaf i of p onto leaf i+shift of q."""
    count = tree_leaves(p)
    if tree_leaves(q) != count:
        raise ValueError("leaf counts differ")
    shift %= count
    pb, qb = tree_boundaries(p), tree_boundaries(q)
    pe, qe = tree_exponents(p), tree_exponents(q)
    ys = [qb[(i + shift) % count] + (1 if i + shift >= count else 0)
          for i in range(count)]
    ys.append(ys[0] + 1)
    ks = [qe[(i + shift) % count] - pe[i] for i in range(count)]
    return Table(pb, ys, ks)


def rotation_table(alpha: Num) -> Table:
    v = alpha - alpha.floor()
    return Table([ZERO, ONE], [v, v + 1], [0])


def orbit(f, x: Num, steps: int) -> Num:
    """f^steps(x), one point at a time (or by f's own exact iterate)."""
    if hasattr(f, "iterate"):
        return f.iterate(x, steps)
    for _ in range(steps):
        x = f.ev(x)
    return x
