"""Exact piecewise linear bijections with Z[tau] breakpoints and tau-power slopes.

A PLMap is an increasing PL bijection between two intervals with Z[tau]
endpoints, stored as breakpoints xs, their images ys and per-piece slope
exponents ks (piece i has slope tau**ks[i]).  Construction always checks
the slope identities exactly, on the integer coefficients of each piece's
run and rise, and merges colinear pieces, so equality of normalized tables
is equality of maps.  A product is one sweep over both tables; lift and
circle products sweep the other factor's periodic extension as raw
sequences (circle._unrolled), so each product builds only its own table.
Sweeps, cuts and evaluation work on the (a, b) integer coefficients of
the breakpoints: comparisons take ring._sign of coefficient differences,
and each point found on a piece is one ring._through, so every output
breakpoint is exactly one ZTau with no intermediate ring objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DomainMismatch,
    NotInRing,
    NotIncreasing,
    NotTauPower,
    OutOfDomain,
    PowerBudgetExceeded,
    SchemaError,
    SlopeMismatch,
)
from .ring import (ONE, QTau, ZERO, ZTau, _as_ratio, _cmp, _is_tau_multiple,
                   _shifted_gap, _sign, _through, is_tau_power, json_int,
                   tau_pow)


def _piece_index(xs, xa: int, xb: int, den: int = 1) -> int:
    """Largest j with xs[j] <= (xa + xb*tau) / den, clipped to the last
    piece; the point is given by its integer coefficients."""
    lo, hi = 0, len(xs) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        m = xs[mid]
        if _sign(xa - m.a * den, xb - m.b * den) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


class PLMap:
    __slots__ = ("xs", "ys", "ks")

    def __init__(self, xs, ys, ks) -> None:
        xs = tuple(xs)
        ys = tuple(ys)
        ks = tuple(ks)
        if len(xs) < 2 or len(xs) != len(ys) or len(ks) != len(xs) - 1:
            raise SchemaError("breakpoint table has inconsistent lengths")
        for v in xs + ys:
            if not isinstance(v, ZTau):
                raise NotInRing(f"breakpoint {v!r} is not in Z[tau]")
        for i, (k, x0, x1, y0, y1) in enumerate(zip(ks, xs, xs[1:], ys, ys[1:])):
            # dx = pa + pb*tau, dy = qa + qb*tau; dx > 0 and dy = tau**k * dx
            # give dy > 0, so dy's sign matters only on rejection.  dy == 0 is
            # rejected before tau_pow(k): from_raw bounds k only if dy != 0.
            pa, pb = x1.a - x0.a, x1.b - x0.b
            qa, qb = y1.a - y0.a, y1.b - y0.b
            if _sign(pa, pb) <= 0:
                raise NotIncreasing(f"table is not strictly increasing at piece {i}")
            if not ((qa or qb) and _is_tau_multiple(qa, qb, k, pa, pb)):
                if _sign(qa, qb) <= 0:
                    raise NotIncreasing(f"table is not strictly increasing at piece {i}")
                if is_tau_power(QTau(ZTau(qa, qb)) / QTau(ZTau(pa, pb))) is None:
                    raise NotTauPower(f"slope of piece {i} is no power of tau")
                raise SlopeMismatch(f"piece {i} does not have slope tau**{k}")
        # merge colinear neighbours: same exponent across a shared breakpoint
        keep = [0]
        for i in range(1, len(xs) - 1):
            if ks[i - 1] != ks[i]:
                keep.append(i)
        keep.append(len(xs) - 1)
        if len(keep) < len(xs):
            # lists, not generators: tuple(genexpr) is built by resizing
            xs = tuple([xs[i] for i in keep])
            ys = tuple([ys[i] for i in keep])
            ks = tuple([ks[i] for i in keep[:-1]])
        self.xs, self.ys, self.ks = xs, ys, ks

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, lo: ZTau = ZERO, hi: ZTau = ONE) -> PLMap:
        return cls((lo, hi), (lo, hi), (0,))

    @classmethod
    def from_raw(cls, xs, ys, ks=None) -> PLMap:
        """Validate an untrusted table; slope exponents are inferred if absent."""
        xs = [_coerce_ring(x) for x in xs]
        ys = [_coerce_ring(y) for y in ys]
        if ks is None:
            ks = []
            for i in range(len(xs) - 1):
                dx = xs[i + 1] - xs[i]
                dy = ys[i + 1] - ys[i]
                if dx.sign() <= 0 or dy.sign() <= 0:
                    raise NotIncreasing(f"table is not strictly increasing at piece {i}")
                k = is_tau_power(QTau(dy) / QTau(dx))
                if k is None:
                    raise NotTauPower(f"slope of piece {i} is no power of tau")
                ks.append(k)
        ks = [json_int(k, "slope exponent") for k in ks]
        # Both embeddings of a nonzero a + b*tau lie in [1/H, H] with
        # H = |a| + 2|b|, as its norm is a nonzero integer; so a slope
        # tau**k = dy/dx has phi**|k| <= H(dx)*H(dy).  A larger exponent
        # cannot match, and is rejected before tau_pow builds a huge power.
        for i, (k, x0, x1, y0, y1) in enumerate(zip(ks, xs, xs[1:], ys, ys[1:])):
            h = _height(x1 - x0) * _height(y1 - y0)
            if h and abs(k) > 3 * h.bit_length() // 2 + 1:
                raise SlopeMismatch(f"piece {i} does not have slope tau**{k}")
        return cls(xs, ys, ks)

    @classmethod
    def from_json(cls, obj: object) -> PLMap:
        if not isinstance(obj, dict):
            raise SchemaError("piecewise map payload must be an object")
        unknown = set(obj) - {"xs", "ys", "ks", "kind", "schema"}
        if unknown:
            raise SchemaError(f"unknown map payload fields {sorted(unknown)}")
        try:
            xs = [ZTau.from_json(v) if "a" in v else QTau.from_json(v)
                  for v in obj["xs"]]
            ys = [ZTau.from_json(v) if "a" in v else QTau.from_json(v)
                  for v in obj["ys"]]
            ks = obj.get("ks")
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad piecewise map payload: {exc}") from exc
        if ks is not None and not isinstance(ks, list):
            raise SchemaError("slope exponents 'ks' must be a list")
        return cls.from_raw(xs, ys, ks)

    def to_json(self) -> dict:
        return _table_json(self.xs, self.ys, self.ks)

    # -- basic queries ------------------------------------------------

    @property
    def num_pieces(self) -> int:
        return len(self.ks)

    def domain(self) -> tuple[ZTau, ZTau]:
        return self.xs[0], self.xs[-1]

    def is_identity(self) -> bool:
        return self.ks == (0,) and self.xs == self.ys

    def __repr__(self) -> str:
        return (f"PLMap([{', '.join(map(str, self.xs))}] -> "
                f"[{', '.join(map(str, self.ys))}], ks={list(self.ks)})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PLMap):
            return NotImplemented
        return (self.xs, self.ys, self.ks) == (other.xs, other.ys, other.ks)

    def __hash__(self) -> int:
        return hash((self.xs, self.ys, self.ks))

    # -- evaluation ---------------------------------------------------

    def eval(self, x: ZTau | QTau) -> ZTau | QTau:
        """self(x): a ZTau at a ZTau, else a QTau (x is read as one)."""
        num, den = _as_ratio(x)
        y = self._scaled_image(num, den)
        return y if num is x else QTau(y, den)

    def _scaled_image(self, num: ZTau, den: int) -> ZTau:
        """den * self(num/den), formed on the integer coefficients."""
        xs = self.xs
        lo, hi = xs[0], xs[-1]
        if (_sign(num.a - lo.a * den, num.b - lo.b * den) < 0
                or _sign(num.a - hi.a * den, num.b - hi.b * den) > 0):
            raise OutOfDomain(f"{QTau(num, den)} outside [{lo}, {hi}]")
        j = _piece_index(xs, num.a, num.b, den)
        return _through(xs[j], self.ys[j], self.ks[j], num, den)

    # -- group structure ----------------------------------------------

    def __mul__(self, other: PLMap) -> PLMap:
        """Composition in action order: x -> other(self(x)), in one sweep."""
        if not isinstance(other, PLMap):
            return NotImplemented
        if self.ys[0] != other.xs[0] or self.ys[-1] != other.xs[-1]:
            raise DomainMismatch(
                f"range [{self.ys[0]}, {self.ys[-1]}] does not match "
                f"domain [{other.xs[0]}, {other.xs[-1]}]")
        return _compose(self.xs, self.ys, self.ks, other.xs, other.ys, other.ks)

    def inverse(self) -> PLMap:
        return PLMap(self.ys, self.xs, [-k for k in self.ks])

    def restrict(self, lo: ZTau, hi: ZTau) -> PLMap:
        return PLMap(*_restricted(self.xs, self.ys, self.ks, lo, hi))

    # -- dynamics -----------------------------------------------------

    def support(self) -> IntervalSet:
        """Closure of the moved set, from the maximal pointwise-fixed pieces."""
        fixed = []
        for i, k in enumerate(self.ks):
            if k == 0 and self.ys[i] == self.xs[i]:
                if fixed and fixed[-1][1] == self.xs[i]:
                    fixed[-1] = (fixed[-1][0], self.xs[i + 1])
                else:
                    fixed.append((self.xs[i], self.xs[i + 1]))
        out = []
        cur = self.xs[0]
        for lo, hi in fixed:
            if (lo - cur).sign() > 0:
                out.append((cur, lo))
            cur = hi
        if (self.xs[-1] - cur).sign() > 0:
            out.append((cur, self.xs[-1]))
        return IntervalSet(tuple(out))

    def shift_roots(self, s: ZTau) -> tuple[int, QTau | None]:
        """Where d(x) = self(x) - x - s vanishes on the domain: (0, root) with
        an exact root, or (sign of d, None) when d has one sign throughout.
        The root is a flat piece's left end, else a breakpoint, else the
        crossing inside a piece, in that order of preference."""
        vals = [_shifted_gap(x, y, s) for x, y in zip(self.xs, self.ys)]
        for i, k in enumerate(self.ks):
            if k == 0 and not vals[i]:
                return 0, QTau(self.xs[i])
        for i, v in enumerate(vals):
            if not v:
                return 0, QTau(self.xs[i])
        signs = [v.sign() for v in vals]
        if len(set(signs)) == 1:
            return signs[0], None
        for i in range(len(self.ks)):
            if signs[i] * signs[i + 1] < 0:
                k = self.ks[i]
                # d is linear and non-constant on the piece (k = 0 would make
                # the endpoint values equal), so the root is the exact quotient
                root = (QTau(self.xs[i] * tau_pow(k) - self.ys[i] + s)
                        / QTau(tau_pow(k) - ONE))
                return 0, root
        raise AssertionError("sign pattern without a crossing")


@dataclass(frozen=True)
class IntervalSet:
    intervals: tuple[tuple[ZTau, ZTau], ...]

    def is_empty(self) -> bool:
        return not self.intervals

    def inside(self, lo: ZTau, hi: ZTau, strict: bool = False) -> bool:
        cmp = 1 if strict else 0
        return all((a - lo).sign() >= cmp and (hi - b).sign() >= cmp
                   for a, b in self.intervals)


def _compose(fx, fy, fk, gx, gy, gk) -> PLMap:
    """x -> g(f(x)) from raw tables in one sweep; f's image is g's domain."""
    xs, ys, ks = [fx[0]], [gy[0]], []
    i = j = 0
    while i < len(fk):
        ks.append(fk[i] + gk[j])
        # the nearer of f's next image and g's next breakpoint ends the
        # piece; a tie (c == 0) ends both
        c = _cmp(fy[i + 1], gx[j + 1])
        if c <= 0:
            i += 1
        if c >= 0:
            j += 1
        xs.append(fx[i] if c <= 0 else _through(fy[i], fx[i], -fk[i], gx[j]))
        ys.append(gy[j] if c >= 0 else _through(gx[j], gy[j], gk[j], fy[i]))
    return PLMap(xs, ys, ks)


def _restricted(fx, fy, fk, lo: ZTau, hi: ZTau) -> tuple:
    """The raw table of f restricted to [lo, hi], from f's raw table."""
    if _cmp(lo, fx[0]) < 0 or _cmp(hi, fx[-1]) > 0 or _cmp(hi, lo) <= 0:
        raise OutOfDomain(f"[{lo}, {hi}] is not inside the domain")
    i = 0  # lo lies on piece i and hi on piece j, found in one walk
    while _cmp(fx[i + 1], lo) <= 0:
        i += 1
    j = i
    while _cmp(fx[j + 1], hi) < 0:
        j += 1
    return ([lo, *fx[i + 1:j + 1], hi],
            [_through(fx[i], fy[i], fk[i], lo), *fy[i + 1:j + 1],
             _through(fx[j], fy[j], fk[j], hi)],
            fk[i:j + 1])


def _table_json(xs, ys, ks) -> dict:
    return {
        "xs": [x.to_json() for x in xs],
        "ys": [y.to_json() for y in ys],
        "ks": list(ks),
    }


def _coerce_ring(v) -> ZTau:
    if isinstance(v, ZTau):
        return v
    if isinstance(v, int):
        return ZTau(v)
    if isinstance(v, QTau):
        if v.den != 1:
            raise NotInRing(f"{v} is not in Z[tau]")
        return v.num
    raise NotInRing(f"{v!r} is not in Z[tau]")


def _height(z: ZTau) -> int:
    return abs(z.a) + 2 * abs(z.b)


def concat(parts: list[PLMap]) -> PLMap:
    """Glue maps on adjacent intervals into one map (endpoints must meet)."""
    xs = list(parts[0].xs)
    ys = list(parts[0].ys)
    ks = list(parts[0].ks)
    for p in parts[1:]:
        if p.xs[0] != xs[-1] or p.ys[0] != ys[-1]:
            raise DomainMismatch(
                f"piece starting at ({p.xs[0]}, {p.ys[0]}) does not meet "
                f"({xs[-1]}, {ys[-1]})")
        xs.extend(p.xs[1:])
        ys.extend(p.ys[1:])
        ks.extend(p.ks)
    return PLMap(xs, ys, ks)


# -- group words, shared by interval, circle and lift elements ---------

def power(el, k: int, piece_cap: int | None = None):
    """el**k by exact repeated composition; k = 0 gives the identity."""
    if k == 0:
        return el * el.inverse()
    base = el if k > 0 else el.inverse()
    k = abs(k)
    out = None
    while k:
        if k & 1:
            out = base if out is None else _capped_mul(out, base, piece_cap)
        k >>= 1
        if k:
            base = _capped_mul(base, base, piece_cap)
    return out


def _capped_mul(a, b, piece_cap):
    out = a * b
    if piece_cap is not None and out.num_pieces > piece_cap:
        raise PowerBudgetExceeded(
            f"{out.num_pieces} pieces exceed the configured cap {piece_cap}")
    return out


def commutator(a, b):
    """[a, b] = a^-1 b^-1 a b (right-action convention)."""
    return a.inverse() * b.inverse() * a * b


def conjugate(a, b):
    """a conjugated by b: b^-1 a b."""
    return b.inverse() * a * b


# -- membership flavours -------------------------------------------------

def is_ftau(g: PLMap) -> bool:
    """Increasing PL bijection of [0,1] (breakpoint/slope conditions are
    already part of the representation)."""
    return (g.xs[0] == ZERO and g.xs[-1] == ONE
            and g.ys[0] == ZERO and g.ys[-1] == ONE)


def is_ftau_compact(g: PLMap) -> bool:
    """In F_tau with support closure strictly inside (0, 1)."""
    if not is_ftau(g):
        return False
    return g.support().inside(ZERO, ONE, strict=True)


def is_supported_in(g: PLMap, lo: ZTau, hi: ZTau) -> bool:
    return g.support().inside(lo, hi)
