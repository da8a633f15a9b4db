"""Exact piecewise linear bijections with Z[tau] breakpoints and tau-power slopes.

A PLMap is an increasing PL bijection between two intervals with Z[tau]
endpoints, stored as breakpoints xs, their images ys and per-piece slope
exponents ks (piece i has slope tau**ks[i]).  It is a record.Record:
the three fields are set once, so a table is immutable, and equality,
hash, copy and pickle (rebuilt through PLMap.__init__) come from the
base.  Each piece of a table is checked as the table is built, on the
integer coefficients of its run and rise: the run is positive and the
rise is tau**k times the run.
PLMap.__init__ checks the tables of every constructor but the sweep
(tables read from JSON, tree pairs, restrictions, concatenations,
inverses) and merges colinear pieces, so equality of normalized tables
is equality of maps.  Every product, of interval, circle or lift maps, is
one sweep (_sweep) that builds only its own table: a lift or circle
product reads the other factor's table in place as its periodic
extension, keeping a piece index and an integer shift, and an interval
product is the same sweep that never leaves the other table.  The sweep
checks each piece as it writes it, with the arithmetic of
PLMap.__init__, and writes a breakpoint only where the slope exponent
changes, so its table needs no merge and no second pass; a table that
fails goes to PLMap.__init__, which raises its error.  So no table has
two neighbouring pieces of equal exponent, and one scan,
_fixed_pieces, reads every maximal fixed interval off single pieces: the
support of an interval map and the fixed neighbourhoods of a circle map
are built on it.  Sweeps, cuts and evaluation work on the (a, b) integer
coefficients of the breakpoints: comparisons take ring._sign of
coefficient differences, and each point found on a piece is formed from
coefficients, so every output breakpoint is exactly one ZTau with no
intermediate ring objects; every tau**k comes from the one cache of
ring.tau_pow.
The group words (power, commutator, conjugate) are plain products, and
no product is kept for later: a construction hands its certificate
check the products it already made.
"""

from __future__ import annotations

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
from .record import Record, _set
from .ring import (ONE, QTau, ZERO, ZTau, _as_ratio, _cmp, _floor, _sign, _through,
                   json_fields, json_int, tau_exponent, tau_pow)


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


class PLMap(Record):
    __slots__ = ("xs", "ys", "ks")
    kind = "plmap"

    def __init__(self, xs, ys, ks) -> None:
        xs = tuple(xs)
        ys = tuple(ys)
        ks = tuple(ks)
        n = len(ks)
        if len(xs) < 2 or len(xs) != len(ys) or n != len(xs) - 1:
            raise SchemaError("breakpoint table has inconsistent lengths")
        for v in xs + ys:
            if not isinstance(v, ZTau):
                raise NotInRing(f"breakpoint {v!r} is not in Z[tau]")
        # One loop checks each piece and marks where colinear neighbours
        # (the same exponent across a shared breakpoint) merge.  The run
        # is dx = pa + pb*tau and the rise dy = qa + qb*tau; dx > 0 and
        # dy = tau**k * dx give dy > 0, so dy's sign matters only on
        # rejection.  dy == 0 is rejected before tau_pow(k): _json_table
        # bounds k only if dy != 0.
        keep = [0]
        x0, y0 = xs[0], ys[0]
        for i in range(n):
            x1, y1, k = xs[i + 1], ys[i + 1], ks[i]
            pa, pb = x1.a - x0.a, x1.b - x0.b
            # dx > 0 needs _sign only when a coefficient is negative or both are 0
            if (pa < 0 or pb < 0 or not (pa or pb)) and _sign(pa, pb) <= 0:
                raise NotIncreasing(f"table is not strictly increasing at piece {i}")
            qa, qb = y1.a - y0.a, y1.b - y0.b
            t = tau_pow(k) if qa or qb else None
            # dy = tau**k * dx, with tau**2 = 1 - tau
            if t is None or qa != t.a * pa + t.b * pb or qb != t.a * pb + t.b * (pa - pb):
                if _sign(qa, qb) <= 0:
                    raise NotIncreasing(f"table is not strictly increasing at piece {i}")
                dy = ZTau(qa, qb)
                if tau_exponent(dy, ZTau(pa, pb))[1] != dy:
                    raise NotTauPower(f"slope of piece {i} is no power of tau")
                raise SlopeMismatch(f"piece {i} does not have slope tau**{k}")
            if i and k != ks[i - 1]:
                keep.append(i)
            x0, y0 = x1, y1
        keep.append(n)
        if len(keep) < len(xs):
            # lists, not generators: tuple(genexpr) is built by resizing
            xs = tuple([xs[i] for i in keep])
            ys = tuple([ys[i] for i in keep])
            ks = tuple([ks[i] for i in keep[:-1]])
        _set(self, "xs", xs)
        _set(self, "ys", ys)
        _set(self, "ks", ks)

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, lo: ZTau = ZERO, hi: ZTau = ONE) -> PLMap:
        return cls((lo, hi), (lo, hi), (0,))

    @classmethod
    def from_json(cls, obj: object) -> PLMap:
        return cls(*_json_table(obj, _TABLE_FIELDS, cls.kind))

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

    # -- evaluation ---------------------------------------------------

    def eval(self, x: ZTau | QTau) -> ZTau | QTau:
        """self(x): a ZTau at a ZTau, else a QTau (x is read as one)."""
        num, den = _as_ratio(x)
        xs = self.xs
        lo, hi = xs[0], xs[-1]
        if (_sign(num.a - lo.a * den, num.b - lo.b * den) < 0
                or _sign(num.a - hi.a * den, num.b - hi.b * den) > 0):
            raise OutOfDomain(f"{QTau(num, den)} outside [{lo}, {hi}]")
        # den * self(num/den), formed on the integer coefficients
        j = _piece_index(xs, num.a, num.b, den)
        y = _through(xs[j], self.ys[j], self.ks[j], num, den)
        return y if num is x else QTau(y, den)

    # -- group structure ----------------------------------------------

    def __mul__(self, other: PLMap) -> PLMap:
        """Composition in action order: x -> other(self(x)), in one sweep."""
        if not isinstance(other, PLMap):
            return NotImplemented
        if self.ys[0] != other.xs[0] or self.ys[-1] != other.xs[-1]:
            raise DomainMismatch(
                f"range [{self.ys[0]}, {self.ys[-1]}] does not match "
                f"domain [{other.xs[0]}, {other.xs[-1]}]")
        return _sweep(self.xs, self.ys, self.ks, other.xs, other.ys, other.ks)

    def inverse(self) -> PLMap:
        return PLMap(self.ys, self.xs, [-k for k in self.ks])

    def restrict(self, lo: ZTau, hi: ZTau) -> PLMap:
        return PLMap(*_restricted(self.xs, self.ys, self.ks, lo, hi))

    # -- dynamics -----------------------------------------------------

    def support(self) -> tuple[tuple[ZTau, ZTau], ...]:
        """Closure of the moved set: the closed intervals between the
        pointwise-fixed pieces, in order."""
        out = []
        cur = self.xs[0]
        for lo, hi in _fixed_pieces(self, (0,)):
            if lo != cur:
                out.append((cur, lo))
            cur = hi
        if cur != self.xs[-1]:
            out.append((cur, self.xs[-1]))
        return tuple(out)

    def shift_roots(self, s: ZTau) -> tuple[int, QTau | None]:
        """Where d(x) = self(x) - x - s vanishes on the domain: (0, root) with
        an exact root, or (sign of d, None) when d has one sign throughout.
        The root is a flat piece's left end, else a breakpoint, else the
        crossing inside a piece, in that order of preference."""
        xs, ks = self.xs, self.ks
        signs = _gap_signs(xs, self.ys, s)
        if 0 in signs:
            i = next((i for i, k in enumerate(ks) if k == 0 and not signs[i]),
                     signs.index(0))
            return 0, QTau(xs[i])
        first = signs[0]
        for i, c in enumerate(signs):
            if c != first:
                return 0, self._crossing(i - 1, s)
        return first, None

    def nearest_shift_root(self, s: ZTau, side: int) -> QTau:
        """For a lift's table, with d(x) = self(x) - x - s of sign side at
        0 and vanishing somewhere: the zero of d on the line nearest 0 on
        that side.  d is periodic, so that is the first zero in (0, 1]
        for side > 0, and the last in [0, 1) moved down by 1 for side < 0;
        one sign pass finds it, and a flat zero piece gives its near end."""
        signs = _gap_signs(self.xs, self.ys, s)
        if side > 0:
            i = next(i for i, c in enumerate(signs) if c <= 0)
            return QTau(self.xs[i]) if not signs[i] else self._crossing(i - 1, s)
        i = next(i for i in reversed(range(len(signs))) if signs[i] >= 0)
        root = QTau(self.xs[i]) if not signs[i] else self._crossing(i, s)
        return root - 1

    def _crossing(self, i: int, s: ZTau) -> QTau:
        """The zero of self(x) - x - s inside piece i, where it changes
        sign: d is linear and non-constant there (k = 0 would make the
        endpoint values equal), so the root is the exact quotient."""
        t = tau_pow(self.ks[i])
        return QTau(self.xs[i] * t - self.ys[i] + s) / QTau(t - ONE)


def _gap_signs(xs, ys, s: ZTau) -> list[int]:
    """The sign of y - x - s at each breakpoint, on coefficient differences."""
    sa, sb = s.a, s.b
    return [_sign(y.a - x.a - sa, y.b - x.b - sb) for x, y in zip(xs, ys)]


def _fixed_pieces(g: PLMap, gaps: tuple[int, ...]) -> list[tuple[ZTau, ZTau]]:
    """The pieces (lo, hi) of g's table with slope exponent 0 and gap
    y - x an integer in gaps, in order: (0,) for an interval map, (0, 1)
    for a circle map's table, whose images start in [0, 1).  Each is a
    maximal fixed interval, as no table has two neighbouring pieces of
    equal exponent: PLMap.__init__ merges them in each table it checks,
    and _sweep, which checks its own pieces as it writes them, writes
    none, as it writes a breakpoint only where the exponent changes."""
    xs, ys = g.xs, g.ys
    return [(xs[i], xs[i + 1]) for i, k in enumerate(g.ks)
            if not k and ys[i].b == xs[i].b and ys[i].a - xs[i].a in gaps]


def _swept(xs, ys, ks) -> PLMap:
    """The PLMap of the lists that _sweep wrote, each piece and point of
    which it has checked: the sweep's one build point, which checks and
    merges nothing again."""
    out = object.__new__(PLMap)
    _set(out, "xs", tuple(xs))
    _set(out, "ys", tuple(ys))
    _set(out, "ks", tuple(ks))
    return out


def _sweep(fx, fy, fk, gx, gy, gk, offset: ZTau = ZERO,
           into_period: bool = False) -> PLMap:
    """The table of x -> G(f(x)) + offset on f's domain, in one sweep.

    f and g are raw tables.  G is g's table read in place as its periodic
    extension, G(x + 1) = G(x) + 1, which needs g's domain and image to
    have length one (a lift's table, or the swapped table of its inverse);
    an interval map g, whose domain is f's image, is never left.  The
    sweep starts on g's piece j moved by the integer n, the piece that
    holds f's first image fy[0]; past g's last piece it goes on with the
    first, moved one period further.  With into_period the images, offset
    included, are moved by the integer that puts the first into [0, 1).

    The nearer of f's next image and G's next breakpoint ends each piece,
    a tie ends both.  Every such end is compared, but a breakpoint is
    written only where the slope exponent of the next piece differs, and
    at the end: the table comes out with no colinear neighbours, so there
    is nothing to merge.  Comparisons and each point written work on the
    (a, b) coefficients, so every output breakpoint is one ZTau, and a
    breakpoint of g whose image moves by nothing is used as it is.

    Each piece is checked as it is written, with the arithmetic of
    PLMap.__init__: its run is positive and its rise is tau**k times its
    run, each tau**k read from tau_pow's one cache as its a and b.  With
    every piece good and every point written a ZTau, _swept builds the
    table without a second pass; otherwise PLMap.__init__ gets the
    written lists and raises its own error for them.
    """
    u, g0 = fy[0], gx[0]
    if u.a == g0.a and u.b == g0.b:
        j = n = 0
    else:
        n = _floor(u.a - g0.a, u.b - g0.b)
        j = _piece_index(gx, u.a - n, u.b)
    # G's images on the current period, plus the offset, are g's images
    # moved by sa + sb*tau
    sa, sb = n + offset.a, offset.b
    x, y = gx[j], gy[j]
    t = tau_pow(gk[j])
    da, db = u.a - n - x.a, u.b - x.b
    ya = y.a + sa + t.a * da + t.b * db
    yb = y.b + sb + t.a * db + t.b * (da - db)
    if into_period:
        m = _floor(ya, yb)
        sa -= m
        ya -= m
    x0, y0 = fx[0], ZTau(ya, yb)
    xs, ys, ks = [x0], [y0], []
    ok = True
    i, last, end = 0, len(gk), len(fk)
    k = fk[0] + gk[j]
    while True:
        if j == last:
            j, n, sa = 0, n + 1, sa + 1
        p, q = fy[i + 1], gx[j + 1]
        c = _sign(p.a - q.a - n, p.b - q.b)
        i1 = i + 1 if c <= 0 else i
        j1 = j + 1 if c >= 0 else j
        if i1 < end:
            k1 = fk[i1] + gk[0 if j1 == last else j1]
            if k1 == k:
                i, j = i1, j1
                continue
        ks.append(k)
        if c <= 0:
            x1 = fx[i1]
        else:
            # the point that f's piece i maps to G's breakpoint q + n: the
            # line of slope tau**-fk[i] through (fy[i], fx[i]) at q + n
            x, y = fy[i], fx[i]
            t = tau_pow(-fk[i])
            da, db = q.a + n - x.a, q.b - x.b
            x1 = ZTau(y.a + t.a * da + t.b * db, y.b + t.a * db + t.b * (da - db))
        if c >= 0:
            y1 = gy[j1]
            if sa or sb:
                y1 = ZTau(y1.a + sa, y1.b + sb)
        else:
            # f's image p, on G's piece j
            x, y = gx[j], gy[j]
            t = tau_pow(gk[j])
            da, db = p.a - n - x.a, p.b - x.b
            y1 = ZTau(y.a + sa + t.a * da + t.b * db,
                      y.b + sb + t.a * db + t.b * (da - db))
        xs.append(x1)
        ys.append(y1)
        # a point without integer coefficients fails the check, and then
        # PLMap.__init__ names it, as it names every point that is no ZTau
        try:
            pa, pb = x1.a - x0.a, x1.b - x0.b
            qa, qb = y1.a - y0.a, y1.b - y0.b
            t = tau_pow(k)
            if ((pa < 0 or pb < 0 or not (pa or pb)) and _sign(pa, pb) <= 0
                    or qa != t.a * pa + t.b * pb or qb != t.a * pb + t.b * (pa - pb)):
                ok = False
        except (AttributeError, TypeError):
            ok = False
        if i1 == end:
            break
        i, j, k, x0, y0 = i1, j1, k1, x1, y1
    if ok:
        for v in xs + ys:
            if not isinstance(v, ZTau):
                break
        else:
            return _swept(xs, ys, ks)
    return PLMap(xs, ys, ks)


def _restricted(fx, fy, fk, lo: ZTau, hi: ZTau) -> tuple:
    """The raw table of f restricted to [lo, hi], from f's raw table."""
    if _cmp(lo, fx[0]) < 0 or _cmp(hi, fx[-1]) > 0 or _cmp(hi, lo) <= 0:
        raise OutOfDomain(f"[{lo}, {hi}] is not inside the domain")
    # lo lies on piece i, and hi on piece j, the last that starts below hi
    i = _piece_index(fx, lo.a, lo.b)
    j = _piece_index(fx, hi.a, hi.b)
    if fx[j] == hi:
        j -= 1
    return ([lo, *fx[i + 1:j + 1], hi],
            [_through(fx[i], fy[i], fk[i], lo), *fy[i + 1:j + 1],
             _through(fx[j], fy[j], fk[j], hi)],
            fk[i:j + 1])


def _table_json(xs, ys, ks, shift: int = 0) -> dict:
    """The payload of the table with breakpoints xs, images ys moved down
    by the integer shift, and slope exponents ks.  Each point is written
    in one pass, as ZTau.to_json writes it; past the interpreter's digit
    limit, ZTau.to_json raises the error that names the point."""
    try:
        return {"xs": [{"a": str(x.a), "b": str(x.b)} for x in xs],
                "ys": [{"a": str(y.a - shift), "b": str(y.b)} for y in ys],
                "ks": list(ks)}
    except ValueError:
        for z in [*xs, *(ZTau(y.a - shift, y.b) for y in ys)]:
            z.to_json()
        raise


def _json_points(values: object) -> list:
    """The ring elements of a list of point payloads.  A list whose every
    item is exactly the written form, {"a": s, "b": s} with each s a string
    that str(int(s)) writes back, is read in one pass; any other goes item
    by item through ZTau.from_json, the one reader of a point and its
    errors."""
    try:
        zs = [ZTau(a, b) for v in values
              if type(v) is dict and len(v) == 2
              and type(sa := v["a"]) is str and type(sb := v["b"]) is str
              and str(a := int(sa)) == sa and str(b := int(sb)) == sb]
        if len(zs) == len(values):
            return zs
    except (KeyError, TypeError, ValueError):
        pass
    return [ZTau.from_json(v) for v in values]


_TABLE_FIELDS = frozenset({"xs", "ys", "ks"})


def _json_table(obj: object, fields: frozenset, kind: str) -> tuple[list, list, list]:
    """The lists xs, ys and ks of a table payload, for PLMap.__init__ to
    validate: breakpoints read as ring elements by _json_points and stated
    slope exponents as JSON integers, each bounded by the height of its
    piece.  fields are the payload's keys but its envelope, read as kind."""
    json_fields(obj, fields, "map", kind)
    try:
        xs = _json_points(obj["xs"])
        ys = _json_points(obj["ys"])
        ks = obj["ks"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad piecewise map payload: {exc}") from exc
    if not isinstance(ks, list):
        raise SchemaError("slope exponents 'ks' must be a list")
    ks = [json_int(k, "slope exponent") for k in ks]
    # Both embeddings of a nonzero a + b*tau lie in [1/H, H] with
    # H = |a| + 2|b|, as its norm is a nonzero integer; so a slope
    # tau**k = dy/dx has phi**|k| <= H(dx)*H(dy).  A larger exponent
    # cannot match, and is rejected before tau_pow builds a huge power.
    # A nonzero H(dx)*H(dy) is at least 1, which admits |k| <= 2.
    for i, (k, x0, x1, y0, y1) in enumerate(zip(ks, xs, xs[1:], ys, ys[1:])):
        if -3 < k < 3:
            continue
        h = ((abs(x1.a - x0.a) + 2 * abs(x1.b - x0.b))
             * (abs(y1.a - y0.a) + 2 * abs(y1.b - y0.b)))
        if h and abs(k) > 3 * h.bit_length() // 2 + 1:
            raise SlopeMismatch(f"piece {i} does not have slope tau**{k}")
    return xs, ys, ks


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

# Largest |k| that a caller asks power for: e^k in an expression and the
# n of a defect witness.  A power's pieces and coefficient bits both grow
# with k, so a larger exponent is rejected before any product is built.
MAX_POWER = 10_000


# The most pieces a power, or a table of the rotation pipeline, may have.
# max_den and max_iter bound those tables well below it (see lift.rot);
# this is the backstop against a table that outgrows memory.
MAX_PIECES = 100_000


def power(el, k: int):
    """el**k by exact repeated composition; k = 0 gives the identity."""
    if k == 0:
        return el * el.inverse()
    base = el if k > 0 else el.inverse()
    k = abs(k)
    out = None
    while k:
        if k & 1:
            out = base if out is None else _capped_mul(out, base)
        k >>= 1
        if k:
            base = _capped_mul(base, base)
    return out


def _capped_mul(a, b):
    out = a * b
    if out.num_pieces > MAX_PIECES:
        raise PowerBudgetExceeded(
            f"{out.num_pieces} pieces exceed the bound {MAX_PIECES}")
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
    s = g.support()
    return is_ftau(g) and (not s or (s[0][0].sign() > 0 and _cmp(s[-1][1], ONE) < 0))


def is_supported_in(g: PLMap, lo: ZTau, hi: ZTau) -> bool:
    s = g.support()
    return not s or (_cmp(s[0][0], lo) >= 0 and _cmp(hi, s[-1][1]) >= 0)
