"""Circle maps of the golden ratio Thompson group T_tau as canonical lifts.

An element is stored as the one-period table of its lift: a PLMap on
[0, 1] with image [v, v+1], where the base value v = table(0) lies in
Z[tau] with 0 <= v < 1.  Storing v in the ring is exactly the constraint
that separates T_tau from arbitrary PL circle maps with tau-power slopes
(every rotation satisfies the breakpoint and slope conditions, but only
ring rotations preserve Z[tau]/Z).

Products and inverses sweep the raw periodic extension of a table
(_unrolled) on integer coefficients: the cut point is found and the one
split breakpoint formed on coefficients, and a shift by a whole period
moves only the .a coefficient, with the breakpoints reused as they are
when the shift is 0.  A lift is evaluated likewise, x read as num/den.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegreeNotOne,
    LeafCountMismatch,
    NotFtau,
    SchemaError,
    ValidationError,
)
from .plmap import PLMap, _compose, _piece_index, is_ftau
from .ring import ONE, QTau, ZERO, TAU, ZTau, _as_ratio, _floor, _through, tau_pow

DEFAULT_PIECE_CAP = 100_000


class CircleMap:
    __slots__ = ("table",)

    def __init__(self, table: PLMap) -> None:
        _check_lift_table(table)
        ys = _into_period(table.ys)
        self.table = table if ys is table.ys else PLMap(table.xs, ys, table.ks)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls) -> CircleMap:
        return cls(PLMap.identity())

    @classmethod
    def rotation(cls, alpha: ZTau | int) -> CircleMap:
        if isinstance(alpha, int):
            alpha = ZTau(alpha)
        return cls(PLMap((ZERO, ONE), (alpha, alpha + 1), (0,)))

    @classmethod
    def from_interval_map(cls, g: PLMap) -> CircleMap:
        if not is_ftau(g):
            raise NotFtau("interval map must be an F_tau element on [0, 1]")
        return cls(g)

    @classmethod
    def from_tree_pair(cls, p: SubdivisionTree, q: SubdivisionTree,
                       shift: int) -> CircleMap:
        """Map leaf i of p's partition onto leaf (i + shift) mod L of q's,
        wrapping through 1."""
        lcount = p.leaf_count()
        if q.leaf_count() != lcount:
            raise LeafCountMismatch(
                f"{lcount} leaves versus {q.leaf_count()}")
        shift %= lcount
        pb = p.boundaries(ZERO, ONE)
        qb = q.boundaries(ZERO, ONE)
        pe = p.leaf_exponents()
        qe = q.leaf_exponents()
        ys = []
        for i in range(lcount):
            j = i + shift
            ys.append(qb[j % lcount] + (1 if j >= lcount else 0))
        ys.append(ys[0] + 1)
        ks = [qe[(i + shift) % lcount] - pe[i] for i in range(lcount)]
        return cls(PLMap(pb, ys, ks))

    @classmethod
    def from_raw(cls, xs, ys, ks=None) -> CircleMap:
        return cls(PLMap.from_raw(xs, ys, ks))

    @classmethod
    def from_json(cls, obj: object) -> CircleMap:
        if not isinstance(obj, dict):
            raise SchemaError("circle map payload must be an object")
        g = cls(PLMap.from_json({k: v for k, v in obj.items() if k != "base"}))
        stated = obj.get("base")
        if stated is not None:
            sv = ZTau.from_json(stated)
            if g.v != sv - sv.floor():
                raise SchemaError("stated base value disagrees with the table")
        return g

    def to_json(self) -> dict:
        out = self.table.to_json()
        out["base"] = self.v.to_json()
        return out

    # -- queries --------------------------------------------------------

    @property
    def v(self) -> ZTau:
        return self.table.ys[0]

    @property
    def num_pieces(self) -> int:
        return self.table.num_pieces

    def is_rotation(self) -> bool:
        return self.table.ks == (0,)

    def is_identity(self) -> bool:
        return self.is_rotation() and not self.v

    def __repr__(self) -> str:
        return f"CircleMap(v={self.v}, pieces={self.num_pieces})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CircleMap):
            return NotImplemented
        return self.table == other.table

    def __hash__(self) -> int:
        return hash(("circle", self.table))

    # -- evaluation -------------------------------------------------------

    def eval(self, x: ZTau | QTau) -> ZTau | QTau:
        """self(x) on R/Z, in [0, 1): a ZTau at a ZTau, else a QTau."""
        y = _eval_lift(self.table, x)
        return y - y.floor()

    # -- group operations -------------------------------------------------

    def __mul__(self, other: CircleMap) -> CircleMap:
        if not isinstance(other, CircleMap):
            return NotImplemented
        t, o = self.table, other.table
        gx, gy, gk = _unrolled(o.xs, o.ys, o.ks, self.v)
        # the product's images start at gy[0], so shifting gy shifts them
        return CircleMap(_compose(t.xs, t.ys, t.ks, gx, _into_period(gy), gk))

    def inverse(self) -> CircleMap:
        xs, ys, ks = _inverse_unrolled(self.table)
        return CircleMap(PLMap(xs, _into_period(ys), ks))

    # -- fixed sets ---------------------------------------------------------

    def fixed_segments(self) -> list[tuple[ZTau, ZTau]]:
        """Maximal pointwise-fixed closed sub-intervals of [0, 1] (the circle
        gluing at 0 = 1 is left to the callers)."""
        tb = self.table
        segs: list[tuple[ZTau, ZTau]] = []
        for i, k in enumerate(tb.ks):
            if k != 0:
                continue
            d = tb.ys[i] - tb.xs[i]
            if d.b == 0 and d.a in (0, 1):
                if segs and segs[-1][1] == tb.xs[i]:
                    segs[-1] = (segs[-1][0], tb.xs[i + 1])
                else:
                    segs.append((tb.xs[i], tb.xs[i + 1]))
        return segs

    def fixes_neighborhood_of(self, x: ZTau) -> bool:
        x = x - x.floor()
        segs = self.fixed_segments()
        if len(segs) == 1 and segs[0] == (ZERO, ONE):
            return True
        for lo, hi in segs:
            if (x - lo).sign() > 0 and (hi - x).sign() > 0:
                return True
        if not x:
            left = any(hi == ONE and (ONE - lo).sign() > 0 for lo, hi in segs)
            right = any(lo == ZERO and hi.sign() > 0 for lo, hi in segs)
            return left and right
        return False


def _check_lift_table(table: PLMap) -> None:
    """A lift's table lives on [0, 1] and has degree one."""
    if table.xs[0] != ZERO or table.xs[-1] != ONE:
        raise ValidationError("lift table must live on [0, 1]")
    y0, y1 = table.ys[0], table.ys[-1]
    if y1.a - y0.a != 1 or y1.b != y0.b:
        raise DegreeNotOne("lift must satisfy g(1) = g(0) + 1")


def _shifted(zs, n: int) -> list:
    """The ring elements zs moved by the integer n, on their .a coefficient."""
    return [ZTau(z.a + n, z.b) for z in zs] if n else list(zs)


def _into_period(ys):
    """ys moved by the integer that puts ys[0] into [0, 1); ys itself if 0."""
    j = ys[0].floor()
    return _shifted(ys, -j) if j else ys


def _eval_lift(table: PLMap, x: ZTau | QTau) -> ZTau | QTau:
    """The lift with this table on [0, 1] at any x of the line: a ZTau at
    a ZTau, else a QTau (x is read as one)."""
    num, den = _as_ratio(x)
    n = _floor(num.a, num.b, den)
    y = table._scaled_image(ZTau(num.a - n * den, num.b), den)
    y = ZTau(y.a + n * den, y.b)
    return y if num is x else QTau(y, den)


def _unrolled(xs, ys, ks, a: ZTau) -> tuple[list, list, tuple]:
    """Raw table of the periodic extension of a one-period lift on [a, a + 1].

    The table f = (xs, ys, ks), given as tuples, must satisfy
    f(x + 1) = f(x) + 1 across its period, i.e. domain and image both
    have length one.  With n the integer that puts r = a - n in f's
    domain, the result is f cut at r with its part left of r moved on by
    one period, the whole moved by n; colinear neighbours are left
    unmerged.  Lift and circle products and inverses sweep these
    sequences directly, so that each builds only its own table.
    """
    n = _floor(a.a - xs[0].a, a.b - xs[0].b)
    r = ZTau(a.a - n, a.b) if n else a
    j = _piece_index(xs, r)
    if r != xs[j]:
        # split piece j at r, so that the cut falls on a breakpoint
        ys = ys[:j + 1] + (_through(xs[j], ys[j], ks[j], r),) + ys[j + 1:]
        xs = xs[:j + 1] + (r,) + xs[j + 1:]
        ks = ks[:j + 1] + ks[j:]
        j += 1
    return (_shifted(xs[j:], n) + _shifted(xs[1:j + 1], n + 1),
            _shifted(ys[j:], n) + _shifted(ys[1:j + 1], n + 1),
            ks[j:] + ks[:j])


def _inverse_unrolled(table: PLMap) -> tuple[list, list, tuple]:
    """Raw table on [0, 1] of the inverse of the lift with this table."""
    return _unrolled(table.ys, table.xs, tuple([-k for k in table.ks]), ZERO)


# -- tau-subdivision trees -------------------------------------------------

@dataclass(frozen=True)
class SubdivisionTree:
    """Binary subdivision of an interval into (tau*l, tau**2*l) parts.

    wide_first picks which part comes first: True gives (tau*l, tau**2*l),
    False gives (tau**2*l, tau*l).  Leaves carry no data.
    """

    left: SubdivisionTree | None = None
    right: SubdivisionTree | None = None
    wide_first: bool = True

    @classmethod
    def leaf(cls) -> SubdivisionTree:
        return cls()

    @classmethod
    def split(cls, left: SubdivisionTree, right: SubdivisionTree,
              wide_first: bool = True) -> SubdivisionTree:
        return cls(left, right, wide_first)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def leaf_count(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.leaf_count() + self.right.leaf_count()

    def boundaries(self, lo: ZTau, hi: ZTau) -> list[ZTau]:
        """Endpoints of the leaf partition of [lo, hi], lo and hi included."""
        if self.is_leaf:
            return [lo, hi]
        frac = TAU if self.wide_first else tau_pow(2)
        mid = lo + frac * (hi - lo)
        return self.left.boundaries(lo, mid)[:-1] + self.right.boundaries(mid, hi)

    def leaf_exponents(self) -> list[int]:
        """Exponent e of each leaf length tau**e relative to the root length."""
        if self.is_leaf:
            return [0]
        first, second = (1, 2) if self.wide_first else (2, 1)
        return ([e + first for e in self.left.leaf_exponents()]
                + [e + second for e in self.right.leaf_exponents()])

    def to_json(self):
        if self.is_leaf:
            return "leaf"
        tag = "s+" if self.wide_first else "s-"
        return [tag, self.left.to_json(), self.right.to_json()]

    @classmethod
    def from_json(cls, obj: object) -> SubdivisionTree:
        if obj == "leaf":
            return cls.leaf()
        if (isinstance(obj, list) and len(obj) == 3
                and obj[0] in ("s+", "s-")):
            return cls.split(cls.from_json(obj[1]), cls.from_json(obj[2]),
                             obj[0] == "s+")
        raise SchemaError(f"bad subdivision tree payload: {obj!r}")
