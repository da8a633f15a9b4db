"""Circle maps of the golden ratio Thompson group T_tau as canonical lifts.

A circle map and a lift of one to the line are both a Periodic: the
table of the lift on [0, 1], a PLMap with table(1) = table(0) + 1.  A
CircleMap keeps its base value v = table(0) in its period, 0 <= v < 1
(IN_PERIOD), and a lift.LiftMap lets it be any element of Z[tau].
Storing v in the ring is exactly the constraint that separates T_tau
from arbitrary PL circle maps with tau-power slopes (every rotation
satisfies the breakpoint and slope conditions, but only ring rotations
preserve Z[tau]/Z).

Periodic holds the table check, identity, product and inverse of both.
A product is the one sweep of plmap._sweep, which reads the other
factor's table in place as its periodic extension, from the piece that
holds this map's first image, and for a CircleMap moves the images
once, by the integer that puts the first into [0, 1); an inverse is the
same sweep of the identity against the swapped table.  No shifted copy
of a table is made.  _eval_lift is the one evaluation kernel of a lift
(LiftMap.eval, CircleMap.eval and the rotation orbit walk): it holds
x = num/den as integer coefficients through any number of steps, each
an exact floor, a piece bisection and that piece's line, and builds one
ring element at the end.

A point is fixed on the circle where the table moves it by 0 or by one
turn, so the fixed neighbourhoods and fixed arcs are read by plmap's one
fixed-piece scan, _fixed_pieces, with gaps (0, 1); a fixed last piece
and a fixed first one are one fixed arc across 0 = 1.

A tree pair is built from its trees' leaf exponents: a leaf of depth
exponent e has length tau**e, so its partition of [0, 1] is the running
sums of those lengths, kept on integer coefficients, and each slope is
the difference of two exponents.  A tree payload is read straight into
its leaf exponents, in one pre-order walk.
"""

from __future__ import annotations

from .errors import (
    DegreeNotOne,
    LeafCountMismatch,
    NotFtau,
    PowerBudgetExceeded,
    SchemaError,
    ValidationError,
)
from .plmap import (MAX_PIECES, PLMap, _TABLE_FIELDS, _fixed_pieces, _json_table,
                    _piece_index, _sweep, _table_json, is_ftau)
from .record import Record, _set
from .ring import ONE, QTau, ZERO, ZTau, _as_ratio, _cmp, _floor, tau_pow

_UNIT = (ZERO, ONE)


class Periodic(Record):
    """The map of the line fixed by its table on [0, 1], table(1) =
    table(0) + 1, read as its periodic extension.  With IN_PERIOD the
    table is moved by the integer that puts table(0) into [0, 1).  A
    product or an inverse is of its operands' class; a product of two
    classes is a TypeError."""

    __slots__ = ("table",)
    IN_PERIOD = False

    def __init__(self, table: PLMap) -> None:
        if table.xs[0] != ZERO or table.xs[-1] != ONE:
            raise ValidationError("lift table must live on [0, 1]")
        y0, y1 = table.ys[0], table.ys[-1]
        if y1.a - y0.a != 1 or y1.b != y0.b:
            raise DegreeNotOne("lift must satisfy g(1) = g(0) + 1")
        if self.IN_PERIOD and (j := y0.floor()):
            table = PLMap(table.xs, [ZTau(y.a - j, y.b) for y in table.ys], table.ks)
        _set(self, "table", table)

    @classmethod
    def identity(cls):
        return cls(PLMap.identity())

    @property
    def num_pieces(self) -> int:
        return self.table.num_pieces

    def __mul__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        t, o = self.table, other.table
        return self.__class__(_sweep(t.xs, t.ys, t.ks, o.xs, o.ys, o.ks,
                                     into_period=self.IN_PERIOD))

    def inverse(self):
        t = self.table
        return self.__class__(_sweep(_UNIT, _UNIT, (0,), t.ys, t.xs,
                                     tuple([-k for k in t.ks]),
                                     into_period=self.IN_PERIOD))


class CircleMap(Periodic):
    __slots__ = ()
    IN_PERIOD = True

    # -- constructors ---------------------------------------------------

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
    def from_tree_pair(cls, pe: list[int], qe: list[int], shift: int) -> CircleMap:
        """Map leaf i of the partition with leaf exponents pe onto leaf
        (i + shift) mod L of qe's, wrapping through 1."""
        lcount = len(pe)
        if len(qe) != lcount:
            raise LeafCountMismatch(f"{lcount} leaves versus {len(qe)}")
        shift %= lcount
        qb = _partition(qe)
        # q's leaves from the shifted one on, then the first ones and the
        # period's end carried through 1
        ys = qb[shift:lcount] + [ZTau(y.a + 1, y.b) for y in qb[:shift + 1]]
        ks = [qk - pk for qk, pk in zip(qe[shift:] + qe[:shift], pe)]
        return cls(PLMap(_partition(pe), ys, ks))

    @classmethod
    def from_json(cls, obj: object) -> CircleMap:
        return _from_circle_json(cls, obj)

    def to_json(self) -> dict:
        return _circle_json(self.table, 0)  # the table is in its period

    # -- queries --------------------------------------------------------

    @property
    def v(self) -> ZTau:
        return self.table.ys[0]

    def is_rotation(self) -> bool:
        return self.table.ks == (0,)

    def is_identity(self) -> bool:
        return self.is_rotation() and not self.v

    def __repr__(self) -> str:
        return f"CircleMap(v={self.v}, pieces={self.num_pieces})"

    # -- evaluation -------------------------------------------------------

    def eval(self, x: ZTau | QTau) -> ZTau | QTau:
        """self(x) on R/Z, in [0, 1): a ZTau at a ZTau, else a QTau."""
        y = _eval_lift(self.table, x)
        return y - y.floor()

    # -- fixed sets ---------------------------------------------------------

    def fixes_neighborhood_of(self, x: ZTau) -> bool:
        """Whether x lies inside a fixed arc; 0 is read as 1, where a
        fixed last piece and a fixed first one join."""
        x = x - x.floor() or ONE
        return any(_cmp(x, lo) > 0 and _cmp(hi, x) > 0 for lo, hi in self._fixed_arcs())

    def fixes_arc(self, start: ZTau, length: ZTau) -> bool:
        """Whether every point of the closed arc from start of this length,
        at most one turn, is fixed: the arc lies in one fixed arc."""
        start = start - start.floor()
        end = start + length
        return any(_cmp(start, lo) >= 0 and _cmp(hi, end) >= 0
                   for lo, hi in self._fixed_arcs())

    def _fixed_arcs(self) -> list[tuple[ZTau, ZTau]]:
        """The maximal fixed arcs (lo, hi): the table's pieces that move by
        0 or by one turn, where a fixed last piece (lo, 1) and a fixed
        first one (0, hi) are one arc across 0 = 1, (lo, 1 + hi), in the
        last one's place."""
        segs = _fixed_pieces(self.table, (0, 1))
        if segs and segs[0][0] == ZERO and segs[-1][1] == ONE:
            segs[-1] = segs[-1][0], segs[0][1] + 1
        return segs


_CIRCLE_FIELDS = _TABLE_FIELDS | {"base"}


def _from_circle_json(cls, obj: object, n: int = 0):
    """cls, CircleMap or LiftMap, of a circle map payload's table moved by
    the integer that makes floor(table(0)) = n: one table read, and
    validated once, by cls's constructor, before the stated base value is
    compared with it."""
    if not isinstance(obj, dict):
        raise SchemaError("circle map payload must be an object")
    xs, ys, ks = _json_table(obj, _CIRCLE_FIELDS)
    if ys and (j := n - ys[0].floor()):
        ys = [ZTau(y.a + j, y.b) for y in ys]
    g = cls(PLMap(xs, ys, ks))
    stated = obj.get("base")
    if stated is not None:
        sv = ZTau.from_json(stated)
        y0 = g.table.ys[0]
        if ZTau(y0.a - n, y0.b) != sv - sv.floor():
            raise SchemaError("stated base value disagrees with the table")
    return g


def _circle_json(table: PLMap, n: int) -> dict:
    """The JSON of the circle map that the lift with this table lifts,
    where n = floor(table(0)): the table moved down by n into its period,
    as CircleMap(table).to_json() writes it but with no table built."""
    out = _table_json(table.xs, table.ys, table.ks, n)
    out["base"] = dict(out["ys"][0])
    return out


def _eval_lift(table: PLMap, x: ZTau | QTau, steps: int = 1) -> ZTau | QTau:
    """The lift with this table on [0, 1], applied steps times to any x of
    the line: a ZTau at a ZTau, else a QTau (x is read as one).

    x = (a + b*tau)/den is held as its integer coefficients.  Each step
    takes the floor n, moves the point down by n into [0, 1), which lies
    in the table's domain [0, 1] (so no domain check is needed), follows
    the line of its piece there and adds n back; one ring element is
    built at the end.
    """
    num, den = _as_ratio(x)
    a, b = num.a, num.b
    xs, ys, ks = table.xs, table.ys, table.ks
    for _ in range(steps):
        n = _floor(a, b, den)
        a -= n * den
        j = _piece_index(xs, a, b, den)
        # den * (y0 + n + tau**k * ((a + b*tau)/den - x0)), as in _through
        x0, y0, t = xs[j], ys[j], tau_pow(ks[j])
        da, db = a - x0.a * den, b - x0.b * den
        a = (y0.a + n) * den + t.a * da + t.b * db
        b = y0.b * den + t.a * db + t.b * (da - db)
    y = ZTau(a, b)
    return y if num is x else QTau(y, den)


# -- tau-subdivision trees -------------------------------------------------

def _partition(exponents: list[int]) -> list[ZTau]:
    """0 and the running sums tau**e0 + ... + tau**ei: the endpoints in
    [0, 1] of leaves of lengths tau**e, each one ZTau of the summed
    integer coefficients of those powers.  Exact, as tau**m = tau**(m+1)
    + tau**(m+2) makes a tree's leaf lengths sum to its root's, so the
    last sum is 1."""
    a = b = 0
    out = [ZERO]
    for e in exponents:
        t = tau_pow(e)
        a += t.a
        b += t.b
        out.append(ZTau(a, b))
    return out


def leaf_exponents(tree: object) -> list[int]:
    """The exponent e of each leaf length tau**e of a tree payload, leaves
    from left to right, read in one pre-order walk.

    A payload is "leaf" or [tag, left, right], where tag "s+" puts the
    wide part first (exponents +1, then +2) and "s-" the narrow one (+2,
    then +1).  The first malformed node in pre-order is a SchemaError
    naming that node, and a tree of more than MAX_PIECES leaves is
    PowerBudgetExceeded as the leaf past the bound is reached.
    """
    out = []
    todo = [(tree, 0)]
    while todo:
        node, e = todo.pop()
        if node == "leaf":
            if len(out) == MAX_PIECES:
                raise PowerBudgetExceeded(
                    f"a tree of more than {MAX_PIECES} leaves exceeds the "
                    "bound on pieces")
            out.append(e)
        elif isinstance(node, list) and len(node) == 3 and node[0] in ("s+", "s-"):
            first, second = (1, 2) if node[0] == "s+" else (2, 1)
            todo.append((node[2], e + second))
            todo.append((node[1], e + first))
        else:
            raise SchemaError(f"bad subdivision tree payload: {node!r}")
    return out
