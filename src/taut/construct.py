"""Constructive realizations of the dynamical toolbox, with checkable certificates.

Everything here either returns an element together with the data needed
to re-check it by direct products, or raises.  Choices (interval
subdivision points, padding powers, target points) follow a fixed
preference order, so identical inputs produce identical certificates on
every platform.
"""

from __future__ import annotations

from itertools import chain
from operator import methodcaller

from .circle import CircleMap, _reduce
from .errors import (
    BadTuple,
    BudgetExceeded,
    CertificateError,
    IdentityInput,
    NoRoomInTarget,
    PowerBudgetExceeded,
    SchemaError,
    SearchBudgetExceeded,
)
from .lift import (
    DEFAULT_MAX_DEN,
    LiftMap,
    exact_defect_delta,
    rot_defect,
    rot_result_from_json,
    verify_rot,
)
from .plmap import (MAX_PIECES, MAX_POWER, PLMap, _sweep, concat, conjugate,
                    commutator, is_ftau, is_ftau_compact, power)
from .record import Record
from .ring import (INV_TAU, ONE, ZERO, TAU, ZTau, json_bool, json_fields, json_int,
                   tau_exponent, tau_pow)
from .ring import parse_qtau, parse_ztau, qtau_literal, ztau_literal


# -- deterministic raw randomness -------------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 with the standard constants; fixed here so that seeded
    output is bit-identical on every platform and interpreter."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next64() % n

    def bit(self) -> bool:
        return bool(self.next64() & 1)


# -- deterministic point choices ---------------------------------------------

DEFAULT_DEPTH = 12  # subdivision depth of the point searches


def preference_points():
    """The 2**DEFAULT_DEPTH - 1 interior subdivision points of [0, 1] to
    depth DEFAULT_DEPTH, by depth then by value.

    Depth d refines the depth-(d-1) partition with one wide-first split
    per part, so the mesh shrinks geometrically and the enumeration is
    dense in (0, 1).
    """
    pts = [ZERO, ONE]
    for _ in range(DEFAULT_DEPTH):
        mids = [pts[i] + TAU * (pts[i + 1] - pts[i])
                for i in range(len(pts) - 1)]
        yield from mids
        merged = []
        for a, m in zip(pts, mids):
            merged += [a, m]
        merged.append(pts[-1])
        pts = merged


def circle_points():
    yield ZERO
    yield from preference_points()


def _piece_points(g: CircleMap):
    """x0 + tau*(x1 - x0), then x0 + tau**2*(x1 - x0), for each piece
    [x0, x1] of g's table in turn: where g moves none of the circle
    points, a point that it moves is read off its own table, inside the
    first piece that moves one of these."""
    xs = g.table.xs
    for x0, x1 in zip(xs, xs[1:]):
        d = x1 - x0
        yield x0 + TAU * d
        yield x0 + tau_pow(2) * d


def _moved_point(g: CircleMap, avoid: ZTau | None, what: str) -> ZTau:
    """The first of the circle points, then of g's piece points, that g
    moves, where neither the point nor its image is avoid: the point that
    factor_local and commutator_trick build their arc around.
    SearchBudgetExceeded(what) if there is none."""
    for c in chain(circle_points(), _piece_points(g)):
        img = g.eval(c)
        if img != c and c != avoid and img != avoid:
            return c
    raise SearchBudgetExceeded(what)


def points_between(lo: ZTau, hi: ZTau, count: int) -> list[ZTau]:
    """count increasing ring points strictly inside (lo, hi)."""
    if (hi - lo).sign() <= 0:
        raise NoRoomInTarget(f"({lo}, {hi}) is empty")
    gap = hi - lo
    return [lo + tau_pow(count + 1 - i) * gap for i in range(count)]


def first_power_below(limit: ZTau) -> int:
    """Smallest m with tau**m < limit, for 0 < limit <= 1 (so m >= 1)."""
    if limit.sign() <= 0:
        raise NoRoomInTarget(f"no powers of tau below {limit}")
    return tau_exponent(limit)[0] + 1


# -- circle arcs --------------------------------------------------------------

def arc_contains(lo: ZTau, hi: ZTau, x: ZTau) -> bool:
    """Closed counterclockwise arc from lo to hi (mod 1) containing x."""
    span = _reduce(hi - lo)
    d = _reduce(x - lo)
    return (span - d).sign() >= 0


def arcs_disjoint(a: tuple[ZTau, ZTau], b: tuple[ZTau, ZTau]) -> bool:
    return not (arc_contains(*a, b[0]) or arc_contains(*a, b[1])
                or arc_contains(*b, a[0]) or arc_contains(*b, a[1]))


def _inside(lo: ZTau, hi: ZTau, x: ZTau) -> bool:
    """x strictly inside the counterclockwise arc from lo to hi (mod 1)."""
    d = _reduce(x - lo)
    return d.sign() > 0 and (_reduce(hi - lo) - d).sign() > 0


def factor_arc_fits(g: CircleMap, arc: tuple[ZTau, ZTau], x: ZTau, y: ZTau) -> bool:
    """The arc of a factor certificate: x lies inside it and off its image
    under g, and y off both."""
    image = g.eval(arc[0]), g.eval(arc[1])
    return not (arc_contains(*arc, y) or arc_contains(*image, x)
                or arc_contains(*image, y)) and _inside(*arc, x)


def commutator_arc_fits(g: CircleMap, arc: tuple[ZTau, ZTau], x: ZTau) -> bool:
    """The arc of a commutator certificate: it and its image under g are
    disjoint, and x lies off both."""
    image = g.eval(arc[0]), g.eval(arc[1])
    return arcs_disjoint(arc, image) and not (arc_contains(*arc, x)
                                              or arc_contains(*image, x))


def _arc_around(g: CircleMap, center: ZTau, first: int, fits, what: str):
    """The widest arc (lo, hi) = center -+ tau**m for which fits((lo, hi))
    holds, trying m = first, ..., 63 and then, for a far smaller
    displacement, m = s, ..., s + 63 with s = max(64, j + 3), where
    tau**(j+1) < min(d, 1 - d) <= tau**j and d = g(center) - center mod 1
    (nonzero, as center is a moved point); SearchBudgetExceeded if none."""
    def radii():
        yield from range(first, 64)
        d = _reduce(g.eval(center) - center)
        s = max(64, tau_exponent(min(d, ONE - d))[0] + 3)
        yield from range(s, s + 64)

    for m in radii():
        r = tau_pow(m)
        lo, hi = _reduce(center - r), _reduce(center + r)
        if fits((lo, hi)):
            return lo, hi
    raise SearchBudgetExceeded(what)


def _chart(center: ZTau, w: ZTau) -> ZTau:
    """Coordinates of the circle cut at center: w -> (w - center) mod 1."""
    d = _reduce(w - center)
    if not d:
        raise ValueError("point is the chart center")
    return d


def _embed_in_chart(g: PLMap, center: ZTau) -> CircleMap:
    """Circle map acting like the interval map g in the chart at center.

    This is g conjugated by the rotation by center, x -> G(x - center) +
    center with G the periodic extension of g, built as one table: the
    sweep of x -> x - center on [0, 1] against G, its images moved by
    center and then into [0, 1).
    """
    t = CircleMap.from_interval_map(g).table
    return CircleMap(_sweep((ZERO, ONE), (-center, ONE - center), (0,),
                            t.xs, t.ys, t.ks, center, into_period=True))


# -- interval matching --------------------------------------------------------

def match_intervals(a: ZTau, b: ZTau, c: ZTau, d: ZTau) -> PLMap:
    """Increasing PL bijection [a, b] -> [c, d] inside the tau-slope
    groupoid, of at most two pieces.

    With ls = b - a and lt = d - c, let j be the one integer with
    tau**(j+1) * ls < lt <= tau**j * ls.  If lt = tau**j * ls the map is
    the one piece of slope tau**j.  Otherwise it has slope tau**(j+1) on
    [a, a + x1] and tau**j on [a + x1, b], where x1 solves
    tau**(j+1) * x1 + tau**j * (ls - x1) = lt:

        x1 = tau**-2 * ls - tau**(-j-2) * lt = tau**(-j-2) * (m - lt)

    with m = tau**j * ls.  x1 lies in Z[tau] because the slope gap
    tau**j - tau**(j+1) = tau**(j+2) is a unit, and 0 < x1 < ls is the
    choice of j.  The middle image is c + tau**(j+1) * x1 = c + (m - lt)/tau,
    and j and m are ring.tau_exponent(lt, ls).
    """
    ls = b - a
    lt = d - c
    if ls.sign() <= 0 or lt.sign() <= 0:
        raise BadTuple("intervals must have positive length")
    j, m = tau_exponent(lt, ls)
    if m == lt:
        return PLMap((a, b), (c, d), (j,))
    r = m - lt
    return PLMap((a, a + tau_pow(-j - 2) * r, b), (c, c + r * INV_TAU, d),
                 (j + 1, j))


# -- certificate payloads -------------------------------------------------------
#
# A payload class is a Record with a JSON kind and FIELDS, name -> (write,
# read), where read takes the field's JSON value and name; its slots are
# tuple(FIELDS).  CLAIMS, with the same codecs, are the expressions over
# its fields that the certificate states: written from the certificate,
# never evaluated (verify makes its products), and a CertificateError if
# stated otherwise.  DEFAULTS holds the JSON value of each field that may
# be left out, read through its codec, so each default is a fresh value.
# A key outside FIELDS, CLAIMS and the envelope of ring.json_fields is a
# SchemaError, and expr._load makes a read's fault or a missing field one.

class _Payload(Record):
    __slots__ = ()
    CLAIMS: dict = {}
    DEFAULTS: dict = {}

    def _default(self, name: str):
        if name in self.DEFAULTS:
            return self.FIELDS[name][1](self.DEFAULTS[name], name)
        return super()._default(name)

    def to_json(self) -> dict:
        codecs = chain(self.FIELDS.items(), self.CLAIMS.items())
        return {"kind": self.kind,
                **{name: write(getattr(self, name)) for name, (write, _) in codecs}}

    @classmethod
    def from_json(cls, obj: dict):
        json_fields(obj, {*cls.FIELDS, *cls.CLAIMS}, cls.kind, cls.kind)
        made = cls(**{name: read(obj[name], name)
                      for name, (_, read) in cls.FIELDS.items() if name in obj})
        for name, (_, read) in cls.CLAIMS.items():
            if name in obj and (value := read(obj[name], name)) != getattr(made, name):
                raise CertificateError(f"{cls.kind} states {name} {value!r:.40}, "
                                       f"not its claim {getattr(made, name)!r}")
        return made


def _as_is(value):
    return value


def _text(value: object, name: str) -> str:
    if isinstance(value, str):
        return value
    raise SchemaError(f"{name} must be a string, not {type(value).__name__}")


def _list(read, count: int | None = None):
    """The read of a JSON list, item by item; of count items if given."""
    def read_list(value: object, name: str) -> tuple:
        if not isinstance(value, list) or count not in (None, len(value)):
            of = f" of {({2: 'two', 3: 'three'})[count]}" if count else ""
            raise SchemaError(f"{name} must be a list{of}, not {value!r:.40}")
        return tuple(read(v, name) for v in value)
    return read_list


def _element(cls) -> tuple:
    """The codec of a field of one element of cls."""
    return methodcaller("to_json"), lambda value, name: cls.from_json(value)


def _elements(cls) -> tuple:
    return (lambda pieces: {k: p.to_json() for k, p in pieces.items()},
            lambda value, name: {k: cls.from_json(v) for k, v in value.items()})


_TEXT = _as_is, _text
_POINT = ztau_literal, lambda value, name: parse_ztau(_text(value, name))
_POINTS = (lambda points: [ztau_literal(z) for z in points]), _list(_POINT[1])
_ARC = _POINTS[0], _list(_POINT[1], 2)


# -- tuple transitivity -------------------------------------------------------

class TransitivityCertificate(_Payload):
    """An element mapping sources to targets, re-checkable by evaluation;
    pieces is a fresh dict when not given.  A compact certificate claims
    the element is comm(l, f) of its two pieces, l and f."""

    kind = "connect-cert"
    FIELDS = {"element": _element(PLMap), "sources": _POINTS, "targets": _POINTS,
              "compact": (_as_is, json_bool), "pieces": _elements(PLMap)}
    CLAIMS = {"expr": (_as_is, lambda value, name: value if value is None
                       else _text(value, name))}
    DEFAULTS = {"compact": False, "pieces": {}}
    __slots__ = tuple(FIELDS)

    @property
    def expr(self) -> str | None:
        return "comm(l, f)" if self.compact else None

    def verify(self, made: PLMap | None = None) -> None:
        """Re-check by evaluation.  A compact certificate's element must
        equal comm(l, f): made is that product if the caller has it (the
        construction passes the one it built the element with), else it is
        made here from the stored pieces, as taut check does.  Stored
        tuples that are not valid are a fault of the certificate, not of a
        request, so their BadTuple is re-raised as a CertificateError."""
        try:
            _check_tuples(self.sources, self.targets)
        except BadTuple as exc:
            raise CertificateError(str(exc)) from None
        if not is_ftau(self.element):
            raise CertificateError("element does not fix 0 and 1 on [0, 1]")
        for s, t in zip(self.sources, self.targets):
            if self.element.eval(s) != t:
                raise CertificateError(f"element does not map {s} to {t}")
        if self.compact and not is_ftau_compact(self.element):
            raise CertificateError("support closure is not inside (0, 1)")
        if self.pieces.keys() != ({"l", "f"} if self.compact else set()):
            raise CertificateError("pieces must be l and f if compact, and none if not")
        if self.compact and (commutator(self.pieces["l"], self.pieces["f"])
                             if made is None else made) != self.element:
            raise CertificateError("element differs from comm(l, f)")


def _check_tuples(xs, ys) -> tuple[tuple[ZTau, ...], tuple[ZTau, ...]]:
    xs = tuple(xs)
    ys = tuple(ys)
    if len(xs) != len(ys):
        raise BadTuple("tuples must have equal length")
    for tup in (xs, ys):
        for v in tup:
            if not isinstance(v, ZTau):
                raise BadTuple(f"{v!r} is not a ring point")
            if v.sign() <= 0 or (ONE - v).sign() <= 0:
                raise BadTuple(f"{v} is not strictly inside (0, 1)")
        for u, v in zip(tup, tup[1:]):
            if (v - u).sign() <= 0:
                raise BadTuple("tuples must be strictly increasing")
    return xs, ys


def connect_tuple(xs, ys) -> TransitivityCertificate:
    """Element of F_tau carrying one increasing ring tuple to another,
    built gap by gap with match_intervals."""
    xs, ys = _check_tuples(xs, ys)
    px = (ZERO,) + xs + (ONE,)
    py = (ZERO,) + ys + (ONE,)
    parts = [match_intervals(px[i], px[i + 1], py[i], py[i + 1])
             for i in range(len(px) - 1)]
    cert = TransitivityCertificate(concat(parts), xs, ys)
    cert.verify()
    return cert


def connect_tuple_derived(xs, ys) -> TransitivityCertificate:
    """Single commutator [l, f] in F_tau' carrying xs to ys.

    f, the connect_tuple of the tuples padded by a below and b above, does
    the transport and is the identity on [0, a] and [b, 1]: the padding
    gaps are matched by one piece of slope 1.  l pushes [a, b] strictly
    above itself, so l^-1 f^-1 l fixes every source point and the
    commutator acts like f there.  The element is comm(l, f), which this
    call hands to the certificate's verify, so the check makes none of its
    products again; taut check makes comm(l, f) from the stored pieces.
    """
    xs, ys = _check_tuples(xs, ys)
    lo_lim = min(xs[0], ys[0]) if xs else TAU
    hi_lim = max(xs[-1], ys[-1]) if xs else TAU
    a = tau_pow(first_power_below(lo_lim))
    b = ONE - tau_pow(first_power_below(ONE - hi_lim))
    f = connect_tuple((a,) + xs + (b,), (a,) + ys + (b,)).element
    i1, i2 = points_between(b, ONE, 2)
    l = connect_tuple((a, b), (i1, i2)).element
    element = commutator(l, f)
    cert = TransitivityCertificate(element, xs, ys, compact=True,
                                   pieces={"l": l, "f": f})
    cert.verify(element)
    return cert


# -- local factorization --------------------------------------------------------

# the claims of a factor certificate: the formulas of u and v
FACTOR_U_EXPR = "g * f^-1 * comm(h2, h1)^-1"
FACTOR_V_EXPR = "comm(h2, h1) * f"


def _factor_products(w: CircleMap, c: CircleMap, f: CircleMap) -> tuple:
    """(u, v) of a factor certificate from w = g * f^-1 and c = comm(h2,
    h1): u = w * c^-1 and v = c * f."""
    return w * c.inverse(), c * f


class FactorCertificate(_Payload):
    """g = u * v with u fixing a neighbourhood of x and v built from pieces
    fixing a neighbourhood of y (v = comm(h2, h1) * f)."""

    kind = "factor-cert"
    FIELDS = {"g": _element(CircleMap), "x": _POINT, "y": _POINT, "arc": _ARC,
              "u": _element(CircleMap), "v": _element(CircleMap),
              "pieces": _elements(CircleMap)}
    CLAIMS = {"u_expr": _TEXT, "v_expr": _TEXT}
    __slots__ = tuple(FIELDS)
    u_expr = FACTOR_U_EXPR
    v_expr = FACTOR_V_EXPR

    def verify(self, made: tuple | None = None) -> None:
        """Re-check by products: made is (u, v, comm(h2, h1)) if the caller
        has them (the construction passes the ones it built), else they are
        made here from g and the pieces, as taut check does; the arc is
        checked last.  u * v is not made:
        once u and v equal their formulas, u * v = g * f^-1 * c^-1 * c * f
        = g with c = comm(h2, h1), so that product could never differ."""
        if self.pieces.keys() != {"f", "h1", "h2"}:
            raise CertificateError("pieces must be f, h1 and h2")
        if made is None:
            f = self.pieces["f"]
            c = commutator(self.pieces["h2"], self.pieces["h1"])
            made = *_factor_products(self.g * f.inverse(), c, f), c
        u, v, h3 = made
        if u != self.u:
            raise CertificateError(f"u differs from {FACTOR_U_EXPR}")
        if v != self.v:
            raise CertificateError(f"v differs from {FACTOR_V_EXPR}")
        if not self.u.fixes_neighborhood_of(self.x):
            raise CertificateError("u does not fix a neighbourhood of x")
        for name, piece in list(self.pieces.items()) + [("comm(h2,h1)", h3)]:
            if not piece.fixes_neighborhood_of(self.y):
                raise CertificateError(
                    f"piece {name} does not fix a neighbourhood of y")
        if not factor_arc_fits(self.g, self.arc, self.x, self.y):
            raise CertificateError("arc does not hold x inside it and off its "
                                   "image, and y off both")


def _chart_restriction_fixed_arc(u: CircleMap, lo: ZTau, hi: ZTau,
                                 center: ZTau) -> PLMap:
    """Chart table of u on the closed arc [lo, hi] that u maps onto itself
    fixing its endpoints; the arc and its image must avoid the center.

    It is the sweep of the chart's translation [c, c + span] -> [a, a +
    span] against u's lift, with c the chart point of lo and a = lo mod 1,
    its images moved back into the chart and into [0, 1): so it starts at
    c exactly when u moves lo by a whole number of turns.
    """
    span = _reduce(hi - lo)
    a = _reduce(lo)
    c = _chart(center, lo)
    t = u.table
    out = _sweep((c, c + span), (a, a + span), (0,), t.xs, t.ys, t.ks, c - a,
                 into_period=True)
    if out.ys[0] != c:
        raise CertificateError("arc endpoint is not fixed")
    return out


def factor_local(g: CircleMap) -> FactorCertificate:
    """Split g != id as u * v with u in the neighbourhood-stabilizer of a
    point x and v a product of commutator material fixing a point y.

    Follows the arc game: pick x moved by g and a spare point y, squeeze
    an arc I around x until I, I*g and {x, y} are suitably separated,
    transport I*g back with an element f fixing y, cancel the remaining
    inner part of g*f^-1 on I by the commutator [h2, h1].  u and v are
    made by the certificate's formulas from the g*f^-1 this call already
    made, and u, v and comm(h2, h1) are handed to the certificate's
    verify: each distinct product is made once in the call.  taut check
    makes all of them from g and the stored pieces.
    """
    if g.is_identity():
        raise IdentityInput("cannot factor the identity")
    x = _moved_point(g, None, "no moved ring point found")
    xg = g.eval(x)
    # of the 4,096 points, y has to avoid only x and g(x)
    y = next(c for c in circle_points() if c != x and c != xg)
    arc = lo, hi = _arc_around(g, x, 3, lambda arc: factor_arc_fits(g, arc, x, y),
                               "no separating arc found")
    a1 = _chart(y, lo)
    b1 = _chart(y, hi)
    f_chart = connect_tuple_derived(
        (a1, b1), (_chart(y, g.eval(lo)), _chart(y, g.eval(hi))))
    f = _embed_in_chart(f_chart.element, y)
    w = g * f.inverse()
    if w.eval(lo) != lo or w.eval(hi) != hi:
        raise CertificateError("transport does not fix the arc endpoints")
    inner = _chart_restriction_fixed_arc(w, lo, hi, y)
    h1_chart = concat([PLMap.identity(ZERO, a1), inner,
                       PLMap.identity(b1, ONE)])
    h1 = _embed_in_chart(h1_chart, y)
    eps = tau_pow(first_power_below(a1))
    top = ONE - tau_pow(first_power_below(ONE - b1))
    t1, t2 = points_between(b1, top, 2)
    h2_chart = connect_tuple((eps, a1, b1, top), (eps, t1, t2, top)).element
    h2 = _embed_in_chart(h2_chart, y)
    pieces = {"f": f, "h1": h1, "h2": h2}
    c = commutator(h2, h1)
    u, v = _factor_products(w, c, f)
    cert = FactorCertificate(g=g, x=x, y=y, arc=arc, u=u, v=v, pieces=pieces)
    cert.verify((u, v, c))
    return cert


# -- the two-conjugates commutator -----------------------------------------------

# the claim of a commutator certificate: the formula of its result
COMMUTATOR_EXPR = "g^-1 * conj(g, h)"


class CommutatorCertificate(_Payload):
    """k = [g, h] with supp(h) inside an arc displaced off itself by g, so
    k is a product of two conjugates of g^(+-1) and fixes x nearby."""

    kind = "commutator-cert"
    FIELDS = {"result": _element(CircleMap), "g": _element(CircleMap),
              "h": _element(CircleMap), "x": _POINT, "arc": _ARC}
    CLAIMS = {"expr": _TEXT}
    __slots__ = tuple(FIELDS)
    expr = COMMUTATOR_EXPR

    def verify(self, made: CircleMap | None = None) -> None:
        """Re-check by products: made is [g, h] if the caller has it (the
        construction passes the one it built the result with), else it is
        made here from g and h, as taut check does.  The arc is checked
        last, and h must fix every point of the closed arc off it, from hi
        to lo, of length 1 - ((hi - lo) mod 1): the whole circle off a
        one-point arc."""
        if (commutator(self.g, self.h) if made is None else made) != self.result:
            raise CertificateError(f"result differs from {COMMUTATOR_EXPR}")
        if self.result.is_identity():
            raise CertificateError("commutator collapsed to the identity")
        if self.h.is_identity():
            raise CertificateError("inner element is the identity")
        if not self.result.fixes_neighborhood_of(self.x):
            raise CertificateError("result does not fix a neighbourhood of x")
        if not commutator_arc_fits(self.g, self.arc, self.x):
            raise CertificateError("arc is not displaced off itself by g, or x "
                                   "is not off both")
        lo, hi = self.arc
        if not self.h.fixes_arc(hi, ONE - _reduce(hi - lo)):
            raise CertificateError("h moves points outside its arc")


def commutator_trick(g: CircleMap, x: ZTau, seed: int = 0) -> CommutatorCertificate:
    """k = [g, h] fixing a neighbourhood of x, h supported in an arc I with
    I*g disjoint from I and x outside I and I*g.  This call hands k to the
    certificate's verify, so the check makes none of its products again;
    taut check makes [g, h] from the stored g and h."""
    if g.is_identity():
        raise IdentityInput("need a nontrivial element")
    x = _reduce(x)
    w = _moved_point(g, x, "no usable moved point found")
    arc = lo, hi = _arc_around(g, w, 2, lambda arc: commutator_arc_fits(g, arc, x),
                               "no displaced arc found")
    h0 = None
    for tries in range(64):
        cand = random_element(seed + tries, 3, "F_tau")
        if not cand.is_identity():
            h0 = cand
            break
    if h0 is None:
        raise SearchBudgetExceeded("random inner element kept degenerating")
    # embed h0 into the arc through the chart at its endpoint hi
    a2 = _chart(hi, lo)
    t = match_intervals(ZERO, ONE, a2, ONE)
    inner = conjugate(h0, t)
    h = _embed_in_chart(concat([PLMap.identity(ZERO, a2), inner]), hi)
    k = commutator(g, h)
    cert = CommutatorCertificate(result=k, g=g, h=h, x=x, arc=arc)
    cert.verify(k)
    return cert


# -- defect witnesses -------------------------------------------------------------

def standard_push_map() -> CircleMap:
    """Two-piece circle map fixing 0: slope 1/tau on [0, tau**2], tau after."""
    t2 = tau_pow(2)
    return CircleMap.from_interval_map(
        PLMap((ZERO, t2, ONE), (ZERO, TAU, ONE), (-1, 1)))


class DefectWitness(_Payload):
    """Pair (g, h) with exact rotation numbers witnessing a lower bound for
    the defect of rot."""

    kind = "defect-witness"
    FIELDS = {"g": _element(LiftMap), "h": _element(LiftMap),
              "delta": (qtau_literal, lambda value, name: parse_qtau(_text(value, name))),
              "rots": ((lambda rots: [r.to_json() for r in rots]),
                       _list(lambda value, name: rot_result_from_json(value), 3)),
              "n": (_as_is, lambda value, name: value if value is None
                    else json_int(value, "defect n"))}
    DEFAULTS = {"n": None}
    __slots__ = tuple(FIELDS)

    def verify(self, *, max_den: int = DEFAULT_MAX_DEN) -> None:
        """Replay the stored rots of g, h and g*h through verify_rot, each q
        within max_den, and recompute delta from them; an enclosure is
        rejected before any replay, so no other budget applies."""
        if any(r.kind == "enclosure" for r in self.rots):
            raise CertificateError("a defect witness rot is an enclosure, not exact")
        for name, f, r in zip(("g", "h", "g*h"), (self.g, self.h, self.g * self.h),
                              self.rots):
            if not verify_rot(f, r, max_den=max_den):
                raise CertificateError(f"stored rot of {name} fails re-checking")
        if rot_defect(self.rots) != self.delta:
            raise CertificateError("recomputed defect delta disagrees")


def defect_witness(n: int, *, max_den: int = DEFAULT_MAX_DEN) -> DefectWitness:
    """Deterministic family: g pulls everything towards 0, h is g conjugated
    by the rotation tau**2; both have rot 0, and rot(g*h) drifts towards -1
    as n grows, so delta = |rot(g*h)| approaches the defect bound 1."""
    if n < 1:
        raise BadTuple("need n >= 1")
    if n > MAX_POWER:
        raise PowerBudgetExceeded(f"n = {n} exceeds the bound {MAX_POWER} "
                                  "on the power g^n of a defect witness")
    g = power(LiftMap(standard_push_map().table), -n)
    rho = LiftMap(CircleMap.rotation(tau_pow(2)).table)
    h = conjugate(g, rho)
    d = exact_defect_delta(g, h, max_den=max_den)
    if d is None:
        raise BudgetExceeded("product rotation number not certified in budget")
    return DefectWitness(g=g, h=h, delta=d[0], rots=d[1], n=n)


def defect_witness_search(samples: int, seed: int, *, size: int = 4,
                          max_den: int = DEFAULT_MAX_DEN) -> DefectWitness:
    """Seeded random search keeping the best exactly-certified delta."""
    rng = SplitMix64(seed)
    best: DefectWitness | None = None
    for _ in range(samples):
        sg = rng.next64()
        sh = rng.next64()
        g = random_element(sg, size, "Lift")
        h = random_element(sh, size, "Lift")
        d = exact_defect_delta(g, h, max_den=max_den)
        if d is None:
            continue
        if best is None or d[0] > best.delta:
            best = DefectWitness(g=g, h=h, delta=d[0], rots=d[1])
    if best is None:
        raise BudgetExceeded("no pair could be certified exactly")
    return best


# -- seeded random elements --------------------------------------------------------

def _random_exponents(rng: SplitMix64, leaves: int) -> list[int]:
    """The leaf exponents of a random tree with this many leaves: a split
    draws the size of its left part, its left and right subtrees, and
    last its s+/s- bit, which adds 1 and 2, or 2 and 1, to the exponents
    of its two parts."""
    if leaves == 1:
        return [0]
    left = 1 + rng.below(leaves - 1)
    pe = _random_exponents(rng, left)
    qe = _random_exponents(rng, leaves - left)
    first, second = (1, 2) if rng.bit() else (2, 1)
    return [e + first for e in pe] + [e + second for e in qe]


def random_element(seed: int, size: int, flavor: str = "T_tau"):
    """Deterministic element from a SplitMix64 stream: the leaf exponents
    of two random trees with `size` leaves, plus a shift (and an integer
    part for lifts); an F_tau element is their shift-0 table.  Its table
    has `size` pieces before merging, so a size past the piece bound is
    rejected before any tree is drawn."""
    if size < 1:
        raise BadTuple("size must be at least 1")
    if size > MAX_PIECES:
        raise PowerBudgetExceeded(
            f"size {size} exceeds the bound {MAX_PIECES} on pieces")
    rng = SplitMix64(seed)
    pe = _random_exponents(rng, size)
    qe = _random_exponents(rng, size)
    if flavor == "F_tau":
        return CircleMap.from_tree_pair(pe, qe, 0).table
    shift = rng.below(size) if size > 1 else 0
    out = CircleMap.from_tree_pair(pe, qe, shift)
    if flavor == "T_tau":
        return out
    if flavor == "Lift":
        return LiftMap(out.table).translate(rng.below(5) - 2)
    raise ValueError(f"unknown flavor {flavor!r}")
