"""Lifts of circle maps to the line, rotation numbers and stable commutator length.

A LiftMap is a homeomorphism of the line commuting with x -> x + 1, fixed
by its table on [0, 1]: table(1) = table(0) + 1, and table(0) may be any
element of Z[tau]: the circle.Periodic that keeps table(0) where it is
(CircleMap moves it into [0, 1)), whose table check, identity, product
and inverse, one sweep each, are Periodic's.  The circle map it lifts
and its integer translation part n = floor(table(0)) are read off the
table, so the central integer translations are exactly the lifts whose
table is x -> x + n; its JSON writes the base as its own table moved
down by n, with no circle table built.  Rotation numbers are certified:

* lifts of ring rotations are translations, with exact value in Z[tau];
* rational values p/q are proved by an exact fixed point of the q-th
  power shifted by p (Poincare's criterion), found by Stern-Brocot
  descent where every step is an exact sign trichotomy; a stored p/q is
  re-checked by walking its root's orbit q steps, with no power built;
* otherwise the answer degrades to the sound enclosure [p/N, (p+1)/N]
  with p = floor(F^N(0)), from the one exact orbit point F^N(0): its
  width is exactly 1/N, and N is always the iteration count asked for.
  rot and rot_enclosure share one resumable descent, _Descent: rot's
  enclosure goes on from where rot's descent stopped, and reads F^N(0)
  by one of three routes.  The cycle: unless the descent's bracket
  already rules it out, 0 walks under F alone, at most pieces(F) steps;
  a lift commutes with x -> x + 1, so the orbit of 0 first meets itself
  modulo 1 at an integer, and if F^P(0) = m then F^N(0) = F^r(0) + t*m
  with N = t*P + r.  The fixed point: if the descent, resumed up to
  pieces(F), proves rot = p/q, the orbit of 0 under G = F^q - p moves
  monotonically towards the fixed point r of G nearest 0 (Poincare), so
  F^N(0) - t*p lies between F^s(G^k(0)) and F^s(r) for N = t*q + s and
  every k <= t, and a few steps of G fix its floor.  The walk: otherwise
  0 walks on through the powers F^q the descent holds, largest q first
  (Ostrowski's numeration by the convergents' denominators), squaring
  the largest only while SQUARE_COST times its pieces is below the steps
  a square saves, each run through one F^q one call of the lift kernel
  circle._eval_lift, on integer coefficients.

scl is |rot|/2: the commutator subgroup of the lifted group has index
two and carries scl = |rot|/2 by Bavard duality (the rotation number
spans the homogeneous quasimorphisms and has defect one there), and the
squaring identity scl(f) = scl(f**2)/2 extends the formula to the whole
group.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .circle import CircleMap, Periodic, _circle_json, _eval_lift, _from_circle_json
from .errors import BudgetExceeded, CertificateError, PowerBudgetExceeded, SchemaError
from .plmap import PLMap, _capped_mul
from .record import Record
from .ring import (
    ONE,
    QTau,
    ZERO,
    ZTau,
    _as_qtau,
    _sign,
    json_bool,
    json_fields,
    json_int,
    qtau_literal,
    ztau_literal,
    parse_qtau,
    parse_ztau,
)

DEFAULT_MAX_ITER = 10_000
DEFAULT_MAX_DEN = 1_000

# An orbit walk squares its largest table F**q while SQUARE_COST times
# its pieces is below N // (2q), the steps the square saves: a square
# costs about SQUARE_COST orbit steps per piece of F**q.  Measured on the
# benchmark's hyperbolic lifts (2 cores, Python 3.11.7), a square costs
# about 10 us per piece and a step 2.5-4 us while coefficients are small,
# so at N = 256 the values 2, 3 and 4 tie within 2% and 1 is 13% slower.
# But a step's cost grows with the bits of the orbit point: at
# N = 10,000, 3 and 4 walk 50% slower than 2, and 1 is 10% faster.
SQUARE_COST = 2


class LiftMap(Periodic):
    """The lift fixed by its table on [0, 1]: table(1) = table(0) + 1, and
    table(0) may be any ring element."""

    __slots__ = ()

    @classmethod
    def translation(cls, alpha: ZTau | int) -> LiftMap:
        if isinstance(alpha, int):
            alpha = ZTau(alpha)
        return cls(PLMap((ZERO, ONE), (alpha, alpha + 1), (0,)))

    @property
    def base(self) -> CircleMap:
        """The circle map this lifts."""
        return CircleMap(self.table)

    @property
    def n(self) -> int:
        """The translation part: the integer part of table(0)."""
        return self.table.ys[0].floor()

    def translate(self, j: int) -> LiftMap:
        if not j:
            return self  # immutable, so sharing it is safe
        t = self.table
        return LiftMap(PLMap(t.xs, [ZTau(y.a + j, y.b) for y in t.ys], t.ks))

    def is_translation(self) -> bool:
        return self.table.ks == (0,)

    def translation_amount(self) -> ZTau:
        if not self.is_translation():
            raise ValueError("not a translation")
        return self.table.ys[0]

    def eval(self, x: ZTau | QTau) -> ZTau | QTau:
        """self(x): a ZTau at a ZTau, else a QTau (x is read as one)."""
        return _eval_lift(self.table, x)

    def __repr__(self) -> str:
        return f"LiftMap({self.base!r}, n={self.n})"

    def to_json(self) -> dict:
        n = self.table.ys[0].floor()
        return {"base": _circle_json(self.table, n), "n": n}

    @classmethod
    def from_json(cls, obj: object) -> LiftMap:
        if not isinstance(obj, dict) or "base" not in obj:
            raise SchemaError("lift payload must carry a base table")
        json_fields(obj, {"kind", "schema", "base", "n"}, "lift")
        # one table, the base's moved up by n; n is refused, if at all,
        # after the table's own faults
        n = obj.get("n", 0)
        g = _from_circle_json(cls, obj["base"], n if type(n) is int else 0)
        json_int(n, "lift n")
        return g


# -- rotation number results ------------------------------------------------

class RotRational(Record):
    """rot = value exactly; f**q has an exact fixed point modulo the shift p."""

    __slots__ = ("value", "root")
    kind = "rational"

    @property
    def p(self) -> int:
        return self.value.numerator

    @property
    def q(self) -> int:
        return self.value.denominator

    def to_json(self, element: LiftMap | None = None) -> dict:
        cert = {"power": self.q, "shift": self.p,
                "root": qtau_literal(self.root)}
        if element is not None:
            cert["element"] = element.to_json()
        return {"kind": self.kind, "value": str(self.value),
                "certificate": cert}


class RotTranslation(Record):
    """The element is a translation; rot is its exact amount in Z[tau]."""

    __slots__ = ("value",)
    kind = "ztau"

    def to_json(self, element: LiftMap | None = None) -> dict:
        cert: dict = {"translation": True}
        if element is not None:
            cert["element"] = element.to_json()
        return {"kind": self.kind, "value": ztau_literal(self.value),
                "certificate": cert}


class RotEnclosure(Record):
    """lo <= rot <= hi with hi - lo == 1/iterations, endpoints rational."""

    __slots__ = ("lo", "hi", "iterations")
    kind = "enclosure"

    def width(self) -> Fraction:
        return self.hi - self.lo

    def to_json(self, element: LiftMap | None = None) -> dict:
        out = {"kind": self.kind, "lo": str(self.lo), "hi": str(self.hi),
               "iterations": self.iterations}
        if element is not None:
            out["certificate"] = {"element": element.to_json()}
        return out


RotResult = RotRational | RotTranslation | RotEnclosure

# kind -> the keys of its payload but kind, schema and certificate, and
# the keys of its certificate
_ROT_FIELDS = {"rational": ({"value"}, {"power", "shift", "root", "element"}),
               "ztau": ({"value"}, {"translation", "element"}),
               "enclosure": ({"lo", "hi", "iterations"}, {"element"})}


_FRACTION = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _json_fraction(value: object, what: str) -> Fraction:
    """A rational field of a JSON payload, written as str(Fraction) writes it."""
    if not isinstance(value, str) or not _FRACTION.fullmatch(value):
        raise SchemaError(f"{what} must be a string p or p/q, not {value!r:.40}")
    parts = value.split("/")
    try:
        return Fraction(*map(int, parts))
    except ValueError:  # past the interpreter's digit limit
        digits = max(len(part.lstrip("-")) for part in parts)
        raise SchemaError(f"{what} has an integer of {digits} digits, which "
                          "is too long") from None
    except ZeroDivisionError as exc:
        raise SchemaError(f"bad {what} {value!r:.40}: {exc}") from exc


def rot_result_from_json(obj: object) -> RotResult:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("rotation payload must carry a kind")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _ROT_FIELDS:
        raise SchemaError(f"unknown rotation result kind {kind!r:.40}")
    fields, cert_fields = _ROT_FIELDS[kind]
    json_fields(obj, {*fields, "kind", "schema", "certificate"}, f"{kind} rot")
    cert = json_fields(obj.get("certificate", {}), cert_fields, f"{kind} rot certificate")
    if kind == "rational":
        res = RotRational(_json_fraction(obj["value"], "rot value"),
                          parse_qtau(cert["root"]))
        stated = (json_int(cert.get("power"), "rational power"),
                  json_int(cert.get("shift"), "rational shift"))
        if stated != (res.q, res.p):
            raise CertificateError("stored rot-result fails re-checking: its "
                                   "power and shift are not the q and p of "
                                   "its value")
        return res
    if kind == "ztau":
        if not json_bool(cert.get("translation"), "certificate translation"):
            raise SchemaError("certificate translation must be true")
        return RotTranslation(parse_ztau(obj["value"]))
    return RotEnclosure(_json_fraction(obj["lo"], "enclosure lo"),
                        _json_fraction(obj["hi"], "enclosure hi"),
                        json_int(obj["iterations"], "iterations"))


# -- the rotation number ----------------------------------------------------

def rot(f: LiftMap, *, max_den: int = DEFAULT_MAX_DEN,
        max_iter: int = DEFAULT_MAX_ITER) -> RotResult:
    """The certified rotation number of f, from one Stern-Brocot descent.

    A translation is its exact amount.  Otherwise the descent runs while
    q_lo + q_hi <= max_den, and a rational p/q it proves is the answer.
    If it proves none, the enclosure at N = max_iter resumes the same
    descent, on its tables, up to pieces(F): its cycle probe is skipped
    once q_lo + q_hi > pieces(F), since rot lies strictly between the
    Farey neighbours p_lo/q_lo and p_hi/q_hi, and every fraction there has
    denominator at least q_lo + q_hi, while a cycle of 0 of period
    P <= pieces(F) would make rot = F^P(0)/P.  At the default budgets the
    descent passes pieces(F), so the enclosure walks on its tables at once.

    The two budgets bound every table: a mediant F**q has
    q <= max(max_den, pieces(F)), so at most that many times pieces(F)
    pieces, and a square is built only below max_iter // 2 pieces.
    plmap.MAX_PIECES is the one piece bound behind them.
    """
    d = _Descent(f)
    return _exact_rot(d, max_den) or _enclose(d, max_iter)


def _exact_rot(d: _Descent, max_den: int) -> RotTranslation | RotRational | None:
    """rot(d.f) if it is exact within max_den, from d, else None: rot's
    route to every answer but an enclosure."""
    if d.f.is_translation():
        return RotTranslation(d.f.translation_amount())
    return d.run(max_den)


class _Descent:
    """rot's Stern-Brocot descent for a lift that is no translation, kept
    between runs: the tables powers[q] = F**q, the bracket
    p_lo/q_lo < rot < p_hi/q_hi, its last side and whether
    plmap.MAX_PIECES ended it.

    The first run reads the integer window: rot lies in (v - 1, v + 1)
    with v = f(0), so in (n - 1, n + 2).  The descent then runs inside
    (window, window + 1), each step one mediant table and one exact sign
    trichotomy of shift_roots.  A table that the next step displaces
    again on the same side is an intermediate fraction of that run, and
    is dropped, so powers holds the convergents and the last bracket
    (Ostrowski's numeration uses just these), and F**q of a rational
    p/q.  A mediant past MAX_PIECES ends the descent for good; with steps
    given, the mediant that would bring the cost of the run's mediants,
    SQUARE_COST times their operands' pieces, to steps ends the run: the
    orbit walk's own rule for squares.
    """

    def __init__(self, f: LiftMap) -> None:
        self.f, self.powers = f, {1: f}
        self.p_lo = self.q_lo = self.p_hi = self.q_hi = 0  # no window yet
        self.side, self.capped = 0, False

    def run(self, max_den: int, steps: int | None = None) -> RotRational | None:
        """Go on while q_lo + q_hi <= max_den: the rational rot proved, or None."""
        f, powers = self.f, self.powers
        if not self.q_lo:
            window = f.n + 1
            for m in (f.n, f.n + 1):
                sign, root = f.table.shift_roots(ZTau(m))
                if root is not None:
                    return RotRational(Fraction(m), root)
                if sign < 0:
                    window = m - 1
                    break
            self.p_lo, self.q_lo, self.p_hi, self.q_hi = window, 1, window + 1, 1
        while not self.capped and self.q_lo + self.q_hi <= max_den:
            lo, hi = powers[self.q_lo], powers[self.q_hi]
            if steps is not None:
                steps -= SQUARE_COST * (lo.num_pieces + hi.num_pieces)
                if steps <= 0:
                    return None
            try:
                f_med = _capped_mul(lo, hi)
            except PowerBudgetExceeded:
                self.capped = True
                return None
            p_med, q_med = self.p_lo + self.p_hi, self.q_lo + self.q_hi
            sign, root = f_med.table.shift_roots(ZTau(p_med))
            if root is not None:
                powers[q_med] = f_med
                return RotRational(Fraction(p_med, q_med), root)
            if sign == self.side:
                del powers[self.q_lo if sign > 0 else self.q_hi]
            self.side = sign
            powers[q_med] = f_med
            if sign > 0:
                self.p_lo, self.q_lo = p_med, q_med
            else:
                self.p_hi, self.q_hi = p_med, q_med
        return None


def rot_enclosure(f: LiftMap, iterations: int) -> RotEnclosure:
    """rot(f) in [p/N, (p+1)/N], N = iterations and p = floor(F^N(0)).

    G = F^N - p is increasing of degree one with 0 <= G(0) < 1, so
    p <= N rot(f) <= p + 1.  F^N(0) is one exact point, so each of the
    three routes below gives the same p.

    The cycle: 0 first walks under F alone, for at most f.num_pieces
    steps.  If F^P(0) is an integer m, then F^N(0) = F^r(0) + t*m with
    N = t*P + r, read off the points walked, with no table built.  No
    cycle is missed: F is a bijection commuting with x -> x + 1, so
    x_k = x_i + m with x_j = F^j(0) and m an integer forces x_(k-i) = m,
    and the orbit of 0 first meets itself modulo 1 at an integer.

    The fixed point: otherwise the descent runs (under rot, resumes),
    bounded by q_lo + q_hi <= f.num_pieces and by the cost of its mediants
    against the steps left.  If it proves rot = p/q, then G = F^q - p has
    fixed points, and with N = t*q + s, F^N(0) = F^s(G^t(0)) + t*p.  Let
    sigma = sign G(0), which is not 0 as 0 did not return, and r the fixed
    point of G nearest 0 on that side.  G(x) - x has the sign sigma between
    0 and r, so G^k(0) moves monotonically towards r and never reaches it
    (Poincare; de Melo-van Strien, One-Dimensional Dynamics, ch. I); F^s is
    increasing, so for every k <= t F^s(G^k(0)) <= F^N(0) - t*p < F^s(r)
    when sigma > 0, and F^s(r) < F^N(0) - t*p <= F^s(G^k(0)) when sigma < 0.
    G walks at most f.num_pieces steps until both ends fix one floor.

    The walk: with no rational proved or no floor fixed, 0 goes on from
    the point the probe reached through the descent's tables and the
    commuting squares of the largest, built while it costs less to
    square than the steps the next would save, and within MAX_PIECES.
    """
    return _enclose(_Descent(f), iterations)


def _enclose(d: _Descent, iterations: int) -> RotEnclosure:
    """rot_enclosure on d, which it resumes up to pieces(F), with no probe
    once d's bracket has q_lo + q_hi > pieces(F) (see rot)."""
    if iterations < 1:
        raise ValueError("iterations must be positive")
    f = d.f
    probe = f.num_pieces if d.q_lo + d.q_hi <= f.num_pieces else 0
    table, orbit = f.table, [ZERO]
    for period in range(1, min(probe, iterations) + 1):
        x = _eval_lift(table, orbit[-1])
        if x.b == 0:
            t, r = divmod(iterations, period)
            return _enclosure(orbit[r].floor() + t * x.a, iterations)
        orbit.append(x)
    done = len(orbit) - 1
    if done == iterations:
        return _enclosure(orbit[-1].floor(), iterations)
    res = d.run(f.num_pieces, iterations - done)
    if res is not None:
        p = _fixed_point_floor(f, d.powers[res.q], res.p, res.q, iterations,
                               orbit[res.q])
        if p is not None:
            return _enclosure(p, iterations)
    return _orbit_enclosure(d.powers, iterations, orbit[-1], done)


def _fixed_point_floor(f: LiftMap, fq: LiftMap, p: int, q: int,
                       iterations: int, fq0: ZTau) -> int | None:
    """floor(F^N(0)) for rot(f) = p/q, from fq = F**q and fq0 = F^q(0),
    or None if f.num_pieces steps of G = F**q - p leave it open: the
    fixed point route of rot_enclosure."""
    t, s = divmod(iterations, q)
    r = fq.table.nearest_shift_root(ZTau(p), _sign(fq0.a - p, fq0.b))
    # F^s(r) is a fixed point of G too, so no integer (else G(0) = 0 and
    # 0 would have returned): once F^s(G^k(0)) has its floor, so has
    # every point between them, F^N(0) - t*p among them
    bound = _eval_lift(f.table, r, s).floor()
    y = ZERO
    for k in range(min(t, f.num_pieces) + 1):
        if k:
            y = _eval_lift(fq.table, y)
            y = ZTau(y.a - p, y.b)
        a = _eval_lift(f.table, y, s).floor()
        if a == bound or k == t:
            return a + t * p
    return None


def _enclosure(p: int, iterations: int) -> RotEnclosure:
    return RotEnclosure(Fraction(p, iterations), Fraction(p + 1, iterations),
                        iterations)


def _orbit_enclosure(powers: dict[int, LiftMap], iterations: int,
                     x: ZTau = ZERO, done: int = 0) -> RotEnclosure:
    """rot_enclosure from the tables powers[q] = F**q, with powers[1] = F,
    and the point x = F^done(0).

    The largest table F**q is squared while SQUARE_COST times its pieces
    is below R // (2q), R = N - done the steps left, within MAX_PIECES;
    then x walks R greedily, largest q first, R // q steps of F**q
    and the remainder through the smaller q, each run of steps one call
    of the lift kernel circle._eval_lift on integer coefficients.  F^N(0)
    is one exact point, so every route to it gives the same p.
    """
    if iterations < 1:
        raise ValueError("iterations must be positive")
    rest = iterations - done
    q = max(powers)
    while SQUARE_COST * powers[q].num_pieces < rest // (2 * q):
        try:
            powers[2 * q] = _capped_mul(powers[q], powers[q])
        except PowerBudgetExceeded:
            break
        q *= 2
    for q in sorted(powers, reverse=True):
        steps, rest = divmod(rest, q)
        x = _eval_lift(powers[q].table, x, steps)
    return _enclosure(x.floor(), iterations)


def verify_rot(f: LiftMap, res: RotResult, *, max_den: int = DEFAULT_MAX_DEN,
               max_iter: int = DEFAULT_MAX_ITER) -> bool:
    """Re-check a stored rot result against its element within rot's budgets:
    the one re-check of a stored rot, a defect witness's included.  A
    rational p/q is the one identity F^q(root) = root + p, which proves
    rot = p/q by Poincare's criterion, checked on the root's orbit with no
    power built; an enclosure is recomputed with its own iterations.  A q
    above max_den or iterations above max_iter raise BudgetExceeded first."""
    if isinstance(res, RotTranslation):
        return f.is_translation() and f.translation_amount() == res.value
    if isinstance(res, RotRational):
        if res.q > max_den:
            raise BudgetExceeded(f"stored rational rot has power {res.q}, more "
                                 f"than the max_den budget of {max_den}")
        return _eval_lift(f.table, res.root, res.q) == res.root + res.p
    if res.iterations > max_iter:
        raise BudgetExceeded(f"stored enclosure has {res.iterations} iterations, "
                             f"more than the max_iter budget of {max_iter}")
    return rot_enclosure(f, res.iterations) == res


# -- stable commutator length ------------------------------------------------

class SclResult(Record):
    """scl = |rot|/2, derived from the rotation result that certifies it.

    A translation by alpha gives the exact value |alpha|/2 (kind
    "ztau-half"), an exact rational rot gives |rot|/2, and an enclosure of
    rot gives the enclosure lo <= scl <= hi of |rot|/2.
    """

    __slots__ = ("rot",)

    @property
    def kind(self) -> str:
        return "ztau-half" if isinstance(self.rot, RotTranslation) else self.rot.kind

    @property
    def value(self) -> QTau | Fraction:
        if isinstance(self.rot, RotTranslation):
            return QTau(abs(self.rot.value), 2)
        return abs(self.rot.value) / 2

    @property
    def lo(self) -> Fraction:
        return _abs_interval(self.rot.lo, self.rot.hi)[0] / 2

    @property
    def hi(self) -> Fraction:
        return _abs_interval(self.rot.lo, self.rot.hi)[1] / 2

    @property
    def iterations(self) -> int:
        return self.rot.iterations

    def approx(self) -> float:
        if self.kind == "enclosure":
            return float(self.lo + self.hi) / 2
        return float(self.value)

    def to_json(self, element: LiftMap | None = None) -> dict:
        if self.kind == "enclosure":
            out = {"lo": str(self.lo), "hi": str(self.hi),
                   "iterations": self.iterations}
        elif self.kind == "ztau-half":
            # |alpha| itself, not the reduced quotient, over 2
            out = {"value": f"({ztau_literal(abs(self.rot.value))})/2"}
        else:
            out = {"value": str(self.value)}
        return {"kind": self.kind, **out,
                "certificate": {"rot": self.rot.to_json(element)}}


def scl_result_from_json(obj: object) -> SclResult:
    """The scl result derived from the payload's rot certificate; the
    payload's own stated fields must be the ones derived from it."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("scl payload must carry a kind")
    json_fields(obj, {"kind", "schema", "certificate", "value", "lo", "hi", "iterations"},
                "scl")
    cert = json_fields(obj.get("certificate", {}), {"rot"}, "scl certificate")
    res = SclResult(rot_result_from_json(cert.get("rot", {})))
    stated = {k: v for k, v in obj.items() if k not in ("certificate", "schema")}
    derived = res.to_json()
    del derived["certificate"]
    if stated != derived:
        raise CertificateError("stored scl-result fails re-checking: its "
                               "stated fields are not |rot|/2 of its certificate")
    return res


def scl(f: LiftMap, *, max_den: int = DEFAULT_MAX_DEN,
        max_iter: int = DEFAULT_MAX_ITER) -> SclResult:
    return SclResult(rot(f, max_den=max_den, max_iter=max_iter))


def _abs_interval(lo, hi):
    """Range of |x| over lo <= x <= hi, for Fraction or QTau endpoints."""
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return lo * 0, max(-lo, hi)


# -- the defect of rot -------------------------------------------------------

def rot_defect(rots: tuple[RotResult, RotResult, RotResult]) -> QTau:
    """|rot(f) + rot(g) - rot(fg)| of the exact rots of f, g and fg."""
    f, g, fg = (_as_qtau(r.value) for r in rots)
    return abs(f + g - fg)


def exact_defect_delta(f: LiftMap, g: LiftMap, *, max_den: int = DEFAULT_MAX_DEN
                       ) -> tuple[QTau, tuple[RotResult, RotResult, RotResult]] | None:
    """The rot_defect of f and g and their three rots, if all three are
    exact within max_den, else None: it stops at the first rot that is
    not, with no enclosure built and neither the later rots nor, before
    rot(fg), f*g made."""
    rf = _exact_rot(_Descent(f), max_den)
    rg = rf and _exact_rot(_Descent(g), max_den)
    rfg = rg and _exact_rot(_Descent(f * g), max_den)
    return rfg and (rot_defect((rf, rg, rfg)), (rf, rg, rfg))
