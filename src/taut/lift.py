"""Lifts of circle maps to the line, rotation numbers and stable commutator length.

A LiftMap is a homeomorphism of the line commuting with x -> x + 1, fixed
by its table on [0, 1]: table(1) = table(0) + 1, and table(0) may be any
element of Z[tau].  Products and inverses compose tables directly.  The
circle map it lifts and its integer translation part n = floor(table(0))
are read off the table, so the central integer translations are exactly
the lifts whose table is x -> x + n; its JSON writes the base as its own
table moved down by n, with no circle table built.  Rotation numbers are
certified:

* lifts of ring rotations are translations, with exact value in Z[tau];
* rational values p/q are proved by an exact fixed point of the q-th
  power shifted by p (Poincare's criterion), found by Stern-Brocot
  descent where every step is an exact sign trichotomy;
* otherwise the answer degrades to the sound enclosure [p/N, (p+1)/N]
  with p = floor(F^N(0)), from the one exact orbit point F^N(0): its
  width is exactly 1/N, and N is always the iteration count asked for.
  0 walks to F^N(0) through the powers F^q the descent already holds,
  largest q first (Ostrowski's numeration by the convergents'
  denominators), squaring the largest only while SQUARE_COST times its
  pieces is below the steps a square saves; rot_enclosure starts from F
  alone.  Each run of steps through one F^q is one call of the lift
  kernel circle._eval_lift, which walks on integer coefficients and
  builds one ring element at its end.

scl is |rot|/2: the commutator subgroup of the lifted group has index
two and carries scl = |rot|/2 by Bavard duality (the rotation number
spans the homogeneous quasimorphisms and has defect one there), and the
squaring identity scl(f) = scl(f**2)/2 extends the formula to the whole
group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .circle import (
    DEFAULT_PIECE_CAP,
    CircleMap,
    _check_lift_table,
    _circle_json,
    _eval_lift,
    _inverse_unrolled,
    _unrolled,
)
from .errors import BudgetExceeded, CertificateError, PowerBudgetExceeded, SchemaError
from .plmap import PLMap, _capped_mul, _compose, power
from .ring import (
    ONE,
    QTau,
    ZERO,
    ZTau,
    _as_qtau,
    json_bool,
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


@dataclass(frozen=True)
class LiftMap:
    """The lift fixed by its table on [0, 1]: table(1) = table(0) + 1, and
    table(0) may be any ring element."""

    table: PLMap

    def __post_init__(self) -> None:
        _check_lift_table(self.table)

    @classmethod
    def identity(cls) -> LiftMap:
        return cls(PLMap.identity())

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
            return self  # frozen, so sharing it is safe
        t = self.table
        return LiftMap(PLMap(t.xs, [y + j for y in t.ys], t.ks))

    def is_translation(self) -> bool:
        return self.table.ks == (0,)

    def translation_amount(self) -> ZTau:
        if not self.is_translation():
            raise ValueError("not a translation")
        return self.table.ys[0]

    @property
    def num_pieces(self) -> int:
        return self.table.num_pieces

    def __mul__(self, other: LiftMap) -> LiftMap:
        if not isinstance(other, LiftMap):
            return NotImplemented
        t, o = self.table, other.table
        return LiftMap(_compose(t.xs, t.ys, t.ks,
                                *_unrolled(o.xs, o.ys, o.ks, t.ys[0])))

    def inverse(self) -> LiftMap:
        return LiftMap(PLMap(*_inverse_unrolled(self.table)))

    def eval(self, x: ZTau | QTau) -> ZTau | QTau:
        """self(x): a ZTau at a ZTau, else a QTau (x is read as one)."""
        return _eval_lift(self.table, x)

    def __repr__(self) -> str:
        y0, n = self.table.ys[0], self.n
        return (f"LiftMap(CircleMap(v={ZTau(y0.a - n, y0.b)}, "
                f"pieces={self.num_pieces}), n={n})")

    def to_json(self) -> dict:
        return {"base": _circle_json(self.table), "n": self.n}

    @classmethod
    def from_json(cls, obj: object) -> LiftMap:
        if not isinstance(obj, dict) or "base" not in obj:
            raise SchemaError("lift payload must carry a base table")
        base = CircleMap.from_json(obj["base"])
        return cls(base.table).translate(json_int(obj.get("n", 0), "lift n"))


# -- rotation number results ------------------------------------------------

@dataclass(frozen=True)
class RotRational:
    """rot = value exactly; f**q has an exact fixed point modulo the shift p."""

    value: Fraction
    root: QTau

    kind = "rational"

    @property
    def p(self) -> int:
        return self.value.numerator

    @property
    def q(self) -> int:
        return self.value.denominator

    def approx(self) -> float:
        return float(self.value)

    def to_json(self, element: LiftMap | None = None) -> dict:
        cert = {"power": self.q, "shift": self.p,
                "root": qtau_literal(self.root)}
        if element is not None:
            cert["element"] = element.to_json()
        return {"kind": self.kind, "value": str(self.value),
                "certificate": cert}


@dataclass(frozen=True)
class RotTranslation:
    """The element is a translation; rot is its exact amount in Z[tau]."""

    value: ZTau

    kind = "ztau"

    def approx(self) -> float:
        return float(self.value)

    def to_json(self, element: LiftMap | None = None) -> dict:
        cert: dict = {"translation": True}
        if element is not None:
            cert["element"] = element.to_json()
        return {"kind": self.kind, "value": ztau_literal(self.value),
                "certificate": cert}


@dataclass(frozen=True)
class RotEnclosure:
    """lo <= rot <= hi with hi - lo == 1/iterations, endpoints rational."""

    lo: Fraction
    hi: Fraction
    iterations: int

    kind = "enclosure"

    def approx(self) -> float:
        return float(self.lo + self.hi) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo

    def to_json(self, element: LiftMap | None = None) -> dict:
        out = {"kind": self.kind, "lo": str(self.lo), "hi": str(self.hi),
               "iterations": self.iterations}
        if element is not None:
            out["certificate"] = {"element": element.to_json()}
        return out


RotResult = RotRational | RotTranslation | RotEnclosure


_FRACTION = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _json_fraction(value: object, what: str) -> Fraction:
    """A rational field of a JSON payload, written as str(Fraction) writes it."""
    if not isinstance(value, str) or not _FRACTION.fullmatch(value):
        raise SchemaError(f"{what} must be a string p or p/q, not {value!r:.40}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad {what} {value!r:.40}: {exc}") from exc


def rot_result_from_json(obj: object) -> RotResult:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("rotation payload must carry a kind")
    kind = obj["kind"]
    if kind == "rational":
        cert = obj.get("certificate", {})
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
        if not json_bool(obj.get("certificate", {}).get("translation"),
                         "certificate translation"):
            raise SchemaError("certificate translation must be true")
        return RotTranslation(parse_ztau(obj["value"]))
    if kind == "enclosure":
        return RotEnclosure(_json_fraction(obj["lo"], "enclosure lo"),
                            _json_fraction(obj["hi"], "enclosure hi"),
                            json_int(obj["iterations"], "iterations"))
    raise SchemaError(f"unknown rotation result kind {kind!r}")


# -- the rotation number ----------------------------------------------------

def _classify(f_q: LiftMap, p: int) -> tuple[int, QTau | None]:
    """rot against p/q, given the exact q-th power f_q: (0, root) when
    rot = p/q, with a root of f_q(x) = x + p, else the sign of rot - p/q."""
    return f_q.table.shift_roots(ZTau(p))


def rot(f: LiftMap, *, max_den: int = DEFAULT_MAX_DEN,
        max_iter: int = DEFAULT_MAX_ITER,
        piece_cap: int = DEFAULT_PIECE_CAP) -> RotResult:
    if f.is_translation():
        return RotTranslation(f.translation_amount())
    # integer window first: rot lies in (v - 1, v + 1) with v = f(0),
    # so in (n - 1, n + 2)
    n = f.n
    window = n + 1
    for m in (n, n + 1):
        sign, root = _classify(f, m)
        if root is not None:
            return RotRational(Fraction(m), root)
        if sign < 0:
            window = m - 1
            break
    # Stern-Brocot descent inside (window, window + 1).  powers[q] is F**q
    # for the fractions the orbit below can use: a table that the next
    # step displaces again on the same side is an intermediate fraction
    # of that run, and is dropped, so what stays are the convergents and
    # the last bracket (Ostrowski's numeration uses just these).
    p_lo, q_lo = window, 1
    p_hi, q_hi = window + 1, 1
    powers = {1: f}
    side = 0
    if max_den >= 2:
        while q_lo + q_hi <= max_den:
            try:
                f_med = _capped_mul(powers[q_lo], powers[q_hi], piece_cap)
            except PowerBudgetExceeded:
                break
            p_med = p_lo + p_hi
            q_med = q_lo + q_hi
            sign, root = _classify(f_med, p_med)
            if root is not None:
                return RotRational(Fraction(p_med, q_med), root)
            if sign == side:
                del powers[q_lo if side > 0 else q_hi]
            side = sign
            powers[q_med] = f_med
            if side > 0:
                p_lo, q_lo = p_med, q_med
            else:
                p_hi, q_hi = p_med, q_med
    return _orbit_enclosure(powers, max_iter, piece_cap)


def rot_enclosure(f: LiftMap, iterations: int,
                  piece_cap: int = DEFAULT_PIECE_CAP) -> RotEnclosure:
    """rot(f) in [p/N, (p+1)/N], N = iterations and p = floor(F^N(0)).

    G = F^N - p is increasing of degree one with 0 <= G(0) < 1, so
    p <= N rot(f) <= p + 1.  F^N(0) is reached through the commuting
    squares f, f**2, f**4, ..., built while the last costs less to
    square than the steps the next would save, and within the piece cap:
    the orbit walk of rot, started from f alone.
    """
    return _orbit_enclosure({1: f}, iterations, piece_cap)


def _orbit_enclosure(powers: dict[int, LiftMap], iterations: int,
                     piece_cap: int) -> RotEnclosure:
    """rot_enclosure from the tables powers[q] = F**q, with powers[1] = F.

    The largest table F**q is squared while SQUARE_COST times its pieces
    is below N // (2q), within the piece cap; then 0 walks N greedily,
    largest q first, N // q steps of F**q and the remainder through the
    smaller q, each run of steps one call of the lift kernel
    circle._eval_lift on integer coefficients.  F^N(0) is one exact
    point, so every route to it gives the same p.
    """
    if iterations < 1:
        raise ValueError("iterations must be positive")
    q = max(powers)
    while SQUARE_COST * powers[q].num_pieces < iterations // (2 * q):
        try:
            powers[2 * q] = _capped_mul(powers[q], powers[q], piece_cap)
        except PowerBudgetExceeded:
            break
        q *= 2
    x, rest = ZERO, iterations
    for q in sorted(powers, reverse=True):
        steps, rest = divmod(rest, q)
        x = _eval_lift(powers[q].table, x, steps)
    p = x.floor()
    return RotEnclosure(Fraction(p, iterations), Fraction(p + 1, iterations),
                        iterations)


def verify_rot(f: LiftMap, res: RotResult, *, max_den: int = DEFAULT_MAX_DEN,
               max_iter: int = DEFAULT_MAX_ITER,
               piece_cap: int = DEFAULT_PIECE_CAP) -> bool:
    """Re-check a stored rot result against its element within rot's budgets:
    the one re-check of a stored rot, a defect witness's included.  A
    rational p/q needs a root of F**q(x) = x + p, an enclosure is recomputed
    with its own iterations, and a q above max_den or iterations above
    max_iter raise BudgetExceeded before any power is built."""
    if isinstance(res, RotTranslation):
        return f.is_translation() and f.translation_amount() == res.value
    if isinstance(res, RotRational):
        if res.q > max_den:
            raise BudgetExceeded(f"stored rational rot has power {res.q}, more "
                                 f"than the max_den budget of {max_den}")
        fq = power(f, res.q, piece_cap)
        if fq.eval(res.root) != res.root + res.p:
            return False
        # independent route: the shifted q-th power must exhibit a root
        return _classify(fq, res.p)[1] is not None
    if res.iterations > max_iter:
        raise BudgetExceeded(f"stored enclosure has {res.iterations} iterations, "
                             f"more than the max_iter budget of {max_iter}")
    return rot_enclosure(f, res.iterations, piece_cap) == res


# -- stable commutator length ------------------------------------------------

@dataclass(frozen=True)
class SclResult:
    """scl = |rot|/2, derived from the rotation result that certifies it.

    A translation by alpha gives the exact value |alpha|/2 (kind
    "ztau-half"), an exact rational rot gives |rot|/2, and an enclosure of
    rot gives the enclosure lo <= scl <= hi of |rot|/2.
    """

    rot: RotResult

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
    res = SclResult(rot_result_from_json(obj.get("certificate", {}).get("rot", {})))
    stated = {k: v for k, v in obj.items() if k not in ("certificate", "schema")}
    derived = res.to_json()
    del derived["certificate"]
    if stated != derived:
        raise CertificateError("stored scl-result fails re-checking: its "
                               "stated fields are not |rot|/2 of its certificate")
    return res


def scl(f: LiftMap, *, max_den: int = DEFAULT_MAX_DEN,
        max_iter: int = DEFAULT_MAX_ITER,
        piece_cap: int = DEFAULT_PIECE_CAP) -> SclResult:
    return SclResult(rot(f, max_den=max_den, max_iter=max_iter,
                         piece_cap=piece_cap))


def _abs_interval(lo, hi):
    """Range of |x| over lo <= x <= hi, for Fraction or QTau endpoints."""
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return lo * 0, max(-lo, hi)


# -- the defect of rot -------------------------------------------------------

@dataclass(frozen=True)
class DefectDelta:
    """|rot(f) + rot(g) - rot(fg)|; None unless all three rots are exact."""

    exact: QTau | None
    rots: tuple[RotResult, RotResult, RotResult]

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    @classmethod
    def of(cls, rots: tuple[RotResult, RotResult, RotResult]) -> DefectDelta:
        if any(r.kind == "enclosure" for r in rots):
            return cls(None, rots)
        f, g, fg = (_as_qtau(r.value) for r in rots)
        return cls(abs(f + g - fg), rots)


def defect_delta(f: LiftMap, g: LiftMap, *, max_den: int = DEFAULT_MAX_DEN,
                 max_iter: int = DEFAULT_MAX_ITER,
                 piece_cap: int = DEFAULT_PIECE_CAP) -> DefectDelta:
    opts = {"max_den": max_den, "max_iter": max_iter, "piece_cap": piece_cap}
    return DefectDelta.of((rot(f, **opts), rot(g, **opts), rot(f * g, **opts)))
