"""Independent checks of the program's answers.

Each check reads the answer's canonical JSON and confirms it with the
pointwise evaluators of `exact`: orbits are followed one point at a time,
never through the program's powers, table products or certificate replay.
A check returns None when the answer holds and a reason when it does not.
"""

from __future__ import annotations

from fractions import Fraction

from exact import (
    ONE,
    ZERO,
    Chain,
    IntervalTable,
    Inverse,
    Num,
    Table,
    abs_num,
    orbit,
    parse_quotient,
    parse_ring,
    rotation_table,
)
from inputs import LINE_SAMPLES, SAMPLES


def same_lift(f, g, points=LINE_SAMPLES) -> bool:
    return all(f.ev(x) == g.ev(x) for x in points)


def same_circle(f, g, points=SAMPLES) -> bool:
    """Equal as circle maps: the lifts differ by an integer at each point."""
    for x in points:
        d = f.ev(x) - g.ev(x)
        if d.b != 0 or d.a % d.d:
            return False
    return True


def lift_of(obj: dict):
    return Table.from_json(obj["base"], int(obj.get("n", 0)))


def circle_of(obj: dict):
    return Table.from_json(obj)


# -- rotation numbers -----------------------------------------------------

def check_rot(res: dict, f, known) -> str | None:
    """A rot result of the element f (pointwise evaluator).

    known is the exact rot by construction (Fraction or Num) or None.
    """
    kind = res.get("kind")
    cert = res.get("certificate", {})
    if "element" not in cert:
        return "no embedded element"
    if not same_lift(lift_of(cert["element"]), f):
        return "embedded element differs from the input"
    if kind == "ztau":
        value = parse_ring(res["value"])
        if known is not None and not value == Num.of(known):
            return f"translation amount {res['value']} is not {known}"
        if not all(f.ev(x) - x == value for x in LINE_SAMPLES):
            return "element is not the stated translation"
        return None
    if kind == "rational":
        value = Fraction(res["value"])
        p, q = int(cert["shift"]), int(cert["power"])
        if Fraction(p, q) != value:
            return "certificate shift/power disagree with the value"
        if known is not None and not Num.of(value) == Num.of(known):
            return f"rational {value} is not the known {known}"
        root = parse_quotient(cert["root"])
        if not orbit(f, root, q) == root + p:
            return f"F^{q}(root) != root + {p}"
        return None
    if kind == "enclosure":
        lo, hi, n = Fraction(res["lo"]), Fraction(res["hi"]), int(res["iterations"])
        if not lo <= hi:
            return "empty enclosure"
        if hi - lo > Fraction(2, n):
            return f"width {hi - lo} exceeds 2/{n}"
        if known is not None:
            k = Num.of(known)
            if not (k >= Num.of(lo) and k <= Num.of(hi)):
                return f"enclosure [{lo}, {hi}] misses the known rot {known}"
        d = orbit(f, ZERO, n)
        # Poincare: |F^N(0) - N rot| < 1, so N rot lies in (d - 1, d + 1)
        if not (Num.of(lo * n) < d + 1 and Num.of(hi * n) > d - 1):
            return "enclosure misses the Poincare interval of F^N(0)"
        return None
    return f"unknown rot kind {kind!r}"


def check_scl(res: dict, f, known) -> str | None:
    inner = res.get("certificate", {}).get("rot")
    if not isinstance(inner, dict):
        return "no rot certificate"
    why = check_rot(inner, f, known)
    if why:
        return why
    kind = res.get("kind")
    if inner["kind"] == "ztau":
        if kind != "ztau-half":
            return f"translation answered with kind {kind!r}"
        alpha = abs_num(parse_ring(inner["value"]))
        if not parse_quotient(res["value"]).times_int(2) == alpha:
            return "scl is not |alpha|/2"
        if known is not None and not alpha == abs_num(Num.of(known)):
            return "scl is not |alpha|/2 of the known alpha"
        return None
    if inner["kind"] == "rational":
        if kind != "rational" or Fraction(res["value"]) != abs(Fraction(inner["value"])) / 2:
            return "scl is not |rot|/2"
        return None
    lo, hi = Fraction(inner["lo"]), Fraction(inner["hi"])
    if lo >= 0:
        want = (lo / 2, hi / 2)
    elif hi <= 0:
        want = (-hi / 2, -lo / 2)
    else:
        want = (Fraction(0), max(-lo, hi) / 2)
    if kind != "enclosure" or (Fraction(res["lo"]), Fraction(res["hi"])) != want:
        return "scl enclosure is not |rot enclosure|/2"
    return None


# -- certificates ---------------------------------------------------------

def check_connect(res: dict, sources, targets, derived: bool) -> str | None:
    if res.get("kind") != "connect-cert":
        return "not a connect certificate"
    for key, want in (("sources", sources), ("targets", targets)):
        got = [parse_ring(v) for v in res[key]]
        if len(got) != len(want) or not all(a == b for a, b in zip(got, want)):
            return f"{key} differ from the request"
    g = IntervalTable.from_json(res["element"])
    if not (g.ev(ZERO) == ZERO and g.ev(ONE) == ONE):
        return "element does not fix 0 and 1"
    for s, t in zip(sources, targets):
        if not g.ev(s) == t:
            return "element does not carry a source to its target"
    if derived:
        pieces = res.get("pieces", {})
        if res.get("expr") != "comm(l, f)" or set(pieces) != {"l", "f"}:
            return "derived certificate is not [l, f]"
        l, f = IntervalTable.from_json(pieces["l"]), IntervalTable.from_json(pieces["f"])
        comm = Chain([Inverse(l), Inverse(f), l, f])
        pts = SAMPLES[1:] + list(sources)
        if not all(comm.ev(x) == g.ev(x) for x in pts):
            return "element differs from [l, f]"
    return None


def check_factor(res: dict, g) -> str | None:
    if res.get("kind") != "factor-cert":
        return "not a factor certificate"
    if not same_circle(circle_of(res["g"]), g):
        return "factored element differs from the input"
    u, v = circle_of(res["u"]), circle_of(res["v"])
    if not same_circle(Chain([u, v]), g):
        return "u then v differs from g"
    x, y = parse_ring(res["x"]), parse_ring(res["y"])
    if not same_circle(u, Chain([]), [x]):
        return "u moves x"
    for name, piece in res["pieces"].items():
        if not same_circle(circle_of(piece), Chain([]), [y]):
            return f"piece {name} moves y"
    return None


def check_commutator(res: dict, g, x: Num) -> str | None:
    if res.get("kind") != "commutator-cert":
        return "not a commutator certificate"
    if not same_circle(circle_of(res["g"]), g):
        return "g differs from the input"
    k, h = circle_of(res["result"]), circle_of(res["h"])
    comm = Chain([Inverse(g), Inverse(h), g, h])
    if not same_circle(k, comm):
        return "result differs from [g, h]"
    if not same_circle(k, Chain([]), [x]):
        return "result moves x"
    lo, hi = (parse_ring(a) for a in res["arc"])
    span = hi - lo
    gap = ONE - (span - span.floor())          # length of the complement arc
    outside = [hi + gap.times_tau_pow(1), hi + gap.times_tau_pow(2)]
    if not same_circle(h, Chain([]), outside):
        return "h moves points outside its arc"
    return None


def _rot_value(res: dict, f) -> Num | None:
    """Exact rot of f from a rational or translation result, confirmed
    pointwise; None if the result is not confirmed."""
    if res.get("kind") == "rational":
        p, q = int(res["certificate"]["shift"]), int(res["certificate"]["power"])
        root = parse_quotient(res["certificate"]["root"])
        if Fraction(p, q) != Fraction(res["value"]) or not orbit(f, root, q) == root + p:
            return None
        return Num(p, 0, q)
    if res.get("kind") == "ztau":
        value = parse_ring(res["value"])
        return value if all(f.ev(x) - x == value for x in LINE_SAMPLES) else None
    return None


def push_lift():
    """The two-piece push map of the defect family, built here from scratch:
    slope 1/tau on [0, tau^2], slope tau after, fixing 0."""
    t = Num(0, 1)
    return Table([ZERO, t.times_tau_pow(1), ONE], [ZERO, t, ONE], [-1, 1])


def check_defect(res: dict, n: int | None) -> str | None:
    if res.get("kind") != "defect-witness":
        return "not a defect witness"
    g, h = lift_of(res["g"]), lift_of(res["h"])
    if n is not None:
        want_g = Chain([Inverse(push_lift())] * n)
        rho = rotation_table(Num(0, 1).times_tau_pow(1))
        want_h = Chain([Inverse(rho), want_g, rho])
        if not (same_lift(g, want_g) and same_lift(h, want_h)):
            return "g or h is not the defect family member"
    rots = res.get("rots", [])
    if len(rots) != 3:
        return "witness needs three rotation numbers"
    values = [_rot_value(r, f) for r, f in zip(rots, (g, h, Chain([g, h])))]
    if any(v is None for v in values):
        return "a rotation number fails its pointwise check"
    delta = abs_num(values[0] + values[1] - values[2])
    stated = parse_quotient(res["delta"])
    if not delta == stated:
        return "delta is not |rot g + rot h - rot gh|"
    if not (stated >= ZERO and stated <= ONE):
        return "delta outside [0, 1]"
    if n is not None and not (values[0] == ZERO and values[1] == ZERO):
        return "rot g or rot h is not 0"
    if n == 8 and not stated >= Num(9, 0, 10):
        return "witness n = 8 has delta below 9/10"
    return None

