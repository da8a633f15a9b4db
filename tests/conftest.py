from decimal import Decimal, getcontext
from fractions import Fraction

from taut.ring import ZTau, QTau

getcontext().prec = 110
TAU_DECIMAL = (Decimal(5).sqrt() - 1) / 2


def zt(a, b=0):
    return ZTau(a, b)


def decimal_value(x):
    """100-digit decimal surrogate, for cross-checks only."""
    if isinstance(x, QTau):
        return (x.num.a + x.num.b * TAU_DECIMAL) / x.den
    return x.a + x.b * TAU_DECIMAL


def defect_delta(f, g, **budgets):
    """|rot f + rot g - rot fg| and the three rots of rot(f), rot(g) and
    rot(f*g), with None for the delta if one of them is an enclosure: the
    oracle of lift.exact_defect_delta, built on rot alone."""
    from taut.lift import rot

    rots = tuple(rot(x, **budgets) for x in (f, g, f * g))
    if any(r.kind == "enclosure" for r in rots):
        return None, rots
    a, b, c = (QTau(ZTau(v.numerator), v.denominator) if isinstance(v, Fraction)
               else QTau(v) for v in (r.value for r in rots))
    return abs(a + b - c), rots
