"""The table kernels on integer coefficients against the ring-object
formulas they replaced.

Evaluation, composition, restriction and unrolling now form each output
breakpoint once from the (a, b) coefficients of their inputs.  The
formulas below build the same values from ZTau and QTau arithmetic, one
ring object per operation, as the kernels did before; they are kept here
only as oracles.  A lift's walk of many steps, which keeps the point on
its coefficients throughout, is compared with the one-step formula
iterated, and enclosures with that many reference steps.  Tables come from random F_tau, T_tau and lift elements,
their inverses (negative slope exponents), lifts moved by whole periods,
and powers of hyperbolic lifts, whose breakpoints have large coefficients.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taut.circle import _eval_lift, _unrolled
from taut.construct import random_element
from taut.errors import OutOfDomain
from taut.expr import evaluate_str
from taut import lift
from taut.lift import LiftMap, RotEnclosure, rot_enclosure
from taut.plmap import PLMap, _compose, _piece_index, _restricted, power
from taut.ring import ZERO, QTau, ZTau, _as_qtau, tau_pow


# -- the ring-object formulas -------------------------------------------------

def reference_piece_index(xs, x) -> int:
    lo, hi = 0, len(xs) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (x - xs[mid]).sign() >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def reference_eval(pl: PLMap, x):
    if not isinstance(x, ZTau):
        x = _as_qtau(x)
    if (x - pl.xs[0]).sign() < 0 or (x - pl.xs[-1]).sign() > 0:
        raise OutOfDomain(f"{x} outside [{pl.xs[0]}, {pl.xs[-1]}]")
    j = reference_piece_index(pl.xs, x)
    return pl.ys[j] + tau_pow(pl.ks[j]) * (x - pl.xs[j])


def reference_eval_lift(table: PLMap, x):
    if not isinstance(x, ZTau):
        x = _as_qtau(x)
    n = x.floor()
    return reference_eval(table, x - n) + n


def reference_compose(fx, fy, fk, gx, gy, gk) -> PLMap:
    xs, ys, ks = [fx[0]], [gy[0]], []
    i = j = 0
    while i < len(fk):
        ks.append(fk[i] + gk[j])
        c = (fy[i + 1] - gx[j + 1]).sign()
        if c <= 0:
            i += 1
        if c >= 0:
            j += 1
        xs.append(fx[i] if c <= 0 else fx[i] + tau_pow(-fk[i]) * (gx[j] - fy[i]))
        ys.append(gy[j] if c >= 0 else gy[j] + tau_pow(gk[j]) * (fy[i] - gx[j]))
    return PLMap(xs, ys, ks)


def reference_restricted(fx, fy, fk, lo, hi) -> tuple:
    i = 0
    while (fx[i + 1] - lo).sign() <= 0:
        i += 1
    j = i
    while (fx[j + 1] - hi).sign() < 0:
        j += 1
    return ([lo, *fx[i + 1:j + 1], hi],
            [fy[i] + tau_pow(fk[i]) * (lo - fx[i]), *fy[i + 1:j + 1],
             fy[j] + tau_pow(fk[j]) * (hi - fx[j])],
            fk[i:j + 1])


def reference_unrolled(xs, ys, ks, a) -> tuple:
    n = (a - xs[0]).floor()
    r = a - n
    j = reference_piece_index(xs, r)
    if r != xs[j]:
        xs = xs[:j + 1] + (r,) + xs[j + 1:]
        ys = ys[:j + 1] + (ys[j] + tau_pow(ks[j]) * (r - xs[j]),) + ys[j + 1:]
        ks = ks[:j + 1] + ks[j:]
        j += 1
    m = n + 1
    return ([x + n for x in xs[j:]] + [x + m for x in xs[1:j + 1]],
            [y + n for y in ys[j:]] + [y + m for y in ys[1:j + 1]],
            ks[j:] + ks[:j])


# -- tables ---------------------------------------------------------------------

HYPERBOLIC = ('treepair {"p": ["s+", ["s-", "leaf", "leaf"], "leaf"], '
              '"q": ["s+", "leaf", ["s+", "leaf", "leaf"]], "shift": 1}')


@lru_cache(maxsize=None)
def hyperbolic_power(k: int) -> LiftMap:
    """A power of a hyperbolic lift: its coefficients grow with |k|."""
    return power(LiftMap(evaluate_str(HYPERBOLIC).table), k)


# |k| of about 200 gives coefficients of more than 64 bits
BIG_POWERS = (-233, -29, 5, 37, 199)


def bits(pl: PLMap) -> int:
    return max(max(abs(z.a).bit_length(), abs(z.b).bit_length())
               for z in pl.xs + pl.ys)


seeds = st.integers(min_value=0, max_value=2**32)
sizes = st.integers(min_value=1, max_value=7)
shifts = st.integers(min_value=-3, max_value=3)
small = st.integers(min_value=-40, max_value=40)
ring_points = st.builds(ZTau, small, small)


def lift_tables():
    """Lift tables with any base value, inverses and big coefficients."""
    lifts = st.builds(lambda s, n, j: random_element(s, n, "Lift").translate(j),
                      seeds, sizes, shifts)
    circles = st.builds(lambda s, n: LiftMap(random_element(s, n, "T_tau").table),
                        seeds, sizes)
    big = st.builds(hyperbolic_power, st.sampled_from(BIG_POWERS))
    return st.one_of(lifts, circles, big).flatmap(
        lambda f: st.sampled_from([f, f.inverse()])).map(lambda f: f.table)


def tables():
    """Interval maps and lift tables; interval maps live on [0, 1]."""
    intervals = st.builds(lambda s, n: random_element(s, n, "F_tau"), seeds, sizes)
    return st.one_of(intervals, intervals.map(PLMap.inverse), lift_tables())


@st.composite
def points(draw, pl: PLMap):
    """A ZTau or QTau point of pl's domain: a breakpoint, either end, or a
    point inside a piece, over denominators 1 to 7."""
    i = draw(st.integers(min_value=0, max_value=pl.num_pieces - 1))
    lo, hi = pl.xs[i], pl.xs[i + 1]
    kind = draw(st.sampled_from(["end", "breakpoint", "tau", "quotient"]))
    if kind == "end":
        return draw(st.sampled_from([pl.xs[0], pl.xs[-1]]))
    if kind == "breakpoint":
        return draw(st.sampled_from([lo, hi]))
    if kind == "tau":
        return lo + tau_pow(draw(st.integers(min_value=1, max_value=6))) * (hi - lo)
    den = draw(st.integers(min_value=1, max_value=7))
    num = draw(st.integers(min_value=0, max_value=den))
    return QTau(lo) + QTau(hi - lo) * QTau(num, den)


def assert_same(got, want):
    assert type(got) is type(want)
    assert got == want


# -- evaluation -------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(tables(), st.data())
def test_eval_matches_the_ring_formula(pl, data):
    for _ in range(4):
        x = data.draw(points(pl))
        assert_same(pl.eval(x), reference_eval(pl, x))
        if isinstance(x, QTau) and x.den == 1:
            assert_same(pl.eval(x.num), reference_eval(pl, x.num))
    for x in (pl.xs[0], pl.xs[-1], QTau(pl.xs[0]), QTau(pl.xs[-1])):
        assert_same(pl.eval(x), reference_eval(pl, x))
    gap = pl.xs[-1] - pl.xs[0]
    for x in (pl.xs[0] - tau_pow(9) * gap, pl.xs[-1] + tau_pow(9) * gap,
              QTau(pl.xs[-1] * 7 + 1, 7), QTau(pl.xs[0] * 3 - 1, 3)):
        with pytest.raises(OutOfDomain) as got:
            pl.eval(x)
        with pytest.raises(OutOfDomain) as want:
            reference_eval(pl, x)
        assert str(got.value) == str(want.value)


@settings(max_examples=100, deadline=None)
@given(lift_tables(), st.data())
def test_lift_eval_matches_the_ring_formula(table, data):
    for _ in range(4):
        x = data.draw(points(table))
        n = data.draw(shifts)
        for y in (x + n, x - n * 1000):
            assert_same(_eval_lift(table, y), reference_eval_lift(table, y))
    for x in (data.draw(ring_points), 3, -2):
        assert_same(_eval_lift(table, x), reference_eval_lift(table, x))


def reference_walk(table: PLMap, x, steps: int):
    """reference_eval_lift iterated steps times."""
    if not isinstance(x, ZTau):
        x = _as_qtau(x)
    for _ in range(steps):
        x = reference_eval_lift(table, x)
    return x


@settings(max_examples=100, deadline=None)
@given(lift_tables(), st.data())
def test_lift_walk_matches_the_iterated_ring_formula(table, data):
    far = st.integers(min_value=-3000, max_value=3000)
    for _ in range(3):
        steps = data.draw(st.integers(min_value=0, max_value=40))
        x = data.draw(points(table)) + data.draw(far)
        assert_same(_eval_lift(table, x, steps), reference_walk(table, x, steps))
    for x in (ZERO, data.draw(ring_points), 7, Fraction(-5, 3)):
        assert_same(_eval_lift(table, x, 40), reference_walk(table, x, 40))


@pytest.mark.parametrize("k", BIG_POWERS)
def test_lift_walk_on_big_coefficients(k):
    table = hyperbolic_power(k).table
    x = table.xs[len(table.xs) // 2]
    for y in (x, x + 3000, x - 2999, QTau(x * 5 + 2, 5) - 1000):
        for steps in (0, 1, 2, 40):
            assert_same(_eval_lift(table, y, steps), reference_walk(table, y, steps))


@pytest.mark.parametrize("f", [
    hyperbolic_power(1),
    random_element(283, 6, "Lift"),
    random_element(41, 4, "Lift").translate(-3).inverse(),
])
def test_enclosure_walk_matches_reference_steps(f, monkeypatch):
    """rot_enclosure(f, N), whatever squares its rule builds, is the
    enclosure from N reference steps of 0, for every N up to 700."""
    squares = []
    mul = lift._capped_mul
    monkeypatch.setattr(lift, "_capped_mul",
                        lambda a, b, cap: squares.append(a) or mul(a, b, cap))
    x = ZERO
    for n in range(1, 701):
        x = reference_eval_lift(f.table, x)
        p = x.floor()
        assert rot_enclosure(f, n) == RotEnclosure(Fraction(p, n), Fraction(p + 1, n), n)
    assert squares  # the walks went through squares, not single steps only


def test_eval_reads_ints_and_fractions_as_quotients():
    pl = random_element(5, 4, "F_tau")
    for x in (0, 1, Fraction(1, 3), Fraction(5, 7)):
        assert_same(pl.eval(x), reference_eval(pl, x))


# -- composition, restriction and unrolling -----------------------------------------

@settings(max_examples=100, deadline=None)
@given(tables(), tables())
def test_compose_matches_the_ring_formula(f, g):
    pairs = [(f, f.inverse()), (f.inverse(), f)]
    if f.domain() == g.domain() == (f.ys[0], f.ys[-1]) == (g.ys[0], g.ys[-1]):
        pairs += [(f, g), (g, f)]
    for a, b in pairs:
        raw = (a.xs, a.ys, a.ks, b.xs, b.ys, b.ks)
        assert _compose(*raw) == reference_compose(*raw)


@settings(max_examples=100, deadline=None)
@given(lift_tables(), lift_tables())
def test_lift_products_match_the_ring_formula(f, g):
    for a, b in ((f, g), (g, f), (f, f)):
        got = _compose(a.xs, a.ys, a.ks, *_unrolled(b.xs, b.ys, b.ks, a.ys[0]))
        want = reference_compose(a.xs, a.ys, a.ks,
                                 *reference_unrolled(b.xs, b.ys, b.ks, a.ys[0]))
        assert got == want


@settings(max_examples=100, deadline=None)
@given(lift_tables(), st.data())
def test_unrolled_matches_the_ring_formula(pl, data):
    bp = data.draw(st.sampled_from(pl.xs + pl.ys))
    for a in (bp + data.draw(shifts), data.draw(ring_points), pl.ys[0],
              pl.ys[0] + 5, pl.xs[0] - 4):
        assert _unrolled(pl.xs, pl.ys, pl.ks, a) \
            == reference_unrolled(pl.xs, pl.ys, pl.ks, a)
        inv = pl.inverse()
        assert _unrolled(inv.xs, inv.ys, inv.ks, a) \
            == reference_unrolled(inv.xs, inv.ys, inv.ks, a)


@settings(max_examples=100, deadline=None)
@given(tables(), st.data())
def test_restricted_matches_the_ring_formula(pl, data):
    raw = (pl.xs, pl.ys, pl.ks)
    for _ in range(3):
        lo = data.draw(points(pl))
        hi = data.draw(points(pl))
        if not (isinstance(lo, ZTau) and isinstance(hi, ZTau)) or hi <= lo:
            continue
        assert _restricted(*raw, lo, hi) == reference_restricted(*raw, lo, hi)
    assert _restricted(*raw, *pl.domain()) == reference_restricted(*raw, *pl.domain())


def test_piece_index_matches_the_ring_formula():
    pl = hyperbolic_power(16).table
    for x in [*pl.xs, *(x + tau_pow(40) for x in pl.xs[:-1])]:
        assert _piece_index(pl.xs, x.a, x.b) == reference_piece_index(pl.xs, x)
        q = QTau(x * 3 + 1, 3)
        assert _piece_index(pl.xs, q.num.a, q.num.b, q.den) \
            == reference_piece_index(pl.xs, q)


def test_the_big_tables_have_big_coefficients():
    for k in (-233, 199):
        table = hyperbolic_power(k).table
        assert bits(table) > 64 and any(s < 0 for s in table.ks)
