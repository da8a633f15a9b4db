"""The table kernels on integer coefficients against the ring-object
formulas they replaced.

Evaluation, composition, restriction and unrolling now form each output
breakpoint once from the (a, b) coefficients of their inputs.  The
formulas below build the same values from ZTau and QTau arithmetic, one
ring object per operation, as the kernels did before; they are kept here
only as oracles, and so is the integer-coefficient product that the
one in-place sweep replaced: f swept against a copy of the other factor's
periodic extension, cut at f's first image and shifted period by period.
A lift's walk of many steps, which keeps the point on its coefficients
throughout, is compared with the one-step formula iterated, and
enclosures, by whatever route, with that many reference steps;
shift_roots, which reads signs off coefficient differences, is compared
with the ring-object body it replaced.  Tables come from random F_tau,
T_tau and lift elements, their inverses (negative slope exponents), lifts
moved by whole periods, and powers of hyperbolic lifts, whose breakpoints
have large coefficients.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taut.circle import CircleMap, _eval_lift, leaf_exponents
from taut.construct import random_element
from taut.errors import OutOfDomain
from taut.expr import evaluate_str
from taut import lift
from taut.lift import LiftMap, RotEnclosure, rot_enclosure
from taut.plmap import PLMap, _piece_index, _restricted, _sweep, power
from taut.ring import ONE, ZERO, QTau, ZTau, _as_qtau, _cmp, _floor, _through, tau_pow


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


# -- the product the in-place sweep replaced -----------------------------------

def copied_compose(fx, fy, fk, gx, gy, gk) -> PLMap:
    """x -> g(f(x)) from raw tables in one sweep; f's image is g's domain."""
    xs, ys, ks = [fx[0]], [gy[0]], []
    i = j = 0
    while i < len(fk):
        ks.append(fk[i] + gk[j])
        c = _cmp(fy[i + 1], gx[j + 1])
        if c <= 0:
            i += 1
        if c >= 0:
            j += 1
        xs.append(fx[i] if c <= 0 else _through(fy[i], fx[i], -fk[i], gx[j]))
        ys.append(gy[j] if c >= 0 else _through(gx[j], gy[j], gk[j], fy[i]))
    return PLMap(xs, ys, ks)


def copied_shifted(zs, n: int) -> list:
    return [ZTau(z.a + n, z.b) for z in zs] if n else list(zs)


def copied_into_period(ys):
    j = ys[0].floor()
    return copied_shifted(ys, -j) if j else ys


def copied_unrolled(xs, ys, ks, a: ZTau) -> tuple[list, list, tuple]:
    """The raw table of a one-period table's periodic extension on [a, a + 1]."""
    n = _floor(a.a - xs[0].a, a.b - xs[0].b)
    r = ZTau(a.a - n, a.b) if n else a
    j = _piece_index(xs, r.a, r.b)
    if r != xs[j]:
        ys = ys[:j + 1] + (_through(xs[j], ys[j], ks[j], r),) + ys[j + 1:]
        xs = xs[:j + 1] + (r,) + xs[j + 1:]
        ks = ks[:j + 1] + ks[j:]
        j += 1
    return (copied_shifted(xs[j:], n) + copied_shifted(xs[1:j + 1], n + 1),
            copied_shifted(ys[j:], n) + copied_shifted(ys[1:j + 1], n + 1),
            ks[j:] + ks[:j])


def copied_lift_product(a: PLMap, b: PLMap, into_period: bool = False) -> PLMap:
    gx, gy, gk = copied_unrolled(b.xs, b.ys, b.ks, a.ys[0])
    return copied_compose(a.xs, a.ys, a.ks, gx,
                          copied_into_period(gy) if into_period else gy, gk)


def copied_lift_inverse(a: PLMap, into_period: bool = False) -> PLMap:
    xs, ys, ks = copied_unrolled(a.ys, a.xs, tuple([-k for k in a.ks]), ZERO)
    return PLMap(xs, copied_into_period(ys) if into_period else ys, ks)


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


def reference_shift_roots(pl: PLMap, s: ZTau) -> tuple:
    """PLMap.shift_roots as it was: one ring element per breakpoint."""
    vals = [y - x - s for x, y in zip(pl.xs, pl.ys)]
    for i, k in enumerate(pl.ks):
        if k == 0 and not vals[i]:
            return 0, QTau(pl.xs[i])
    for i, v in enumerate(vals):
        if not v:
            return 0, QTau(pl.xs[i])
    signs = [v.sign() for v in vals]
    if len(set(signs)) == 1:
        return signs[0], None
    for i in range(len(pl.ks)):
        if signs[i] * signs[i + 1] < 0:
            k = pl.ks[i]
            return 0, (QTau(pl.xs[i] * tau_pow(k) - pl.ys[i] + s)
                       / QTau(tau_pow(k) - ONE))
    raise AssertionError("sign pattern without a crossing")


@settings(max_examples=150, deadline=None)
@given(tables(), st.data())
def test_shift_roots_matches_the_ring_formula(pl, data):
    """Shifts that put a root on a breakpoint or a flat piece, inside a
    piece, nowhere, or anywhere."""
    gaps = [y - x for x, y in zip(pl.xs, pl.ys)]
    i = data.draw(st.integers(min_value=0, max_value=pl.num_pieces - 1))
    for s in (ZERO, gaps[i], gaps[i] + (gaps[i + 1] - gaps[i]) * tau_pow(2),
              ZTau(gaps[i].floor() + data.draw(shifts)), data.draw(ring_points)):
        assert pl.shift_roots(s) == reference_shift_roots(pl, s)


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


# 0 is periodic under the first element, so its walks take the cycle
# route; the orbit of 0 never returns to an integer under the other two
@pytest.mark.parametrize("f, returns", [
    pytest.param(hyperbolic_power(1), True, id="f0"),
    pytest.param(random_element(283, 6, "Lift"), False, id="f1"),
    pytest.param(random_element(41, 4, "Lift").translate(-3).inverse(), False, id="f2"),
])
def test_enclosure_walk_matches_reference_steps(f, returns, monkeypatch):
    """rot_enclosure(f, N), whatever route or squares it takes, is the
    enclosure from N reference steps of 0, for every N up to 700."""
    squares = []
    mul = lift._capped_mul
    monkeypatch.setattr(lift, "_capped_mul",
                        lambda a, b: squares.append(a) or mul(a, b))
    x = ZERO
    for n in range(1, 701):
        x = reference_eval_lift(f.table, x)
        p = x.floor()
        assert rot_enclosure(f, n) == RotEnclosure(Fraction(p, n), Fraction(p + 1, n), n)
    if returns:
        assert not squares  # F^N(0) was read off the cycle of 0
    else:
        assert squares  # the walks went through squares, not single steps only


# trees as their leaf exponents, drawn as payloads
trees = st.recursive(
    st.just("leaf"),
    lambda sub: st.tuples(st.sampled_from(["s+", "s-"]), sub, sub).map(list),
    max_leaves=6).map(leaf_exponents)
conjugators = st.builds(lambda s, n: random_element(s, n, "Lift"), seeds, sizes)


@st.composite
def periodic_lifts(draw):
    """A lifted periodic tree pair (p = q, shift s), moved by n and
    conjugated by a random lift, or its inverse or square.  Each leaf
    returns to itself after P = L / gcd(s, L) steps with slope 1, so F^P is
    a translation by an integer and 0 returns to an integer."""
    tree = draw(trees)
    s = draw(st.integers(min_value=0, max_value=len(tree) - 1))
    f = LiftMap(CircleMap.from_tree_pair(tree, tree, s).table).translate(draw(shifts))
    h = draw(conjugators)
    f = h.inverse() * f * h
    return draw(st.sampled_from([f, f.inverse(), f * f]))


def conjugated_rotations():
    alphas = st.builds(ZTau, small, small.filter(bool))
    return st.builds(lambda a, h: h.inverse() * LiftMap.translation(a) * h,
                     alphas, conjugators)


@settings(max_examples=150, deadline=None)
@given(st.one_of(periodic_lifts(), conjugated_rotations(), conjugators), st.data())
def test_enclosure_cycle_route_matches_reference_steps(f, data):
    """rot_enclosure(f, N) is the enclosure from N reference steps of 0:
    at N = 1 and N <= pieces(F); if 0 first returns to an integer at a
    step P <= pieces(F), at some N <= P and N = tP - 1, tP and tP + 1;
    otherwise past the probe, up to N = 300."""
    pieces = f.num_pieces
    ns = {1, pieces, data.draw(st.integers(min_value=1, max_value=pieces))}
    orbit = [ZERO]
    for _ in range(pieces):
        orbit.append(reference_eval_lift(f.table, orbit[-1]))
    period = next((k for k in range(1, pieces + 1) if orbit[k].b == 0), None)
    if period is None:
        ns |= {pieces + 1, data.draw(st.integers(min_value=1, max_value=300))}
    else:
        t = data.draw(st.integers(min_value=1, max_value=40))
        ns |= {data.draw(st.integers(min_value=1, max_value=period)),
               t * period - 1, t * period, t * period + 1} - {0}
    while len(orbit) <= max(ns):
        orbit.append(reference_eval_lift(f.table, orbit[-1]))
    for n in sorted(ns):
        p = orbit[n].floor()
        assert rot_enclosure(f, n) == RotEnclosure(Fraction(p, n), Fraction(p + 1, n), n)


def test_periodic_orbit_of_0_builds_no_table(monkeypatch):
    # rot 1/2: 0 returns to an integer after 2 of the element's 3 pieces
    f = evaluate_str(HYPERBOLIC)
    squares, steps = [], []
    mul, walk = lift._capped_mul, lift._eval_lift
    monkeypatch.setattr(lift, "_capped_mul",
                        lambda a, b: squares.append(a) or mul(a, b))
    monkeypatch.setattr(lift, "_eval_lift",
                        lambda *args: steps.append(args) or walk(*args))
    res = rot_enclosure(f, 10 ** 9)
    assert (res.lo, res.hi) == (Fraction(1, 2), Fraction(10 ** 9 // 2 + 1, 10 ** 9))
    assert not squares and len(steps) <= f.num_pieces


# -- the fixed point route --------------------------------------------------------

def split_leaves(tree: list[int], which, wide_first: bool) -> list[int]:
    """The leaf exponents of tree with its leaves numbered in which split
    in two, wide part first or not."""
    first, second = (1, 2) if wide_first else (2, 1)
    out = []
    for i, e in enumerate(tree):
        out += [e + first, e + second] if i in which else [e]
    return out


def bumped_lift(tree, which, wide_first: bool, s: int, n: int, h: LiftMap) -> LiftMap:
    """The periodic tree pair (tree, tree, s) after an F_tau element that
    splits the leaves in which one way in its domain and the other in its
    image, moved by n and conjugated by h: it still carries each leaf of
    tree s places on, so rot = s/L + n, and 0's orbit only tends to a
    periodic one.  With s = 0 it is a lifted F_tau element with flat
    fixed intervals, rot = n."""
    ta = split_leaves(tree, which, wide_first)
    tb = split_leaves(tree, which, not wide_first)
    bump = LiftMap(CircleMap.from_tree_pair(ta, tb, 0).table)
    body = LiftMap(CircleMap.from_tree_pair(tree, tree, s).table) * bump
    return h.inverse() * body.translate(n) * h


@st.composite
def rational_lifts(draw):
    """bumped_lift of random trees, bumps, shifts and conjugators, or its
    inverse: G(0) takes either sign."""
    tree = draw(trees)
    leaves = len(tree)
    which = draw(st.sets(st.integers(min_value=0, max_value=leaves - 1),
                         min_size=1, max_size=2))
    s = draw(st.integers(min_value=0, max_value=leaves - 1))
    f = bumped_lift(tree, which, draw(st.booleans()), s, draw(shifts),
                    draw(conjugators))
    return draw(st.sampled_from([f, f.inverse()]))


def assert_nearest_zero(table: PLMap, p: int, side: int, r):
    """r is a zero of d(x) = F(x) - x - p, F the lift with this table, on
    side of 0, and d has the sign side at 0 and at every breakpoint of its
    periodic extension between 0 and r: d is linear between breakpoints,
    so no zero lies nearer 0."""
    assert reference_eval_lift(table, r) == r + p
    assert 0 < r <= 1 if side > 0 else -1 <= r < 0
    for x, y in zip(table.xs, table.ys):
        if (x < r) if side > 0 else (x - 1 > r):
            assert (y - x - p).sign() == side


@settings(max_examples=100, deadline=None)
@given(rational_lifts(), st.data())
def test_enclosure_fixed_point_route_matches_reference_steps(f, data):
    """rot_enclosure(f, N) is the enclosure from N reference steps of 0 at
    some N <= 700 and, when the descent proves rot = p/q, at N = tq - 1,
    tq and tq + 1, and it is the orbit walk's enclosure at N = 10**4; the
    fixed point the route reads is the zero of G(x) - x nearest 0."""
    descent = lift._Descent(f)
    res, powers = descent.run(f.num_pieces), descent.powers
    ns = set(data.draw(st.lists(st.integers(min_value=1, max_value=700),
                                min_size=6, max_size=6)))
    if res is not None:
        fq = powers[res.q].table
        side = (reference_eval_lift(fq, ZERO) - res.p).sign()
        if side:
            assert_nearest_zero(fq, res.p, side, fq.nearest_shift_root(ZTau(res.p), side))
        tq = res.q * data.draw(st.integers(min_value=1, max_value=700 // res.q))
        ns |= {tq - 1, tq, tq + 1} - {0}
    orbit = [ZERO]
    while len(orbit) <= max(ns):
        orbit.append(reference_eval_lift(f.table, orbit[-1]))
    for n in sorted(ns):
        p = orbit[n].floor()
        assert rot_enclosure(f, n) == RotEnclosure(Fraction(p, n), Fraction(p + 1, n), n)
    n = 10 ** 4
    assert rot_enclosure(f, n) == lift._orbit_enclosure({1: f}, n)


T3 = leaf_exponents(["s+", ["s-", "leaf", "leaf"], "leaf"])
ROUTE_LIFTS = {
    # rot 1/3 and -1/3, whose G(0) is below and above 0
    "hyperbolic": bumped_lift(T3, {0}, True, 1, 0, random_element(5, 3, "Lift")),
    # rot 0 with flat fixed intervals
    "flat": bumped_lift(T3, {0, 2}, True, 0, 0, random_element(5, 3, "Lift")),
}


@pytest.mark.parametrize("name", ROUTE_LIFTS)
@pytest.mark.parametrize("inverse", [False, True])
def test_rational_orbit_that_never_returns_builds_no_square(name, inverse, monkeypatch):
    """0 never returns to an integer, yet the enclosure is read off the
    fixed point of G within pieces(F) steps of G: no square is built and
    the orbit walk is never reached."""
    f = ROUTE_LIFTS[name].inverse() if inverse else ROUTE_LIFTS[name]
    want = {n: lift._orbit_enclosure({1: f}, n) for n in (256, 10 ** 4)}
    monkeypatch.setattr(lift, "_orbit_enclosure", None)
    for n, enclosure in want.items():
        assert rot_enclosure(f, n) == enclosure


@pytest.mark.parametrize("f", [ROUTE_LIFTS["hyperbolic"], random_element(283, 6, "Lift")],
                         ids=["rational", "irrational"])
@pytest.mark.parametrize("n", [0, -1, -10 ** 4])
def test_enclosure_of_no_iterations_is_refused(f, n):
    with pytest.raises(ValueError, match="^iterations must be positive$"):
        rot_enclosure(f, n)


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
        assert _sweep(*raw) == reference_compose(*raw)


@settings(max_examples=100, deadline=None)
@given(lift_tables(), lift_tables())
def test_lift_products_match_the_ring_formula(f, g):
    for a, b in ((f, g), (g, f), (f, f)):
        got = _sweep(a.xs, a.ys, a.ks, b.xs, b.ys, b.ks)
        want = reference_compose(a.xs, a.ys, a.ks,
                                 *reference_unrolled(b.xs, b.ys, b.ks, a.ys[0]))
        assert got == want


def window(pl: PLMap, a: ZTau) -> PLMap:
    """pl's periodic extension on [a, a + 1]: the identity there swept
    against pl."""
    return _sweep((a, a + 1), (a, a + 1), (0,), pl.xs, pl.ys, pl.ks)


@settings(max_examples=100, deadline=None)
@given(lift_tables(), st.data())
def test_unrolled_matches_the_ring_formula(pl, data):
    bp = data.draw(st.sampled_from(pl.xs + pl.ys))
    for a in (bp + data.draw(shifts), data.draw(ring_points), pl.ys[0],
              pl.ys[0] + 5, pl.xs[0] - 4):
        assert window(pl, a) == PLMap(*reference_unrolled(pl.xs, pl.ys, pl.ks, a))
        inv = pl.inverse()
        assert window(inv, a) \
            == PLMap(*reference_unrolled(inv.xs, inv.ys, inv.ks, a))


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


def walked_restricted(fx, fy, fk, lo, hi) -> tuple:
    """The restriction as it found its pieces: one linear walk from the
    first piece to lo's, then on to hi's."""
    if _cmp(lo, fx[0]) < 0 or _cmp(hi, fx[-1]) > 0 or _cmp(hi, lo) <= 0:
        raise OutOfDomain(f"[{lo}, {hi}] is not inside the domain")
    i = 0
    while _cmp(fx[i + 1], lo) <= 0:
        i += 1
    j = i
    while _cmp(fx[j + 1], hi) < 0:
        j += 1
    return ([lo, *fx[i + 1:j + 1], hi],
            [_through(fx[i], fy[i], fk[i], lo), *fy[i + 1:j + 1],
             _through(fx[j], fy[j], fk[j], hi)],
            fk[i:j + 1])


@st.composite
def cut_points(draw, pl: PLMap):
    """A ring point of pl's domain: either end, an inner breakpoint, or a
    point inside a piece."""
    i = draw(st.integers(min_value=0, max_value=pl.num_pieces - 1))
    lo, hi = pl.xs[i], pl.xs[i + 1]
    kind = draw(st.sampled_from(["end", "breakpoint", "inside"]))
    if kind == "end":
        return draw(st.sampled_from([pl.xs[0], pl.xs[-1]]))
    if kind == "breakpoint":
        return pl.xs[draw(st.integers(min_value=1, max_value=max(1, pl.num_pieces - 1)))]
    return lo + tau_pow(draw(st.integers(min_value=1, max_value=6))) * (hi - lo)


def _restriction_or_error(restricted, raw, lo, hi):
    try:
        return restricted(*raw, lo, hi)
    except OutOfDomain as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(tables(), st.data())
def test_restricted_matches_the_linear_walk(pl, data):
    raw = (pl.xs, pl.ys, pl.ks)
    for _ in range(4):
        lo = data.draw(cut_points(pl))
        hi = data.draw(cut_points(pl))
        # hi <= lo, a degenerate or reversed interval, must fail alike
        assert _restriction_or_error(_restricted, raw, lo, hi) \
            == _restriction_or_error(walked_restricted, raw, lo, hi)
    for lo, hi in (pl.domain(), (pl.xs[0], pl.xs[1]), (pl.xs[-2], pl.xs[-1]),
                   (pl.xs[0] - tau_pow(9), pl.xs[-1])):
        assert _restriction_or_error(_restricted, raw, lo, hi) \
            == _restriction_or_error(walked_restricted, raw, lo, hi)


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


# -- the in-place sweep against the product it replaced ------------------------------

def whole(pl: PLMap) -> tuple:
    return pl.xs, pl.ys, pl.ks


def moved(pl: PLMap, d) -> PLMap:
    """pl with every image moved by d: still a lift table if pl is one."""
    return PLMap(pl.xs, [y + d for y in pl.ys], pl.ks)


def circle_tables():
    """Tables of circle maps: images start in [0, 1)."""
    circles = st.builds(lambda s, n: random_element(s, n, "T_tau").table, seeds, sizes)
    rotations = st.builds(lambda a, b: moved(PLMap.identity(), ZTau(a, b)),
                          small, small).map(lambda t: moved(t, -t.ys[0].floor()))
    return st.one_of(circles, rotations).flatmap(
        lambda t: st.sampled_from([t, copied_lift_inverse(t, True)]))


@settings(max_examples=100, deadline=None)
@given(lift_tables(), lift_tables(), shifts, shifts)
def test_lift_sweep_matches_the_copied_route(f, g, m, n):
    """Lift products, with either factor's base value moved by -3..3."""
    for a, b in ((moved(f, m), moved(g, n)), (moved(g, n), f), (f, moved(f, m))):
        assert whole(_sweep(a.xs, a.ys, a.ks, b.xs, b.ys, b.ks)) \
            == whole(copied_lift_product(a, b))


@settings(max_examples=100, deadline=None)
@given(lift_tables(), lift_tables(), shifts, st.data())
def test_sweep_cut_on_a_breakpoint_matches_the_copied_route(f, g, m, data):
    """f's first image on one of g's breakpoints, a period or more away."""
    bp = data.draw(st.sampled_from(g.xs))
    a = moved(f, bp + m - f.ys[0])
    assert a.ys[0] == bp + m
    for b in (g, moved(g, m)):
        assert whole(_sweep(a.xs, a.ys, a.ks, b.xs, b.ys, b.ks)) \
            == whole(copied_lift_product(a, b))
    # the identity on [bp, bp + 1] cuts there too
    assert whole(_sweep((bp, bp + 1), (bp, bp + 1), (0,), g.xs, g.ys, g.ks)) \
        == whole(PLMap(*copied_unrolled(g.xs, g.ys, g.ks, bp)))


@settings(max_examples=100, deadline=None)
@given(circle_tables(), circle_tables())
def test_circle_sweep_matches_the_copied_route(f, g):
    """Circle products, whose images are moved into [0, 1) when the first
    falls outside it."""
    for a, b in ((f, g), (g, f), (f, f)):
        got = _sweep(a.xs, a.ys, a.ks, b.xs, b.ys, b.ks, into_period=True)
        assert whole(got) == whole(copied_lift_product(a, b, into_period=True))
        assert ZERO <= got.ys[0] < ONE


def test_circle_sweep_moves_images_into_the_period():
    tau = PLMap((ZERO, ONE), (ZTau(0, 1), ZTau(1, 1)), (0,))
    t = random_element(7, 5, "T_tau").table
    for a, b in ((tau, tau), (t, tau), (tau, t), (t, t)):
        lifted = _sweep(a.xs, a.ys, a.ks, b.xs, b.ys, b.ks)
        got = _sweep(a.xs, a.ys, a.ks, b.xs, b.ys, b.ks, into_period=True)
        assert whole(got) == whole(copied_lift_product(a, b, into_period=True))
        assert got == moved(lifted, -lifted.ys[0].floor())
    assert _sweep(tau.xs, tau.ys, tau.ks, *whole(tau)).ys[0].floor() == 1


@settings(max_examples=100, deadline=None)
@given(tables(), tables())
def test_interval_sweep_matches_the_copied_route(f, g):
    pairs = [(f, f.inverse()), (f.inverse(), f), (f, PLMap.identity(f.ys[0], f.ys[-1]))]
    if f.domain() == g.domain() == (f.ys[0], f.ys[-1]) == (g.ys[0], g.ys[-1]):
        pairs += [(f, g), (g, f)]
    for a, b in pairs:
        raw = (a.xs, a.ys, a.ks, b.xs, b.ys, b.ks)
        assert whole(_sweep(*raw)) == whole(copied_compose(*raw))


@settings(max_examples=100, deadline=None)
@given(lift_tables(), circle_tables(), shifts)
def test_inverse_sweep_matches_the_copied_route(f, c, m):
    for t in (f, moved(f, m)):
        assert whole(LiftMap(t).inverse().table) == whole(copied_lift_inverse(t))
    assert whole(CircleMap(c).inverse().table) \
        == whole(copied_lift_inverse(c, into_period=True))
