"""The one-sweep table composition against the set-sort-bisect composition
it replaced.

The reference product collects self's breakpoints and the preimages of
other's, sorts them and evaluates both maps at each; the reference window
unrolls a periodic table onto [lo, hi] one integer shift at a time; the
reference sweep writes the end of every piece it compares and leaves
PLMap to check every piece and merge colinear neighbours.  All three are
kept here only as oracles.  Every comparison is of whole tables
(breakpoints, images and slope exponents), of lifts as well as of circle
maps, so the integer part that a circle product drops is compared too.
The sweep checks each piece as it writes it; the tests below also feed it
raw tables with one bad piece or point, which must fail as PLMap fails.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taut import plmap
from taut.circle import CircleMap
from taut.construct import _chart_restriction_fixed_arc, _embed_in_chart, random_element
from taut.errors import NotFtau, NotIncreasing, NotInRing, NotTauPower, SlopeMismatch, TautError
from taut.lift import LiftMap
from taut.plmap import PLMap, _piece_index, _sweep, concat, conjugate, power
from taut.ring import ONE, TAU, TAU_POW_CACHE, ZERO, ZTau, _floor, _sign, tau_pow


def reference_mul(f: PLMap, g: PLMap) -> PLMap:
    pts = set(f.xs)
    for u in g.xs[1:-1]:
        j = _piece_index(f.ys, u.a, u.b)
        pts.add(f.xs[j] + tau_pow(-f.ks[j]) * (u - f.ys[j]))
    xs = sorted(pts)
    ys = [g.eval(f.eval(x)) for x in xs]
    ks = [f.ks[_piece_index(f.xs, x.a, x.b)]
          + g.ks[_piece_index(g.xs, f.eval(x).a, f.eval(x).b)] for x in xs[:-1]]
    return PLMap(xs, ys, ks)


def reference_window(pl: PLMap, lo: ZTau, hi: ZTau) -> PLMap:
    t0 = pl.xs[0]
    pts = {lo, hi}
    for x in pl.xs[:-1]:
        for n in range(-(x - lo).floor(), (hi - x).floor() + 1):
            pts.add(x + n)
    xs = sorted(pts)
    ys = [pl.eval(x - (x - t0).floor()) + (x - t0).floor() for x in xs]
    ks = [pl.ks[_piece_index(pl.xs, x.a - (x - t0).floor(), x.b)] for x in xs[:-1]]
    return PLMap(xs, ys, ks)


def reference_lift_product(a: PLMap, b: PLMap) -> PLMap:
    """Table of the product of the lifts with tables a and b."""
    return reference_mul(a, reference_window(b, a.ys[0], a.ys[-1]))


def reference_lift_inverse(a: PLMap) -> PLMap:
    return reference_window(a.inverse(), ZERO, ONE)


def reference_embed_in_chart(g: PLMap, center: ZTau) -> CircleMap:
    """g conjugated by the rotation by center: two products and an inverse."""
    return conjugate(CircleMap.from_interval_map(g), CircleMap.rotation(center))


def reference_sweep(fx, fy, fk, gx, gy, gk, offset: ZTau = ZERO,
                    into_period: bool = False) -> PLMap:
    """_sweep as it wrote every end of a piece, each a breakpoint, for
    PLMap.__init__ to merge the colinear ones."""
    u, g0 = fy[0], gx[0]
    if u.a == g0.a and u.b == g0.b:
        j = n = 0
    else:
        n = _floor(u.a - g0.a, u.b - g0.b)
        j = _piece_index(gx, u.a - n, u.b)
    sa, sb = n + offset.a, offset.b
    x, y, t = gx[j], gy[j], tau_pow(gk[j])
    da, db = u.a - n - x.a, u.b - x.b
    ya = y.a + sa + t.a * da + t.b * db
    yb = y.b + sb + t.a * db + t.b * (da - db)
    if into_period:
        m = _floor(ya, yb)
        sa -= m
        ya -= m
    xs, ys, ks = [fx[0]], [ZTau(ya, yb)], []
    i, last, end = 0, len(gk), len(fk)
    while i < end:
        if j == last:
            j, n, sa = 0, n + 1, sa + 1
        kf, kg = fk[i], gk[j]
        ks.append(kf + kg)
        p, q = fy[i + 1], gx[j + 1]
        c = _sign(p.a - q.a - n, p.b - q.b)
        if c <= 0:
            i += 1
            xs.append(fx[i])
        else:
            x, y, t = fy[i], fx[i], tau_pow(-kf)
            da, db = q.a + n - x.a, q.b - x.b
            xs.append(ZTau(y.a + t.a * da + t.b * db,
                           y.b + t.a * db + t.b * (da - db)))
        if c >= 0:
            j += 1
            y = gy[j]
            ys.append(ZTau(y.a + sa, y.b + sb) if sa or sb else y)
        else:
            x, y, t = gx[j], gy[j], tau_pow(kg)
            da, db = p.a - n - x.a, p.b - x.b
            ys.append(ZTau(y.a + sa + t.a * da + t.b * db,
                           y.b + sb + t.a * db + t.b * (da - db)))
    return PLMap(xs, ys, ks)


def spy_builds(mp: pytest.MonkeyPatch) -> tuple[list, list]:
    """The slope exponents of each table built while mp is active: those
    that _sweep hands its one build point, _swept, and those that
    PLMap.__init__ checks."""
    swept, checked = [], []
    build, init = plmap._swept, PLMap.__init__

    def spy_swept(xs, ys, ks):
        swept.append(tuple(ks))
        return build(xs, ys, ks)

    def spy_init(self, xs, ys, ks):
        checked.append(tuple(ks))
        init(self, xs, ys, ks)

    mp.setattr(plmap, "_swept", spy_swept)
    mp.setattr(PLMap, "__init__", spy_init)
    return swept, checked


def sweep_as_written(*args, **kwargs) -> tuple[PLMap, tuple]:
    """_sweep's table and the slope exponents it handed _swept, which is
    its only build: PLMap.__init__ is not called."""
    with pytest.MonkeyPatch.context() as mp:
        swept, checked = spy_builds(mp)
        out = _sweep(*args, **kwargs)
    assert len(swept) == 1 and not checked
    return out, swept[0]


def unroll(pl: PLMap, a: ZTau, span: ZTau = ONE) -> PLMap:
    """pl's periodic extension on [a, a + span]: the identity there swept
    against pl."""
    return _sweep((a, a + span), (a, a + span), (0,), pl.xs, pl.ys, pl.ks)


def lift(c: CircleMap) -> LiftMap:
    return LiftMap(c.table)


def table(m) -> tuple:
    t = m if isinstance(m, PLMap) else m.table
    return t.xs, t.ys, t.ks


seeds = st.integers(min_value=0, max_value=2**32)
sizes = st.integers(min_value=1, max_value=7)
small = st.integers(min_value=-40, max_value=40)
ring_points = st.builds(ZTau, small, small)


def interval_maps():
    return st.builds(lambda s, n: random_element(s, n, "F_tau"), seeds, sizes)


def circle_maps():
    rotations = st.builds(CircleMap.rotation, ring_points)
    return st.one_of(st.builds(lambda s, n: random_element(s, n, "T_tau"), seeds, sizes),
                     rotations,
                     interval_maps().map(CircleMap.from_interval_map))


@settings(max_examples=150, deadline=None)
@given(interval_maps(), interval_maps())
def test_interval_products_match_the_reference(f, g):
    for a, b in ((f, g), (g, f), (f, f.inverse()), (f.inverse(), f), (f, f),
                 (f * g, g.inverse()), (f, PLMap.identity())):
        assert table(a * b) == table(reference_mul(a, b))


@settings(max_examples=150, deadline=None)
@given(circle_maps(), circle_maps())
def test_circle_products_and_inverses_match_the_reference(f, g):
    for a, b in ((f, g), (g, f), (f, f.inverse()), (f, f)):
        ref = reference_lift_product(a.table, b.table)
        assert table(lift(a) * lift(b)) == table(ref)
        assert table(a * b) == table(CircleMap(ref))
    for a in (f, g, f * g):
        ref = reference_lift_inverse(a.table)
        assert table(lift(a).inverse()) == table(ref)
        assert table(a.inverse()) == table(CircleMap(ref))


@settings(max_examples=100, deadline=None)
@given(seeds, sizes, seeds, sizes)
def test_lift_products_match_the_reference(s1, n1, s2, n2):
    f = random_element(s1, n1, "Lift")
    g = random_element(s2, n2, "Lift")
    for a, b in ((f, g), (g, f), (f, f.inverse()), (f * g, g.inverse())):
        ref = reference_lift_product(a.base.table, b.base.table)
        assert a * b == LiftMap(ref).translate(a.n + b.n)
    ref = reference_lift_inverse(f.base.table)
    assert f.inverse() == LiftMap(ref).translate(-f.n)


@settings(max_examples=150, deadline=None)
@given(circle_maps(), st.data())
def test_unroll_matches_the_reference_window(g, data):
    pl = g.table
    shift = data.draw(st.integers(min_value=-3, max_value=3))
    bp = data.draw(st.sampled_from(pl.xs))
    for a in (bp + shift, data.draw(ring_points), ZERO, pl.ys[0], ONE):
        assert table(unroll(pl, a)) == table(reference_window(pl, a, a + 1))
        assert table(unroll(pl.inverse(), a)) \
            == table(reference_window(pl.inverse(), a, a + 1))
    # a window shorter than a period, as the factor construction sweeps
    a = bp + shift
    span = data.draw(st.sampled_from(pl.xs[1:]))
    assert table(unroll(pl, a, span)) == table(reference_window(pl, a, a + span))


@settings(max_examples=100, deadline=None)
@given(interval_maps(), ring_points, st.data())
def test_chart_embedding_matches_the_conjugate(g, center, data):
    # centers on g's breakpoints and their images, and away from [0, 1)
    on = data.draw(st.sampled_from(g.xs + g.ys)) + data.draw(st.integers(-2, 2))
    for c in (center, on, -on, ZERO):
        assert table(_embed_in_chart(g, c)) == table(reference_embed_in_chart(g, c))


def test_chart_embedding_keeps_the_ftau_check():
    for g in (PLMap.identity(ZERO, TAU), PLMap((ZERO, ONE), (TAU, ONE + TAU), (0,))):
        with pytest.raises(NotFtau, match="must be an F_tau element on"):
            _embed_in_chart(g, TAU)


def test_windows_on_breakpoints_and_base_zero():
    g = random_element(7, 5, "T_tau")
    f = CircleMap.from_interval_map(random_element(8, 4, "F_tau"))
    assert f.v == ZERO
    for pl in (g.table, g.table.inverse(), f.table):
        for x in pl.xs:
            for a in (x, x - 1, x + 2):
                assert table(unroll(pl, a)) == table(reference_window(pl, a, a + 1))
    for a, b in ((f, f), (f, f.inverse()), (f, g), (g, f), (g, g.inverse())):
        ref = reference_lift_product(a.table, b.table)
        assert lift(a) * lift(b) == LiftMap(ref)
        assert a * b == CircleMap(ref)
    ref = reference_lift_inverse(f.table)
    assert lift(f).inverse() == LiftMap(ref)
    assert f.inverse() == CircleMap(ref)


def test_each_product_builds_one_table(monkeypatch):
    g = random_element(7, 5, "T_tau")
    h = random_element(11, 4, "Lift").translate(-2)
    on_breakpoint = g.table.xs[2]  # self's table(0) on other's breakpoint
    pairs = [
        (lift(g).translate(3), h),
        (LiftMap.translation(on_breakpoint + 2), lift(g)),
        (LiftMap.translation(on_breakpoint - 1), h),
        (h, h.inverse()),
        (g, g.inverse()),
        (CircleMap.rotation(on_breakpoint), g),
        (CircleMap.rotation(TAU), CircleMap.rotation(TAU)),  # image from 2*tau > 1
        (g, CircleMap.rotation(ONE - tau_pow(4))),
    ]
    # inverses: a lift, lifts whose table(0) is negative or on a breakpoint,
    # and circle maps, whose inverse's images are moved into [0, 1)
    inverses = [h, lift(g).translate(-3), LiftMap.translation(on_breakpoint),
                g, CircleMap.rotation(on_breakpoint), CircleMap.rotation(ZERO),
                CircleMap.from_interval_map(random_element(8, 4, "F_tau"))]
    expected = [a * b for a, b in pairs]
    expected_inverses = [CircleMap(reference_lift_inverse(a.table))
                         if isinstance(a, CircleMap)
                         else LiftMap(reference_lift_inverse(a.table))
                         for a in inverses]
    # an F_tau element squeezed onto the arc [lo, hi] and the identity off it
    lo, hi = tau_pow(3), TAU
    f = random_element(8, 4, "F_tau")
    bump = CircleMap.from_interval_map(concat([
        PLMap.identity(ZERO, lo),
        PLMap([lo + tau_pow(2) * x for x in f.xs],
              [lo + tau_pow(2) * y for y in f.ys], f.ks),
        PLMap.identity(hi, ONE)]))
    embedded = {c: reference_embed_in_chart(f, c)
                for c in (ZERO, TAU, f.xs[1], ONE - tau_pow(5))}
    # each product, inverse and chart is one sweep, built by _swept alone
    swept, checked = spy_builds(monkeypatch)

    def one_table():
        built = len(swept), len(checked)
        swept.clear()
        checked.clear()
        return built == (1, 0)

    for (a, b), want in zip(pairs, expected):
        assert a * b == want
        assert one_table(), (a, b)
    for a, want in zip(inverses, expected_inverses):
        assert a.inverse() == want
        assert one_table(), a
    chart = _chart_restriction_fixed_arc(bump, lo, hi, ONE - tau_pow(3))
    assert one_table()
    assert chart.ks == f.ks
    for center in embedded:
        assert _embed_in_chart(f, center) == embedded[center]
        assert one_table(), center


def lifts():
    """Random lifts, their inverses, squares and cubes, and conjugates."""
    base = st.builds(lambda s, n: random_element(s, n, "Lift"), seeds, sizes)
    return st.one_of(base, base.map(LiftMap.inverse),
                     st.builds(power, base, st.integers(2, 3)),
                     st.builds(conjugate, base, base))


def sweeps_of_lifts(a: LiftMap, b: LiftMap) -> list:
    """The sweeps of a * b, of the circle product of their tables, and of
    both inverses, with and without into_period."""
    t, o = a.table, b.table
    out = [((t.xs, t.ys, t.ks, o.xs, o.ys, o.ks), {}),
           ((t.xs, t.ys, t.ks, o.xs, o.ys, o.ks), {"into_period": True})]
    for m in (t, o):
        swapped = (m.ys, m.xs, tuple(-k for k in m.ks))
        out.append((((ZERO, ONE), (ZERO, ONE), (0,), *swapped), {}))
        out.append((((ZERO, ONE), (ZERO, ONE), (0,), *swapped), {"into_period": True}))
    return out


def assert_sweep_matches_the_reference(args, kwargs):
    out, written = sweep_as_written(*args, **kwargs)
    assert table(out) == table(reference_sweep(*args, **kwargs))
    # every breakpoint written is a change of slope exponent: nothing to
    # merge, and the full check accepts the table as it is
    assert written == out.ks
    assert all(k0 != k1 for k0, k1 in zip(written, written[1:]))
    assert PLMap(out.xs, out.ys, out.ks) == out


@settings(max_examples=150, deadline=None)
@given(lifts(), lifts())
def test_sweep_of_lifts_matches_the_reference_sweep(a, b):
    for args, kwargs in sweeps_of_lifts(a, b):
        assert_sweep_matches_the_reference(args, kwargs)


@settings(max_examples=100, deadline=None)
@given(circle_maps(), circle_maps())
def test_sweep_of_circle_maps_matches_the_reference_sweep(f, g):
    for a, b in ((f, g), (f, f.inverse()), (f, f)):
        for args, kwargs in sweeps_of_lifts(lift(a), lift(b)):
            assert_sweep_matches_the_reference(args, kwargs)


@settings(max_examples=100, deadline=None)
@given(interval_maps(), interval_maps(), ring_points, st.data())
def test_sweep_of_interval_maps_and_charts_matches_the_reference_sweep(f, g, center,
                                                                       data):
    for a, b in ((f, g), (f, f.inverse()), (f * g, g.inverse()), (f, f)):
        assert_sweep_matches_the_reference((a.xs, a.ys, a.ks, b.xs, b.ys, b.ks), {})
    # the chart embedding's sweep: an offset, and images moved into [0, 1)
    on = data.draw(st.sampled_from(g.xs + g.ys)) + data.draw(st.integers(-2, 2))
    t = CircleMap.from_interval_map(g).table
    for c in (center, on, -on, ZERO):
        args = ((ZERO, ONE), (-c, ONE - c), (0,), t.xs, t.ys, t.ks, c)
        assert_sweep_matches_the_reference(args, {"into_period": True})
        assert_sweep_matches_the_reference(args, {})


# Raw tables f, each with one bad piece or point, swept against the
# identity of [0, 1]: every image of f lies on its one piece, and f has no
# two neighbouring pieces of equal exponent, so the sweep writes f's own
# lists.  Built past the constructor, as no PLMap holds them.
T2, T3 = tau_pow(2), tau_pow(3)
BAD_TABLES = {
    "slope off tau**k": ((ZERO, TAU, ONE), (ZERO, T2, ONE), (1, -2), SlopeMismatch),
    "slope no tau power": ((ZERO, TAU, ONE), (ZERO, ZTau(-1, 3), ONE), (1, -1),
                           NotTauPower),
    "run not increasing": ((ZERO, TAU, T2, ONE), (ZERO, T3, T2, ONE), (2, 0, 1),
                           NotIncreasing),
    "rise not increasing": ((ZERO, T2, TAU, ONE), (ZERO, TAU, T2, ONE), (-1, 0, -1),
                            NotIncreasing),
    "point with no coefficients": ((ZERO, TAU, 1), (ZERO, T2, ONE), (1, -1), NotInRing),
    "point with coefficients": ((ZERO, SimpleNamespace(a=0, b=1), ONE), (ZERO, T2, ONE),
                                (1, -1), NotInRing),
}


@pytest.mark.parametrize("case", BAD_TABLES)
def test_the_sweep_checks_each_piece_and_point_it_writes(case):
    fx, fy, fk, error = BAD_TABLES[case]
    with pytest.raises(TautError) as want:
        PLMap(fx, fy, fk)
    assert type(want.value) is error
    with pytest.raises(TautError) as got:
        _sweep(fx, fy, fk, (ZERO, ONE), (ZERO, ONE), (0,))
    assert (type(got.value), str(got.value)) == (error, str(want.value))


def test_the_sweep_checks_the_images_it_passes_through():
    # G's last image is used as it is, so the sweep writes it unread
    with pytest.raises(NotInRing, match="breakpoint 1 is not in Z"):
        _sweep((ZERO, TAU, ONE), (ZERO, T2, ONE), (1, -1), (ZERO, ONE), (ZERO, 1), (0,))


def test_the_sweep_reads_tau_powers_from_the_one_bounded_cache():
    assert not hasattr(plmap, "_tau_pair")
    assert plmap.tau_pow is tau_pow
    assert tau_pow.cache_info().maxsize == TAU_POW_CACHE
    for k in range(-TAU_POW_CACHE, TAU_POW_CACHE):
        tau_pow(k)
    assert tau_pow.cache_info().currsize == TAU_POW_CACHE
