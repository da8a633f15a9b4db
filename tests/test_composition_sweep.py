"""The one-sweep table composition against the set-sort-bisect composition
it replaced.

The reference product collects self's breakpoints and the preimages of
other's, sorts them and evaluates both maps at each; the reference window
unrolls a periodic table onto [lo, hi] one integer shift at a time.  Both
are kept here only as oracles.  Every comparison is of whole tables
(breakpoints, images and slope exponents), of lifts as well as of circle
maps, so the integer part that a circle product drops is compared too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taut.circle import CircleMap, _unrolled
from taut.construct import _chart_restriction_fixed_arc, _embed_in_chart, random_element
from taut.errors import NotFtau
from taut.lift import LiftMap
from taut.plmap import PLMap, _piece_index, _restricted, concat, conjugate
from taut.ring import ONE, TAU, ZERO, ZTau, tau_pow


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
        for n in range((lo - x).ceil(), (hi - x).floor() + 1):
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


def unroll(pl: PLMap, a: ZTau) -> PLMap:
    return PLMap(*_unrolled(pl.xs, pl.ys, pl.ks, a))


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
    # the restriction the factor construction takes of an unrolled table
    a = bp + shift
    span = data.draw(st.sampled_from(pl.xs[1:]))
    unrolled = _unrolled(pl.xs, pl.ys, pl.ks, a)
    assert table(PLMap(*_restricted(*unrolled, a, a + span))) \
        == table(reference_window(pl, a, a + span))


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
    built = []
    init = PLMap.__init__

    def counting_init(self, xs, ys, ks):
        built.append(xs)
        init(self, xs, ys, ks)

    monkeypatch.setattr(PLMap, "__init__", counting_init)
    for (a, b), want in zip(pairs, expected):
        built.clear()
        assert a * b == want
        assert len(built) == 1, (a, b)
    for a, want in zip(inverses, expected_inverses):
        built.clear()
        assert a.inverse() == want
        assert len(built) == 1, a
    built.clear()
    chart = _chart_restriction_fixed_arc(bump, lo, hi, ONE - tau_pow(3))
    assert len(built) == 1
    assert chart.ks == f.ks
    for center in embedded:
        built.clear()
        assert _embed_in_chart(f, center) == embedded[center]
        assert len(built) == 1, center
