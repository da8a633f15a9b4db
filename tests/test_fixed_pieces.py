"""The one fixed-piece scan against the two merging scans it replaced.

`PLMap.support`, `is_supported_in`, `is_ftau_compact` and
`CircleMap.fixes_neighborhood_of` read single pieces of a table, which
is sound only because no table has two neighbouring pieces of equal
slope exponent: the first tests check that of every constructor.  The
references below are the support and fixed-segment scans as they were,
merging neighbouring fixed pieces, and the containment test of the
support's record; they are kept here only as oracles.  Random elements rarely fix a
piece, so the maps drawn here are mostly ones that do: identity-padded
concatenations, derived connect elements, chart embeddings, the pieces
of local factorizations, commutator-trick results, the identity and
rotations.
"""

from itertools import islice

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taut.circle import CircleMap
from taut.construct import (_embed_in_chart, commutator_trick, connect_tuple_derived,
                            factor_local, match_intervals, preference_points,
                            random_element)
from taut.lift import LiftMap
from taut.plmap import (PLMap, _table_json, concat, is_ftau, is_ftau_compact,
                        is_supported_in)
from taut.ring import ONE, TAU, ZERO, ZTau

# -- the scans as they were, kept as references --------------------------------


def reference_support(g: PLMap) -> tuple:
    fixed = []
    for i, k in enumerate(g.ks):
        if k == 0 and g.ys[i] == g.xs[i]:
            if fixed and fixed[-1][1] == g.xs[i]:
                fixed[-1] = (fixed[-1][0], g.xs[i + 1])
            else:
                fixed.append((g.xs[i], g.xs[i + 1]))
    out = []
    cur = g.xs[0]
    for lo, hi in fixed:
        if (lo - cur).sign() > 0:
            out.append((cur, lo))
        cur = hi
    if (g.xs[-1] - cur).sign() > 0:
        out.append((cur, g.xs[-1]))
    return tuple(out)


def reference_inside(intervals, lo: ZTau, hi: ZTau, strict: bool = False) -> bool:
    cmp = 1 if strict else 0
    return all((a - lo).sign() >= cmp and (hi - b).sign() >= cmp
               for a, b in intervals)


def reference_fixed_segments(c: CircleMap) -> list:
    tb = c.table
    segs = []
    for i, k in enumerate(tb.ks):
        if k != 0:
            continue
        d = tb.ys[i] - tb.xs[i]
        if d.b == 0 and d.a in (0, 1):
            if segs and segs[-1][1] == tb.xs[i]:
                segs[-1] = (segs[-1][0], tb.xs[i + 1])
            else:
                segs.append((tb.xs[i], tb.xs[i + 1]))
    return segs


def reference_fixes_neighborhood_of(c: CircleMap, x: ZTau) -> bool:
    x = x - x.floor()
    segs = reference_fixed_segments(c)
    if len(segs) == 1 and segs[0] == (ZERO, ONE):
        return True
    for lo, hi in segs:
        if (x - lo).sign() > 0 and (hi - x).sign() > 0:
            return True
    if not x:
        left = any(hi == ONE and (ONE - lo).sign() > 0 for lo, hi in segs)
        right = any(lo == ZERO and hi.sign() > 0 for lo, hi in segs)
        return left and right
    return False


# -- maps with fixed pieces ------------------------------------------------------

POINTS = tuple(islice(preference_points(), 2**6 - 1))
PROBES = POINTS + (ZERO, ONE, ZTau(-2), ZTau(3))

seeds = st.integers(min_value=0, max_value=2**32)
sizes = st.integers(min_value=1, max_value=5)
cuts = st.lists(st.sampled_from(POINTS), min_size=2, max_size=6, unique=True).map(sorted)


def random_interval_maps():
    return st.builds(lambda s, n: random_element(s, n, "F_tau"), seeds, sizes)


@st.composite
def padded_maps(draw):
    """Identity pieces and conjugated random blocks, alternating: an
    identity block next to an identity inner map is a colinear seam."""
    pts = [ZERO, *draw(cuts), ONE]
    parts = []
    for i, (a, b) in enumerate(zip(pts, pts[1:])):
        if i % 2 == draw(st.integers(0, 1)):
            parts.append(PLMap.identity(a, b))
        else:
            m = match_intervals(a, b, ZERO, ONE)
            parts.append(m * draw(random_interval_maps()) * m.inverse())
    return concat(parts)


@st.composite
def derived_maps(draw):
    n = draw(st.integers(1, 2))
    xs = draw(st.lists(st.sampled_from(POINTS), min_size=n, max_size=n, unique=True))
    ys = draw(st.lists(st.sampled_from(POINTS), min_size=n, max_size=n, unique=True))
    return connect_tuple_derived(tuple(sorted(xs)), tuple(sorted(ys))).element


def ftau_maps():
    return st.one_of(st.just(PLMap.identity()), random_interval_maps(),
                     padded_maps(), derived_maps())


@st.composite
def interval_maps(draw):
    """F_tau maps, and their restrictions to subintervals."""
    g = draw(ftau_maps())
    if draw(st.booleans()):
        lo, hi = draw(cuts)[:2]
        g = g.restrict(lo, hi)
    return g


@st.composite
def factor_maps(draw):
    g = random_element(draw(seeds), draw(st.integers(2, 5)), "T_tau")
    assume(not g.is_identity())
    cert = factor_local(g)
    return draw(st.sampled_from([cert.u, cert.v, *cert.pieces.values()]))


@st.composite
def trick_maps(draw):
    g = random_element(draw(seeds), draw(st.integers(2, 5)), "T_tau")
    assume(not g.is_identity())
    cert = commutator_trick(g, draw(st.sampled_from(PROBES)))
    return draw(st.sampled_from([cert.result, cert.h]))


def circle_maps():
    rotations = st.builds(CircleMap.rotation, st.builds(ZTau, st.integers(-9, 9),
                                                         st.integers(-9, 9)))
    embedded = st.builds(_embed_in_chart, ftau_maps(), st.sampled_from(POINTS))
    return st.one_of(
        st.just(CircleMap.identity()), rotations,
        st.builds(lambda s, n: random_element(s, n, "T_tau"), seeds, sizes),
        ftau_maps().map(CircleMap.from_interval_map),
        embedded, embedded.map(CircleMap.inverse),
        factor_maps(), trick_maps())


# -- no table has two neighbouring pieces of equal exponent --------------------


def assert_normalized(g) -> None:
    ks = (g if isinstance(g, PLMap) else g.table).ks
    assert all(k != k1 for k, k1 in zip(ks, ks[1:])), ks


def split_table(t: PLMap) -> tuple[list, list, list]:
    """t's table with every piece cut in two: colinear neighbours."""
    xs, ys, ks = [t.xs[0]], [t.ys[0]], []
    for i, k in enumerate(t.ks):
        mid = t.xs[i] + TAU * (t.xs[i + 1] - t.xs[i])
        xs += [mid, t.xs[i + 1]]
        ys += [t.eval(mid), t.ys[i + 1]]
        ks += [k, k]
    return xs, ys, ks


def assert_rebuilt_normalized(cls, g, t: PLMap) -> None:
    """Tables written with colinear neighbours, read through from_raw and
    from_json with and without their exponents, come out as g."""
    xs, ys, ks = split_table(t)
    payload = _table_json(xs, ys, ks)
    inferred = {"xs": payload["xs"], "ys": payload["ys"]}
    for h in (cls.from_raw(xs, ys, ks), cls.from_raw(xs, ys),
              cls.from_json(payload), cls.from_json(inferred)):
        assert_normalized(h)
        assert h == g


@settings(max_examples=100, deadline=None)
@given(interval_maps(), ftau_maps(), ftau_maps())
def test_interval_tables_have_no_colinear_neighbours(g, f, h):
    assert_rebuilt_normalized(PLMap, g, g)
    lo, hi = g.domain()
    mid = lo + TAU * (hi - lo)
    for m in (g, g.inverse(), g.restrict(lo, mid), g.restrict(mid, hi),
              concat([g.restrict(lo, mid), g.restrict(mid, hi)]),
              concat([PLMap.identity(ZERO, TAU), PLMap.identity(TAU, ONE)]),
              f * h, f * f.inverse(), h.inverse() * f * h):
        assert_normalized(m)


@settings(max_examples=100, deadline=None)
@given(circle_maps(), circle_maps(), seeds, sizes)
def test_circle_and_lift_tables_have_no_colinear_neighbours(c, d, seed, size):
    assert_rebuilt_normalized(CircleMap, c, c.table)
    lc, ld = LiftMap(c.table), LiftMap(d.table)
    for m in (c, c.inverse(), c * d, d * c, c * c.inverse(),
              lc * ld, lc.inverse(), lc * ld.inverse()):
        assert_normalized(m)
    tree = random_element(seed, size, "T_tau")
    assert_normalized(tree)
    assert_normalized(random_element(seed, size, "F_tau"))
    # the left comb of size + 1 leaves, exponents size, size + 1, size, ..., 2
    caret = [size, *range(size + 1, 1, -1)]
    # equal trees give the identity, from size + 1 pieces of exponent 0
    assert CircleMap.from_tree_pair(caret, caret, 0).table == PLMap.identity()


# -- the differential test -------------------------------------------------------


def assert_support_queries_agree(g: PLMap) -> None:
    ref = reference_support(g)
    assert g.support() == ref
    ends = sorted({*g.domain(), *(p for s in ref for p in s), *POINTS[:15]})
    for i, lo in enumerate(ends):
        for hi in ends[i + 1:]:
            assert is_supported_in(g, lo, hi) == reference_inside(ref, lo, hi)
    assert is_ftau_compact(g) == (
        is_ftau(g) and reference_inside(ref, ZERO, ONE, strict=True))


@settings(max_examples=200, deadline=None)
@given(interval_maps())
def test_support_queries_agree_with_the_merging_scan(g):
    assert_support_queries_agree(g)


@settings(max_examples=200, deadline=None)
@given(circle_maps())
def test_fixed_neighbourhoods_agree_with_the_merging_scan(c):
    for x in PROBES + c.table.xs:
        assert c.fixes_neighborhood_of(x) == reference_fixes_neighborhood_of(c, x), x


def test_the_examples_reach_every_case():
    # a chart embedding that moves 0 down has fixed pieces one turn up;
    # an interval map as a circle map fixes a neighbourhood of 0 = 1
    f = connect_tuple_derived((TAU * TAU,), (TAU * TAU * TAU,)).element
    moved_down = _embed_in_chart(f, TAU)
    t = moved_down.table
    assert any(k == 0 and y - x == ONE for x, y, k in zip(t.xs, t.ys, t.ks))
    around_zero = CircleMap.from_interval_map(f)
    assert around_zero.fixes_neighborhood_of(ZERO)
    assert not CircleMap.rotation(TAU).fixes_neighborhood_of(ZERO)
    for c in (moved_down, around_zero, CircleMap.identity()):
        for x in PROBES + c.table.xs:
            assert c.fixes_neighborhood_of(x) == reference_fixes_neighborhood_of(c, x)
    assert_support_queries_agree(f)
