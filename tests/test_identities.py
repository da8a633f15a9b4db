"""The paper's identities for rot and scl on the lifted group, as properties.

rot is a homogeneous quasimorphism of defect at most 1 that is invariant
under conjugation, and scl = |rot|/2, so scl(f**2) = 2*scl(f).  Each
identity is checked on random lifts, conjugated ring rotations and
periodic elements times F_tau elements, whatever kinds of result the
rotation pipeline returns: every result is read as a closed interval of
Q(tau), a single point when it is exact, and two results agree when their
intervals meet.  That is equality of two exact values, containment of an
exact value in an enclosure, and overlap of two enclosures.  The checks
share no code with the route that decided each result.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from taut.circle import CircleMap
from taut.construct import random_element
from taut.lift import LiftMap, rot, scl
from taut.plmap import conjugate, power
from taut.ring import QTau, ZTau, _as_qtau

BUDGETS = {"max_den": 64, "max_iter": 256}

seeds = st.integers(min_value=0, max_value=2**32)


def interval(res) -> tuple[QTau, QTau]:
    """A rot or scl result as a closed interval of Q(tau)."""
    if res.kind == "enclosure":
        return _as_qtau(res.lo), _as_qtau(res.hi)
    v = _as_qtau(res.value)
    return v, v


def meet(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def scaled(k: int, a):
    return QTau(k) * a[0], QTau(k) * a[1]


def random_lifts(sizes=st.integers(min_value=1, max_value=6)):
    return st.builds(lambda s, n: random_element(s, n, "Lift"), seeds, sizes)


# a conjugator that is no translation, as in the benchmark's families
conjugators = random_lifts(st.just(3))


def conj_rotations():
    """A ring rotation lifted by n and conjugated by a random lift."""
    return st.builds(
        lambda a, b, n, h: conjugate(
            LiftMap(CircleMap.rotation(ZTau(a, b)).table).translate(n), h),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-3, max_value=3).filter(bool),
        st.integers(min_value=-2, max_value=2), conjugators)


def comb(leaves: int) -> list[int]:
    """The leaf exponents of the left comb ["s+", ["s+", ..., "leaf"], "leaf"]."""
    return [leaves - 1, *range(leaves, 1, -1)] if leaves > 1 else [0]


def periodic_times_ftau():
    """A periodic tree pair (rot s/L) times an F_tau element, lifted by n
    and conjugated by a random lift: the hyperbolic shape."""
    def make(leaves, s, g_seed, n, h):
        p = CircleMap.from_tree_pair(comb(leaves), comb(leaves), s)
        g = CircleMap.from_interval_map(random_element(g_seed, 3, "F_tau"))
        return conjugate(LiftMap((p * g).table).translate(n), h)

    leaves = st.integers(min_value=2, max_value=4)
    return leaves.flatmap(lambda L: st.builds(
        make, st.just(L), st.integers(min_value=1, max_value=L - 1), seeds,
        st.integers(min_value=-2, max_value=2), conjugators))


def elements():
    return st.one_of(random_lifts(), conj_rotations(), periodic_times_ftau())


def test_interval_agreement_by_kind():
    one, half = QTau(1), QTau(ZTau(1), 2)
    assert meet((half, half), (half, half))
    assert not meet((half, half), (one, one))
    assert meet((half, half), (QTau(0), one))
    assert not meet((one, one), (QTau(0), half))
    assert meet((QTau(0), half), (half, one))


@settings(max_examples=40, deadline=None)
@given(elements(), st.integers(min_value=2, max_value=3))
def test_rot_is_homogeneous(f, k):
    r = interval(rot(f, **BUDGETS))
    rk = interval(rot(power(f, k), **BUDGETS))
    assert meet(rk, scaled(k, r))


@settings(max_examples=40, deadline=None)
@given(elements(), conjugators)
def test_rot_is_a_conjugacy_invariant(f, h):
    assert meet(interval(rot(conjugate(f, h), **BUDGETS)),
                interval(rot(f, **BUDGETS)))


@settings(max_examples=40, deadline=None)
@given(elements(), elements())
def test_rot_has_defect_at_most_one(f, g):
    (flo, fhi), (glo, ghi), (lo, hi) = (interval(rot(x, **BUDGETS))
                                        for x in (f, g, f * g))
    # rot(fg) - rot(f) - rot(g) lies in [lo - fhi - ghi, hi - flo - glo]
    assert meet((lo - fhi - ghi, hi - flo - glo), (QTau(-1), QTau(1)))


@settings(max_examples=40, deadline=None)
@given(elements())
def test_scl_doubles_under_squaring(f):
    s1 = scl(f, **BUDGETS)
    s2 = scl(power(f, 2), **BUDGETS)
    assert meet(interval(s2), scaled(2, interval(s1)))
    # scl is |rot|/2 of the very result it was derived from
    assert s1.kind == "enclosure" or interval(s1)[0] == abs(
        interval(s1.rot)[0]) * QTau(ZTau(1), 2)


def test_identities_on_exact_values():
    """Exact kinds compare by equality: a periodic element has rational
    rot, and a translation by tau its exact value."""
    p = LiftMap(CircleMap.from_tree_pair(comb(3), comb(3), 1).table)
    t = LiftMap.translation(ZTau(0, 1))
    assert rot(power(p, 2)).value == 2 * rot(p).value == Fraction(2, 3)
    assert rot(power(t, 3)).value == ZTau(0, 3)
    assert scl(power(t, 2)).value == 2 * scl(t).value
