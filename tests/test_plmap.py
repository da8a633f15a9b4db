import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import zt
from taut.construct import match_intervals, random_element
from taut.errors import (
    DomainMismatch,
    NotInRing,
    NotIncreasing,
    NotTauPower,
    OutOfDomain,
    SchemaError,
    SlopeMismatch,
    ValidationError,
)
from taut.plmap import (
    PLMap,
    commutator,
    concat,
    is_ftau,
    is_ftau_compact,
    is_supported_in,
    power,
)
from taut.ring import ONE, QTau, TAU, ZERO, ZTau, is_tau_power, tau_pow

T2 = tau_pow(2)
T3 = tau_pow(3)
CONNECT = PLMap((ZERO, TAU, ONE), (ZERO, T2, ONE), (1, -1))


def test_validate_connect_map():
    g = PLMap([ZERO, TAU, ONE], [ZERO, T2, ONE], [1, -1])
    assert g.num_pieces == 2
    payload = {"xs": [{"a": "0"}, {"b": "1"}, {"a": "1"}],
               "ys": [{"a": "0"}, {"a": "1", "b": "-1"}, {"a": "1"}],
               "ks": [1, -1]}
    assert PLMap.from_json(payload) == g == CONNECT


def test_validate_identity_and_merge():
    g = PLMap((ZERO, TAU, ONE), (ZERO, TAU, ONE), (0, 0))
    assert g.is_identity()
    assert g.num_pieces == 1


def test_validate_rejects():
    with pytest.raises(SlopeMismatch):
        PLMap((ZERO, TAU, ONE), (ZERO, T2, ONE), (1, 1))
    with pytest.raises(NotIncreasing):
        PLMap((ONE, ZERO), (ZERO, ONE), (0,))
    with pytest.raises(NotTauPower):
        PLMap((zt(0), zt(1)), (zt(0), zt(2)), (0,))
    with pytest.raises(NotTauPower):
        PLMap.from_json({"xs": [{"a": "0"}, {"a": "1"}],
                         "ys": [{"a": "0"}, {"a": "2"}], "ks": [1]})


def test_eval():
    assert CONNECT.eval(TAU) == QTau(T2)
    assert CONNECT.eval(T2) == QTau(T3)       # slope-tau piece
    assert PLMap.identity().eval(QTau(zt(1), 3)) == QTau(zt(1), 3)
    with pytest.raises(OutOfDomain):
        CONNECT.eval(zt(2))


def test_eval_keeps_ring_points_in_ring():
    rng = random.Random(11)
    for _ in range(50):
        g = random_element(rng.randrange(2**63), 5, "F_tau")
        for _ in range(5):
            x = g.xs[rng.randrange(len(g.xs))]
            assert isinstance(g.eval(x), ZTau)
            assert g.eval(QTau(x)).is_ring_element()


def test_compose_brute_force_oracle():
    rng = random.Random(12)
    for trial in range(30):
        g = random_element(trial, 4, "F_tau")
        h = random_element(trial + 1000, 4, "F_tau")
        gh = g * h
        for _ in range(8):
            x = QTau(zt(rng.randrange(0, 100), 0), 100)
            assert gh.eval(x) == h.eval(g.eval(x))


def test_compose_example():
    g2 = CONNECT * CONNECT
    assert g2.num_pieces == 3
    assert g2.eval(TAU) == QTau(T3)
    assert (PLMap.identity() * CONNECT) == CONNECT
    with pytest.raises(DomainMismatch):
        CONNECT * PLMap.identity(ZERO, TAU)


def test_inverse():
    assert PLMap.identity().inverse().is_identity()
    inv = CONNECT.inverse()
    assert inv.xs == (ZERO, T2, ONE) and inv.ks == (-1, 1)
    for seed in range(100):
        g = random_element(seed, 4, "F_tau")
        assert (g * g.inverse()).is_identity()


def test_group_laws_structural():
    rng = random.Random(13)
    for _ in range(40):
        f = random_element(rng.randrange(2**63), 4, "F_tau")
        g = random_element(rng.randrange(2**63), 4, "F_tau")
        h = random_element(rng.randrange(2**63), 4, "F_tau")
        assert (f * g) * h == f * (g * h)
        assert f * PLMap.identity() == f
        assert power(f, 3) == f * f * f
        assert commutator(f, f).is_identity()


def test_support():
    assert PLMap.identity().support() == ()
    assert CONNECT.support() == ((ZERO, ONE),)
    g = concat([PLMap.identity(ZERO, T2), match_intervals(T2, ONE, T2, ONE)])
    assert is_supported_in(g, T2, ONE)


def test_support_empty_iff_identity():
    rng = random.Random(15)
    for _ in range(50):
        g = random_element(rng.randrange(2**63), 4, "F_tau")
        assert (g.support() == ()) == g.is_identity()


def test_flavors():
    assert is_ftau(CONNECT) and not is_ftau_compact(CONNECT)
    assert is_ftau(PLMap.identity()) and is_ftau_compact(PLMap.identity())
    inner = match_intervals(ZERO, ONE, T3, TAU)
    squeezed = concat([
        PLMap.identity(ZERO, T3),
        inner.inverse() * CONNECT * inner,
        PLMap.identity(TAU, ONE),
    ])
    assert is_ftau_compact(squeezed)
    assert is_supported_in(squeezed, T3, TAU)


def test_shift_roots_examples():
    assert PLMap.identity().shift_roots(ZERO) == (0, QTau(ZERO))
    # a flat piece's left end comes before a zero at an earlier breakpoint
    inner = match_intervals(ZERO, ONE, ZERO, TAU)
    moved_then_flat = concat([inner.inverse() * CONNECT * inner,
                              PLMap.identity(TAU, ONE)])
    assert moved_then_flat.shift_roots(ZERO) == (0, QTau(TAU))
    assert CONNECT.shift_roots(ZERO) == (0, QTau(ZERO))
    assert CONNECT.shift_roots(ONE) == (-1, None)
    assert CONNECT.shift_roots(zt(-1)) == (1, None)


def test_shift_roots_interior_root_is_exact():
    # push map minus a small shift crosses zero away from breakpoints
    push = PLMap((ZERO, T2, ONE), (ZERO, TAU, ONE), (-1, 1))
    # (a shift of tau**3 would meet the breakpoint tau**2 exactly)
    sign, x = push.shift_roots(tau_pow(4))
    assert sign == 0 and x == QTau(T3)
    assert push.eval(x) == x + QTau(tau_pow(4))


def test_shift_roots_sampling_never_contradicts():
    rng = random.Random(14)
    for trial in range(25):
        g = random_element(trial, 5, "F_tau")
        s = zt(0, 1) * tau_pow(rng.randrange(1, 5)) - tau_pow(5)
        sign, root = g.shift_roots(s)
        samples = [QTau(zt(i), 1000) for i in range(0, 1001, 97)]
        ds = [g.eval(x) - x - QTau(s) for x in samples]
        if root is None:
            assert sign != 0 and all(d.sign() == sign for d in ds)
        else:
            assert sign == 0 and g.eval(root) == root + QTau(s)


def test_restrict_and_concat():
    left = CONNECT.restrict(ZERO, TAU)
    right = CONNECT.restrict(TAU, ONE)
    assert concat([left, right]) == CONNECT


# -- the integer slope check against the ZTau-object check it replaced ----

def reference_table(xs, ys, ks) -> tuple:
    """PLMap.__init__ as it was, with dx, dy and tau**k * dx as ring
    elements and both signs taken up front; kept here only as an oracle.
    Returns the normalized table."""
    xs, ys, ks = tuple(xs), tuple(ys), tuple(ks)
    if len(xs) < 2 or len(xs) != len(ys) or len(ks) != len(xs) - 1:
        raise SchemaError("breakpoint table has inconsistent lengths")
    for v in xs + ys:
        if not isinstance(v, ZTau):
            raise NotInRing(f"breakpoint {v!r} is not in Z[tau]")
    for i in range(len(ks)):
        dx = xs[i + 1] - xs[i]
        dy = ys[i + 1] - ys[i]
        if dx.sign() <= 0 or dy.sign() <= 0:
            raise NotIncreasing(f"table is not strictly increasing at piece {i}")
        if dy != tau_pow(ks[i]) * dx:
            if is_tau_power(QTau(dy) / QTau(dx)) is None:
                raise NotTauPower(f"slope of piece {i} is no power of tau")
            raise SlopeMismatch(f"piece {i} does not have slope tau**{ks[i]}")
    keep = [0] + [i for i in range(1, len(xs) - 1) if ks[i - 1] != ks[i]] \
        + [len(xs) - 1]
    return (tuple(xs[i] for i in keep), tuple(ys[i] for i in keep),
            tuple(ks[i] for i in keep[:-1]))


def outcome(build, xs, ys, ks):
    """The table built, or the class and message of the rejection."""
    try:
        out = build(xs, ys, ks)
    except ValidationError as exc:
        return type(exc), str(exc)
    return out if isinstance(out, tuple) else (out.xs, out.ys, out.ks)


def mutate(table: PLMap, kind: str, i: int, delta: int):
    xs, ys, ks = list(table.xs), list(table.ys), list(table.ks)
    pts = xs if i % 2 else ys
    j = i % len(pts)
    z = pts[j]
    if kind == "coefficient a":
        pts[j] = ZTau(z.a + delta, z.b)
    elif kind == "coefficient b":
        pts[j] = ZTau(z.a, z.b + delta)
    elif kind == "exponent":
        ks[i % len(ks)] += delta
    elif kind == "swap":
        j = i % (len(pts) - 1)
        pts[j], pts[j + 1] = pts[j + 1], pts[j]
    elif kind == "zero rise":  # with an exponent too large to power out
        j = i % len(ks)
        ys[j + 1] = ys[j]
        ks[j] = delta * 10**9
    else:  # a zero-length piece: a breakpoint and its image repeated
        j = i % len(ks)
        xs.insert(j, xs[j])
        ys.insert(j, ys[j])
        ks.insert(j, ks[j] + delta)
    return xs, ys, ks


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=6),
       st.sampled_from(["lift", "inverse", "square"]),
       st.sampled_from(["coefficient a", "coefficient b", "exponent", "swap",
                        "zero rise", "zero-length piece"]),
       st.integers(min_value=0, max_value=50), st.sampled_from([-1, 1]))
def test_integer_slope_check_matches_the_ring_check(seed, size, which, kind, i, delta):
    f = random_element(seed, size, "Lift")
    g = {"lift": f, "inverse": f.inverse(), "square": f * f}[which]
    xs, ys, ks = mutate(g.table, kind, i, delta)
    assert outcome(PLMap, xs, ys, ks) == outcome(reference_table, xs, ys, ks)
    t = g.table
    assert outcome(PLMap, t.xs, t.ys, t.ks) == outcome(reference_table, t.xs, t.ys, t.ks)
