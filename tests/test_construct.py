import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import chain, islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import zt
from taut.circle import CircleMap
from taut.cli import main
from taut.construct import (
    CommutatorCertificate,
    FactorCertificate,
    TransitivityCertificate,
    SplitMix64,
    _moved_point,
    _piece_points,
    arc_contains,
    arcs_disjoint,
    circle_points,
    commutator_trick,
    connect_tuple,
    connect_tuple_derived,
    defect_witness,
    defect_witness_search,
    factor_local,
    first_power_below,
    match_intervals,
    points_between,
    preference_points,
    random_element,
)
from taut.errors import (BadTuple, CertificateError, IdentityInput, NoRoomInTarget,
                         SearchBudgetExceeded)
from taut.expr import check_payload, evaluate_str, serialize
from taut.lift import LiftMap, rot
from taut.plmap import (PLMap, commutator, concat, conjugate, is_ftau, is_ftau_compact,
                        power)
from taut.ring import ONE, QTau, TAU, ZERO, ZTau, is_tau_power, tau_pow

T2 = tau_pow(2)
T3 = tau_pow(3)


def seeded_points(seed, count, depth=8):
    """Sample increasing tuples out of the depth-limited preference points."""
    pool = sorted(set(islice(preference_points(), 2**depth - 1)))
    rng = random.Random(seed)
    idx = sorted(rng.sample(range(len(pool)), count))
    return tuple(pool[i] for i in idx)


def test_match_intervals_linear_cases():
    m = match_intervals(ZERO, TAU, ZERO, T2)
    assert m == PLMap((ZERO, TAU), (ZERO, T2), (1,))
    m2 = match_intervals(TAU, ONE, T2, ONE)
    assert m2 == PLMap((TAU, ONE), (T2, ONE), (-1,))


def test_match_intervals_two_scale_case():
    m = match_intervals(ZERO, ONE, ZERO, zt(2) * T2)
    assert m.xs == (ZERO, TAU, ONE)
    assert m.ks == (1, 0)
    assert m.eval(ONE) == QTau(zt(2) * T2)


def test_match_intervals_composes():
    rng = random.Random(41)
    pool = sorted(set(islice(preference_points(), 2**6 - 1)))
    for _ in range(25):
        a, b = sorted(rng.sample(range(len(pool)), 2))
        c, d = sorted(rng.sample(range(len(pool)), 2))
        e, f = sorted(rng.sample(range(len(pool)), 2))
        ab = match_intervals(pool[a], pool[b], pool[c], pool[d])
        bc = match_intervals(pool[c], pool[d], pool[e], pool[f])
        comp = ab * bc
        assert comp.xs[0] == pool[a] and comp.ys[-1] == pool[f]


# -- the two-scale construction, kept as the reference ------------------------

def _two_scale_counts(ell: ZTau) -> tuple[int, int, int]:
    """(k, c, d) with ell = c*tau**k + d*tau**(k+1) and c, d >= 0.

    tau**k = tau**(k+1) + tau**(k+2) steps the coefficient pair through
    the Fibonacci map, whose expanding direction carries the positive
    value, so both coefficients turn non-negative after finitely many
    steps.
    """
    ca, cb = ell.a, ell.b
    k = 0
    while ca < 0 or cb < 0:
        ca, cb = ca + cb, ca
        k += 1
    return k, ca, cb


def _split_largest(exps: list[int]) -> None:
    i = exps.index(min(exps))
    m = exps[i]
    exps[i:i + 1] = [m + 1, m + 2]


def two_scale_match(a, b, c, d) -> PLMap:
    """The former match_intervals: both gaps cut into c + d pieces of two
    adjacent tau-power lengths, the counts equalized by splitting the
    largest piece, and the pieces matched one to one."""
    k = is_tau_power(QTau(d - c) / QTau(b - a))
    if k is not None:
        return PLMap((a, b), (c, d), (k,))
    exps = []
    for ell in (b - a, d - c):
        k, ca, cb = _two_scale_counts(ell)
        exps.append([k] * ca + [k + 1] * cb)
    src, tgt = exps
    while len(src) < len(tgt):
        _split_largest(src)
    while len(tgt) < len(src):
        _split_largest(tgt)
    xs, ys = [a], [c]
    for e in src:
        xs.append(xs[-1] + tau_pow(e))
    for e in tgt:
        ys.append(ys[-1] + tau_pow(e))
    xs[-1], ys[-1] = b, d
    return PLMap(xs, ys, [t - s for s, t in zip(src, tgt)])


REFERENCE_PIECES = 400  # the reference is built only up to this many pieces


def _ring(bound):
    return st.builds(ZTau, st.integers(-bound, bound), st.integers(-bound, bound))


@st.composite
def ring_interval(draw):
    """An interval of Z[tau] with small or 1,000-digit coefficients, its
    length sometimes scaled by a power of tau."""
    bound = draw(st.sampled_from([10, 10**6, 10**1000]))
    lo, length = draw(_ring(bound)), draw(_ring(bound))
    assume(length.sign() != 0)
    length = abs(length) * tau_pow(draw(st.sampled_from([0, 0, 7, -7, 300, -300])))
    return lo, lo + length


def _check_match(a, b, c, d) -> PLMap:
    m = match_intervals(a, b, c, d)
    ls, lt = b - a, d - c
    assert m.num_pieces <= 2
    assert (m.xs[0], m.xs[-1], m.ys[0], m.ys[-1]) == (a, b, c, d)
    assert m.eval(a) == QTau(c) and m.eval(b) == QTau(d)
    j = m.ks[-1]
    if m.num_pieces == 1:
        assert lt == tau_pow(j) * ls
    else:
        assert m.ks == (j + 1, j)
        assert tau_pow(j + 1) * ls < lt < tau_pow(j) * ls
    return m


@settings(max_examples=150, deadline=None)
@given(ring_interval(), ring_interval())
def test_match_intervals_has_at_most_two_pieces(src, tgt):
    m = _check_match(*src, *tgt)
    counts = [sum(_two_scale_counts(b - a)[1:]) for a, b in (src, tgt)]
    if max(counts) <= REFERENCE_PIECES:
        ref = two_scale_match(*src, *tgt)
        assert m.num_pieces <= ref.num_pieces
        assert ref.domain() == m.domain() and ref.ys[-1] == m.ys[-1]


def test_match_intervals_agrees_with_the_reference_on_preference_points():
    pool = sorted(set(islice(preference_points(), 2**5 - 1)))
    gaps = [(x, y) for i, x in enumerate(pool) for y in pool[i + 1:]]
    rng = random.Random(19)
    for _ in range(300):
        src, tgt = rng.choice(gaps), rng.choice(gaps)
        m = _check_match(*src, *tgt)
        assert m.num_pieces <= two_scale_match(*src, *tgt).num_pieces


def test_match_intervals_of_far_apart_scales_is_immediate():
    # 2*tau**18000 has 3,760-digit coefficients: the two-scale cut would
    # need about 10**3760 pieces, the stepping 18,000 exact comparisons
    x = 2 * tau_pow(18000)
    for args in ((ZERO, x, ZERO, TAU), (ZERO, TAU, ZERO, x), (x, ONE, TAU, ONE)):
        m = _check_match(*args)
        assert m.num_pieces == 2
    assert match_intervals(ZERO, x, ZERO, TAU).ks == (-17997, -17998)


def test_first_power_below_far_points():
    assert first_power_below(ONE) == 1 and first_power_below(TAU) == 2
    assert first_power_below(T2 + tau_pow(5)) == 2
    # below tau**4096, where the former walk gave up
    assert first_power_below(2 * tau_pow(18000)) == 17999
    with pytest.raises(NoRoomInTarget):
        first_power_below(ZERO)


def test_match_intervals_rejects_empty_intervals():
    for args in ((ONE, ZERO, ZERO, ONE), (ZERO, ONE, TAU, TAU)):
        with pytest.raises(BadTuple):
            match_intervals(*args)


def test_connect_tuple_examples():
    cert = connect_tuple((TAU,), (T2,))
    assert cert.element == PLMap((ZERO, TAU, ONE), (ZERO, T2, ONE), (1, -1))
    cert2 = connect_tuple((TAU,), (TAU,))
    assert cert2.element.is_identity()
    cert3 = connect_tuple((T2, TAU), (T3, T2))
    cert3.verify()
    assert cert3.element.eval(T2) == T3


def test_connect_tuple_seeded():
    for seed in range(60):
        n = 1 + seed % 4
        xs = seeded_points(seed, n)
        ys = seeded_points(seed + 9999, n)
        cert = connect_tuple(xs, ys)
        cert.verify()
        for x, y in zip(xs, ys):
            assert cert.element.eval(x) == y


def test_connect_tuple_bad_input():
    with pytest.raises(BadTuple):
        connect_tuple((TAU, T2), (T2,))
    with pytest.raises(BadTuple):
        connect_tuple((TAU, T2), (T2, TAU))     # not increasing
    with pytest.raises(BadTuple):
        connect_tuple((ZERO,), (TAU,))          # not inside (0, 1)


def test_connect_tuple_derived():
    cert = connect_tuple_derived((T2,), (T3,))
    cert.verify()
    assert cert.expr == "comm(l, f)"
    assert is_ftau_compact(cert.element)
    assert cert.element.eval(T2) == T3
    same = connect_tuple_derived((TAU,), (TAU,))
    assert same.element.is_identity()


def test_connect_tuple_derived_seeded():
    for seed in range(20):
        n = 1 + seed % 3
        xs = seeded_points(seed, n)
        ys = seeded_points(seed + 4242, n)
        cert = connect_tuple_derived(xs, ys)
        cert.verify()
        assert is_ftau_compact(cert.element)


def test_arc_helpers():
    assert arc_contains(T2, TAU, T2 + tau_pow(4))      # wrap-free
    assert arc_contains(TAU, T2, ZERO)                 # wraps through 0
    assert not arc_contains(TAU, T2, T2 + tau_pow(4))  # midpoint not in wrap arc
    assert arcs_disjoint((T3, T2), (TAU, TAU + T3))


def test_factor_local_rotation():
    cert = factor_local(CircleMap.rotation(TAU))
    cert.verify()
    assert cert.u * cert.v == CircleMap.rotation(TAU)
    assert cert.u.fixes_neighborhood_of(cert.x)
    for p in cert.pieces.values():
        assert p.fixes_neighborhood_of(cert.y)


def test_a_factor_certificate_has_exactly_its_three_pieces():
    payload = json.loads(serialize(factor_local(CircleMap.rotation(TAU))))
    pieces = payload["pieces"]
    identity = CircleMap.identity().to_json()
    for bad in ({**pieces, "z": identity},
                {k: v for k, v in pieces.items() if k != "h1"}):
        with pytest.raises(CertificateError, match="pieces must be f, h1 and h2"):
            check_payload(json.dumps(dict(payload, pieces=bad)), {})
    payload = json.loads(serialize(connect_tuple_derived((TAU,), (T2,))))
    payload["pieces"]["z"] = PLMap.identity().to_json()
    with pytest.raises(CertificateError, match="pieces must be l and f"):
        check_payload(json.dumps(payload), {})


def _moving_no_circle_point() -> CircleMap:
    """random_element(7, 4, "F_tau") conjugated into (tau**30, tau**29) and
    padded with identities: it moves none of the 4,096 circle points."""
    a, b = tau_pow(30), tau_pow(29)
    inner = conjugate(random_element(7, 4, "F_tau"), match_intervals(ZERO, ONE, a, b))
    return CircleMap.from_interval_map(
        concat([PLMap.identity(ZERO, a), inner, PLMap.identity(b, ONE)]))


def test_a_moved_point_is_read_off_the_table(tmp_path):
    g = _moving_no_circle_point()
    assert all(g.eval(c) == c for c in circle_points())
    cert = factor_local(g)
    a, b = tau_pow(30), tau_pow(29)
    assert (cert.x - a).sign() > 0 and (b - cert.x).sign() > 0
    path = tmp_path / "factor.json"
    path.write_text(serialize(cert))
    check_file(path)
    comm = commutator_trick(g, TAU)
    assert comm.result.fixes_neighborhood_of(TAU)
    path = tmp_path / "comm.json"
    path.write_text(serialize(comm))
    check_file(path)


def _factor_search(g):
    """factor_local's moved-point search as it was."""
    x = next((c for c in chain(circle_points(), _piece_points(g)) if g.eval(c) != c),
             None)
    if x is None:
        raise SearchBudgetExceeded("no moved ring point found")
    return x


def _commutator_search(g, x):
    """commutator_trick's moved-point search as it was."""
    w = None
    for cand in chain(circle_points(), _piece_points(g)):
        img = g.eval(cand)
        if img != cand and cand != x and img != x:
            w = cand
            break
    if w is None:
        raise SearchBudgetExceeded("no usable moved point found")
    return w


def _point_or_message(search, *args):
    try:
        return search(*args)
    except SearchBudgetExceeded as exc:
        return str(exc)


def test_moved_point_matches_the_two_searches_it_replaced():
    maps = [random_element(k, s, "T_tau") for k in range(12) for s in (1, 2, 3)]
    maps += [CircleMap.rotation(a) for a in (ZERO, TAU, tau_pow(2), tau_pow(9), 1 - TAU)]
    maps.append(_moving_no_circle_point())
    moved = 0
    for g in maps:
        first = _point_or_message(_factor_search, g)
        assert _point_or_message(_moved_point, g, None, "no moved ring point found") == first
        # avoid on the orbit: the first moved point and its image; and off
        # it: a point g fixes, or one g may or may not move
        avoids = [TAU, ZERO, tau_pow(5)]
        if isinstance(first, ZTau):
            moved += 1
            avoids += [first, g.eval(first)]
            avoids += [c for c in islice(circle_points(), 64) if g.eval(c) == c][:1]
        for avoid in avoids:
            assert (_point_or_message(_moved_point, g, avoid, "no usable moved point found")
                    == _point_or_message(_commutator_search, g, avoid))
    assert 0 < moved < len(maps)


def test_factor_local_torsion():
    tree = [2, 3, 2]   # the leaf exponents of ["s+", ["s+", "leaf", "leaf"], "leaf"]
    tor = CircleMap.from_tree_pair(tree, tree, 1)
    cert = factor_local(tor)
    cert.verify()


def test_factor_local_seeded():
    count = 0
    seed = 0
    while count < 8:
        g = random_element(seed, 4, "T_tau")
        seed += 1
        if g.is_identity():
            continue
        cert = factor_local(g)
        cert.verify()
        count += 1


def test_factor_local_identity_input():
    with pytest.raises(IdentityInput):
        factor_local(CircleMap.identity())


def test_commutator_trick():
    cert = commutator_trick(CircleMap.rotation(TAU), ZERO)
    cert.verify()
    assert not cert.result.is_identity()
    assert cert.result.fixes_neighborhood_of(ZERO)
    with pytest.raises(IdentityInput):
        commutator_trick(CircleMap.identity(), ZERO)


def test_commutator_trick_seeded():
    count = 0
    seed = 100
    while count < 50:
        g = random_element(seed, 4, "T_tau")
        seed += 1
        if g.is_identity():
            continue
        cert = commutator_trick(g, T2, seed=seed)
        cert.verify()     # includes re-evaluating the two-conjugates word
        count += 1


def test_a_commutator_arc_holds_the_support_of_h():
    # a one-point arc off x and off its image passes the displacement test,
    # but says h fixes the whole circle
    cert = json.loads(serialize(commutator_trick(CircleMap.rotation(TAU), T2)))
    cert["arc"] = ["5+0*t", "5+0*t"]
    with pytest.raises(CertificateError, match="h moves points outside its arc"):
        check_payload(json.dumps(cert), {})
    # every arc commutator_trick writes holds supp(h), and either end of it
    # alone does not
    for cert in _seeded_certificates(_commutator):
        cert.verify()
        for end in cert.arc:
            point = CommutatorCertificate(cert.result, cert.g, cert.h, cert.x, (end, end))
            with pytest.raises(CertificateError, match="h moves points outside"):
                point.verify()


def test_defect_witness_family():
    w1 = defect_witness(1)
    assert w1.delta.sign() > 0 and (QTau(ONE) - w1.delta).sign() >= 0
    assert rot(w1.g).value == Fraction(0)
    assert rot(w1.h).value == Fraction(0)
    deltas = [defect_witness(n).delta for n in range(1, 6)]
    for a, b in zip(deltas, deltas[1:]):
        assert (b - a).sign() >= 0      # nondecreasing along the family
    w8 = defect_witness(8)
    assert (w8.delta - QTau(zt(9), 10)).sign() >= 0
    w8.verify()


def test_defect_witness_search():
    w = defect_witness_search(10, seed=5, size=3, max_den=64)
    assert w.delta.sign() >= 0
    assert (QTau(ONE) - w.delta).sign() >= 0
    w.verify(max_den=64)
    again = defect_witness_search(10, seed=5, size=3, max_den=64)
    assert again.delta == w.delta and again.g == w.g


def test_random_element_determinism_and_validity():
    a = random_element(123, 5, "T_tau")
    b = random_element(123, 5, "T_tau")
    assert a == b
    assert random_element(124, 5, "T_tau") != a
    f = random_element(9, 4, "F_tau")
    assert is_ftau(f)
    lf = random_element(10, 4, "Lift")
    assert isinstance(lf, LiftMap)
    for seed in range(200):
        g = random_element(seed, 1 + seed % 6, "T_tau")
        CircleMap.from_json(g.to_json())


# the generator as it was when a tree was one record per node, kept as the
# oracle of the exponent-list generator: a leaf is None, a split node
# (left, right, wide_first), drawn in the order split size, left subtree,
# right subtree, s+/s- bit


def _record_tree(rng: SplitMix64, leaves: int):
    if leaves == 1:
        return None
    left = 1 + rng.below(leaves - 1)
    return (_record_tree(rng, left), _record_tree(rng, leaves - left), rng.bit())


def _record_exponents(tree, e: int = 0) -> list[int]:
    if tree is None:
        return [e]
    left, right, wide_first = tree
    first, second = (1, 2) if wide_first else (2, 1)
    return _record_exponents(left, e + first) + _record_exponents(right, e + second)


def _record_partition(exponents: list[int]) -> list[ZTau]:
    out = [ZERO]
    for e in exponents:
        out.append(out[-1] + tau_pow(e))
    return out


def _record_random_element(seed: int, size: int, flavor: str):
    rng = SplitMix64(seed)
    pe = _record_exponents(_record_tree(rng, size))
    qe = _record_exponents(_record_tree(rng, size))
    pb, qb = _record_partition(pe), _record_partition(qe)
    if flavor == "F_tau":
        return PLMap(pb, qb, [te - se for se, te in zip(pe, qe)])
    shift = rng.below(size) if size > 1 else 0
    ys = qb[shift:size] + [y + 1 for y in qb[:shift + 1]]
    ks = [qk - pk for qk, pk in zip(qe[shift:] + qe[:shift], pe)]
    out = CircleMap(PLMap(pb, ys, ks))
    if flavor == "T_tau":
        return out
    return LiftMap(out.table).translate(rng.below(5) - 2)


def test_random_element_matches_the_record_generator():
    for seed in range(480):
        for size in range(1, 9):
            for flavor in ("F_tau", "T_tau", "Lift"):
                got = random_element(seed, size, flavor)
                want = _record_random_element(seed, size, flavor)
                assert type(got) is type(want) and got == want, (seed, size, flavor)
                if seed % 40 == 0:
                    assert serialize(got) == serialize(want)


def test_splitmix_reference_values():
    # first outputs for seed 0 of the standard splitmix64 stream
    rng = SplitMix64(0)
    assert rng.next64() == 0xE220A8397B1DCDAF
    assert rng.next64() == 0x6E789E6AA1B965F4


def test_points_between():
    lo, hi = T3, TAU
    pts = points_between(lo, hi, 3)
    prev = lo
    for p in pts:
        assert (p - prev).sign() > 0
        prev = p
    assert (hi - prev).sign() > 0


# -- work counts, and the products a construction hands its check ---------------

def counting_products(monkeypatch) -> Counter:
    """Count every product and inverse of interval, circle and lift maps."""
    made = Counter()
    for cls in (PLMap, CircleMap, LiftMap):
        mul, inverse = cls.__mul__, cls.inverse

        def counted_mul(a, b, mul=mul):
            made["products"] += 1
            return mul(a, b)

        def counted_inverse(a, inverse=inverse):
            made["inverses"] += 1
            return inverse(a)

        monkeypatch.setattr(cls, "__mul__", counted_mul)
        monkeypatch.setattr(cls, "inverse", counted_inverse)
    return made


def check_file(path) -> None:
    with redirect_stdout(io.StringIO()):
        assert main(["check", str(path)]) == 0


@pytest.mark.parametrize("seed", [3, 5])
def test_each_distinct_product_is_made_once_per_call(seed, tmp_path, monkeypatch):
    g = random_element(seed, 4, "T_tau")
    made = counting_products(monkeypatch)
    cert = factor_local(g)
    # the derived connect: comm(l, f) for the answer and its check alike;
    # then g*f^-1, comm(h2, h1), u and v
    assert made == Counter(products=9, inverses=6)
    path = tmp_path / "factor.json"
    path.write_text(serialize(cert), encoding="utf-8")
    # a check of the stored certificate makes every product itself, each
    # time: g*f^-1, comm(h2, h1), u and v
    for _ in range(2):
        made.clear()
        check_file(path)
        assert made == Counter(products=6, inverses=4)
    made.clear()
    connect_tuple_derived((T3, T2), (T2, TAU))
    assert made == Counter(products=3, inverses=2)


def test_the_commutator_trick_hands_its_check_the_commutator_it_made(tmp_path, monkeypatch):
    made = counting_products(monkeypatch)
    # conj(h0, t), then [g, h] for the answer and its check alike; a check
    # of the stored certificate makes [g, h] itself
    for elem, x in ((CircleMap.rotation(TAU), ZERO), (random_element(3, 4, "T_tau"), T2)):
        made.clear()
        cert = commutator_trick(elem, x)
        assert made == Counter(products=5, inverses=3)
        path = tmp_path / "commutator.json"
        path.write_text(serialize(cert), encoding="utf-8")
        made.clear()
        check_file(path)
        assert made == Counter(products=3, inverses=2)


def test_an_inverse_in_an_expression_is_one_inverse_and_no_product(monkeypatch):
    g = random_element(3, 4, "T_tau")
    g_inverse = g.inverse()
    made = counting_products(monkeypatch)
    assert evaluate_str("X^-1", {"X": g}) == g_inverse
    assert made == Counter(inverses=1)


def test_commutator_and_conjugate_keep_the_order_of_operands():
    # [a, b] = a^-1 b^-1 a b and a conjugated by b is b^-1 a b
    a = random_element(3, 4, "T_tau")
    b = random_element(11, 5, "T_tau")
    assert a * b != b * a
    assert commutator(a, b) == a.inverse() * b.inverse() * a * b != commutator(b, a)
    assert conjugate(a, b) == b.inverse() * a * b != conjugate(b, a)


def test_an_altered_factor_expression_still_fails(tmp_path):
    cert = factor_local(random_element(5, 4, "T_tau"))
    g, f = cert.g, cert.pieces["f"]
    c = commutator(cert.pieces["h2"], cert.pieces["h1"])
    # with seed 5 comm(h2, h1) is no identity, and it does not commute with f
    for field, text, value in (("u", "g * f^-1", g * f.inverse()),
                               ("u", "g * f * comm(h2, h1)^-1", g * f * c.inverse()),
                               ("v", "f * comm(h2, h1)", f * c),
                               ("v", "comm(h2, h1) * f^-1", c * f.inverse())):
        bad = FactorCertificate(cert.g, cert.x, cert.y, cert.arc,
                                **{"u": cert.u, "v": cert.v, field: value},
                                pieces=cert.pieces)
        # made from the stored parts, and passed in as the true u, v and
        # comm(h2, h1), as the construction passes them
        for made in (None, (cert.u, cert.v, c)):
            with pytest.raises(CertificateError, match=f"{field} differs from"):
                bad.verify(made)
        # stated as the claim, the altered formula is refused on reading
        payload = json.loads(serialize(cert))
        payload[f"{field}_expr"] = text
        path = tmp_path / "claim.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(["check", str(path)]) == 1
        path = tmp_path / "bad.json"
        path.write_text(serialize(bad), encoding="utf-8")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(["check", str(path)]) == 1


def test_an_altered_element_or_result_still_fails_with_the_true_product(tmp_path):
    # a compact connect certificate whose element is moved inside (tau**30,
    # tau**29), below every point it carries: it still maps its sources to
    # its targets and is compact, so only comm(l, f) tells it apart
    cert = connect_tuple_derived((T3, T2), (T2, TAU))
    l, f = cert.pieces["l"], cert.pieces["f"]
    element = cert.element * _moving_no_circle_point().table
    bad_connect = TransitivityCertificate(element, cert.sources, cert.targets, compact=True,
                                          pieces=cert.pieces)
    # a commutator certificate whose result is moved by g
    comm = commutator_trick(random_element(3, 4, "T_tau"), T2)
    bad_comm = CommutatorCertificate(result=comm.result * comm.g, g=comm.g, h=comm.h,
                                     x=comm.x, arc=comm.arc)
    for bad, true, text in ((bad_connect, commutator(l, f), "element differs from comm"),
                            (bad_comm, commutator(comm.g, comm.h), "result differs from")):
        for made in (None, true):
            with pytest.raises(CertificateError, match=text):
                bad.verify(made)
        path = tmp_path / "bad.json"
        path.write_text(serialize(bad), encoding="utf-8")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(["check", str(path)]) == 1


# -- the direct products against the stated claims, evaluated as text -----------

def _seeded_certificates(make, count=40):
    """count certificates of make(seed) over seeds 0, 1, ...; a seed whose
    element is the identity is passed over."""
    out = []
    seed = 0
    while len(out) < count:
        try:
            out.append(make(seed))
        except IdentityInput:
            pass
        seed += 1
    return out


def _derived(seed):
    n = 1 + seed % 3
    return connect_tuple_derived(seeded_points(seed, n), seeded_points(seed + 4242, n))


def _factored(seed):
    return factor_local(random_element(seed, 2 + seed % 5, "T_tau"))


def _commutator(seed):
    x = next(islice(circle_points(), seed % 7, None))
    return commutator_trick(random_element(seed, 2 + seed % 4, "T_tau"), x, seed=seed)


def test_direct_products_equal_the_claims_evaluated_as_text():
    # the oracle: each claim as its stored text was once evaluated, through
    # the expression language, over the certificate's own fields
    for cert in _seeded_certificates(_derived):
        payload = json.loads(serialize(cert))
        assert payload["expr"] == "comm(l, f)" and cert.pieces.keys() == {"l", "f"}
        assert cert.element == evaluate_str(payload["expr"], cert.pieces)
    for cert in _seeded_certificates(_factored):
        payload = json.loads(serialize(cert))
        env = {"g": cert.g, **cert.pieces}
        assert payload["u_expr"] == "g * f^-1 * comm(h2, h1)^-1"
        assert payload["v_expr"] == "comm(h2, h1) * f"
        assert cert.u == evaluate_str(payload["u_expr"], env)
        assert cert.v == evaluate_str(payload["v_expr"], env)
    for cert in _seeded_certificates(_commutator):
        payload = json.loads(serialize(cert))
        assert payload["expr"] == "g^-1 * conj(g, h)"
        assert cert.result == evaluate_str(payload["expr"], {"g": cert.g, "h": cert.h})
