import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import defect_delta, zt
from taut import lift, plmap
from taut.circle import CircleMap
from taut.construct import random_element
from taut.errors import PowerBudgetExceeded
from taut.expr import evaluate_str
from taut.lift import (
    DEFAULT_MAX_ITER,
    LiftMap,
    RotEnclosure,
    RotRational,
    RotTranslation,
    exact_defect_delta,
    rot,
    rot_enclosure,
    scl,
    verify_rot,
)
from taut.plmap import PLMap, conjugate, power
from taut.ring import ONE, QTau, TAU, ZERO, ZTau, tau_pow

CARET3 = [2, 3, 2]   # the leaf exponents of ["s+", ["s+", "leaf", "leaf"], "leaf"]
TORSION = CircleMap.from_tree_pair(CARET3, CARET3, 1)
LC = LiftMap(TORSION.table)


def exact_value(res) -> QTau:
    if isinstance(res, RotTranslation):
        return QTau(res.value)
    assert isinstance(res, RotRational)
    return QTau(zt(res.p), res.q)


def test_lift_project_round_trip():
    assert LiftMap(TORSION.table).translate(2).base == TORSION
    t1 = LiftMap.translation(1)
    assert t1.base.is_identity() and t1.n == 1
    assert LiftMap.translation(TAU).eval(ZERO) == QTau(TAU)


def test_compose_tracks_integer_part():
    prod = LC * power(LC, 2)
    assert prod.is_translation() and prod.translation_amount() == ZTau(1)
    assert LiftMap.translation(TAU).inverse() == LiftMap.translation(-TAU)
    assert power(LiftMap.translation(TAU), 3) == LiftMap.translation(zt(0, 3))


def test_eval_commutes_with_unit_translation():
    rng = random.Random(31)
    for _ in range(20):
        f = random_element(rng.randrange(2**63), 4, "Lift")
        x = QTau(zt(rng.randrange(-50, 50)), 17)
        assert f.eval(x + 1) == f.eval(x) + 1


def test_rot_translation():
    assert rot(LiftMap.translation(TAU)) == RotTranslation(TAU)
    assert rot(LiftMap.translation(zt(2, -1))) == RotTranslation(zt(2, -1))
    assert rot(LiftMap.identity()) == RotTranslation(ZERO)


def test_rot_torsion():
    r = rot(LC)
    assert isinstance(r, RotRational) and r.value == Fraction(1, 3)
    assert verify_rot(LC, r)
    r4 = rot(LC.translate(1))
    assert r4.value == Fraction(4, 3)
    assert verify_rot(LC.translate(1), r4)
    r2 = rot(power(LC, 2).translate(-1))
    assert r2.value == Fraction(-1, 3)


def test_rot_certificates_are_honest():
    # independent re-check: the certified root really is a periodic point
    r = rot(LC)
    fq = power(LC, r.q)
    assert fq.eval(r.root) == r.root + r.p
    bogus = RotRational(Fraction(1, 2), QTau(ZERO))
    assert not verify_rot(LC, bogus)


def test_central_shift_exact_all_kinds():
    rng = random.Random(32)
    for _ in range(25):
        f = random_element(rng.randrange(2**63), 4, "Lift")
        r0 = rot(f, max_den=64)
        r1 = rot(f.translate(1), max_den=64)
        if isinstance(r0, RotEnclosure):
            assert isinstance(r1, RotEnclosure)
            assert (r1.lo, r1.hi) == (r0.lo + 1, r0.hi + 1)
        else:
            assert exact_value(r1) == exact_value(r0) + 1


def test_homogeneity_on_certified_elements():
    rng = random.Random(33)
    done = 0
    for _ in range(60):
        f = random_element(rng.randrange(2**63), 3, "Lift")
        r = rot(f, max_den=64)
        if not isinstance(r, RotRational):
            continue
        done += 1
        for k in range(2, 6):
            rk = rot(power(f, k), max_den=64)
            assert not isinstance(rk, RotEnclosure)
            assert exact_value(rk) == QTau(zt(k)) * exact_value(r)
        if done >= 8:
            break
    assert done >= 4


def test_conjugation_invariance():
    rng = random.Random(34)
    done = 0
    for _ in range(60):
        f = random_element(rng.randrange(2**63), 3, "Lift")
        h = random_element(rng.randrange(2**63), 3, "Lift")
        rf = rot(f, max_den=64)
        if not isinstance(rf, RotRational):
            continue
        rc = rot(conjugate(f, h), max_den=64)
        assert isinstance(rc, RotRational) and rc.value == rf.value
        done += 1
        if done >= 8:
            break
    assert done >= 4


def test_enclosure_soundness_and_width():
    rng = random.Random(35)
    for _ in range(10):
        f = random_element(rng.randrange(2**63), 3, "Lift")
        e = rot_enclosure(f, 64)
        assert e.width() == Fraction(1, e.iterations)
        e2 = rot_enclosure(f, 128)
        assert e.lo <= e2.lo and e2.hi <= e.hi
        r = rot(f, max_den=64)
        if isinstance(r, (RotRational, RotTranslation)):
            v = exact_value(r)
            assert (v - QTau(zt(e.lo.numerator), e.lo.denominator)).sign() >= 0
            assert (QTau(zt(e.hi.numerator), e.hi.denominator) - v).sign() >= 0


def reference_enclosure(f: LiftMap, iterations: int) -> RotEnclosure:
    """The enclosure rot_enclosure gave before it followed one orbit, kept
    here only as an oracle: the range of the displacement of the exact
    power table, divided by N and rounded out to denominator 2N."""
    table = power(f, iterations).table
    disps = [y - x for x, y in zip(table.xs, table.ys)]
    return RotEnclosure(Fraction((min(disps) * 2).floor(), 2 * iterations),
                        Fraction(-(-max(disps) * 2).floor(), 2 * iterations),
                        iterations)


def as_qtau(x: Fraction) -> QTau:
    return QTau(zt(x.numerator), x.denominator)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=1, max_value=700))
@example(283, 6, 0, 700)     # a table that grows with every power
@example(32, 3, -3, 513)
def test_enclosure_is_the_poincare_interval_of_one_orbit(seed, size, n, big_n):
    f = random_element(seed, size, "Lift").translate(n)
    e = rot_enclosure(f, big_n)
    # differential: N plain steps of the orbit of 0
    x = ZERO
    for _ in range(big_n):
        x = f.eval(x)
    p = x.floor()
    assert e == RotEnclosure(Fraction(p, big_n), Fraction(p + 1, big_n), big_n)
    # nested under N -> 2N
    e2 = rot_enclosure(f, 2 * big_n)
    assert e.lo <= e2.lo and e2.hi <= e.hi
    # overlaps the displacement-range enclosure of the power table
    old = reference_enclosure(f, big_n)
    assert e.lo <= old.hi and old.lo <= e.hi
    # contains every exact rot
    r = rot(f, max_den=64)
    if r.kind != "enclosure":
        v = exact_value(r)
        assert (v - as_qtau(e.lo)).sign() >= 0 and (as_qtau(e.hi) - v).sign() >= 0


def test_enclosure_keeps_its_iterations_at_a_tight_piece_cap(monkeypatch):
    f = random_element(7, 4, "Lift")
    assert f.num_pieces > 1
    want = rot_enclosure(f, 300)
    monkeypatch.setattr(plmap, "MAX_PIECES", 1)
    e = rot_enclosure(f, 300)
    assert e.iterations == 300
    assert e == want


# a lift whose table is no rotation, conjugating the rotations below
H = ('lift(treepair {"p": ["s+", ["s-", "leaf", "leaf"], "leaf"], '
     '"q": ["s+", "leaf", ["s+", "leaf", "leaf"]], "shift": 1}, 0)')


def test_rot_enclosures_match_the_squares_only_orbit(monkeypatch):
    """rot reaches F^N(0) through the tables its descent built; over the
    random-lift family, its enclosures must be the squares-only
    rot_enclosure's, also when a small piece bound stops the descent early
    or max_den stops it below pieces(F), where the enclosure resumes it."""
    enclosures = capped = below = 0
    bound = plmap.MAX_PIECES
    for k in range(80):
        f = random_element(k, 3 + k % 4, "Lift")
        pieces = f.num_pieces
        budgets = [(64, 64), (1000, 10000), (30, 777),
                   *((d, 777) for d in (1, 2, pieces - 1, pieces))]
        for max_den, max_iter in budgets:
            for cap in (bound, 2 * f.num_pieces + 1):
                with monkeypatch.context() as m:
                    m.setattr(plmap, "MAX_PIECES", cap)
                    r = rot(f, max_den=max_den, max_iter=max_iter)
                if r.kind == "enclosure":
                    assert r == rot_enclosure(f, max_iter) == lift._orbit_enclosure(
                        {1: f}, max_iter), (k, max_den, max_iter, cap)
                    enclosures += 1
                    capped += cap < bound
                    below += max_den < pieces
    assert enclosures >= 10 and capped >= 10 and below >= 10


# (max_den, max_iter): the defaults, both small, and max_den below pieces(F)
TABLE_BUDGETS = [(1000, 10 ** 4), (64, 64), (1, 777), (3, 256)]


def test_max_den_and_max_iter_bound_every_table(monkeypatch):
    """A mediant F**q has q <= max(max_den, pieces(F)), so at most that
    many times pieces(F) pieces, and a square is built only below
    max_iter // 2 pieces: through rot, rot_enclosure and verify_rot, no
    product outgrows the two together, so plmap.MAX_PIECES is a backstop."""
    sizes = []
    mul = lift._capped_mul

    def spy(a, b):
        out = mul(a, b)
        sizes.append(out.num_pieces)
        return out

    monkeypatch.setattr(lift, "_capped_mul", spy)
    lifts = [random_element(k, 3 + k % 5, "Lift") for k in range(30)]
    lifts += [conjugate(LiftMap.translation(tau_pow(k)), random_element(k, 5, "Lift"))
              for k in (1, 3, 8, 14)]
    products = 0
    for f in lifts:
        pieces = f.num_pieces
        for max_den, max_iter in TABLE_BUDGETS:
            sizes.clear()
            r = rot(f, max_den=max_den, max_iter=max_iter)
            assert rot_enclosure(f, max_iter).iterations == max_iter
            assert verify_rot(f, r, max_den=max_den, max_iter=max_iter)
            bound = max(max_den, pieces) * pieces + max_iter // 2
            assert max(sizes, default=0) <= bound, (f, max_den, max_iter)
            products += len(sizes)
    assert products > 500


def test_a_small_piece_bound_still_gives_the_enclosure(monkeypatch):
    """rot(f) = 13/21 with pieces(F) = 6: a bound of 6 pieces stops the
    descent at its first mediant, so rot gives rot_enclosure's enclosure,
    which holds 13/21, and power builds no F**21."""
    f = random_element(18, 6, "Lift")
    assert rot(f).value == Fraction(13, 21)
    want = rot_enclosure(f, DEFAULT_MAX_ITER)
    monkeypatch.setattr(plmap, "MAX_PIECES", f.num_pieces)
    r = rot(f)
    assert r.kind == "enclosure" and r == want == rot_enclosure(f, DEFAULT_MAX_ITER)
    assert r.lo <= Fraction(13, 21) <= r.hi
    with pytest.raises(PowerBudgetExceeded):
        power(f, 21)


def test_rot_builds_no_table_after_its_descent(monkeypatch):
    f = evaluate_str(f"conj(lift(rot(2+3*t), -1), {H})")
    events = []
    init, classify = PLMap.__init__, PLMap.shift_roots

    def counting_init(self, xs, ys, ks):
        events.append("table")
        init(self, xs, ys, ks)

    def counting_classify(self, s):
        events.append("step")
        return classify(self, s)

    monkeypatch.setattr(PLMap, "__init__", counting_init)
    monkeypatch.setattr(PLMap, "shift_roots", counting_classify)
    r = rot(f)
    monkeypatch.undo()
    assert r.kind == "enclosure" and r.iterations == DEFAULT_MAX_ITER
    assert events.count("step") > 10
    # the descent builds one table per step and nothing follows its last step
    assert events[-1] == "step"
    assert r == rot_enclosure(f, DEFAULT_MAX_ITER)


def test_rot_keeps_no_intermediate_fraction_table(monkeypatch):
    """rot ~ 1/47: the descent takes one step per unit of that partial
    quotient, but only the convergents' tables and the last bracket's
    stay alive for the orbit walk."""
    f = evaluate_str(f"conj(lift(rot(13-21*t), 0), {H})")  # tau**8
    kept, steps = [], []
    enclose, classify = lift._enclose, PLMap.shift_roots

    def spy_enclose(descent, iterations):
        kept.extend(descent.powers)
        return enclose(descent, iterations)

    def counting_classify(self, s):
        steps.append(s)
        return classify(self, s)

    monkeypatch.setattr(lift, "_enclose", spy_enclose)
    monkeypatch.setattr(PLMap, "shift_roots", counting_classify)
    r = rot(f)
    monkeypatch.undo()
    assert r.kind == "enclosure" and r == rot_enclosure(f, DEFAULT_MAX_ITER)
    assert len(kept) < 8 and len(steps) > 40


def test_rot_below_pieces_takes_its_enclosure_off_the_cycle(monkeypatch):
    """max_den = 1 ends rot's descent before q reaches pieces(F), so its
    enclosure probes the cycle of 0 and reads F^N(0) off it (rot 1/2,
    period 2) with no table built."""
    f = evaluate_str(H)
    squares = []
    mul = lift._capped_mul
    monkeypatch.setattr(lift, "_capped_mul",
                        lambda a, b: squares.append(a) or mul(a, b))
    r = rot(f, max_den=1)
    monkeypatch.undo()
    assert not squares
    assert r.kind == "enclosure" and r == rot_enclosure(f, DEFAULT_MAX_ITER)
    assert (r.lo, r.hi) == (Fraction(1, 2), Fraction(5001, 10000))


def test_rot_below_pieces_resumes_its_descent(monkeypatch):
    """rot = 13/21 and pieces(F) = 6: max_den = k <= 5 stops rot's descent
    below pieces(F), and its enclosure goes on from there, so it builds
    the products and classifies the shifts of rot_enclosure alone."""
    f = random_element(18, 6, "Lift")
    assert f.num_pieces == 6 and rot(f, max_den=21).value == Fraction(13, 21)

    def work(answer):
        counts = Counter()
        mul, classify = lift._capped_mul, PLMap.shift_roots
        monkeypatch.setattr(lift, "_capped_mul", lambda a, b:
                            counts.update(["products"]) or mul(a, b))
        monkeypatch.setattr(PLMap, "shift_roots", lambda self, s:
                            counts.update(["shift_roots"]) or classify(self, s))
        r = answer()
        monkeypatch.undo()
        return r, counts

    want = work(lambda: rot_enclosure(f, DEFAULT_MAX_ITER))
    assert want[0].kind == "enclosure"
    for k in range(1, 6):
        assert work(lambda: rot(f, max_den=k)) == want, k


def test_rot_runs_no_probe_after_a_descent_past_pieces(monkeypatch):
    """At the default budgets rot's descent on an irrational rot passes
    pieces(F), where no cycle of 0 can be, so its enclosure evaluates F
    only in the walk: one run of steps from 0 per table it holds."""
    f = evaluate_str(f"conj(lift(rot(13-21*t), 0), {H})")
    runs, walks = [], []
    evaluate, walk = lift._eval_lift, lift._orbit_enclosure

    def spy_eval(table, x, steps=1):
        runs.append(steps)
        return evaluate(table, x, steps)

    def spy_walk(powers, *args):
        walks.append((powers, args))
        return walk(powers, *args)

    monkeypatch.setattr(lift, "_eval_lift", spy_eval)
    monkeypatch.setattr(lift, "_orbit_enclosure", spy_walk)
    r = rot(f)
    monkeypatch.undo()
    assert r.kind == "enclosure" and r == rot_enclosure(f, DEFAULT_MAX_ITER)
    [(powers, args)] = walks
    assert args == (DEFAULT_MAX_ITER, ZERO, 0)
    assert len(runs) == len(powers)


def power_table_replay(f: LiftMap, res: RotRational) -> bool:
    """The rational re-check through the q-th power table: F**q at the
    root, then shift_roots of F**q - p must find a root."""
    fq = power(f, res.q)
    if fq.eval(res.root) != res.root + res.p:
        return False
    return fq.table.shift_roots(ZTau(res.p))[1] is not None


def rational_certificates():
    """The exact rots of small random lifts moved by -2..2, each with the
    same rot stated with p shifted by 1 and with its root moved by 1/den."""
    for seed in range(8):
        for size in range(2, 7):
            f = random_element(seed, size, "Lift")
            for n in range(-2, 3):
                g = f.translate(n)
                r = rot(g, max_den=64, max_iter=64)
                if not isinstance(r, RotRational):
                    continue
                yield g, r
                yield g, RotRational(Fraction(r.p + 1, r.q), r.root)
                yield g, RotRational(r.value, r.root + QTau(ONE, r.root.den))


def test_rational_replay_matches_the_power_table():
    verdicts = []
    for f, r in rational_certificates():
        verdict = verify_rot(f, r)
        assert verdict == power_table_replay(f, r), (f, r)
        verdicts.append(verdict)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def test_rational_replay_builds_no_table(monkeypatch):
    cases = [(f, r) for f, r in rational_certificates() if r.q > 1]
    events = []
    init, classify = PLMap.__init__, PLMap.shift_roots

    def counting_init(self, xs, ys, ks):
        events.append("table")
        init(self, xs, ys, ks)

    def counting_classify(self, s):
        events.append("step")
        return classify(self, s)

    monkeypatch.setattr(PLMap, "__init__", counting_init)
    monkeypatch.setattr(PLMap, "shift_roots", counting_classify)
    verdicts = [verify_rot(f, r) for f, r in cases]
    monkeypatch.undo()
    assert events == []
    assert verdicts == [power_table_replay(f, r) for f, r in cases]
    assert True in verdicts and False in verdicts


def test_enclosure_on_irrational_translation_like():
    # an element whose rot is irrational: conjugate of translation by tau
    f = LiftMap.translation(TAU)
    h = random_element(99, 3, "Lift")
    g = conjugate(f, h)
    r = rot(g, max_den=50)
    if isinstance(r, RotEnclosure):
        lo = QTau(zt(r.lo.numerator), r.lo.denominator)
        hi = QTau(zt(r.hi.numerator), r.hi.denominator)
        assert (QTau(TAU) - lo).sign() >= 0 and (hi - QTau(TAU)).sign() >= 0
    else:
        # conjugation preserves rot, so an exact answer must be tau itself
        assert exact_value(r) == QTau(TAU)


def test_scl_values():
    s = scl(LiftMap.translation(TAU))
    assert s.kind == "ztau-half" and s.value == QTau(TAU, 2)
    assert abs(s.approx() - 0.3090169944) < 1e-9
    s2 = scl(LC)
    assert s2.kind == "rational" and s2.value == Fraction(1, 6)
    s3 = scl(LiftMap.identity())
    assert s3.value == QTau(ZERO, 2)
    s4 = scl(LiftMap.translation(-TAU))
    assert s4.value == QTau(TAU, 2)  # |rot| / 2


def test_scl_doubles_under_squaring():
    rng = random.Random(36)
    done = 0
    for _ in range(40):
        f = random_element(rng.randrange(2**63), 3, "Lift")
        s1 = scl(f, max_den=64)
        s2 = scl(power(f, 2), max_den=64)
        if s1.kind == "rational" and s2.kind == "rational":
            assert s2.value == 2 * s1.value
            done += 1
    assert done >= 10


def test_defect_delta_examples():
    t = LiftMap.translation(TAU)
    d = exact_defect_delta(t, t)
    assert d == defect_delta(t, t) and d[0] == QTau(ZERO)
    d2 = exact_defect_delta(LC, power(LC, 2))
    assert d2 == defect_delta(LC, power(LC, 2))
    assert d2[0] == QTau(ZERO)   # 1/3 + 2/3 - 1


def test_defect_delta_bounded_by_one():
    rng = random.Random(37)
    checked = 0
    for _ in range(40):
        f = random_element(rng.randrange(2**63), 3, "Lift")
        g = random_element(rng.randrange(2**63), 3, "Lift")
        d = exact_defect_delta(f, g, max_den=64)
        oracle = defect_delta(f, g, max_den=64)
        assert d == (None if oracle[0] is None else oracle)
        if d:
            assert d[0].sign() >= 0
            assert (QTau(ONE) - d[0]).sign() >= 0
            checked += 1
    assert checked >= 20


def test_rot_against_decimal_orbit_oracle():
    # independent oracle: a 400-digit decimal orbit of 0 approximates rot
    # to within 1/N; certified answers must land inside that corridor
    from decimal import Decimal, getcontext

    getcontext().prec = 400
    tau_d = (Decimal(5).sqrt() - 1) / 2

    def dec(q):
        return (q.num.a + q.num.b * tau_d) / q.den

    from taut.construct import SplitMix64

    rng = SplitMix64(31337)
    n = 200
    for _ in range(12):
        f = random_element(rng.next64(), 4, "Lift")
        pt = QTau(ZERO)
        for _ in range(n):
            pt = f.eval(pt)
        est = dec(pt) / n
        r = rot(f, max_den=64)
        if isinstance(r, RotEnclosure):
            lo, hi = Decimal(r.lo.numerator) / r.lo.denominator, \
                Decimal(r.hi.numerator) / r.hi.denominator
        else:
            v = exact_value(r)
            lo = hi = dec(v)
        assert lo - Decimal(1) / n <= est <= hi + Decimal(1) / n


seeds = st.integers(min_value=0, max_value=2**32)
small = st.integers(min_value=-40, max_value=40)


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=6), seeds,
       st.integers(min_value=-3, max_value=3), st.builds(ZTau, small, small))
@example(32, 3, 7, -3, ZTau(5, -9))    # an enclosure, moved down
@example(52, 3, 8, 2, ZTau(-4, 11))    # an enclosure, moved up
def test_rot_moves_by_n_under_integer_translation(s1, size, s2, n, x):
    f = random_element(s1, size, "Lift")
    r = rot(f, max_den=64, max_iter=64)
    rn = rot(f * LiftMap.translation(n), max_den=64, max_iter=64)
    assert rn.kind == r.kind
    if r.kind == "enclosure":
        assert rn.iterations == r.iterations
        assert (rn.lo, rn.hi) == (r.lo + n, r.hi + n)
    else:
        assert rn.value == r.value + n
        if r.kind == "rational":
            assert rn.root == r.root
    # a lift maps ring points to ring points, and agrees with its value in Q(tau)
    g = random_element(s2, size, "Lift")
    y = f.eval(x)
    assert isinstance(y, ZTau) and y == f.eval(QTau(x))
    assert (f * g).eval(x) == g.eval(y)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=6),
       st.integers(min_value=-3, max_value=3))
def test_json_round_trip_and_translate_zero(seed, size, n):
    f = random_element(seed, size, "Lift").translate(n)
    assert LiftMap.from_json(f.to_json()) == f
    assert f.translate(0) is f
