"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import random
import time
from decimal import Decimal
from fractions import Fraction
from itertools import islice

import pytest

from conftest import decimal_value, zt
from taut.circle import CircleMap
from taut.cli import main
from taut.construct import (
    SplitMix64,
    connect_tuple,
    connect_tuple_derived,
    defect_witness,
    factor_local,
    preference_points,
    random_element,
)
from taut.errors import SearchBudgetExceeded
from taut.lift import (
    LiftMap,
    RotRational,
    RotTranslation,
    rot,
    rot_enclosure,
    scl,
    verify_rot,
)
from taut.plmap import conjugate, is_ftau_compact, power
from taut.ring import ONE, QTau, TAU, ZERO, is_tau_power, tau_pow

CARET3 = [2, 3, 2]   # the leaf exponents of ["s+", ["s+", "leaf", "leaf"], "leaf"]
TORSION = CircleMap.from_tree_pair(CARET3, CARET3, 1)


_REPORTER = None


@pytest.fixture(autouse=True)
def _verdict_reporter(request):
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


class Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.start = time.time()

    def done(self, label):
        elapsed = time.time() - self.start
        line = f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s / budget {self.budget}s)"
        if _REPORTER is not None:       # reaches the log despite capture
            _REPORTER.write_line("")
            _REPORTER.write_line(line)
        else:
            print(line, flush=True)
        assert elapsed < self.budget, f"{label} exceeded its time budget"


def exact_rot_value(res):
    if isinstance(res, RotTranslation):
        return QTau(res.value)
    if isinstance(res, RotRational):
        return QTau(zt(res.p), res.q)
    return None


def test_criterion_1_golden_value():
    watch = Stopwatch(1)
    f = LiftMap.translation(TAU)
    s = scl(f)
    assert s.kind == "ztau-half"
    assert s.value == QTau(TAU, 2)                  # exactly tau / 2
    assert abs(s.approx() - 0.3090169944) < 1e-9
    watch.done("1 golden value scl(trans(t)) = t/2")


def test_criterion_2_half_ring_family():
    watch = Stopwatch(5)
    checked = 0
    for a in range(-3, 4):
        for b in range(-3, 4):
            alpha = zt(a, b)
            if alpha.sign() <= 0:
                continue
            s = scl(LiftMap.translation(alpha))
            assert s.kind == "ztau-half"
            assert s.value == QTau(alpha, 2)        # scl = alpha / 2 exactly
            checked += 1
    assert checked == 24
    watch.done(f"2 half-ring family ({checked} translations)")


def test_criterion_3_rational_rot():
    watch = Stopwatch(10)
    lc = LiftMap(TORSION.table)
    r = rot(lc)
    assert isinstance(r, RotRational) and r.value == Fraction(1, 3)
    assert verify_rot(lc, r)                        # fixed-point certificate
    s = scl(lc)
    assert s.kind == "rational" and s.value == Fraction(1, 6)
    for k in (1, 2):
        for n in (-2, -1, 0, 1, 2):
            f = power(lc, k).translate(n)
            t0 = time.time()
            rk = rot(f)
            assert time.time() - t0 < 1
            assert isinstance(rk, RotRational)
            assert rk.value == Fraction(k, 3) + n
            assert verify_rot(f, rk)
    watch.done("3 rational rot of the torsion element and its shifts")


def test_criterion_4_enclosure_soundness():
    watch = Stopwatch(60)
    n = 512
    rng = SplitMix64(600)
    for _ in range(100):
        f = random_element(rng.next64(), 3, "Lift")
        e1 = rot_enclosure(f, n)
        e2 = rot_enclosure(f, 2 * n)
        assert e1.iterations == n and e2.iterations == 2 * n
        assert e1.width() <= Fraction(2, n)
        assert e1.lo <= e2.lo and e2.hi <= e1.hi    # nesting
    watch.done("4 enclosure width and nesting at N=512 (100 elements)")


def test_criterion_5_quasimorphism_properties():
    watch = Stopwatch(120)
    rng = SplitMix64(500)
    pairs = 0
    attempts = 0
    while pairs < 1000:
        attempts += 1
        assert attempts < 10_000, "random pair stream degenerated"
        f = random_element(rng.next64(), 3, "Lift")
        g = random_element(rng.next64(), 3, "Lift")
        resf = rot(f, max_den=64)
        resg = rot(g, max_den=64)
        if not isinstance(resf, RotRational) or not isinstance(resg, RotRational):
            continue
        rfg = exact_rot_value(rot(f * g, max_den=64))
        if rfg is None:
            continue
        pairs += 1
        rf = exact_rot_value(resf)
        rg = exact_rot_value(resg)
        delta = abs(rf + rg - rfg)
        assert delta.sign() >= 0 and (QTau(ONE) - delta).sign() >= 0
        # a conjugate shares the certified rational rot, so it certifies too
        rc = exact_rot_value(rot(conjugate(f, g), max_den=64))
        assert rc == rf
        for k in range(2, 6):
            rk = exact_rot_value(rot(power(f, k), max_den=64))
            assert rk == QTau(zt(k)) * rf            # k-homogeneity
    watch.done(f"5 defect bound, conjugation, homogeneity "
               f"({pairs} pairs, {attempts} sampled)")


def test_criterion_6_defect_witness():
    watch = Stopwatch(60)
    w = defect_witness(8)
    assert (w.delta - QTau(zt(9), 10)).sign() >= 0   # delta >= 9/10 exactly
    w.verify()
    assert exact_rot_value(w.rots[0]) == QTau(ZERO)
    assert exact_rot_value(w.rots[1]) == QTau(ZERO)
    watch.done(f"6 defect witness n=8 certifies delta = {w.delta} >= 9/10")


def test_criterion_7_group_closure_and_laws():
    watch = Stopwatch(60)
    rng = SplitMix64(700)
    for _ in range(1000):
        g = random_element(rng.next64(), 4, "T_tau")
        h = random_element(rng.next64(), 4, "T_tau")
        result = (g * h, g.inverse(), power(g, 3))[rng.below(3)]
        CircleMap.from_json(result.to_json())        # full re-validation
    for _ in range(100):
        f = random_element(rng.next64(), 4, "T_tau")
        g = random_element(rng.next64(), 4, "T_tau")
        h = random_element(rng.next64(), 4, "T_tau")
        assert (f * g) * h == f * (g * h)
        assert (f * f.inverse()).is_identity()
    watch.done("7 closure of 1000 results, laws on 100 triples")


def test_criterion_8_constructive_certificates():
    watch = Stopwatch(600)
    pool = sorted(set(islice(preference_points(), 2**8 - 1)))
    rng = random.Random(800)
    budget_failures = 0
    for trial in range(200):
        n = 1 + trial % 4
        xi = sorted(rng.sample(range(len(pool)), n))
        yi = sorted(rng.sample(range(len(pool)), n))
        xs = tuple(pool[i] for i in xi)
        ys = tuple(pool[i] for i in yi)
        try:
            cert = connect_tuple(xs, ys)
        except SearchBudgetExceeded:
            budget_failures += 1
            continue
        cert.verify()
        for x, y in zip(xs, ys):
            assert cert.element.eval(x) == y
    for trial in range(40):
        n = 1 + trial % 3
        xi = sorted(rng.sample(range(len(pool)), n))
        yi = sorted(rng.sample(range(len(pool)), n))
        try:
            cert = connect_tuple_derived(tuple(pool[i] for i in xi),
                                         tuple(pool[i] for i in yi))
        except SearchBudgetExceeded:
            budget_failures += 1
            continue
        cert.verify()
        assert is_ftau_compact(cert.element)
    factored = 0
    seed = 0
    while factored < 50:
        g = random_element(seed, 4, "T_tau")
        seed += 1
        if g.is_identity():
            continue
        try:
            cert = factor_local(g)
        except SearchBudgetExceeded:
            budget_failures += 1
            factored += 1
            continue
        cert.verify()
        factored += 1
    assert budget_failures <= (200 + 40 + 50) * 0.05
    watch.done(f"8 constructive certificates (290 total, "
               f"{budget_failures} budget failures)")


def test_criterion_9_ring_kernel():
    watch = Stopwatch(30)
    rng = random.Random(900)
    big = 1 << 256
    for _ in range(10_000):
        x, y, z = (zt(rng.randrange(-big, big), rng.randrange(-big, big))
                   for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
    for k in range(-40, 41):
        assert is_tau_power(tau_pow(k)) == k
        assert tau_pow(k) * tau_pow(-k) == ONE
    eps = Decimal(10) ** -50
    for _ in range(10_000):
        x = zt(rng.randrange(-10**9, 10**9), rng.randrange(-10**9, 10**9))
        d = decimal_value(x)
        assert x.sign() == (0 if d == 0 else (1 if d > 0 else -1))
        assert abs(d) < eps or abs(d) > eps  # oracle is far from the tie
    for _ in range(2000):
        x = zt(rng.randrange(-10**9, 10**9), rng.randrange(-10**9, 10**9))
        n = x.floor()
        assert (x - n).sign() >= 0 and (x - n - 1).sign() < 0
    watch.done("9 ring kernel property suites")


def test_criterion_10_determinism(capsys):
    watch = Stopwatch(60)
    commands = [
        ["random", "--size", "6", "--seed", "42", "--flavor", "T_tau", "--json"],
        ["random", "--size", "4", "--seed", "7", "--flavor", "Lift", "--json"],
        ["defect", "--search", "--samples", "8", "--seed", "13",
         "--max-den", "64", "--json"],
        ["defect", "--n", "4", "--json"],
        ["rot", "lift(treepair {\"p\": [\"s+\", [\"s+\", \"leaf\", \"leaf\"], "
         "\"leaf\"], \"q\": [\"s+\", [\"s+\", \"leaf\", \"leaf\"], \"leaf\"], "
         "\"shift\": 1}, 0)", "--json"],
        ["scl", "lift(trans(t),0)", "--json"],
        ["connect", "1-t,t", "1-t,2-2*t", "--json"],
        ["factor", "rot(t)", "--json"],
    ]
    outputs = []
    for argv in commands:
        assert main(list(argv)) == 0
        outputs.append(capsys.readouterr().out.encode())
    for argv, first in zip(commands, outputs):
        assert main(list(argv)) == 0
        assert capsys.readouterr().out.encode() == first
    watch.done("10 byte-identical repeated JSON runs")
