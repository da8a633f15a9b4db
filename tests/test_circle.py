import random

import pytest

from conftest import zt
from taut.circle import CircleMap, _partition, leaf_exponents
from taut.construct import random_element
from taut.errors import (
    DegreeNotOne,
    LeafCountMismatch,
    NotFtau,
    NotInRing,
    NotTauPower,
    SchemaError,
)
from taut.plmap import PLMap, _table_json, commutator, power
from taut.ring import ONE, QTau, TAU, ZERO, tau_pow

T2 = tau_pow(2)
T3 = tau_pow(3)

CARET3 = [2, 3, 2]   # the leaf exponents of ["s+", ["s+", "leaf", "leaf"], "leaf"]
TORSION = CircleMap.from_tree_pair(CARET3, CARET3, 1)
CONNECT = PLMap((ZERO, TAU, ONE), (ZERO, T2, ONE), (1, -1))


def test_rotation_constructors():
    assert CircleMap.rotation(ZERO).is_identity()
    r = CircleMap.rotation(TAU)
    assert r.v == TAU and r.num_pieces == 1
    assert CircleMap.rotation(zt(1) + T2).v == T2   # reduced mod 1


def test_from_interval_map():
    assert CircleMap.from_interval_map(PLMap.identity()).is_identity()
    c = CircleMap.from_interval_map(CONNECT)
    assert c.v == ZERO and c.eval(ZERO) == QTau(ZERO)
    with pytest.raises(NotFtau):
        CircleMap.from_interval_map(PLMap((ZERO, TAU), (ZERO, T2), (1,)))


def test_torsion_element_table():
    assert TORSION.table.xs == (ZERO, T2, TAU, ONE)
    assert TORSION.table.ks == (1, -1, 0)
    assert TORSION.v == T2
    assert power(TORSION, 3).is_identity()
    assert not power(TORSION, 2).is_identity()


def test_tree_pair_cases():
    assert CircleMap.from_tree_pair(CARET3, CARET3, 0).is_identity()
    other = leaf_exponents(["s+", "leaf", ["s+", "leaf", "leaf"]])
    assert other == [1, 3, 4]
    fixed0 = CircleMap.from_tree_pair(CARET3, other, 0)
    assert fixed0.v == ZERO
    assert _partition(CARET3) == [ZERO, T2, TAU, ONE]
    assert _partition(other) == [ZERO, TAU, TAU + T3, ONE]
    ks = [t - s for s, t in zip(CARET3, other)]
    assert fixed0 == CircleMap.from_interval_map(
        PLMap(_partition(CARET3), _partition(other), ks))
    with pytest.raises(LeafCountMismatch):
        CircleMap.from_tree_pair(CARET3, [0], 0)


def test_both_caret_orientations():
    narrow = leaf_exponents(["s-", "leaf", "leaf"])
    assert narrow == [2, 1] and _partition(narrow) == [ZERO, T2, ONE]
    wide = leaf_exponents(["s+", "leaf", "leaf"])
    assert wide == [1, 2] and _partition(wide) == [ZERO, TAU, ONE]
    c = CircleMap.from_tree_pair(wide, narrow, 0)
    assert c.eval(TAU) == QTau(T2)


def test_validate_raw():
    raw = TORSION.to_json()
    assert CircleMap.from_json(raw) == TORSION
    with pytest.raises(NotTauPower):
        CircleMap.from_json(_table_json([ZERO, ONE], [ZERO, zt(2)], [0]))
    with pytest.raises(DegreeNotOne):
        # valid tau-slope table on [0,1] climbing by 2 instead of 1
        CircleMap.from_json(_table_json([ZERO, TAU, ONE], [ZERO, zt(1, 1), zt(2)],
                                        [-2, 0]))
    # degree check needs the table first: build ys = x + 1/2 via quotients
    with pytest.raises(NotInRing):
        CircleMap(PLMap([QTau(0), QTau(1)], [QTau(1, 2), QTau(3, 2)], [0]))
    # and a payload's breakpoints are ring elements, never quotients
    half = {"num": {"a": "1"}, "den": 2}
    with pytest.raises(SchemaError, match="bad ring element payload"):
        CircleMap.from_json({"xs": [{"a": "0"}, {"a": "1"}], "ys": [half, half],
                             "ks": [0]})


def test_group_ops():
    r1 = CircleMap.rotation(TAU)
    r2 = CircleMap.rotation(T2)
    assert (r1 * r2).is_identity()            # tau + tau^2 = 1
    assert commutator(TORSION, TORSION).is_identity()
    assert power(TORSION, -1) == power(TORSION, 2)
    assert (TORSION * TORSION.inverse()).is_identity()


def test_eval_examples():
    assert TORSION.eval(ZERO) == QTau(T2)
    assert TORSION.eval(T2) == QTau(TAU)
    assert CircleMap.rotation(TAU).eval(T2) == QTau(ZERO)   # tau + tau^2 = 1


def test_orbit_consistency_random():
    rng = random.Random(21)
    for _ in range(40):
        g = random_element(rng.randrange(2**63), 4, "T_tau")
        h = random_element(rng.randrange(2**63), 4, "T_tau")
        gh = g * h
        x = QTau(zt(rng.randrange(0, 97)), 97)
        assert gh.eval(x) == h.eval(g.eval(x))


def test_closure_random():
    rng = random.Random(22)
    for _ in range(60):
        g = random_element(rng.randrange(2**63), 5, "T_tau")
        h = random_element(rng.randrange(2**63), 5, "T_tau")
        for result in (g * h, g.inverse(), power(g, 3)):
            CircleMap.from_json(result.to_json())   # re-validates everything


def test_torsion_order_divides_leaf_count():
    from taut.construct import SplitMix64, _random_exponents

    rng = random.Random(23)
    for _ in range(30):
        size = rng.randrange(2, 6)
        tree = _random_exponents(SplitMix64(rng.randrange(2**63)), size)
        s = rng.randrange(size)
        c = CircleMap.from_tree_pair(tree, tree, s)
        assert power(c, size).is_identity()


def test_tree_pair_torsion_power():
    for size, s in ((3, 1), (4, 3), (5, 2)):
        tree = "leaf"
        for _ in range(size - 1):
            tree = ["s+", tree, "leaf"]
        tree = leaf_exponents(tree)
        c = CircleMap.from_tree_pair(tree, tree, s)
        assert power(c, size).is_identity()


def test_fixed_segments_and_neighborhoods():
    c = CircleMap.from_interval_map(CONNECT)
    assert not c.fixes_neighborhood_of(ZERO)    # 0 is an isolated fixed point
    # compactly supported interval map fixes a neighbourhood of 0 on the circle
    from taut.construct import connect_tuple_derived
    f = connect_tuple_derived((T2,), (T3,)).element
    cf = CircleMap.from_interval_map(f)
    assert cf.fixes_neighborhood_of(ZERO)
    assert CircleMap.identity().fixes_neighborhood_of(TAU)
    assert not CircleMap.rotation(TAU).fixes_neighborhood_of(ZERO)


def test_subdivision_tree_json_reads_into_leaf_exponents():
    assert leaf_exponents(["s+", ["s+", "leaf", "leaf"], "leaf"]) == CARET3
    assert leaf_exponents("leaf") == [0]
    assert leaf_exponents(["s-", ["s+", "leaf", "leaf"], "leaf"]) == [3, 4, 1]
