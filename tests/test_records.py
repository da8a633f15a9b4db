"""The record classes: construction, equality, hashing, immutability, repr
and round trips, and an import of the command line that compiles no
generated code."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import defect_delta
from taut import lift
from taut.circle import CircleMap
from taut.construct import (
    CommutatorCertificate,
    DefectWitness,
    FactorCertificate,
    SplitMix64,
    TransitivityCertificate,
    commutator_trick,
    connect_tuple,
    connect_tuple_derived,
    defect_witness,
    defect_witness_search,
    factor_local,
    random_element,
)
from taut.errors import ValidationError
from taut.expr import deserialize, evaluate_str, serialize
from taut.lift import (
    LiftMap,
    RotEnclosure,
    RotRational,
    RotTranslation,
    SclResult,
    exact_defect_delta,
    rot,
    scl,
)
from taut.plmap import PLMap
from taut.record import Record
from taut.ring import ONE, QTau, TAU, ZERO, ZTau, tau_pow

SRC = Path(__file__).resolve().parent.parent / "src"

THREE_LEAF = ('treepair {"p": ["s+", ["s-", "leaf", "leaf"], "leaf"],'
              ' "q": ["s+", "leaf", ["s+", "leaf", "leaf"]], "shift": 1}')
LIFT = evaluate_str(f"lift({THREE_LEAF}, 0)")       # rot 1/3
ENCLOSED = evaluate_str(f"lift(conj(rot(t), {THREE_LEAF}), 0)")   # rot tau

_T = LiftMap.translation(TAU)
_ROTS = (RotTranslation(TAU), RotRational(Fraction(1, 3), QTau(ZERO)),
         RotTranslation(ZTau(1)))
_C = CircleMap.rotation(TAU)

# class, its required fields in order, its defaults, and another value
# of its first field
RECORDS = [
    (CircleMap, {"table": PLMap.identity()}, {}, _C.table),
    (LiftMap, {"table": PLMap.identity()}, {}, _T.table),
    (RotRational, {"value": Fraction(1, 3), "root": QTau(ZERO)}, {}, Fraction(2, 3)),
    (RotTranslation, {"value": TAU}, {}, ONE),
    (RotEnclosure, {"lo": Fraction(0), "hi": Fraction(1, 3), "iterations": 3}, {},
     Fraction(-1, 3)),
    (SclResult, {"rot": _ROTS[0]}, {}, _ROTS[1]),
    (TransitivityCertificate,
     {"element": PLMap.identity(), "sources": (TAU,), "targets": (TAU,)},
     {"compact": False, "pieces": {}}, _T.table),
    (FactorCertificate,
     {"g": _C, "x": ZERO, "y": TAU, "arc": (ZERO, TAU), "u": _C, "v": _C,
      "pieces": {"f": _C}},
     {}, CircleMap.identity()),
    (CommutatorCertificate,
     {"result": _C, "g": _C, "h": _C, "x": ZERO, "arc": (ZERO, TAU)},
     {}, CircleMap.identity()),
    (DefectWitness, {"g": _T, "h": _T, "delta": QTau(ZERO), "rots": _ROTS},
     {"n": None}, LiftMap.identity()),
]


def _ids(records):
    return [r[0].__name__ for r in records]


def _hashable(fields) -> bool:
    return not any(isinstance(v, dict) for v in fields.values())


def _built_records(cls=Record) -> set:
    """The Record classes that no other extends, at any depth: a base
    such as circle.Periodic counts through its subclasses."""
    subclasses = cls.__subclasses__()
    if not subclasses:
        return {cls}
    return set().union(*map(_built_records, subclasses))


def test_ten_records():
    assert len({r[0] for r in RECORDS}) == 10
    assert {r[0] for r in RECORDS} == _built_records()


@pytest.mark.parametrize("cls, required, defaults, other", RECORDS, ids=_ids(RECORDS))
def test_record_construction_and_equality(cls, required, defaults, other):
    a = cls(*required.values())
    b = cls(**required)
    for name, value in {**required, **defaults}.items():
        assert getattr(a, name) == value and getattr(b, name) == value
    assert a == b and not a != b
    full = cls(*required.values(), *defaults.values())
    assert full == a and cls(**required, **defaults) == a
    if _hashable({**required, **defaults}):
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    first = next(iter({**required, **defaults}))
    assert cls(**{**required, **defaults, first: other}) != a
    for record in RECORDS:
        if record[0] is not cls:
            assert a != record[0](*record[1].values())
    assert a != tuple({**required, **defaults}.values())


@pytest.mark.parametrize("cls, required, defaults, other", RECORDS, ids=_ids(RECORDS))
def test_record_fields_refuse_assignment(cls, required, defaults, other):
    a = cls(**required)
    for name in {**required, **defaults}:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(a, name, other)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(**required)


@pytest.mark.parametrize("cls, required, defaults, other", RECORDS, ids=_ids(RECORDS))
def test_record_copy_and_pickle(cls, required, defaults, other):
    a = cls(**required)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a


def test_record_defaults_are_not_shared():
    a = TransitivityCertificate(PLMap.identity(), (), ())
    b = TransitivityCertificate(PLMap.identity(), (), ())
    assert a.pieces == {} and a.pieces is not b.pieces


def test_lift_map_keeps_its_table_check():
    with pytest.raises(ValidationError):
        LiftMap(PLMap.identity(ZERO, TAU))
    with pytest.raises(ValidationError):
        LiftMap(PLMap((ZERO, ONE), (ZERO, ONE + ONE), (-1,)))


def test_periodic_products_keep_their_class():
    rng = SplitMix64(5)
    for _ in range(12):
        c, d = (random_element(rng.next64(), 4, "T_tau") for _ in range(2))
        f, g = (random_element(rng.next64(), 4, "Lift") for _ in range(2))
        for a, b in ((c, f), (f, c)):
            with pytest.raises(TypeError):
                a * b
        for h in (c * d, c.inverse(), _C * _C):
            assert type(h) is CircleMap and h.table.ys[0].floor() == 0
        for h in (f * g, f.inverse()):
            assert type(h) is LiftMap
    assert (_C * _C).table.ys[0] == TAU + TAU - 1
    assert (_T * _T).table.ys[0] == TAU + TAU


def test_record_reprs():
    assert (repr(RotEnclosure(Fraction(0), Fraction(1, 3), 3))
            == "RotEnclosure(lo=Fraction(0, 1), hi=Fraction(1, 3), iterations=3)")
    assert (repr(SclResult(RotRational(Fraction(1, 3), QTau(ZERO))))
            == "SclResult(rot=RotRational(value=Fraction(1, 3), root=QTau(ZTau(0, 0), 1)))")
    assert repr(_T) == "LiftMap(CircleMap(v=t, pieces=1), n=0)"
    assert (repr(TransitivityCertificate(PLMap.identity(), (), ()))
            == "TransitivityCertificate(element=PLMap([0, 1] -> [0, 1], ks=[0]), "
               "sources=(), targets=(), compact=False, pieces={})")


def _certificates():
    yield connect_tuple((TAU,), (tau_pow(2),))
    yield connect_tuple_derived((TAU,), (tau_pow(2),))
    yield factor_local(random_element(5, 4, "T_tau"))
    yield commutator_trick(random_element(3, 3, "T_tau"), TAU)
    yield defect_witness(2)
    yield defect_witness_search(4, 0)


def test_certificates_survive_a_round_trip():
    kinds = set()
    for cert in _certificates():
        back = deserialize(serialize(cert))
        assert type(back) is type(cert) and back == cert
        kinds.add(type(cert))
    assert len(kinds) == 4


def test_rot_and_scl_results_survive_a_round_trip():
    results = [rot(_T), rot(LIFT), rot(LIFT, max_den=1)]
    assert [r.kind for r in results] == ["ztau", "rational", "enclosure"]
    for res in results + [scl(_T), scl(LIFT), scl(LIFT, max_den=1)]:
        back = deserialize(serialize(res))
        assert type(back) is type(res) and back == res


def test_exact_defect_delta_agrees_with_defect_delta():
    rng = SplitMix64(11)
    exact = 0
    for _ in range(16):
        g = random_element(rng.next64(), 4, "Lift")
        h = random_element(rng.next64(), 4, "Lift")
        d = defect_delta(g, h, max_den=64)
        e = exact_defect_delta(g, h, max_den=64)
        if d[0] is not None:
            assert e == d
            exact += 1
        else:
            assert e is None
    assert 0 < exact < 16


def _no_enclosure(d, iterations):
    raise AssertionError("an enclosure was built")


def test_exact_defect_delta_stops_at_the_first_inexact_rot(monkeypatch):
    assert rot(ENCLOSED).kind == "enclosure"
    made = []
    exact_rot = lift._exact_rot
    monkeypatch.setattr(lift, "_enclose", _no_enclosure)
    monkeypatch.setattr(lift, "_exact_rot", lambda d, m: made.append(d.f) or exact_rot(d, m))
    assert exact_defect_delta(ENCLOSED, LIFT) is None
    assert made == [ENCLOSED]
    made.clear()
    assert exact_defect_delta(LIFT, ENCLOSED) is None
    assert made == [LIFT, ENCLOSED]


def test_defect_search_builds_no_enclosure(monkeypatch):
    # the search as it was, through defect_delta, which builds enclosures
    rng = SplitMix64(0)
    best = None
    for _ in range(12):
        g = random_element(rng.next64(), 4, "Lift")
        h = random_element(rng.next64(), 4, "Lift")
        delta, rots = defect_delta(g, h)
        if delta is not None and (best is None or delta > best.delta):
            best = DefectWitness(g, h, delta, rots)
    monkeypatch.setattr(lift, "_enclose", _no_enclosure)
    assert defect_witness_search(12, 0) == best
    defect_witness(3).verify()


def test_cli_import_loads_no_dataclasses_or_inspect():
    show = "import sys; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def modules(code):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        return set(out.split())

    added = modules(f"import taut.cli; {show}") - modules(show)
    assert "taut.cli" in added
    assert not {"dataclasses", "inspect"} & added
