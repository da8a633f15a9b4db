"""Tamper self-test of the benchmark's two checks.

For a sample of each workload's answers, an altered copy must make
`taut check` exit non-zero and must be rejected by the benchmark's own
pointwise oracle, while the unaltered answer passes both.  A faster
`check` that checks less would otherwise read as a gain.

    PYTHONPATH=src python -m pytest -q bench/test_bench_tamper.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
from workloads import cli_call, round_ops  # noqa: E402

SEED = 1


@pytest.fixture(scope="module")
def taut():
    return run.taut_modules()


def _first_answers(taut, workload: str, families: set[str]):
    """(op, answer object) for the first operation of each named family."""
    out = {}
    for op in round_ops(workload, SEED, 0, taut):
        if op.family in families and op.family not in out:
            rc, text = op.answer()
            assert rc == 0
            out[op.family] = (op, json.loads(text))
        if len(out) == len(families):
            return out
    raise AssertionError(f"families missing from {workload}: {families - set(out)}")


def _replays(taut, tmp_path: Path, obj: dict) -> bool:
    path = tmp_path / "answer.json"
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    rc, _ = cli_call(taut.cli.main, ["check", "--json", "--", str(path)])
    return rc == 0


def _assert_tamper_caught(taut, tmp_path, op, good: dict, bad: dict) -> None:
    assert _replays(taut, tmp_path, good) and op.verify(good) is None
    assert not _replays(taut, tmp_path, bad), f"taut check accepts a tampered {op.family}"
    assert op.verify(bad) is not None, f"oracle accepts a tampered {op.family}"


def _shift_rational(rot: dict) -> dict:
    """The rational p/q claimed as (p+1)/q, certificate shift included."""
    value = Fraction(rot["value"])
    new = value + Fraction(1, value.denominator)
    cert = dict(rot["certificate"], shift=new.numerator, power=new.denominator)
    return dict(rot, value=str(new), certificate=cert)


def _move_enclosure(rot: dict) -> dict:
    lo, hi = Fraction(rot["lo"]), Fraction(rot["hi"])
    step = hi - lo + Fraction(1, int(rot["iterations"]))
    return dict(rot, lo=str(lo + step), hi=str(hi + step))


def _half_abs(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """The scl enclosure |[lo, hi]| / 2 that goes with a rot enclosure."""
    if lo >= 0:
        return lo / 2, hi / 2
    if hi <= 0:
        return -hi / 2, -lo / 2
    return Fraction(0), max(-lo, hi) / 2


def test_rot_queries_tampered_answers_are_rejected(taut, tmp_path):
    answers = _first_answers(taut, "rot-queries",
                             {"translation", "periodic", "hyperbolic", "conj-rotation"})
    for family, (op, good) in answers.items():
        inner = good["certificate"]["rot"]
        if inner["kind"] == "rational":
            new = _shift_rational(inner)
            bad = dict(good, value=str(abs(Fraction(new["value"])) / 2),
                       certificate={"rot": new})
        elif inner["kind"] == "enclosure":
            new = _move_enclosure(inner)
            lo, hi = _half_abs(Fraction(new["lo"]), Fraction(new["hi"]))
            bad = dict(good, lo=str(lo), hi=str(hi), certificate={"rot": new})
        else:
            bad = dict(good, value=f"({good['value'][1:-3]}+1)/2")
        _assert_tamper_caught(taut, tmp_path, op, good, bad)


def test_enclosure_replay_moved_enclosure_is_rejected(taut, tmp_path):
    for op, good in _first_answers(taut, "enclosure-replay",
                                   {"hyperbolic", "ftau-lift"}).values():
        _assert_tamper_caught(taut, tmp_path, op, good, _move_enclosure(good))


def test_certificates_tampered_answers_are_rejected(taut, tmp_path):
    answers = _first_answers(taut, "certificates", {"connect", "derived", "defect-n"})
    for family in ("connect", "derived"):
        op, good = answers[family]
        targets = list(good["targets"])
        targets[-1] = "0+1*t" if targets[-1] != "0+1*t" else "1-1*t"
        _assert_tamper_caught(taut, tmp_path, op, good, dict(good, targets=targets))
    op, good = answers["defect-n"]
    _assert_tamper_caught(taut, tmp_path, op, good, dict(good, delta="(0+0*t)/1"))
