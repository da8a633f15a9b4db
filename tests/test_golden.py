"""Golden output of the command line: exit codes and exact stdout.

`golden_cli.json` records, for every command in COMMANDS, its exit code
and its standard output byte for byte, followed by `taut check` and
`taut check --json` of every successful `--json` answer.  A change to a
value, a certificate, a message or the canonical JSON fails here.

After an intended output change, regenerate the data file with

    PYTHONPATH=src python tests/test_golden.py

and review its diff.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from taut.cli import main

DATA = Path(__file__).with_name("golden_cli.json")

TORSION = ('treepair {"p": ["s+", ["s+", "leaf", "leaf"], "leaf"],'
           ' "q": ["s+", ["s+", "leaf", "leaf"], "leaf"], "shift": 1}')
THREE_LEAF = ('treepair {"p": ["s+", ["s-", "leaf", "leaf"], "leaf"],'
              ' "q": ["s+", "leaf", ["s+", "leaf", "leaf"]], "shift": 0}')
INTERVAL_MAP = ('map {"xs": [{"a": "0"}, {"a": "0", "b": "1"}, {"a": "1"}],'
                ' "ys": [{"a": "0"}, {"a": "1", "b": "-1"}, {"a": "1"}],'
                ' "ks": [1, -1]}')
# conjugate of the ring rotation by t: irrational rot, so an enclosure
ENCLOSED = f"conj(rot(t), {THREE_LEAF})"


def _both(*argv):
    return [list(argv), list(argv) + ["--json"]]


COMMANDS = [
    # the criterion-10 commands
    ["random", "--size", "6", "--seed", "42", "--flavor", "T_tau", "--json"],
    ["random", "--size", "4", "--seed", "7", "--flavor", "Lift", "--json"],
    ["defect", "--search", "--samples", "8", "--seed", "13",
     "--max-den", "64", "--json"],
    ["defect", "--n", "4", "--json"],
    ["rot", f"lift({TORSION}, 0)", "--json"],
    ["scl", "lift(trans(t),0)", "--json"],
    ["connect", "1-t,t", "1-t,2-2*t", "--json"],
    ["factor", "rot(t)", "--json"],
    # rot: rational, rational with n != 0, translation, enclosure, syntax error
    ["rot", f"lift({TORSION}, 0)"],
    *_both("rot", f"lift({TORSION}, 2)"),
    *_both("rot", "trans(t)"),
    *_both("rot", f"lift({ENCLOSED}, 0)", "--max-iter", "64"),
    *_both("rot", "trans("),
    # scl: the same cases
    ["scl", "lift(trans(t),0)"],
    *_both("scl", f"lift({TORSION}, -2)"),
    *_both("scl", "trans(1-2*t)"),
    *_both("scl", f"lift({ENCLOSED}, 3)", "--max-iter", "64"),
    *_both("scl", "rot(2*)"),
    # eval
    *_both("eval", f"lift({TORSION}, 1)"),
    *_both("eval", THREE_LEAF),
    *_both("eval", INTERVAL_MAP),
    *_both("eval", "let a = rot(t); comm(a, rot(1-t)) * a^-2"),
    *_both("eval", "rot(1 2)"),
    # factor
    ["factor", "rot(t)"],
    *_both("factor", THREE_LEAF),
    # connect, plain and --derived, and a leading minus after --
    ["connect", "1-t,t", "1-t,2-2*t"],
    *_both("connect", "1-t", "t", "--derived"),
    ["connect", "--", "-1+2*t", "t"],
    ["connect", "--json", "--", "-1+2*t", "t"],
    # budget exhaustion (exit 2) and a defect witness
    *_both("defect", "--n", "2", "--max-den", "1"),
    ["defect", "--n", "3"],
    # random and check of an expression
    *_both("random", "--flavor", "F_tau", "--seed", "4"),
    *_both("check", "comm(rot(t), rot(1-t))"),
    # lifts with negative and nested translation parts, products, inverses
    *_both("rot", f"lift({ENCLOSED}, -2)", "--max-iter", "64"),
    ["eval", f"lift(lift({TORSION}, 1), -3)", "--json"],
    ["eval", f"lift({THREE_LEAF}, 2) * lift({TORSION}, -1)", "--json"],
    ["eval", f"lift({THREE_LEAF}, 2)^-1", "--json"],
    # an enclosure at an iteration count that is not a power of two
    *_both("rot", f"lift({ENCLOSED}, 0)", "--max-iter", "1000"),
]


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = main(list(argv))
    return rc, out.getvalue()


def golden_records(workdir: Path) -> list[dict]:
    records = []
    for argv in COMMANDS:
        rc, out = _run(argv)
        records.append({"argv": argv, "exit": rc, "stdout": out})
    for i, rec in enumerate(list(records)):
        if (rec["exit"] != 0 or "--json" not in rec["argv"]
                or rec["argv"][0] == "check"):
            continue
        path = workdir / f"answer-{i}.json"
        path.write_text(rec["stdout"], encoding="utf-8")
        for extra in ([], ["--json"]):
            rc, out = _run(["check", str(path)] + extra)
            records.append({"argv": ["check", f"<answer {i}>"] + extra,
                            "exit": rc, "stdout": out})
    return records


def test_golden_cli_output(tmp_path):
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    actual = golden_records(tmp_path)
    assert [r["argv"] for r in actual] == [r["argv"] for r in expected]
    changed = [" ".join(a["argv"])[:120] for a, e in zip(actual, expected)
               if (a["exit"], a["stdout"]) != (e["exit"], e["stdout"])]
    assert not changed, f"{len(changed)} commands changed output: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recs = golden_records(Path(tmp))
    DATA.write_text(json.dumps(recs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(recs)} records to {DATA}", file=sys.stderr)
