"""The three workloads as rounds of operations.

A round's inputs come from `inputs`, which never calls the program; the
builders here turn them into operations, asking the program for whatever
it must make itself (random elements, evaluated elements).  An operation
has an answer, made through the program's public entry points
(`taut.cli.main` in-process, or the library where no command exists),
and an independent check of that answer from `checks`.  The replay by
`taut check` is run by the harness for every operation.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import checks
import inputs
from inputs import pointwise


@dataclass
class Op:
    family: str
    answer: Callable[[], tuple[int, str]]   # (exit code, canonical JSON text)
    verify: Callable[[dict], str | None]     # independent check of the answer


def cli_call(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


# Entry points are looked up on their modules at call time, so that the
# traced run sees the wrappers it installs there.

def _rot_queries(specs: list[dict], taut) -> list[Op]:
    ops = []
    for q in specs:
        if q["family"] == "random-lift":
            elem = taut.construct.random_element(q["element_seed"], q["leaves"], "Lift")
            obj = elem.to_json()
            q = dict(q, node=("lift", ("map", obj["base"]), obj["n"]),
                     text=taut.expr.to_expression(elem))
        argv = ["scl", "--json", "--", q["text"]]
        ops.append(Op(
            q["family"],
            lambda argv=argv: cli_call(taut.cli.main, argv),
            lambda obj, q=q: checks.check_scl(obj, pointwise(q["node"]), q["rot"])))
    return ops


def _enclosure_replay(specs: list[dict], taut) -> list[Op]:
    n = inputs.ENCLOSURE_N
    ops = []
    for q in specs:
        f = taut.expr.evaluate_str(q["text"])
        ops.append(Op(
            q["family"],
            lambda f=f: (0, taut.expr.canonical_json(
                taut.lift.rot_enclosure(f, n).to_json(f))),
            lambda obj, q=q: checks.check_rot(obj, pointwise(q["node"]), q["rot"])))
    return ops


def _certificates(specs: list[dict], taut) -> list[Op]:
    ops = []
    for q in specs:
        fam = q["family"]
        if fam in ("connect", "derived"):
            src = [x.literal() for x in q["sources"]]
            tgt = [x.literal() for x in q["targets"]]
            argv = ["connect", "--json"] + (["--derived"] if q["derived"] else []) \
                + ["--", ",".join(src), ",".join(tgt)]
            verify = (lambda obj, q=q: checks.check_connect(
                obj, q["sources"], q["targets"], q["derived"]))
        elif fam == "factor":
            argv = ["factor", "--json", "--", q["text"]]
            verify = lambda obj, q=q: checks.check_factor(obj, pointwise(q["node"]))
        elif fam == "commutator":
            g = taut.expr.evaluate_str(q["text"])
            x = taut.ring.ZTau(q["x"].a, q["x"].b)
            ops.append(Op(
                fam,
                lambda g=g, x=x, s=q["seed"]: (0, taut.expr.serialize(
                    taut.construct.commutator_trick(g, x, seed=s))),
                lambda obj, q=q: checks.check_commutator(obj, pointwise(q["node"]), q["x"])))
            continue
        elif fam == "defect-n":
            argv = ["defect", "--json", "--n", str(q["n"])]
            verify = lambda obj, q=q: checks.check_defect(obj, q["n"])
        else:
            argv = ["defect", "--json", "--search", "--samples", str(q["samples"]),
                    "--seed", str(q["seed"])]
            verify = lambda obj: checks.check_defect(obj, None)
        ops.append(Op(fam, lambda argv=argv: cli_call(taut.cli.main, argv), verify))
    return ops


# workload -> (inputs of one round from (seed, round), builder of its operations)
WORKLOADS = {
    "rot-queries": (inputs.rot_queries, _rot_queries),
    "enclosure-replay": (inputs.enclosure_inputs, _enclosure_replay),
    "certificates": (inputs.certificate_inputs, _certificates),
}


def round_ops(workload: str, seed: int, rnd: int, taut) -> list[Op]:
    specs, build = WORKLOADS[workload]
    return build(specs(seed, rnd), taut)
