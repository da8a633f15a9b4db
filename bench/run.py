"""Benchmark of the taut program: one workload per run, timed at reference speed.

    python3 bench/run.py --workload rot-queries --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src`.
Each operation is an answer through the program's public entry points
and a replay of that answer by `taut check`.  A run is made of whole
rounds, each with its own inputs drawn from (seed, round index), until
--seconds have passed.  Every answer is checked by the benchmark's own
pointwise oracle as its round ends, and afterwards a sample of answers
is made again to confirm they are deterministic.
Timings are rescaled to reference speed (see refload.py).  The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from refload import Gauge  # noqa: E402
from workloads import WORKLOADS, cli_call, round_ops  # noqa: E402

SETUP_REPS = 15         # set-up is repeated and its median reported
GAUGE_EVERY_S = 0.05    # at most this much operation time between reference samples
MIN_OPS = 100           # answer_p90_ms needs ten answers beyond it
REPLAYS = 2             # answers made again per family to confirm determinism
MODULES = ("cli", "expr", "lift", "construct", "ring")


def taut_modules() -> SimpleNamespace:
    importlib.import_module("taut")
    return SimpleNamespace(**{m: importlib.import_module(f"taut.{m}") for m in MODULES})


def load_taut() -> SimpleNamespace:
    """Import taut afresh, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "taut" or m.startswith("taut.")]:
        del sys.modules[name]
    return taut_modules()


def set_up(workload: str, seed: int, gauge: Gauge):
    """Import the program and build round 0's operations SETUP_REPS times;
    return the last build and the (start, end) stamps of every repetition.

    Round 0's inputs are drawn before the clock starts, so only the
    program's part is timed: its import and the calls the builder makes.
    """
    specs, build = WORKLOADS[workload]
    inputs = specs(seed, 0)
    spans = []
    for _ in range(SETUP_REPS):
        # the copies imported before are garbage now; collect them first,
        # so each repetition starts from a clean heap, as a fresh process does
        gc.collect()
        gauge.sample()
        gauge.sample()
        t0 = perf_counter()
        taut = load_taut()
        ops = build(inputs, taut)
        spans.append((t0, perf_counter()))
    gauge.sample()
    gauge.sample()
    return taut, ops, spans


def run_op(op, main, path: Path):
    """Answer op, then replay the answer with `taut check`.

    Returns (answer text, (answer start, answer end, check start, check
    end)), or None if either step failed.
    """
    try:
        t0 = perf_counter()
        rc, text = op.answer()
        t1 = perf_counter()
        if rc == 0:
            path.write_text(text, encoding="utf-8")
            c0 = perf_counter()
            rc, out = cli_call(main, ["check", "--json", "--", str(path)])
            c1 = perf_counter()
            if rc == 0 and json.loads(out).get("ok") is True:
                return text, (t0, t1, c0, c1)
    except Exception as exc:  # a failing operation is counted, not fatal
        print(f"a {op.family} operation raised {exc!r}", file=sys.stderr)
        return None
    print(f"a {op.family} operation exited {rc}", file=sys.stderr)
    return None


def timed_rounds(workload: str, seed: int, ops, taut, seconds: float,
                 gauge: Gauge, path: Path) -> SimpleNamespace:
    """Run rounds 0, 1, 2, ... while another round still fits in `seconds`
    (at least one round, and at least MIN_OPS operations).  Round 0's
    operations are given; each later round's are built, untimed, from
    (seed, round index), so no operation repeats within a run.  The
    oracle checks each round's answers, untimed, as the round ends, and
    only round 0's are kept, so memory does not grow with the run.

    Returns the samples (answer start, end, check start, end), round 0 as
    (operations, answer texts), the answer bytes of each round, the
    attempted and failed counts, and whether every answer passed the oracle.
    """
    run = SimpleNamespace(samples=[], first=None, out_bytes=[], attempted=0,
                          failed=0, good=True)
    begin = perf_counter()
    while True:
        round_start = perf_counter()
        if run.first:
            ops = round_ops(workload, seed, len(run.out_bytes), taut)
        texts = [None] * len(ops)
        for i, op in enumerate(ops):
            gauge.maybe_sample()
            run.attempted += 1
            done = run_op(op, taut.cli.main, path)
            if done is None:
                run.failed += 1
                continue
            texts[i], times = done
            run.samples.append(times)
        run.good = oracle(ops, texts) and run.good
        run.out_bytes.append(sum(len(t.encode()) for t in texts if t))
        run.first = run.first or (ops, texts)
        now = perf_counter()
        if run.attempted >= MIN_OPS and now - begin + (now - round_start) > seconds:
            return run


def answers_again(ops, texts) -> bool:
    """Make the first REPLAYS answers of each family again; true if every
    one comes out byte for byte as before."""
    made = Counter()
    same = True
    for op, text in zip(ops, texts):
        if text is None or made[op.family] >= REPLAYS:
            continue
        made[op.family] += 1
        rc, again = op.answer()
        if rc != 0 or again != text:
            print(f"a {op.family} operation answered differently the second time",
                  file=sys.stderr)
            same = False
    return same


def oracle(ops, texts) -> bool:
    """Check every answer with the benchmark's own pointwise oracle."""
    good = True
    for op, text in zip(ops, texts):
        if text is None:
            continue
        why = op.verify(json.loads(text))
        if why:
            print(f"wrong {op.family} answer: {why}", file=sys.stderr)
            good = False
    return good


def summarize(samples, setup_spans, out_bytes, gauge: Gauge, scaled: bool) -> dict:
    def dur(t0, t1):
        return (t1 - t0) * (gauge.factor(t0, t1) if scaled else 1.0)

    answers = [dur(a0, a1) for a0, a1, _, _ in samples]
    checks = [dur(c0, c1) for _, _, c0, c1 in samples]
    return {
        "setup_s": statistics.median(dur(t0, t1) for t0, t1 in setup_spans),
        "ops_per_s": len(samples) / (sum(answers) + sum(checks)),
        "answer_p50_ms": 1000 * statistics.median(answers),
        "answer_p90_ms": 1000 * statistics.quantiles(answers, n=10)[8],
        "check_p50_ms": 1000 * statistics.median(checks),
        "output_kb": statistics.mean(out_bytes) / 1024,
    }


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "answer_p50_ms": "ms",
         "answer_p90_ms": "ms", "check_p50_ms": "ms", "output_kb": "KiB",
         "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "taut" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'taut'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Set-up imports the program from cached bytecode after its first
    # repetition, as an installed program does, whatever the environment
    # says about writing bytecode.
    sys.dont_write_bytecode = False
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    answer_path = RESULTS / f"{tag}-{os.getpid()}.answer.json"

    gauge = Gauge(GAUGE_EVERY_S)
    taut, ops, setup_spans = set_up(args.workload, args.seed, gauge)
    try:
        if args.trace:
            import tracing

            report = tracing.traced_run(ops, taut, args.seconds, gauge, answer_path,
                                        RESULTS / f"{tag}.spans.json")
            correct = oracle(ops, report.pop("first"))
            attempted, failed = report.pop("attempted"), report.pop("failed")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}
        else:
            run = timed_rounds(args.workload, args.seed, ops, taut, args.seconds,
                               gauge, answer_path)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            scaled = summarize(run.samples, setup_spans, run.out_bytes, gauge, scaled=True)
            raw = summarize(run.samples, setup_spans, run.out_bytes, gauge, scaled=False)
            scaled["peak_rss_mb"] = raw["peak_rss_mb"] = rss_mb
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in scaled.items()}
            print(json.dumps({"raw": raw, "speed_factor": gauge.speed(),
                              "operations_timed": len(run.samples),
                              "rounds": len(run.out_bytes)}))
            correct = answers_again(*run.first) and run.good
            attempted, failed = run.attempted, run.failed
    finally:
        answer_path.unlink(missing_ok=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
