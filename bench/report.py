"""Reference figures for the README: two sets of seeded runs per workload,
then one traced run per workload.

    python3 bench/report.py

Every run is as long as `run_seconds` in BENCHMARK.json.  Set A uses
seeds 1..RUNS and set B seeds RUNS+1..2*RUNS.  For every
end-to-end metric it prints the median and quartiles of each set, raw and
at reference speed, the spread (quartile distance over median) and the
change of the median from A to B.  The tables go to standard output and
to bench/results/report.md.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
RUNS = 10
WORKLOADS = ("rot-queries", "enclosure-replay", "certificates")
METRICS = ("setup_s", "ops_per_s", "answer_p50_ms", "answer_p90_ms",
           "check_p50_ms", "output_kb", "peak_rss_mb")


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def quartiles(values) -> tuple[float, float, float]:
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def fmt(x: float) -> str:
    return f"{x:.4g}"


def main() -> int:
    out = []
    for wl in WORKLOADS:
        sets = {}
        for name, seeds in (("A", range(1, RUNS + 1)), ("B", range(RUNS + 1, 2 * RUNS + 1))):
            rows = []
            for seed in seeds:
                result, extra = run_once(wl, seed, 0)
                if not result["correct"] or result["failed"]:
                    print(f"{wl} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']}", file=sys.stderr)
                rows.append((result, extra))
            sets[name] = rows
        out.append(f"\n### {wl}\n")
        out.append("| metric | set | scaled q1 / median / q3 | spread | raw q1 / median / q3 "
                   "| spread | median B vs A |")
        out.append("|---|---|---|---|---|---|---|")
        for m in METRICS:
            meds = {}
            for name, rows in sets.items():
                scaled = [r["metrics"][m]["value"] for r, _ in rows]
                raw = [e["raw"][m] for _, e in rows]
                sq, rq = quartiles(scaled), quartiles(raw)
                meds[name] = sq[1]
                change = "" if name == "A" else f"{100 * (sq[1] / meds['A'] - 1):+.2f}%"
                out.append(f"| {m} | {name} | {' / '.join(map(fmt, sq))} "
                           f"| {100 * (sq[2] - sq[0]) / sq[1]:.2f}% "
                           f"| {' / '.join(map(fmt, rq))} "
                           f"| {100 * (rq[2] - rq[0]) / rq[1]:.2f}% | {change} |")
        speeds = [e["speed_factor"] for rows in sets.values() for _, e in rows]
        attempted = sorted({r["attempted"] for rows in sets.values() for r, _ in rows})
        rounds = sorted({e["rounds"] for rows in sets.values() for _, e in rows})
        out.append(f"\nspeed factor (q1 / median / q3) over all runs: "
                   f"{' / '.join(map(fmt, quartiles(speeds)))}; attempted per run: "
                   f"{attempted}; rounds per run: {rounds}")
        print("\n".join(out[-(len(METRICS) * 2 + 4):]), flush=True)
    out.append("\n### traced runs (seed 1)\n")
    traced = {wl: run_once(wl, 1, 1) for wl in WORKLOADS}
    names = list(traced[WORKLOADS[0]][0]["metrics"])
    out.append("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    out.append("|---|---|" + "---|" * len(WORKLOADS))
    for n in names:
        unit = traced[WORKLOADS[0]][0]["metrics"][n]["unit"]
        vals = [fmt(traced[wl][0]["metrics"][n]["value"]) for wl in WORKLOADS]
        out.append(f"| {n} | {unit} | " + " | ".join(vals) + " |")
    out.append("\ntraced operations: " + ", ".join(
        f"{wl} {traced[wl][1]['traced_operations']}" for wl in WORKLOADS))
    text = "\n".join(out) + "\n"
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "report.md").write_text(text, encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
