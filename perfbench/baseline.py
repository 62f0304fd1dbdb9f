"""Measure the benchmark as the acceptance check does, and record it.

Two sets, one after the other, of ``RUNS`` untraced runs per workload
(seeds 1..RUNS, ``run_seconds`` of ``BENCHMARK.json`` each), then
``TRACE_RUNS`` traced runs per workload.  Per metric it records the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.
For every end-to-end metric it then checks the bound of
``BENCHMARK.json``: each set's spread within the bound (``setup_s``
exempt), and the second set's median no worse than the first's by more
than the bound.  Compare two commits by running this on each,
alternating which goes first.

    python3 perfbench/baseline.py --out perfbench/BENCH_seed.json
    python3 perfbench/baseline.py --workload superwilf
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = SPEC["run_seconds"]
RUNS = 10
TRACE_RUNS = 1
SETS = 2


def one_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, check=True, capture_output=True,
                         text=True, timeout=600).stdout.splitlines()
    machine = json.loads(out[-2].removeprefix("machine: "))
    return json.loads(out[-1]), machine


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def measure(workload: str, trace: int, count: int) -> tuple[bool, dict, dict]:
    """``count`` runs of one workload; whether all were correct, the
    summary of each metric, and the machine of the last run."""
    correct = True
    values: dict[str, list[float]] = {}
    for seed in range(1, count + 1):
        line, machine = one_run(workload, seed, trace)
        correct &= line["correct"] and line["failed"] == 0
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return correct, {name: summarise(v) for name, v in values.items()}, machine


def check(sets: list[dict]) -> list[dict]:
    """Each end-to-end metric of each workload against its bound."""
    rows = []
    for spec in SPEC["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        for workload in sets[0]:
            first, second = (s[workload][name] for s in sets)
            worse = (second["median"] - first["median"]) / first["median"]
            if spec["better"] == "higher":
                worse = -worse
            spreads = [s[workload][name]["spread"] for s in sets]
            spread_ok = name == "setup_s" or max(spreads) <= bound
            rows.append({
                "workload": workload, "metric": name, "bound": bound,
                "spreads": spreads, "second_worse_by": worse,
                "ok": spread_ok and worse <= bound,
                "steady": max(spreads) < bound / 3,
            })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    names = args.workload or list(workloads.WORKLOADS)

    correct = True
    sets = []
    for index in range(SETS):
        summary = {}
        for workload in names:
            ok, summary[workload], machine = measure(workload, 0, RUNS)
            correct &= ok
            for name, s in summary[workload].items():
                print(f"set {index + 1} {workload:12s} {name:12s} median={s['median']:.6g} "
                      f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}",
                      flush=True)
        sets.append(summary)
    per_layer = {}
    for workload in names:
        ok, per_layer[workload], machine = measure(workload, 1, TRACE_RUNS)
        correct &= ok
    checks = check(sets)
    for row in checks:
        print(f"{row['workload']:12s} {row['metric']:12s} bound={row['bound']} "
              f"spreads={row['spreads'][0]:.4f},{row['spreads'][1]:.4f} "
              f"second_worse_by={row['second_worse_by']:+.4f} "
              f"{'ok' if row['ok'] else 'OVER BOUND'}"
              f"{'' if row['steady'] else ' (spread not below a third of the bound)'}")
    print(f"correct={correct}")
    if args.out:
        result = {"seconds": SECONDS, "runs": RUNS, "machine": machine, "correct": correct,
                  "sets": sets, "per_layer": per_layer, "checks": checks}
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
