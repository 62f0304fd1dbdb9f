"""The patfix benchmark: end-to-end and per-layer metrics of three workloads.

Each measured session is a fresh, single-threaded interpreter
(``session.py``) that imports ``patfix`` from this checkout's ``src/``
and runs one workload's CLI commands.  Sessions run one after another,
never in parallel; the run keeps starting them until ``--seconds`` is
spent (at least three) and reports medians.  Times are scaled to a fixed
host speed, read from a reference loop in each session (see NOTES.md).
Every command's stdout and exit code are checked against the goldens in
``goldens/``.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, one after another

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics (setup_s, run_s, cells_per_s, peak_rss_mb); with
``--trace 1`` it carries the per-layer metrics of ``layers.py``.  The
lines before it give the same figures for a reader, the fail ratio and
the machine.  The exit code is 0 when the run completed, whether or not
outputs matched (``correct`` says that), and 1 if a session could not
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_SESSIONS = 3
#: No new session starts once this much of a run is spent, whatever
#: MIN_SESSIONS says, so that a run ends well within three minutes.
RUN_BUDGET_S = 140.0
SESSION_TIMEOUT_S = 150.0
#: Session times are scaled to a host on which the session's reference
#: loops take this long: the typical figure on the host the benchmark
#: was defined on, so that scaled times read close to its wall times.
REFERENCE_S = 0.07

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **layers.METRIC_UNITS,
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """A session could not run; the benchmark prints no result."""


def child_env() -> dict[str, str]:
    """The caller's environment minus anything that could change a
    workload: patfix's one knob is dropped, patfix is imported from this
    checkout only, and numeric libraries start no worker threads."""
    env = dict(os.environ)
    env.pop("PATFIX_ORACLE_CAP", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], env: dict[str, str]) -> dict:
    """Run one session to completion and return its report, plus
    ``setup_s`` and the peak RSS of that child alone (``os.wait4``).

    ``setup_s`` and ``run_s`` are scaled by ``REFERENCE_S`` over the
    session's reference time; the measured figures stay under
    ``wall_setup_s`` and ``wall_run_s``."""
    cmd = [sys.executable, str(HERE / "session.py"), *args]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    chunks = []
    deadline = time.monotonic() + SESSION_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not sel.select(remaining):
                proc.kill()
                break
            data = os.read(proc.stdout.fileno(), 1 << 16)
            if not data:
                break
            chunks.append(data)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"session {' '.join(args)} exited with {proc.returncode}")
    report = json.loads(b"".join(chunks))
    if not Path(report["patfix_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"patfix was imported from {report['patfix_file']}, not {SRC}")
    scale = REFERENCE_S / report["reference_s"]
    report["wall_setup_s"] = report["imported_at"] - started
    report["setup_s"] = report["wall_setup_s"] * scale
    if "run_s" in report:
        report["wall_run_s"] = report["run_s"]
        report["run_s"] *= scale
    report["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB
    return report


def count_failures(report: dict, goldens: dict[tuple, dict]) -> int:
    """Commands whose stdout or exit code differ from the golden."""
    failed = 0
    for cmd in report["commands"]:
        gold = goldens[tuple(cmd["argv"])]
        if cmd["stdout"] != gold["stdout"] or cmd["exit"] != gold["exit"]:
            failed += 1
            print(f"MISMATCH: {' '.join(cmd['argv'])} (exit {cmd['exit']}, "
                  f"golden {gold['exit']})", file=sys.stderr)
    return failed


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """Sessions of one workload for ``seconds``, and their figures.

    Untraced, each step is one workload session.  Times are medians over
    the run's sessions; peak memory is the largest of them, because it
    depends on the command order and a user may meet any order.  Traced, each
    step is an untraced and a traced workload session with the same
    command order, run back to back, the first of them alternating from
    step to step; the per-layer figures come from the traced session of
    least wall time, and the tracing overhead is the median over steps
    of the traced ``run_s`` minus the untraced one.
    """
    goldens = {tuple(g["argv"]): g for g in workloads.load_goldens(workload)}
    rng = random.Random(seed)
    spawn(["--setup-only"], env)  # fills bytecode caches; not measured
    plain, traced = [], []
    attempted = failed = 0
    start = time.monotonic()
    last_step = 0.0
    while True:
        elapsed = time.monotonic() - start
        if plain and elapsed + last_step > RUN_BUDGET_S:
            break
        if len(plain) >= MIN_SESSIONS and elapsed + last_step > seconds:
            break
        step_start = time.monotonic()
        order = ["--workload", workload, "--seed", str(rng.randrange(2**32))]
        step = [(plain, order), (traced, [*order, "--trace", "1"])] if trace else [(plain, order)]
        if len(plain) % 2:
            step.reverse()
        for reports, args in step:
            reports.append(spawn(args, env))
            attempted += len(reports[-1]["commands"])
            failed += count_failures(reports[-1], goldens)
        last_step = time.monotonic() - step_start

    if trace:
        fastest_traced = min(traced, key=lambda r: r["wall_run_s"])
        metrics = dict(fastest_traced["layers"])
        metrics["trace.overhead_s"] = statistics.median(
            t["run_s"] - p["run_s"] for p, t in zip(plain, traced))
        units = PER_LAYER_UNITS
    else:
        run_s = statistics.median(r["run_s"] for r in plain)
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "run_s": run_s,
            "cells_per_s": workloads.cell_count(workload, list(goldens.values())) / run_s,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END_UNITS
    wall = {
        "setup_s": statistics.median(r["wall_setup_s"] for r in plain),
        "run_s": statistics.median(r["wall_run_s"] for r in plain),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "wall": wall,
        "sessions": len(plain) + len(traced),
        "versions": {"python": plain[0]["python"], "numpy": plain[0]["numpy"]},
    }


def machine(versions: dict, loadavg: tuple) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **versions,
        "loadavg": loadavg,
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text(encoding="utf-8").strip()
        return head
    except OSError:
        return "unknown"


def summary_line(workload: str, result: dict) -> str:
    cells = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    if "setup_s" in result["metrics"]:
        cells.append(f"fail_ratio={result['failed'] / result['attempted']:.6g} 1")
    return (f"{workload}: " + "  ".join(cells)
            + f"  [{result['sessions']} sessions, {result['attempted']} commands;"
            f" unscaled medians: setup"
            f" {result['wall']['setup_s']:.4g} s, run {result['wall']['run_s']:.4g} s]")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    loadavg = os.getloadavg()
    env = child_env()
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), env)
            print(summary_line(name, results[name]), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info = machine(next(iter(results.values()))["versions"], loadavg)
    print("machine: " + json.dumps(info))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
