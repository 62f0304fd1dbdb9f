"""One benchmark session, run by ``run.py`` as a fresh interpreter.

The session imports ``patfix.cli`` first (that import is the measured
set-up), then runs one workload's commands through ``patfix.cli.main``
in one process, so the package's process-lifetime caches start cold and
are shared across the commands as in a library session.  Before and
after the commands it times a fixed reference loop.  It prints one JSON
object on stdout: when the import returned, the commands' wall time, the
reference time, and each command's exit code and stdout.

    python3 perfbench/session.py --workload audit --seed 7 --trace 0
    python3 perfbench/session.py --setup-only
"""

import time

import patfix.cli

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402  -- after the measured import
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def run_commands(argvs: list[list[str]]) -> list[dict]:
    """Run each argv through ``patfix.cli.main``; capture exit and stdout.

    A command that raises is recorded with its exception name as the exit
    code, so it fails the golden check instead of ending the session.
    """
    results = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = patfix.cli.main(list(argv))
            except Exception as exc:  # recorded as a failed command
                traceback.print_exc()
                code = f"raised {type(exc).__name__}"
        results.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
    return results


#: Iterations of the reference loop.  Twice this takes about 0.07 s on
#: the 2-vCPU Xeon the benchmark was defined on.
REFERENCE_LOOPS = 500_000


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop, which reads the host's
    CPU speed at this moment; the code under test never runs in it."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles the order of the workload's commands")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    before = reference_s()
    numpy = sys.modules.get("numpy")
    report = {
        "imported_at": IMPORTED_AT,
        "patfix_file": patfix.cli.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__ if numpy is not None else None,
    }
    if not args.setup_only:
        if args.workload is None:
            parser.error("--workload is required")
        argvs = workloads.commands(args.workload)
        random.Random(args.seed).shuffle(argvs)
        tracer = None
        if args.trace:
            import layers

            tracer = layers.Tracer()
            tracer.install()
        start = time.perf_counter()
        results = run_commands(argvs)
        report["run_s"] = time.perf_counter() - start
        report["commands"] = results
        if tracer is not None:
            tracer.uninstall()
            layer_metrics = tracer.metrics()
            layer_metrics["cli.stdout_bytes"] = sum(
                len(r["stdout"].encode("utf-8")) for r in results
            )
            report["layers"] = layer_metrics
    report["reference_s"] = before + reference_s()
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
