"""Write ``goldens/<workload>.json``: every workload command's exit code
and stdout, as printed by the code in this checkout.

The committed goldens were captured from the commit that defined the
benchmark; re-capture only when a change to the printed output is the
point of that change, and say so in its description.

    python3 perfbench/capture_goldens.py [workload ...]
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def capture(workload: str) -> None:
    report = run.spawn(["--workload", workload], run.child_env())
    by_argv = {tuple(r["argv"]): r for r in report["commands"]}
    records = [
        {"argv": argv, "exit": by_argv[tuple(argv)]["exit"],
         "stdout": by_argv[tuple(argv)]["stdout"]}
        for argv in workloads.commands(workload)
    ]
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    path = workloads.GOLDEN_DIR / f"{workload}.json"
    path.write_text(json.dumps({"workload": workload, "commands": records}, indent=1) + "\n",
                    encoding="utf-8")
    print(f"{path}: {len(records)} commands")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(workloads.WORKLOADS):
        capture(name)
