"""The benchmark's workloads: fixed lists of ``patfix`` CLI commands.

Each workload is a list of argv lists for ``patfix.cli.main``.  The lists
are written out here rather than read from the package, so that a change
to the package cannot change what is measured; the golden outputs in
``goldens/`` pin what every command must print.
"""

from __future__ import annotations

import json
from math import comb
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: Pattern sets with a registered closed form (21) and with a structural
#: generator (14), as registered in the package when the benchmark was
#: defined.
FORMULA_SETS = (
    "123,321", "123,132", "123,231", "132,213", "132,231", "132,321",
    "213,231", "231,312", "231,321", "123,132,321", "123,213,321",
    "123,231,321", "123,312,321", "123,132,213", "123,132,231",
    "123,231,312", "132,213,231", "132,213,321", "132,231,312",
    "132,231,321", "231,312,321",
)
GENERATOR_SETS = (
    "123,132", "132,213", "123,231", "132,231", "132,321", "231,312",
    "231,321", "123,132,231", "123,231,312", "132,213,231", "132,213,321",
    "132,231,312", "132,231,321", "231,312,321",
)

GENERATOR_N_MAX = 14  # the structural generation cap
FORMULA_N_MAX = 40
GF_N_MAX = 40
GF_K_MAX = 8
SUPERWILF_N_MAX = 10
SUPERWILF_SIZES = (1, 2, 3)
AUDIT_N_MAX = 9


def _triangle(n_max: int) -> int:
    """Cells of a refined table with rows n = 0..n_max: sum of (n + 1)."""
    return (n_max + 1) * (n_max + 2) // 2


def _audit() -> list[list[str]]:
    return [["verify", "--all", "--n-max", str(AUDIT_N_MAX), "--format", "json"]]


def _superwilf() -> list[list[str]]:
    return [
        ["classes", "--mode", "superwilf", "--n-max", str(SUPERWILF_N_MAX),
         "--size", str(size)]
        for size in SUPERWILF_SIZES
    ]


def _routes_deep() -> list[list[str]]:
    cmds = [
        ["table", "--patterns", ps, "--method", "generator",
         "--n-max", str(GENERATOR_N_MAX)]
        for ps in GENERATOR_SETS
    ]
    cmds += [
        ["table", "--patterns", ps, "--method", "formula",
         "--n-max", str(FORMULA_N_MAX)]
        for ps in FORMULA_SETS
    ]
    cmds += [
        ["sequence", "--patterns", "231,321", "--method", "gf", "--k", str(k),
         "--n-max", str(GF_N_MAX)]
        for k in range(GF_K_MAX + 1)
    ]
    return cmds


WORKLOADS = {
    "audit": _audit,
    "superwilf": _superwilf,
    "routes-deep": _routes_deep,
}


def commands(workload: str) -> list[list[str]]:
    return WORKLOADS[workload]()


def load_goldens(workload: str) -> list[dict]:
    """Golden ``{"argv", "exit", "stdout"}`` records, in command order."""
    path = GOLDEN_DIR / f"{workload}.json"
    records = json.loads(path.read_text(encoding="utf-8"))["commands"]
    if [r["argv"] for r in records] != commands(workload):
        raise ValueError(f"{path} does not match the {workload} command list")
    return records


def cell_count(workload: str, goldens: list[dict]) -> int:
    """The fixed number of table cells a workload produces, the numerator
    of ``cells_per_s``."""
    if workload == "audit":
        report = json.loads(goldens[0]["stdout"])
        return sum(item["cells_checked"] for item in report)
    if workload == "superwilf":
        pattern_sets = sum(comb(6, size) for size in SUPERWILF_SIZES)
        return pattern_sets * _triangle(SUPERWILF_N_MAX)
    if workload == "routes-deep":
        return (
            len(GENERATOR_SETS) * _triangle(GENERATOR_N_MAX)
            + len(FORMULA_SETS) * _triangle(FORMULA_N_MAX)
            + (GF_K_MAX + 1) * (GF_N_MAX + 1)
        )
    raise KeyError(workload)
