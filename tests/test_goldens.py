"""Every command the benchmark runs prints exactly its golden output.

The goldens in ``perfbench/goldens/*.json`` were captured from the CLI
and pin stdout and the exit code of each command byte for byte.  They
are only read here.
"""

import json
from pathlib import Path

import pytest

from patfix.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"

RECORDS = [
    pytest.param(record, id=f"{path.stem}-{i}")
    for path in sorted(GOLDEN_DIR.glob("*.json"))
    for i, record in enumerate(json.loads(path.read_text(encoding="utf-8"))["commands"])
]


@pytest.mark.parametrize("record", RECORDS)
def test_command_matches_its_golden(capsys, record):
    code = main(list(record["argv"]))
    assert capsys.readouterr().out == record["stdout"]
    assert code == record["exit"]


def test_every_workload_has_goldens():
    workloads = {p.id.rsplit("-", 1)[0] for p in RECORDS}
    assert workloads == {"audit", "routes-deep", "superwilf"}
