"""Tests of the benchmark's own code: tracing, goldens and isolation.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import workloads  # noqa: E402

import patfix.audit  # noqa: E402
import patfix.cli  # noqa: E402
import patfix.equivalence  # noqa: E402
import patfix.formulas  # noqa: E402
import patfix.genfun  # noqa: E402
import patfix.oracle  # noqa: E402

#: Modules that import a traced function by name, and the defining
#: module where the package itself calls it through its own globals.
IMPORT_SITES = [
    (patfix.audit, "enumerate_avoiders", patfix.oracle),
    (patfix.audit, "refined_count", patfix.oracle),
    (patfix.audit, "evaluate", patfix.formulas),
    (patfix.audit, "recurrence_check", patfix.formulas),
    (patfix.audit, "series_coefficients", patfix.genfun),
    (patfix.audit, "sum_over_k", patfix.genfun),
    (patfix.equivalence, "refined_count", patfix.oracle),
    (patfix.formulas, "count_table", patfix.oracle),
    (patfix.formulas, "series_coefficients", patfix.genfun),
    (patfix.cli, "refined_count", patfix.oracle),
    (patfix.cli, "enumerate_avoiders", patfix.oracle),
    (patfix.cli, "evaluate", patfix.formulas),
    (patfix.cli, "series_coefficients", patfix.genfun),
    (patfix.cli, "super_wilf_classes", patfix.equivalence),
    (patfix.cli, "divergence_witness", patfix.equivalence),
    (patfix.oracle, "refined_count", patfix.oracle),
]

SMALL_COMMANDS = [
    ["verify", "--all", "--n-max", "6", "--format", "json"],
    ["classes", "--mode", "superwilf", "--size", "2", "--n-max", "7"],
    ["avoiders", "--patterns", "132,231", "--n", "5"],
    ["table", "--patterns", "231,321", "--method", "generator", "--n-max", "8"],
    ["table", "--patterns", "231,321", "--method", "formula", "--n-max", "12"],
    ["sequence", "--patterns", "231,321", "--method", "gf", "--k", "2", "--n-max", "12"],
]
ROUTE_COMMANDS = SMALL_COMMANDS[3:]


@pytest.fixture
def tracer():
    t = layers.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def traced_run(argvs):
    t = layers.Tracer()
    t.install()
    try:
        results = session.run_commands(argvs)
    finally:
        t.uninstall()
    return results, t.metrics()


def test_every_import_site_is_wrapped(tracer):
    for module, name, home in IMPORT_SITES:
        original = vars(home)[name].__wrapped__
        wrapped = getattr(module, name)
        assert wrapped is not original, f"{module.__name__}.{name} is not traced"
        assert wrapped.__wrapped__ is original


def test_uninstall_restores_every_site():
    before = {(m.__name__, n): getattr(m, n) for m, n, _ in IMPORT_SITES}
    t = layers.Tracer()
    t.install()
    t.uninstall()
    assert {(m.__name__, n): getattr(m, n) for m, n, _ in IMPORT_SITES} == before


def test_traced_stdout_is_byte_identical_to_untraced():
    plain = session.run_commands(SMALL_COMMANDS)
    traced, metrics = traced_run(SMALL_COMMANDS)
    assert traced == plain
    assert [r["exit"] for r in plain] == [1, 0, 0, 0, 0, 0]
    assert metrics["cli.commands"] == len(SMALL_COMMANDS)
    assert metrics["oracle.enumerate_avoiders.self_s"] > 0
    assert metrics["oracle.avoiders"] > 0
    assert 0 < metrics["oracle.yield_ratio"] < 1
    assert metrics["equivalence.divergence_witness.calls"] > 0
    assert metrics["audit.cells"] > 0


def test_routes_never_reach_the_oracle():
    _, metrics = traced_run(ROUTE_COMMANDS)
    assert metrics["genfun.series_coefficients.self_s"] > 0
    assert metrics["genfun.series_terms"] > 0
    assert metrics["generators.perms_built"] > 0
    assert metrics["formulas.evaluate.calls"] == 13 * 14 // 2
    for name, value in metrics.items():
        if name.startswith("oracle."):
            assert value == 0, name


def test_abandoned_generator_leaves_spans_balanced(tracer):
    first = next(patfix.cli.enumerate_avoiders(6, "123"))
    assert first.compact() == "165432"
    metrics = tracer.metrics()
    assert metrics["oracle.enumerate_avoiders.calls"] == 1
    assert metrics["oracle.sweep_perms"] == 720


def test_goldens_match_the_command_lists():
    for name in workloads.WORKLOADS:
        goldens = workloads.load_goldens(name)
        assert workloads.cell_count(name, goldens) > 0
    assert workloads.cell_count("superwilf", []) == 41 * 66
    assert workloads.cell_count("routes-deep", []) == 14 * 120 + 21 * 861 + 9 * 41
    (audit,) = workloads.load_goldens("audit")
    assert audit["exit"] == 1


def test_child_environment_drops_the_cap(monkeypatch):
    monkeypatch.setenv("PATFIX_ORACLE_CAP", "3")
    env = run.child_env()
    assert "PATFIX_ORACLE_CAP" not in env
    assert env["PYTHONPATH"] == str(run.SRC)
