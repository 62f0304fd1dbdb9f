import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from patfix import cli, formulas, generators, oracle
from patfix.formulas import REGISTRY
from patfix.cli import main

# One above the oracle's default cap: refused unless a cap is given.
ABOVE_CAP = str(oracle.DEFAULT_CAP + 1)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _pinned_commands():
    """Every command in each format it prints, on inputs that reach its
    edge cases: an open class, a formula below its domain, a column past
    the diagonal, an empty avoider list, and failing routes."""
    for cmd, extra in (("table", []), ("sequence", ["--k", "0"]), ("sequence", ["--k", "5"])):
        for patterns in ("123", "132,231", "231,321"):
            for method in ("oracle", "formula", "generator"):
                for fmt in ("plain", "json", "csv"):
                    yield [cmd, "--patterns", patterns, *extra, "--n-max", "7",
                           "--method", method, "--format", fmt]
    for fmt in ("plain", "json", "csv"):
        for k in ("0", "2"):
            yield ["sequence", "--patterns", "231,321", "--k", k, "--n-max", "9",
                   "--method", "gf", "--format", fmt]
        for patterns, n in (("123", "0"), ("123,321", "6"), ("231,312", "4")):
            yield ["avoiders", "--patterns", patterns, "--n", n, "--format", fmt]
    for fmt in ("plain", "json"):
        yield ["verify", "--all", "--n-max", "7", "--format", fmt]
        for fid in ("thm-231-312", "thm-132-231"):
            yield ["verify", "--formula", fid, "--n-max", "7", "--format", fmt]
        for size in ("1", "2", "3", "6"):
            yield ["classes", "--size", size, "--mode", "symmetry", "--format", fmt]
            yield ["classes", "--size", size, "--mode", "superwilf", "--n-max", "6",
                   "--format", fmt]
        for k in ("0", "3"):
            yield ["gf", "--k", k, "--terms", "12", "--format", fmt]


# sha256 over (argv, exit code, stdout) of every pinned command.
CLI_DIGEST = "2d7e5db8718b8259f64be0a2b29db639bba6b482fbd44b53af397a590878cb60"


def test_cli_output_digest(capsys):
    digest = hashlib.sha256()
    commands = list(_pinned_commands())
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        digest.update(json.dumps([argv, code, out]).encode() + b"\n")
    assert len(commands) == 122
    assert digest.hexdigest() == CLI_DIGEST


# sha256 over the stdout of ``table --method formula --n-max 60`` for
# every registered closed form, in registry order, per format.
FORMULA_TABLE_DIGESTS = {
    "plain": "9c9a5a5c3cf8beb58b842184d786c4a17469ee4c708ee1f4194765da4422df20",
    "json": "23d1748e15791e4c4b37167a7e2da0de6e1e82ee8ac74d70b20ee43fba44f9ce",
}


@pytest.mark.parametrize("fmt", sorted(FORMULA_TABLE_DIGESTS))
def test_formula_tables_to_60(capsys, fmt):
    digest = hashlib.sha256()
    for f in REGISTRY.values():
        code, out, _ = run(capsys, "table", "--patterns", f.patterns.canonical(),
                           "--method", "formula", "--n-max", "60", "--format", fmt)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == FORMULA_TABLE_DIGESTS[fmt]


def test_routes_never_reach_the_oracle(capsys, monkeypatch, sweeps):
    # The generator, formula and gf routes answer without a sweep: the
    # oracle entry points the CLI calls fail the test, and its caches
    # stay at the seed.
    def oracle_called(*args, **kwargs):
        raise AssertionError("a route reached the oracle")

    monkeypatch.setattr(cli, "refined_count", oracle_called)
    monkeypatch.setattr(cli, "enumerate_avoiders", oracle_called)
    commands = [["table", "--patterns", fam.patterns.canonical(), "--method", "generator",
                 "--n-max", "14"] for fam in generators.supported_families()]
    commands.append(["sequence", "--patterns", "231,312,321", "--method", "generator",
                     "--k", "1", "--n-max", "14"])
    commands += [["table", "--patterns", f.patterns.canonical(), "--method", "formula",
                  "--n-max", "12"] for f in REGISTRY.values()]
    commands += [["sequence", "--patterns", "231,321", "--method", "gf", "--k", "2",
                  "--n-max", "12"], ["gf", "--k", "1", "--terms", "6"],
                 ["table", "--patterns", "231,321", "--method", "gf", "--n-max", "12"]]
    assert len(commands) == 14 + 1 + 21 + 3
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out, argv
    assert not (sweeps.rows or sweeps.sets or sweeps.counted)
    assert oracle._built is oracle._SEED[0] and oracle._counts is oracle._SEED[1]


class TestTable:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "table", "--patterns", "123,321", "--n-max", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[4] == "n=4: 4,0,0,0,0"
        assert lines[6] == "n=6: 0,0,0,0,0,0,0"

    def test_small_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--patterns", "132,231", "--n-max", "2")
        assert code == 0
        assert out.strip().splitlines() == ["n=0: 1", "n=1: 0,1", "n=2: 1,0,1"]

    def test_json_counts_are_strings(self, capsys):
        code, out, _ = run(capsys, "table", "--patterns", "231,321", "--n-max", "4",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["patterns"] == "231,321"
        assert payload["rows"][4]["counts"] == ["2", "2", "3", "0", "1"]

    def test_formula_table_evaluates_each_cell_once(self, capsys, monkeypatch):
        # One cli.evaluate call per cell, 91 for n = 0..12, as the
        # benchmark's traced formulas.evaluate.calls counts them; a row
        # at a time would change that count.
        calls = []
        monkeypatch.setattr(cli, "evaluate", lambda *a: calls.append(a) or formulas.evaluate(*a))
        code, _, _ = run(capsys, "table", "--patterns", "231,321", "--method", "formula",
                         "--n-max", "12")
        assert code == 0
        assert len(calls) == 91
        assert calls == [("thm-231-321", n, k) for n in range(13) for k in range(n + 1)]

    def test_csv_padding(self, capsys):
        code, out, _ = run(capsys, "table", "--patterns", "231,312", "--n-max", "3",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k0,k1,k2,k3"
        assert lines[1] == "0,1,,,"
        assert lines[4] == "3,0,3,0,1"

    def test_methods_agree_completely_for_full_domain(self, capsys):
        outputs = []
        for method in ("oracle", "formula", "generator"):
            code, out, _ = run(capsys, "table", "--patterns", "231,321",
                               "--n-max", "8", "--method", method)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize(
        "patterns", ["231,312", "132,213,321", "231,312,321"]
    )
    def test_methods_agree_inside_stated_domain(self, capsys, patterns):
        rows = {}
        for method in ("oracle", "formula", "generator"):
            code, out, _ = run(capsys, "table", "--patterns", patterns,
                               "--n-max", "8", "--method", method,
                               "--format", "json")
            assert code == 0
            rows[method] = json.loads(out)["rows"]
        for n in range(3, 9):  # all three methods are defined from n=3 on
            assert rows["oracle"][n] == rows["formula"][n] == rows["generator"][n]

    def test_formula_out_of_domain_cells(self, capsys):
        code, out, _ = run(capsys, "table", "--patterns", "132,231", "--n-max", "3",
                           "--method", "formula")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n=0: -"
        assert lines[3] == "n=3: 1,2,0,1"

    def test_bad_patterns(self, capsys):
        code, _, err = run(capsys, "table", "--patterns", "12x", "--n-max", "3")
        assert code == 2
        assert "error" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "table", "--patterns", "123", "--n-max", ABOVE_CAP)
        assert code == 3
        assert "cap" in err

    def test_no_formula_for_patterns(self, capsys):
        code, _, err = run(capsys, "table", "--patterns", "123", "--n-max", "4",
                           "--method", "formula")
        assert code == 2
        assert "closed form" in err

    @pytest.mark.parametrize("fmt, method, n_max", [
        ("plain", "oracle", "13"), ("csv", "oracle", "13"),
        ("plain", "formula", "40"), ("csv", "formula", "40"),
    ])
    def test_gf_method(self, capsys, fmt, method, n_max):
        # The gf route reads each column of the table from gf_for_k.
        gf, other = (run(capsys, "table", "--patterns", "231,321", "--n-max", n_max,
                         "--method", m, "--format", fmt) for m in ("gf", method))
        assert gf == other and gf[0] == 0


class TestSequence:
    def test_gf_method(self, capsys):
        code, out, _ = run(capsys, "sequence", "--patterns", "231,321", "--k", "0",
                           "--n-max", "7", "--method", "gf")
        assert code == 0
        assert out.strip() == "1,0,1,1,2,3,5,8"

    def test_gf_column_past_n_max_builds_no_series(self, capsys, monkeypatch):
        # Column k starts at size k, so a column with k > n-max is all 0
        # and needs no generating function.
        def refuse(k):
            raise AssertionError(f"gf_for_k({k}) was built")

        monkeypatch.setattr(cli, "gf_for_k", refuse)
        for k in ("6", "20000"):
            code, out, _ = run(capsys, "sequence", "--patterns", "231,321", "--method", "gf",
                               "--k", k, "--n-max", "5")
            assert code == 0
            assert out.strip() == "0,0,0,0,0,0"

    def test_gf_method_restricted(self, capsys):
        code, _, err = run(capsys, "sequence", "--patterns", "123,132", "--k", "0",
                           "--n-max", "5", "--method", "gf")
        assert code == 2
        assert "231,321" in err

    def test_open_class_oracle_only(self, capsys):
        code, out, _ = run(capsys, "sequence", "--patterns", "123", "--k", "0",
                           "--n-max", "7", "--method", "oracle")
        assert code == 0
        values = [int(v) for v in out.strip().split(",")]
        assert values[:4] == [1, 0, 1, 2]

    def test_even_sizes_vanish(self, capsys):
        code, out, _ = run(capsys, "sequence", "--patterns", "123,132", "--k", "2",
                           "--n-max", "5", "--method", "oracle")
        assert code == 0
        assert out.strip() == "0,0,1,0,2,0"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "sequence", "--patterns", "231,312", "--k", "1",
                           "--n-max", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == ["0", "1", "0", "3", "0", "8"]

    def test_formula_below_its_domain_past_the_diagonal(self, capsys):
        argv = ("sequence", "--patterns", "132,231", "--k", "5", "--n-max", "7",
                "--method", "formula")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.strip() == "-,-,-,0,0,1,0,2"
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "n,value", "0,", "1,", "2,", "3,0", "4,0", "5,1", "6,0", "7,2",
        ]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["values"] == [None, None, None, "0", "0", "1", "0", "2"]


    @pytest.mark.parametrize("fid", list(REGISTRY))
    def test_formula_column_is_the_tables(self, capsys, monkeypatch, fid):
        # The column is read cell by cell, one evaluation per size; a
        # cell past the diagonal is 0, or out of domain when its whole
        # row is.
        patterns, n_max = REGISTRY[fid].patterns.canonical(), 8
        code, out, _ = run(capsys, "table", "--patterns", patterns, "--method", "formula",
                           "--n-max", str(n_max), "--format", "json")
        assert code == 0
        rows = [r["counts"] for r in json.loads(out)["rows"]]
        calls = []
        monkeypatch.setattr(cli, "evaluate", lambda *a: calls.append(a) or formulas.evaluate(*a))
        for k in range(n_max + 3):
            calls.clear()
            code, out, _ = run(capsys, "sequence", "--patterns", patterns, "--method", "formula",
                               "--k", str(k), "--n-max", str(n_max), "--format", "json")
            assert code == 0
            assert json.loads(out)["values"] == [
                row[k] if k < len(row) else (None if row[0] is None else "0") for row in rows
            ]
            assert len(calls) == n_max + 1


@pytest.mark.parametrize("patterns, method", [
    ("231,321", "oracle"), ("231,321", "formula"), ("231,321", "generator"),
    ("231,321", "gf"), ("123", "oracle"), ("132,213,321", "formula"),
    ("132,213,321", "generator"),
])
def test_every_route_reads_a_column_of_its_table(capsys, patterns, method):
    # sequence --k k prints column k of table, by the same route: 0 past
    # the diagonal, and - out of domain, where the whole row is.
    n_max = 8
    code, out, _ = run(capsys, "table", "--patterns", patterns, "--method", method,
                       "--n-max", str(n_max))
    assert code == 0
    rows = [line.split(": ")[1].split(",") for line in out.splitlines()]
    for k in range(n_max + 2):
        column = [row[k] if k < len(row) else ("-" if row[0] == "-" else "0") for row in rows]
        code, out, _ = run(capsys, "sequence", "--patterns", patterns, "--method", method,
                           "--k", str(k), "--n-max", str(n_max))
        assert (code, out) == (0, ",".join(column) + "\n"), k


class TestVerify:
    def test_single_formula_verified(self, capsys):
        code, out, _ = run(capsys, "verify", "--formula", "thm-231-312",
                           "--n-max", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["status"] == "verified"
        assert payload[0]["counterexample"] is None

    def test_all_reports_known_discrepancies(self, capsys):
        code, out, _ = run(capsys, "verify", "--all", "--n-max", "6")
        assert code == 1
        payload = json.loads(out)
        by_id = {item["formula"]: item for item in payload}
        assert by_id["thm3-132-213-231"]["status"] == "discrepant"
        assert by_id["thm3-132-213-231"]["counterexample"]["n"] == 4
        assert by_id["thm-231-312"]["status"] == "verified"

    def test_generator_audits_run_under_the_oracle_cap(self, capsys, monkeypatch):
        # The audit's cap bounds its generators too, so a generator cap
        # below the audited size must not refuse the command.
        monkeypatch.setattr(generators, "GENERATOR_CAP", 8)
        argv = ["verify", "--all", "--n-max", "9", "--format", "json"]
        records = json.loads((GOLDEN_DIR / "audit.json").read_text(encoding="utf-8"))
        (golden,) = [r for r in records["commands"] if r["argv"] == argv]
        code, out, _ = run(capsys, *argv, "--cap", "9")
        assert code == 1
        assert out == golden["stdout"]

    def test_unknown_formula(self, capsys):
        code, _, err = run(capsys, "verify", "--formula", "no-such")
        assert code == 2
        assert "unknown formula id" in err

    def test_requires_scope(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    def test_plain_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--formula", "thm-132-231",
                           "--n-max", "5", "--format", "plain")
        assert code == 1
        assert "DISCREPANT" in out and "counterexample" in out


class TestClasses:
    def test_symmetry_pairs(self, capsys):
        code, out, _ = run(capsys, "classes", "--size", "2", "--mode", "symmetry")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["classes"]) == 9
        assert ["123,132", "123,213"] in payload["classes"]

    def test_symmetry_triples(self, capsys):
        code, out, _ = run(capsys, "classes", "--size", "3")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["classes"]) == 9

    def test_superwilf_singletons(self, capsys):
        code, out, _ = run(capsys, "classes", "--size", "1", "--mode", "superwilf",
                           "--n-max", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["empirical"] is True
        assert ["123"] in payload["classes"]
        assert ["132", "213", "321"] in payload["classes"]
        assert ["231", "312"] in payload["classes"]
        # Splits come with the first diverging cell.
        assert {"a": "123", "b": "132", "n": 3, "k": 1} in payload["witnesses"]

    def test_superwilf_needs_n_max(self, capsys):
        code, _, err = run(capsys, "classes", "--size", "1", "--mode", "superwilf")
        assert code == 2

    def test_bad_size(self, capsys):
        code, _, err = run(capsys, "classes", "--size", "7")
        assert code == 2


class TestGf:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "gf", "--k", "0", "--terms", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "numerator: 1 - x"
        assert lines[1] == "denominator: 1 - x - x^2"
        assert lines[2] == "series: 1,0,1,1,2,3"

    def test_zero_prefix(self, capsys):
        code, out, _ = run(capsys, "gf", "--k", "3", "--terms", "2")
        assert code == 0
        assert out.strip().splitlines()[2] == "series: 0,0,0"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "gf", "--k", "1", "--terms", "6",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["series"] == ["0", "1", "0", "2", "2", "5", "8"]
        assert payload["numerator"] == "x - 2x^2 + x^3"


class TestAvoiders:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "avoiders", "--patterns", "231,312", "--n", "3")
        assert code == 0
        assert out.strip().splitlines() == ["123", "132", "213", "321"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "avoiders", "--patterns", "123,132", "--n", "3",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == "4"
        assert payload["avoiders"] == ["213", "231", "312", "321"]

    def test_cap(self, capsys):
        code, _, err = run(capsys, "avoiders", "--patterns", "123", "--n", "4",
                           "--cap", "3")
        assert code == 3

    def test_smallest_sizes_in_a_fresh_process(self):
        # A fresh process has built no rows, so sizes 0 and 1 are grown
        # from the size below, size 0 from nothing.
        def payload(n, avoider):
            return (f'{{\n  "patterns": "123",\n  "n": {n},\n  "count": "1",\n'
                    f'  "avoiders": [\n    "{avoider}"\n  ]\n}}\n')

        for n, avoider in (("0", ""), ("1", "1")):
            for fmt, expected in (("plain", f"{avoider}\n"), ("json", payload(n, avoider)),
                                  ("csv", f"permutation\n{avoider}\n")):
                proc = subprocess.run(
                    [sys.executable, "-m", "patfix", "avoiders", "--patterns", "123",
                     "--n", n, "--format", fmt], capture_output=True, text=True,
                )
                assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, ""), (n, fmt)


class TestFailFast:
    @pytest.mark.parametrize("argv", [
        ["table", "--patterns", "123", "--n-max", ABOVE_CAP],
        ["sequence", "--patterns", "123", "--k", "0", "--n-max", ABOVE_CAP],
        ["verify", "--all", "--n-max", ABOVE_CAP],
        ["verify", "--formula", "thm-231-312", "--n-max", ABOVE_CAP],
        ["classes", "--size", "1", "--mode", "superwilf", "--n-max", ABOVE_CAP],
        ["avoiders", "--patterns", "123", "--n", ABOVE_CAP],
        ["table", "--patterns", "123", "--n-max", "16", "--cap", "20"],
    ])
    def test_oracle_cap_refused_before_any_sweep(self, capsys, sweeps, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert "cap" in err and not out
        assert not (sweeps.rows or sweeps.sets or sweeps.counted)

    @pytest.mark.parametrize("argv", [
        ["table", "--patterns", "231,321", "--method", "generator", "--n-max", "15"],
        ["sequence", "--patterns", "231,321", "--method", "generator", "--k", "0",
         "--n-max", "15"],
    ])
    def test_generator_cap_refused_before_any_build(self, capsys, monkeypatch, argv):
        def build(*args, **kwargs):
            raise AssertionError("generator ran past its cap")

        monkeypatch.setattr(generators, "generate_refined", build)
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "structural generation cap of 14" in err
        assert "(override with --cap)" in err

    @pytest.mark.parametrize("argv, message", [
        (["table", "--method", "generator"], "no structural generator for {123}"),
        (["sequence", "--method", "generator", "--k", "0"], "no structural generator for {123}"),
        (["table", "--method", "formula"], "no closed form is registered for {123}"),
        (["table", "--method", "gf"], "the gf method only covers"),
        (["sequence", "--method", "gf", "--k", "0"], "the gf method only covers"),
    ])
    def test_unsupported_route_refused_before_the_cap_check(
        self, capsys, monkeypatch, sweeps, argv, message
    ):
        def build(*args, **kwargs):
            raise AssertionError("generator ran for an unsupported set")

        monkeypatch.setattr(generators, "generate_refined", build)
        code, out, err = run(capsys, *argv, "--patterns", "123", "--n-max", "99")
        assert code == 2
        assert message in err and "cap" not in err and not out
        assert not (sweeps.rows or sweeps.sets or sweeps.counted)

    @pytest.mark.parametrize("argv, option", [
        (["table", "--patterns", "123", "--n-max", "-1"], "--n-max"),
        (["sequence", "--patterns", "123", "--k", "-1", "--n-max", "3"], "--k"),
        (["gf", "--k", "0", "--terms", "-1"], "--terms"),
        (["avoiders", "--patterns", "123", "--n", "-1"], "--n"),
        (["avoiders", "--patterns", "123", "--n", "3", "--cap", "-1"], "--cap"),
        (["verify", "--all", "--n-max", "4", "--cap", "-1"], "--cap"),
        (["classes", "--size", "1", "--n-max", "-1"], "--n-max"),
    ])
    def test_negative_count_is_a_usage_error(self, capsys, sweeps, argv, option):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert f"{option} must be nonnegative" in err and not out
        assert not (sweeps.rows or sweeps.sets or sweeps.counted)

    @pytest.mark.parametrize("argv, option", [
        (["classes", "--size", "1", "--n-max", "3"], "--n-max"),
        (["classes", "--size", "1", "--mode", "symmetry", "--cap", "5"], "--cap"),
    ])
    def test_superwilf_options_are_refused_in_symmetry_mode(self, capsys, sweeps, argv, option):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert f"{option} applies only to --mode superwilf" in err and not out
        assert not (sweeps.rows or sweeps.sets or sweeps.counted)

    @pytest.mark.parametrize("argv", [
        ["table", "--method", "formula", "--n-max", "3"],
        ["sequence", "--method", "formula", "--k", "0", "--n-max", "3"],
        ["sequence", "--method", "gf", "--k", "0", "--n-max", "3"],
        ["table", "--method", "gf", "--n-max", "3"],
    ])
    def test_cap_is_refused_where_no_route_reads_it(self, capsys, sweeps, argv):
        code, out, err = run(capsys, *argv, "--patterns", "231,321", "--cap", "1")
        assert code == 2
        assert "--cap applies only to --method oracle and generator" in err and not out
        assert not (sweeps.rows or sweeps.sets or sweeps.counted)

    @pytest.mark.parametrize("argv", [
        ["verify", "--formula", "thm-231-312"],
        ["classes", "--size", "2"],
    ])
    def test_csv_is_refused_where_it_is_not_printed(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 2
        assert "--format" in err and not out

    @pytest.mark.parametrize("value", ["2", "-1", "junk"])
    def test_no_environment_variable_sets_the_cap(self, capsys, monkeypatch, value):
        # --cap is the one source of the oracle cap, so this variable, or
        # any other, changes no exit code and no byte of stdout.
        commands = [
            ["table", "--patterns", "123", "--n-max", "4"],
            ["sequence", "--patterns", "123", "--k", "0", "--n-max", "4", "--method", "oracle"],
            ["verify", "--formula", "thm-231-312", "--n-max", "5"],
            ["classes", "--size", "1", "--mode", "superwilf", "--n-max", "4"],
            ["avoiders", "--patterns", "132", "--n", "4"],
        ]
        monkeypatch.delenv("PATFIX_ORACLE_CAP", raising=False)
        unset = [run(capsys, *argv)[:2] for argv in commands]
        assert [code for code, _ in unset] == [0] * len(commands)
        monkeypatch.setenv("PATFIX_ORACLE_CAP", value)
        assert [run(capsys, *argv)[:2] for argv in commands] == unset

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "refined_count", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["table", "--patterns", "123", "--n-max", "3"])


# sha256 of (exit code, stdout) of commands that read the oracle at its
# default cap, recorded when every size asked for had its rows built.
DEEP_DIGESTS = [
    (["table", "--patterns", "132,231", "--n-max", "13"], 0,
     "7e53e5725de8b370fc348bdcab2e21eac3e3b0643d9de418acb71dd0997a3ffe"),
    (["table", "--patterns", "132", "--n-max", "13", "--format", "json"], 0,
     "8f3a7d1eafe7fd0f44047d71154f991a7f2210ce1ad602db8c6c76b9a9491210"),
    (["classes", "--mode", "superwilf", "--size", "2", "--n-max", "12"], 0,
     "c90f3b9ddfa0f373a2defa75365187f827401517fec1e12829172ba9f8c02233"),
    (["verify", "--all", "--n-max", "11", "--format", "json"], 1,
     "c853c8ce620de2b2064f85291132b7c06b9d19d5fa17a17d9e3836a79c0cfbb2"),
]


class TestDeepOutputs:
    @pytest.mark.parametrize("argv, code, digest", DEEP_DIGESTS,
                             ids=["table-13", "table-13-json", "superwilf-12", "verify-11"])
    def test_output_is_pinned(self, capsys, argv, code, digest):
        got, out, _ = run(capsys, *argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_counts_at_the_cap_keep_no_rows_of_the_largest_size(self):
        # The commands' own peaks (Linux ru_maxrss, in KiB) were 154 and
        # 153 MB while the shared rows of size 13, which no count reads,
        # were built: for the table, and for the generator audit's
        # listings at size 13.  A child inherits the peak of the process
        # it is started from, so a small interpreter starts it and reads
        # its peak with os.wait4.
        for args, expected in ((["table", "--patterns", "132,231", "--n-max", "13"], 0),
                               (["verify", "--all", "--n-max", "13", "--format", "json"], 1)):
            argv = [sys.executable, "-m", "patfix", *args]
            measure = (
                "import os, subprocess, sys\n"
                f"proc = subprocess.Popen({argv!r}, stdout=subprocess.DEVNULL)\n"
                "_, status, usage = os.wait4(proc.pid, 0)\n"
                "proc.returncode = os.waitstatus_to_exitcode(status)\n"
                "print(proc.returncode, usage.ru_maxrss)\n"
            )
            out = subprocess.run([sys.executable, "-c", measure], capture_output=True,
                                 text=True, check=True).stdout
            code, peak_kib = map(int, out.split())
            assert code == expected, args
            assert peak_kib / 1024 < 120, args


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "patfix", "gf", "--k", "0", "--terms", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "series: 1,0,1,1" in proc.stdout

    def test_a_closed_stdout_exits_141_quietly(self):
        # 16,796 lines are far more than a pipe holds, so the command is
        # still writing when the reader closes the pipe after one byte.
        proc = subprocess.Popen(
            [sys.executable, "-m", "patfix", "avoiders", "--patterns", "132", "--n", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.read(1) == b"1"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == cli.EXIT_PIPE == 141
        assert err == b""

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestSharedParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_usage_error_leaves_the_parser_as_it_was(self, capsys):
        code, out, err = run(capsys, "table", "--patterns", "123", "--n-max", "x")
        assert code == 2
        assert "invalid int value" in err and not out
        argv = ["table", "--patterns", "231,321", "--method", "generator", "--n-max", "9"]
        code, out, _ = run(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "patfix", *argv], capture_output=True, text=True,
        )
        assert code == fresh.returncode == 0
        assert out == fresh.stdout

    def test_threads_parse_like_a_serial_parse(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        argvs = [
            ["table", "--patterns", "123,132", "--n-max", "5"],
            ["table", "--patterns", "231,321", "--n-max", "9", "--method", "generator",
             "--format", "csv"],
            ["sequence", "--patterns", "231,321", "--k", "2", "--n-max", "7",
             "--method", "gf"],
            ["verify", "--all", "--n-max", "6", "--format", "plain"],
            ["verify", "--formula", "thm-231-312"],
            ["classes", "--size", "2", "--mode", "superwilf", "--n-max", "6"],
            ["gf", "--k", "3", "--terms", "10", "--format", "json"],
            ["avoiders", "--patterns", "132", "--n", "4", "--cap", "8"],
        ]
        parser = cli._build_parser()
        expected = [parser.parse_args(argv) for argv in argvs]
        start = threading.Barrier(len(argvs), timeout=10)

        def parse_repeatedly(argv):
            start.wait()
            return [parser.parse_args(argv) for _ in range(200)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(argvs)) as pool:
                futures = [pool.submit(parse_repeatedly, argv) for argv in argvs]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(expected, results):
            assert all(ns == want for ns in got)
