import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from patfix import formulas
from patfix.audit import audit_recurrence
from patfix.cli import main
from patfix.formulas import (
    RECURRENCES,
    Undefined,
    _as_int,
    _ratio,
    cell_text,
    evaluate,
    fibonacci,
    formula_for_patterns,
    formula_ids,
    get_formula,
    jacobsthal,
    recurrence_check,
    row_text,
)
from patfix.genfun import gf_for_k, series_coefficients
from patfix.oracle import refined_count
from patfix.perms import PatternSet

ALL_IDS = formula_ids()

# Closed forms that disagree with brute force somewhere; each carries its
# first counterexample and is documented in DISCREPANCIES.md.
KNOWN_DISCREPANT = {
    "thm-132-231": (4, 1, 6, 2),
    "thm-213-231": (4, 1, 6, 2),
    "thm3-132-213-231": (4, 0, 5, 3),
}


class TestRegistry:
    def test_expected_ids(self):
        assert len(ALL_IDS) == 21
        assert "thm-123-321" in ALL_IDS
        assert "thm3-231-312-321" in ALL_IDS

    def test_id_pattern_bijection(self):
        seen = {}
        for fid in ALL_IDS:
            ps = get_formula(fid).patterns
            assert ps not in seen, f"{fid} duplicates {seen.get(ps)}"
            seen[ps] = fid
        assert formula_for_patterns("321,123") == "thm-123-321"
        assert formula_for_patterns("123") is None

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            evaluate("no-such", 3, 0)


class TestFrozenValues:
    def test_both_monotone(self):
        assert evaluate("thm-123-321", 4, 0) == 4
        assert evaluate("thm-123-321", 0, 0) == 1
        assert evaluate("thm-123-321", 8, 0) == 0

    def test_all_fixed_is_identity_only(self):
        for n in range(1, 9):
            assert evaluate("thm-132-321", n, n) == 1
            assert evaluate("thm-231-312", n, n) == 1

    def test_examples(self):
        assert evaluate("thm-231-312", 3, 1) == 3
        assert evaluate("thm-132-231", 3, 0) == 1
        assert evaluate("thm3-231-312-321", 4, 2) == 3
        assert evaluate("thm-132-321", 5, 2) == 2

    def test_convention_outside_k_range(self):
        assert evaluate("thm-123-321", 4, 9) == 0
        assert evaluate("thm-123-321", 4, -2) == 0

    def test_out_of_domain(self):
        assert evaluate("thm-132-231", 2, 0) is Undefined.OUT_OF_DOMAIN
        assert evaluate("thm3-123-132-213", 1, 0) is Undefined.OUT_OF_DOMAIN
        assert evaluate("thm-123-132", 0, 0) is Undefined.OUT_OF_DOMAIN

    def test_parity_zeroes(self):
        assert evaluate("thm-231-312", 4, 1) == 0
        assert evaluate("thm-123-132", 3, 2) == 0
        assert evaluate("thm3-231-312-321", 5, 2) == 0


class TestAgainstOracle:
    @pytest.mark.parametrize("fid", [f for f in ALL_IDS if f not in KNOWN_DISCREPANT])
    def test_formula_matches_oracle(self, fid):
        f = get_formula(fid)
        for n in range(9):
            if n < f.min_n:
                continue
            row = refined_count(n, f.patterns)
            for k in range(n + 1):
                assert evaluate(fid, n, k) == row[k], (fid, n, k)

    @pytest.mark.parametrize("fid", sorted(KNOWN_DISCREPANT))
    def test_known_discrepancies(self, fid):
        n, k, claimed, truth = KNOWN_DISCREPANT[fid]
        assert evaluate(fid, n, k) == claimed
        assert refined_count(n, get_formula(fid).patterns)[k] == truth

    def test_discrepant_pair_clause_only_fails_below_boundary(self):
        # The printed middle clause of thm-132-231 happens to be right
        # exactly at k = n-2.
        for n in range(3, 9):
            row = refined_count(n, "132,231")
            assert evaluate("thm-132-231", n, n - 2) == row[n - 2]


class TestNamedSequences:
    def test_fibonacci(self):
        assert [fibonacci(i) for i in range(7)] == [1, 1, 2, 3, 5, 8, 13]
        with pytest.raises(ValueError):
            fibonacci(-1)

    def test_jacobsthal(self):
        assert [jacobsthal(i) for i in range(7)] == [1, 1, 3, 5, 11, 21, 43]
        with pytest.raises(ValueError):
            jacobsthal(-1)

    def test_jacobsthal_alignment(self):
        # The zero-fixed-point column of {132,231} is the aligned sequence.
        assert evaluate("thm-132-231", 5, 0) == 5 == jacobsthal(3)
        for n in range(2, 11):
            assert refined_count(n, "132,231")[0] == jacobsthal(n - 2)


class TestRecurrences:
    def test_all_registered_hold(self):
        for fid in RECURRENCES:
            cells = recurrence_check(fid, 8)
            assert cells
            assert [c for c in cells if c[2] != c[3]] == []

    def test_domain(self):
        # {132,231} is stated at k = 0 only, from n = 3; the others at
        # every k, from their first size.
        assert [(n, k) for n, k, _, _ in recurrence_check("thm-132-231", 6)] == [
            (n, 0) for n in range(3, 7)
        ]
        assert audit_recurrence("thm-132-231", 6).cells_checked == 4
        cells = recurrence_check("thm-231-321", 5)
        assert len(cells) == 18
        assert [(n, k) for n, k, _, _ in cells] == [
            (n, k) for n in range(2, 6) for k in range(n + 1)
        ]

    def test_example_step(self):
        # s_4^0 = s_3^0 + 2 s_2^0 = 1 + 2 for the {132,231} family.
        assert refined_count(4, "132,231")[0] == 3
        assert refined_count(3, "132,231")[0] + 2 * refined_count(2, "132,231")[0] == 3

    def test_unknown_recurrence(self):
        with pytest.raises(ValueError):
            recurrence_check("thm-123-321", 5)


SERIES_N = 120
SERIES_CELLS = [(n, k) for n in range(SERIES_N + 1) for k in range(n + 1)]


@pytest.fixture(scope="module")
def series_reference():
    """Every {231,321} cell to n = 120, from the printed generating
    function expanded by long division, one expansion per column."""
    columns = [series_coefficients(gf_for_k(k), SERIES_N) for k in range(SERIES_N + 1)]
    return {(n, k): columns[k][n] for n, k in SERIES_CELLS}


@pytest.fixture
def cold_columns(monkeypatch):
    """An empty {231,321} column memo for the test's duration."""
    columns = {}
    monkeypatch.setattr(formulas, "_SERIES_COLUMNS", columns)
    return columns


class TestSeriesColumns:
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_cell_order(self, cold_columns, series_reference, order):
        cells = list(SERIES_CELLS)
        if order == "descending":
            cells.reverse()
        elif order == "shuffled":
            random.Random(7).shuffle(cells)
        for n, k in cells:
            assert evaluate("thm-231-321", n, k) == series_reference[n, k], (n, k)
        assert sorted(cold_columns) == list(range(SERIES_N + 1))

    def test_threads(self, cold_columns, series_reference):
        # More threads than cores, switching often, so that regrowths of
        # one column race; every stored column must still be a complete
        # prefix of its series.
        start = threading.Barrier(8, timeout=60)
        wrong = []

        def worker(seed):
            cells = list(SERIES_CELLS)
            random.Random(seed).shuffle(cells)
            start.wait()
            for n, k in cells:
                if evaluate("thm-231-321", n, k) != series_reference[n, k]:
                    wrong.append((seed, n, k))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        for k, col in cold_columns.items():
            # Column k is stored from x^k on.
            assert list(col) == series_coefficients(gf_for_k(k), k + len(col) - 1)[k:], k

    def test_formula_table_expands_no_series(self, cold_columns, monkeypatch, capsys):
        # The formula route reads the printed generating function through
        # its column rule alone; the polynomials are built and expanded
        # only by the gf route and the audit.
        argv = ["table", "--patterns", "231,321", "--n-max", "40", "--method"]
        assert main(argv + ["gf"]) == 0
        expected = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("the formula route expanded a series")

        monkeypatch.setattr(formulas, "gf_for_k", refuse, raising=False)
        monkeypatch.setattr(formulas, "series_coefficients", refuse)
        assert main(argv + ["formula"]) == 0
        assert capsys.readouterr().out == expected
        assert sorted(cold_columns) == list(range(41))
        # Column k starts at x^k and doubles its terms, so it holds fewer
        # than twice the 41 - k terms the table reads from it.
        for k, col in cold_columns.items():
            assert len(col) < 2 * (41 - k), k

    def test_rows_satisfy_sum_identity_and_recurrence(self, cold_columns):
        rec = RECURRENCES["thm-231-321"]
        rows = [
            [evaluate("thm-231-321", n, k) for k in range(n + 1)] for n in range(81)
        ]

        def s(n, k):
            return rows[n][k] if 0 <= k <= n else 0

        for n in range(1, 81):
            assert sum(rows[n]) == 2 ** (n - 1)
        for n in range(rec.min_n, 81):
            for k in range(n + 1):
                assert s(n, k) == sum(c * s(n - dn, k - dk) for c, dn, dk in rec.terms)


class TestExactness:
    def test_non_integral_detection(self):
        assert _as_int(Fraction(3, 2)) is Undefined.NON_INTEGRAL
        assert _as_int(Fraction(4, 2)) == 2
        assert _as_int(7) == 7

    def test_ratio_is_the_exact_quotient(self):
        for a in range(-50, 51):
            for b in (1, 2, 3, 4, 8, 12, 24):
                q = _ratio(a, b)
                assert q == Fraction(a, b)
                assert type(q) is (Fraction if a % b else int)
                assert _as_int(q) == (Undefined.NON_INTEGRAL if a % b else a // b)

    def test_row_text_is_cell_text_per_value(self):
        rows = [
            [0, 1, 10**40, -3],
            [Undefined.OUT_OF_DOMAIN] * 3,
            [Undefined.OUT_OF_DOMAIN, 0, 2],
            [5, Undefined.NON_INTEGRAL, 7],
            [np.int64(5), np.uint8(200), 3],
            [np.int16(-1)],
            [],
        ]
        for row in rows:
            assert row_text(row) == [cell_text(v) for v in row], row

    def test_special_half_power_case(self):
        # At k = n the two-power exponent is -1; the rationals must
        # collapse to the exact integer 1.
        for n in range(1, 12):
            assert evaluate("thm-231-312", n, n) == 1

    def test_all_values_integral_and_nonnegative(self):
        for fid in ALL_IDS:
            f = get_formula(fid)
            for n in range(f.min_n, 9):
                for k in range(n + 1):
                    v = evaluate(fid, n, k)
                    assert isinstance(v, int), (fid, n, k, v)
                    assert v >= 0
