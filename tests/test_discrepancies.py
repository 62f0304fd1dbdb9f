"""The prose of DISCREPANCIES.md, checked against the oracle to n = 12.

The audit tests pin each confirmed discrepancy's first counterexample;
these check the rest of what the write-ups state: the replacement
forms, the seeds, the row sums and the repaired generator range.
"""

from fractions import Fraction

import pytest

from patfix.formulas import evaluate
from patfix.generators import generate
from patfix.oracle import enumerate_avoiders, refined_count
from patfix.perms import Permutation

N_MAX = 12


def printed_middle(n: int, k: int) -> Fraction:
    """The printed 1 <= k <= n-2 clause for {132,231} and {213,231}."""
    return Fraction(2, 3) * (Fraction(2) ** (n - k) + (-1) ** (n - k + 1))


def replacement_middle(n: int, k: int) -> Fraction:
    """The oracle-consistent clause that DISCREPANCIES.md gives instead."""
    return Fraction(2, 3) * (Fraction(2) ** (n - k - 1) + (-1) ** (n - k))


@pytest.mark.parametrize("fid, patterns", [("thm-132-231", "132,231"),
                                           ("thm-213-231", "213,231")])
def test_the_middle_clause_and_its_replacement(fid, patterns):
    for n in range(3, N_MAX + 1):
        row = refined_count(n, patterns)
        for k in range(1, n - 1):
            assert evaluate(fid, n, k) == printed_middle(n, k), (n, k)
            assert row[k] == replacement_middle(n, k), (n, k)
            # The printed clause holds only at the boundary k = n-2.
            assert (row[k] == printed_middle(n, k)) == (k == n - 2), (n, k)
    # The stated seeds s(1,1) = 1 and s(2,1) = 0: the replacement gives
    # them, the printed clause gives 0 and 2.
    assert [refined_count(n, patterns)[1] for n in (1, 2)] == [1, 0]
    assert [replacement_middle(n, 1) for n in (1, 2)] == [1, 0]
    assert [printed_middle(n, 1) for n in (1, 2)] == [0, 2]
    # The printed row at n = 4 sums to 12; the true total is 2^(n-1).
    assert sum(evaluate(fid, 4, k) for k in range(5)) == 12
    assert sum(refined_count(4, patterns)) == 8


def test_the_recurrences_that_agree_with_the_oracle():
    for n in range(2, N_MAX + 1):
        row, below = refined_count(n, "132,231"), refined_count(n - 1, "132,231")
        assert row[1] == 2 * below[0], n
        assert row[2:] == below[1:], n
        if n >= 3:
            assert row[0] == below[0] + 2 * refined_count(n - 2, "132,231")[0], n


def test_the_two_pairs_share_their_table():
    for n in range(N_MAX + 1):
        assert refined_count(n, "132,231") == refined_count(n, "213,231"), n


def test_the_even_size_zero_fixed_point_clause():
    for n in range(3, N_MAX + 1):
        row = refined_count(n, "132,213,231")
        assert sum(row) == n, n
        if n % 2 == 0:
            assert row[0] == n - 1, n
            assert evaluate("thm3-132-213-231", n, 0) == n + 1 > sum(row), n
        else:
            assert row[0] == n // 2 == evaluate("thm3-132-213-231", n, 0), n


def one_parameter_family(n: int, js) -> set[Permutation]:
    """j top values descending, then 1, 2, ..., n-j ascending."""
    return {Permutation(tuple(range(n, n - j, -1)) + tuple(range(1, n - j + 1))) for j in js}


def test_the_generator_range_with_j_zero_is_the_class():
    for n in range(1, N_MAX + 1):
        avoiders = set(enumerate_avoiders(n, "132,213,231"))
        printed = one_parameter_family(n, range(1, n + 1))
        assert set(generate("132,213,231", n)) == printed, n
        assert one_parameter_family(n, range(n + 1)) == avoiders, n
        if n >= 2:
            assert avoiders - printed == {Permutation.identity(n)}, n
