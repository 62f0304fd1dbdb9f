"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

All comparisons are exact; the timed criteria assert their stated
budgets.  Known, documented divergences between printed closed forms
and brute force are asserted precisely rather than papered over; the
repository-level record lives in DISCREPANCIES.md.
"""

import itertools
import time
from math import comb
from pathlib import Path

from patfix.audit import (
    DISCREPANT,
    VERIFIED,
    audit_formula,
    audit_generator,
    audit_super_wilf,
)
from patfix.equivalence import orbit, symmetry_classes
from patfix.formulas import recurrence_check
from patfix.generators import generate, supported_families
from patfix.genfun import gf_for_k, series_coefficients, sum_over_k
from patfix.oracle import enumerate_avoiders, refined_count
from patfix.perms import ALL_PATTERNS, PatternSet, Permutation

DISCREPANCIES = (Path(__file__).resolve().parent.parent / "DISCREPANCIES.md").read_text()

# Closed forms the audit is expected to reject, with their first
# counterexamples; everything else must verify.
EXPECTED_DISCREPANT = {
    "thm-132-231": (4, 1, "6", "2"),
    "thm-213-231": (4, 1, "6", "2"),
    "thm3-132-213-231": (4, 0, "5", "3"),
}


def report(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_01_finite_monotone_rows():
    start = time.perf_counter()
    seqs = {0: [1, 0, 1, 2, 4], 1: [0, 1, 0, 2], 2: [0, 0, 1]}
    ok = True
    for n in range(9):
        expected = [
            (seqs[k][n] if k in seqs and n < len(seqs[k]) else 0)
            for k in range(n + 1)
        ]
        ok &= refined_count(n, "123,321") == expected
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(f"criterion 1: {{123,321}} rows exact for n<=8 in {elapsed:.2f}s (<1s)", ok)


def test_criterion_02_pair_formulas_vs_oracle():
    start = time.perf_counter()
    pair_ids = [
        "thm-123-132", "thm-123-231", "thm-213-132", "thm-132-231",
        "thm-132-321", "thm-213-231", "thm-231-312", "thm-231-321",
    ]
    ok = True
    for fid in pair_ids:
        rep = audit_formula(fid, 9)
        if fid in EXPECTED_DISCREPANT:
            n, k, claimed, truth = EXPECTED_DISCREPANT[fid]
            c = rep.counterexample
            ok &= rep.status == DISCREPANT and c is not None
            ok &= (c.n, c.k, c.formula_value, c.oracle_value) == (n, k, claimed, truth)
            ok &= fid in DISCREPANCIES
        else:
            ok &= rep.status == VERIFIED and rep.counterexample is None
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 60.0
    report(
        "criterion 2: pair formulas vs oracle at n<=9 "
        f"(6 verified, 2 recorded discrepancies) in {elapsed:.1f}s (<=60s)",
        ok,
    )


def test_criterion_03_generating_functions():
    start = time.perf_counter()
    ok = True
    for n in range(11):
        row = refined_count(n, "231,321")
        for k in range(n + 1):
            ok &= series_coefficients(gf_for_k(k), n)[n] == row[k]
    sums = sum_over_k(10, 10)
    ok &= sums == [1] + [2 ** (n - 1) for n in range(1, 11)]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(f"criterion 3: gf coefficients and sum vs oracle at n<=10 in {elapsed:.2f}s (<5s)", ok)


def test_criterion_04_sum_identity():
    ok = all(
        sum(refined_count(n, "132,321")) == comb(n, 2) + 1 for n in range(3, 10)
    )
    report("criterion 4: {132,321} row sums equal C(n,2)+1 for 3<=n<=9", ok)


def test_criterion_05_generators_vs_oracle():
    deficient = PatternSet.parse("132,213,231")
    ok = True
    for fam in supported_families():
        if fam.patterns == deficient:
            # Printed family misses exactly the identity from n=2 on;
            # the audit must say so and the record must exist.
            for n in range(2, 10):
                built = set(generate(fam.patterns, n))
                truth = set(enumerate_avoiders(n, fam.patterns))
                ok &= truth - built == {Permutation.identity(n)} and built < truth
            rep = audit_generator(fam.patterns, 9)
            ok &= rep.status == DISCREPANT and rep.counterexample is not None
            ok &= "gen-132-213-231" in DISCREPANCIES
        else:
            for n in range(10):
                ok &= generate(fam.patterns, n) == list(
                    enumerate_avoiders(n, fam.patterns)
                )
    report(
        "criterion 5: structural generators equal oracle sets at n<=9 "
        "(one recorded divergence)",
        ok,
    )


def test_criterion_06_symmetry_case_lists():
    pair_expected = [
        {"123,132", "123,213"},
        {"123,231", "123,312"},
        {"123,321"},
        {"132,213"},
        {"132,231", "132,312"},
        {"132,321", "213,321"},
        {"213,231", "213,312"},
        {"231,312"},
        {"231,321", "312,321"},
    ]
    triple_expected = [
        {"123,132,213"},
        {"123,132,231", "123,132,312", "123,213,231", "123,213,312"},
        {"123,132,321", "123,213,321", "123,231,321", "123,312,321"},
        {"123,231,312"},
        {"132,213,231", "132,213,312"},
        {"132,213,321"},
        {"132,231,312", "213,231,312"},
        {"132,231,321", "132,312,321", "213,231,321", "213,312,321"},
        {"231,312,321"},
    ]
    ok = True
    for size, expected in ((2, pair_expected), (3, triple_expected)):
        got = [{m.canonical() for m in c} for c in symmetry_classes(size)]
        ok &= len(got) == 9
        ok &= all(e in got for e in expected)
    report("criterion 6: pair and triple case lists match verbatim (9 + 9)", ok)


def test_criterion_07_super_wilf_remark():
    start = time.perf_counter()
    reports = audit_super_wilf(8)
    ok = len(reports) == 3 and all(r.verified for r in reports)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(f"criterion 7: refined-equivalence claims hold at n<=8 in {elapsed:.2f}s (<10s)", ok)


def test_criterion_08_large_set_bound():
    ok = True
    for size in (4, 5, 6):
        for combo in itertools.combinations(ALL_PATTERNS, size):
            for n in range(9):
                ok &= all(v in (0, 1, 2) for v in refined_count(n, PatternSet(combo)))
    report("criterion 8: every |T|>=4 refined count lies in {0,1,2} for n<=8", ok)


def test_criterion_09_recurrence_suite():
    ok = True
    for fid in ("thm-132-231", "thm-231-312", "thm-231-321", "thm3-231-312-321"):
        cells = recurrence_check(fid, 9)
        ok &= len(cells) > 0 and all(lhs == rhs for _, _, lhs, rhs in cells)
    report("criterion 9: all four recurrences hold on oracle data at n<=9", ok)


def test_criterion_10_property_suite():
    ok = True
    for n in range(8):
        for entries in itertools.permutations(range(1, n + 1)):
            p = Permutation(entries)
            fp = p.fixed_point_count()
            ok &= p.inverse().fixed_point_count() == fp
            ok &= p.reverse_complement().fixed_point_count() == fp
    for size in (1, 2, 3):
        seen = set()
        for combo in itertools.combinations(ALL_PATTERNS, size):
            ps = PatternSet(combo)
            if ps in seen:
                continue
            orb = orbit(ps)
            seen.update(orb)
            base = [refined_count(n, orb[0]) for n in range(9)]
            for member in orb:
                ok &= [refined_count(n, member) for n in range(9)] == base
    for n in range(5, 9):
        ok &= sum(refined_count(n, "123,321")) == 0
    report(
        "criterion 10: symmetry fixed-point preservation (n<=7), orbit table "
        "invariance (n<=8), monotone emptiness (5<=n<=8)",
        ok,
    )
