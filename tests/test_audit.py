import itertools
import json
import re
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from patfix import generators
from patfix.audit import (
    _ROW_TOTALS,
    ROW_LEVEL,
    DISCREPANT,
    VERIFIED,
    Cell,
    audit_all,
    audit_formula,
    audit_generator,
    audit_recurrence,
    audit_gf_coefficients,
    audit_gf_sum,
    audit_small_class_bound,
    audit_sum_identity,
    audit_super_wilf,
    audit_vanishing,
)
from patfix.equivalence import divergence_witness, super_wilf_classes
from patfix.formulas import RECURRENCES, formula_ids
from patfix.genfun import series_coefficients
from patfix.oracle import DEFAULT_CAP, CapExceeded, refined_count
from patfix.perms import PatternSet, Permutation


class TestFormulaAudit:
    def test_verified_formula(self):
        report = audit_formula("thm-123-321", 8)
        assert report.status == VERIFIED
        assert report.counterexample is None
        assert report.cells_checked == sum(n + 1 for n in range(9))

    def test_discrepant_formula_carries_counterexample(self):
        report = audit_formula("thm3-132-213-231", 9)
        assert report.status == DISCREPANT
        c = report.counterexample
        assert (c.n, c.k) == (4, 0)
        assert (c.formula_value, c.oracle_value) == ("5", "3")

    def test_wrong_pair_clause_detected(self):
        report = audit_formula("thm-132-231", 9)
        assert report.status == DISCREPANT
        c = report.counterexample
        assert (c.n, c.k, c.formula_value, c.oracle_value) == (4, 1, "6", "2")

    def test_skipped_cells_counted(self):
        report = audit_formula("thm-132-231", 5)
        # Sizes 0..2 are below the stated domain.
        assert report.cells_skipped == 1 + 2 + 3

    def test_unknown_formula(self):
        with pytest.raises(ValueError):
            audit_formula("no-such", 5)


class TestOtherItems:
    def test_generator_items(self):
        good = audit_generator("231,312", 7)
        assert good.status == VERIFIED
        bad = audit_generator("132,213,231", 7)
        assert bad.status == DISCREPANT
        assert (bad.counterexample.n, bad.counterexample.k) == (2, 2)
        assert "missing=12" in bad.detail

    def test_generator_mismatch_asks_the_oracle_once(self, monkeypatch):
        # The members the built rows are told apart from come from the
        # oracle rows already compared, not from a second enumeration.
        def enumerate_again(*args, **kwargs):
            raise AssertionError("the oracle was asked for the avoiders again")

        monkeypatch.setattr("patfix.audit.enumerate_avoiders", enumerate_again)
        bad = audit_generator("132,213,231", 7)
        assert bad.status == DISCREPANT
        assert "missing=12" in bad.detail

    def test_same_histogram_different_members(self, monkeypatch):
        # Swap one member of size 4 for a non-member with as many fixed
        # points, so every histogram cell agrees and only the sets differ.
        ps = PatternSet.parse("231,312")
        family = generators.family_for(ps)
        members = generators.generate(ps, 4)
        others = [
            p for p in map(Permutation, itertools.permutations(range(1, 5)))
            if p not in members
        ]
        missing, spurious = next(
            (m, o) for m in members for o in others
            if m.fixed_point_count() == o.fixed_point_count()
        )

        def build(n):
            rows = family.build(n)
            if n == 4:
                rows = rows.copy()
                rows[(rows == np.array(missing) - 1).all(axis=1)] = np.array(spurious) - 1
            return rows

        monkeypatch.setitem(generators._FAMILIES, ps, family._replace(build=build))
        report = audit_generator(ps, 6)
        assert report.status == DISCREPANT
        c = report.counterexample
        assert (c.n, c.k) == (4, ROW_LEVEL)
        assert (c.formula_value, c.oracle_value) == (spurious.compact(), missing.compact())
        assert report.detail == (
            f"sets first differ at n=4 (spurious={spurious.compact()}, "
            f"missing={missing.compact()})"
        )
        assert report.cells_checked == sum(n + 1 for n in range(7)) + 1

    def test_generator_audit_refused_before_any_build(self, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("generator ran past the oracle cap")

        monkeypatch.setattr(generators, "generate_rows", build)
        with pytest.raises(CapExceeded):
            audit_generator("231,312", DEFAULT_CAP + 1)

    @pytest.mark.parametrize("audit", [
        partial(audit_formula, "thm-231-312"),
        partial(audit_sum_identity, "132,321"),
        audit_gf_coefficients,
        partial(audit_recurrence, "thm-231-312"),
        audit_gf_sum,
        audit_small_class_bound,
        audit_vanishing,
        audit_super_wilf,
        audit_all,
        partial(super_wilf_classes, ["132", "213"]),
        # One pair differs at n = 3, below the cap; the other never differs.
        partial(divergence_witness, "123", "132"),
        partial(divergence_witness, "132", "213"),
    ], ids=["formula", "sum-identity", "gf-coefficients", "recurrence", "gf-sum",
            "small-class-bound", "vanishing",
            "super-wilf", "all", "super-wilf-classes", "witness-differs-early",
            "witness-agrees"])
    def test_oversized_n_max_refused_before_any_count(self, monkeypatch, sweeps, audit):
        def expand(*args, **kwargs):
            raise AssertionError("series expanded past the oracle cap")

        monkeypatch.setattr("patfix.audit.sum_over_k", expand)
        with pytest.raises(CapExceeded):
            audit(DEFAULT_CAP + 1)
        assert not (sweeps.rows or sweeps.sets or sweeps.counted)

    @pytest.mark.parametrize("n", [5, DEFAULT_CAP + 1])
    @pytest.mark.parametrize("audit, error", [
        (partial(audit_sum_identity, "123,321"), ValueError),
        (partial(audit_formula, "no-such"), ValueError),
        (partial(audit_recurrence, "thm-123-321"), ValueError),
        (partial(audit_generator, "123"), generators.UnsupportedFamily),
    ], ids=["sum-identity", "formula", "recurrence", "generator"])
    def test_unknown_input_refused_before_any_count(self, sweeps, audit, error, n):
        # The input is refused first, whether or not n_max is oversized.
        with pytest.raises(error):
            audit(n)
        assert not (sweeps.rows or sweeps.sets or sweeps.counted)

    @pytest.mark.parametrize("item_id, audit", [
        ("gf-sum-231-321", audit_gf_sum),
        ("sum-132-321", partial(audit_sum_identity, "132,321")),
        ("sum-231-321", partial(audit_sum_identity, "231,321")),
        ("empty-123-321", audit_vanishing),
    ], ids=["gf-sum", "sum-132-321", "sum-231-321", "empty"])
    def test_row_total_off_by_one_is_discrepant(self, monkeypatch, item_id, audit):
        kind, patterns, first, total = _ROW_TOTALS[item_id]
        monkeypatch.setitem(_ROW_TOTALS, item_id,
                            (kind, patterns, first, lambda n: total(n) + 1))
        report = audit(7)
        assert (report.item_id, report.kind, report.status) == (item_id, kind, DISCREPANT)
        truth = sum(refined_count(first, patterns))
        assert report.counterexample == Cell(first, ROW_LEVEL, str(truth + 1), str(truth))
        assert report.cells_checked == 7 - first + 1

    def test_small_class_bound_reports_its_first_violation(self, monkeypatch):
        # {123,132,213,231} is the first set of four; n = 4, k = 0 its
        # first cell past the bound, and every later cell is still counted.
        bad = PatternSet.parse("123,132,213,231")

        def count(n, patterns, *, cap=None):
            row = refined_count(n, patterns, cap=cap)
            return [3, *row[1:]] if (n, PatternSet(patterns)) == (4, bad) else row

        monkeypatch.setattr("patfix.audit.refined_count", count)
        report = audit_small_class_bound(6)
        assert report.status == DISCREPANT
        assert report.counterexample == Cell(4, 0, "0|1|2", "3")
        assert report.detail == "violated by {123,132,213,231}"
        # 22 sets of four or more patterns, 28 cells each.
        assert report.cells_checked == 616

    def test_small_class_bound_orders_by_set_before_n(self, monkeypatch):
        # The first set of four fails at n = 5, a set of five at n = 4:
        # the earlier set is reported, though the later one fails sooner.
        first = PatternSet.parse("123,132,213,231")
        later = PatternSet.parse("123,132,213,231,312")

        def count(n, patterns, *, cap=None):
            row = refined_count(n, patterns, cap=cap)
            if (n, PatternSet(patterns)) in ((5, first), (4, later)):
                return [3, *row[1:]]
            return row

        monkeypatch.setattr("patfix.audit.refined_count", count)
        report = audit_small_class_bound(6)
        assert report.counterexample == Cell(5, 0, "0|1|2", "3")
        assert report.detail == "violated by {123,132,213,231}"

    def test_recurrence_reports_claimed_then_oracle(self, monkeypatch):
        rec = RECURRENCES["thm-231-312"]
        monkeypatch.setitem(RECURRENCES, "thm-231-312",
                            rec._replace(terms=((3, 2, 0), (1, 1, 1))))
        report = audit_recurrence("thm-231-312", 6)
        assert report.status == DISCREPANT
        # The recurrence's right-hand side is the claim, the oracle's
        # count the truth.
        assert report.counterexample == Cell(3, 1, "4", "3")
        assert report.cells_checked == 22

    def test_recurrence_items(self):
        for fid in ("thm-132-231", "thm-231-312", "thm-231-321", "thm3-231-312-321"):
            assert audit_recurrence(fid, 8).status == VERIFIED

    def test_gf_coefficients_report_their_first_cell(self, monkeypatch):
        # Column 3 is off at n = 4 and column 0 at n = 6: cells go by n,
        # then k, so (4, 3) comes first.
        def coefficients(f, m):
            col = series_coefficients(f, m)
            k = next(i for i, c in enumerate(col) if c)  # column k starts at x^k
            bump = {3: 4, 0: 6}.get(k)
            return col if bump is None else [*col[:bump], col[bump] + 1, *col[bump + 1:]]

        monkeypatch.setattr("patfix.audit.series_coefficients", coefficients)
        report = audit_gf_coefficients(7)
        assert (report.item_id, report.status) == ("gf-231-321", DISCREPANT)
        truth = refined_count(4, "231,321")[3]
        assert report.counterexample == Cell(4, 3, str(truth + 1), str(truth))
        assert report.cells_checked == 36

    def test_gf_items(self):
        assert audit_gf_coefficients(8).status == VERIFIED
        assert audit_gf_sum(8).status == VERIFIED

    def test_identity_items(self):
        assert audit_sum_identity("132,321", 8).status == VERIFIED
        assert audit_sum_identity("231,321", 8).status == VERIFIED

    def test_property_items(self):
        assert audit_small_class_bound(7).status == VERIFIED
        assert audit_vanishing(8).status == VERIFIED


class TestAuditAll:
    def test_completeness_and_statuses(self):
        reports = audit_all(6)
        ids = [r.item_id for r in reports]
        # Every registered formula is audited, no omissions.
        for fid in formula_ids():
            assert fid in ids
        assert len(ids) == len(set(ids))
        for r in reports:
            assert r.status in (VERIFIED, DISCREPANT)

    def test_each_row_total_reported_once(self):
        counts = Counter(r.item_id for r in audit_all(6))
        assert {item_id: counts[item_id] for item_id in _ROW_TOTALS} == dict.fromkeys(
            _ROW_TOTALS, 1)

    def test_expected_discrepancy_set(self):
        reports = audit_all(6)
        bad = sorted(r.item_id for r in reports if r.status == DISCREPANT)
        assert bad == [
            "gen-132-213-231",
            "thm-132-231",
            "thm-213-231",
            "thm3-132-213-231",
        ]

    def test_discrepancies_md_matches_the_audit(self):
        # Every write-up under "Confirmed discrepancies" is an `id`
        # heading whose section gives the first counterexample in bold.
        text = (Path(__file__).resolve().parent.parent / "DISCREPANCIES.md").read_text()
        confirmed = text.split("## Confirmed discrepancies", 1)[1].split("\n## ", 1)[0]
        sections = re.split(r"^### `([^`]+)`", confirmed, flags=re.M)[1:]
        written = {}
        for item_id, body in zip(sections[::2], sections[1::2]):
            found = re.search(
                r"\*\*n=(\d+),\s+k=(\d+):\s+(?:formula|generated)\s+(\S+),\s+oracle\s+(\S+)\*\*",
                body,
            )
            assert found, item_id
            n, k, claimed, truth = found.groups()
            written[item_id] = (int(n), int(k), claimed, truth)
        reported = {
            r.item_id: (
                r.counterexample.n,
                r.counterexample.k,
                r.counterexample.formula_value,
                r.counterexample.oracle_value,
            )
            for r in audit_all(9)
            if r.status == DISCREPANT
        }
        assert set(written) == {
            "thm-132-231", "thm-213-231", "thm3-132-213-231", "gen-132-213-231",
        }
        assert written == reported

    def test_json_is_reproducible_and_well_formed(self):
        a = json.dumps([r.to_json_dict() for r in audit_all(5)], indent=2)
        b = json.dumps([r.to_json_dict() for r in audit_all(5)], indent=2)
        assert a == b
        payload = json.loads(a)
        for item in payload:
            assert set(item) >= {
                "formula", "status", "n_max", "cells_checked",
                "cells_skipped", "counterexample",
            }
            assert item["status"] in ("verified", "discrepant")
            if item["counterexample"] is not None:
                assert set(item["counterexample"]) == {
                    "n", "k", "formula_value", "oracle_value",
                }
                assert isinstance(item["counterexample"]["formula_value"], str)


class TestSuperWilfAudit:
    IDS = ["singletons-132-213-321", "singletons-231-312", "pairs-132-213-with-231-312"]

    def test_claims_hold(self):
        reports = audit_super_wilf(8)
        assert [r.item_id for r in reports] == self.IDS
        assert all(r.kind == "equivalence" for r in reports)
        # (members - 1) * (n_max + 1)(n_max + 2)/2 cells each.
        assert [r.cells_checked for r in reports] == [90, 45, 135]
        assert all(r.verified and r.detail == "" for r in reports)

    def test_weak_evidence_still_holds(self):
        for n_max, cells in ((0, [2, 1, 3]), (3, [20, 10, 30])):
            reports = audit_super_wilf(n_max)
            assert all(r.verified for r in reports)
            assert [r.cells_checked for r in reports] == cells

    def test_json_shape(self):
        payload = [r.to_json_dict() for r in audit_super_wilf(4)]
        assert [item["formula"] for item in payload] == self.IDS
        assert all(item["kind"] == "equivalence" for item in payload)
        assert all(item["status"] == VERIFIED for item in payload)
        assert all(item["counterexample"] is None for item in payload)

    def test_false_claim_is_discrepant(self, monkeypatch):
        monkeypatch.setattr("patfix.audit._SUPER_WILF_CLAIMS", (
            ("false", ("123", "132")),
            ("two-differ", ("132", "123", "231")),
        ))
        [report, two] = audit_super_wilf(8)
        assert report.item_id == "false"
        assert report.status == DISCREPANT
        assert report.counterexample == Cell(3, 1, "2", "3")
        c = report.counterexample
        assert (c.n, c.k) == divergence_witness("123", "132", 8)
        assert report.detail == "{132} differs from {123}"
        assert report.cells_checked == 45
        # Both members differ at n = 3; 123 comes first.
        assert two.counterexample == Cell(3, 1, "3", "2")
        assert two.detail == "{123} differs from {132}"
        assert two.cells_checked == 90
