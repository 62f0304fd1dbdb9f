"""Cross-verification engine: every closed form, structural generator,
generating function, recurrence and bound is compared cell by cell
against the exhaustive oracle, which is ground truth by decree; so is
every printed row total (the summed series, the summation identities,
the monotone emptiness) against the oracle's row sums, and so is every
refined-equivalence claim, one member's table against another's.

A discrepancy is a statement about the audited route, never something to
auto-correct: the report carries the first counterexample and the repo
tracks known findings in DISCREPANCIES.md.  Reports serialize to JSON
deterministically (wall-clock durations stay in memory only), so two
runs at the same n_max produce byte-identical output.
"""

from __future__ import annotations

import itertools
import json
import time
from math import comb
from typing import NamedTuple

import numpy as np

from . import formulas, generators
from .formulas import (
    DISCREPANT,
    RECURRENCES,
    VERIFIED,
    cell_text,
    evaluate,
    get_formula,
    recurrence_check,
)
from .genfun import gf_for_k, series_coefficients, sum_over_k
from .oracle import (
    avoider_rows,
    check_size,
    enumerate_avoiders,
    refined_count,
)
from .perms import ALL_PATTERNS, PatternSet, _from_rows, fixed_points

__all__ = [
    "AuditReport",
    "Cell",
    "audit_all",
    "audit_formula",
    "audit_generator",
    "audit_super_wilf",
    "reports_to_json",
]

#: Row-level checks (sums, emptiness) have no meaningful k; their cells
#: carry k = -1.
ROW_LEVEL = -1


class Cell(NamedTuple):
    """One compared cell; ``formula_value`` is whatever the audited
    route claimed, ``oracle_value`` is the brute-force truth."""

    n: int
    k: int
    formula_value: str
    oracle_value: str


class AuditReport(NamedTuple):
    item_id: str
    kind: str
    status: str
    n_max: int
    cells_checked: int
    cells_skipped: int
    counterexample: Cell | None
    duration_s: float
    detail: str = ""

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED

    def to_json_dict(self) -> dict:
        ce = None if self.counterexample is None else self.counterexample._asdict()
        out = {
            "formula": self.item_id,
            "kind": self.kind,
            "status": self.status,
            "n_max": self.n_max,
            "cells_checked": self.cells_checked,
            "cells_skipped": self.cells_skipped,
            "counterexample": ce,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


class _Tally:
    """Checked and skipped counts and the first counterexample."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.checked = 0
        self.skipped = 0
        self.counterexample: Cell | None = None

    def compare(self, n: int, k: int, claimed: str | None, oracle: str) -> None:
        """One cell; a claim of None is out of domain and skipped."""
        if claimed is None:
            self.skipped += 1
            return
        self.checked += 1
        if claimed != oracle and self.counterexample is None:
            self.counterexample = Cell(n, k, claimed, oracle)

    def report(self, item_id: str, kind: str, n_max: int, detail: str = "") -> AuditReport:
        status = VERIFIED if self.counterexample is None else DISCREPANT
        return AuditReport(
            item_id=item_id,
            kind=kind,
            status=status,
            n_max=n_max,
            cells_checked=self.checked,
            cells_skipped=self.skipped,
            counterexample=self.counterexample,
            duration_s=time.perf_counter() - self.start,
            detail=detail,
        )


def _compare_cells(ps: PatternSet, n_max: int, claim, cap: int | None) -> _Tally:
    """``claim(n, k)`` against the oracle at every cell of rows
    n = 0..n_max, refusing an oversized n_max before any count; a cell
    the claim leaves out of domain is skipped."""
    check_size(n_max, cap)
    tally = _Tally()
    for n in range(n_max + 1):
        row = refined_count(n, ps, cap=cap)
        for k in range(n + 1):
            tally.compare(n, k, cell_text(claim(n, k)), str(row[k]))
    return tally


#: The printed row totals: item id -> (kind, pattern set, first size,
#: total(n)), each compared with the oracle's row sums.
_ROW_TOTALS = {
    "gf-sum-231-321": ("genfun", "231,321", 0, lambda n: sum_over_k(n, n)[n]),
    "sum-132-321": ("identity", "132,321", 1, lambda n: comb(n, 2) + 1),
    "sum-231-321": ("identity", "231,321", 1, lambda n: 2 ** (n - 1)),
    "empty-123-321": ("property", "123,321", 5, lambda n: 0),
}


def _audit_total(item_id: str, n_max: int, cap: int | None) -> AuditReport:
    """A printed row total against the oracle's row sum, at k = -1, for
    n from the row's first size to n_max; an oversized n_max is refused
    before any count."""
    kind, patterns, first, total = _ROW_TOTALS[item_id]
    check_size(n_max, cap)
    tally = _Tally()
    for n in range(first, n_max + 1):
        tally.compare(n, ROW_LEVEL, str(total(n)), str(sum(refined_count(n, patterns, cap=cap))))
    return tally.report(item_id, kind, n_max)


def _gen_item_id(patterns: PatternSet) -> str:
    return "gen-" + patterns.canonical().replace(",", "-")


def audit_formula(formula_id: str, n_max: int, *, cap: int | None = None) -> AuditReport:
    """Compare a registered closed form against the oracle on its whole
    stated domain up to n_max; out-of-domain cells are skipped and
    counted."""
    f = get_formula(formula_id)
    tally = _compare_cells(
        f.patterns, n_max, lambda n, k: evaluate(formula_id, n, k), cap
    )
    return tally.report(formula_id, "formula", n_max)


def audit_generator(patterns, n_max: int, *, cap: int | None = None) -> AuditReport:
    """Set equality of the structural construction against the oracle
    enumeration, plus the refined histogram cell by cell.  A set with no
    structural family, then an oversized n_max, is refused before
    anything is built."""
    ps = PatternSet(patterns)
    if generators.family_for(ps) is None:
        raise generators.UnsupportedFamily(ps)
    check_size(n_max, cap)
    built = [generators.generate_rows(ps, n, cap=cap) for n in range(n_max + 1)]
    hists = [
        np.bincount(fixed_points(rows), minlength=n + 1).tolist()
        for n, rows in enumerate(built)
    ]
    tally = _compare_cells(ps, n_max, lambda n, k: hists[n][k], cap)
    detail = ""
    for n, rows in enumerate(built):
        if np.array_equal(rows, avoider_rows(n, ps, cap=cap)):
            continue
        perms = set(_from_rows(rows))
        truth = set(enumerate_avoiders(n, ps, cap=cap))
        spurious = sorted(perms - truth)
        missing = sorted(truth - perms)
        first_spurious = spurious[0].compact() if spurious else "-"
        first_missing = missing[0].compact() if missing else "-"
        detail = (
            f"sets first differ at n={n}"
            f" (spurious={first_spurious}, missing={first_missing})"
        )
        if tally.counterexample is None:
            # Same histogram but different members; surface it anyway.
            tally.compare(n, ROW_LEVEL, first_spurious, first_missing)
        break
    return tally.report(_gen_item_id(ps), "generator", n_max, detail)


def audit_recurrence(formula_id: str, n_max: int, *, cap: int | None = None) -> AuditReport:
    # The one tally not kept by compare: recurrence_check counts its cells.
    rep = recurrence_check(formula_id, n_max, cap=cap)
    tally = _Tally()
    tally.checked = rep.cells_checked
    if rep.violations:
        n, k, lhs, rhs = rep.violations[0]
        tally.counterexample = Cell(n, k, str(rhs), str(lhs))
    item_id = "rec-" + formula_id.removeprefix("thm3-").removeprefix("thm-")
    return tally.report(item_id, "recurrence", n_max)


def audit_gf_coefficients(n_max: int, *, cap: int | None = None) -> AuditReport:
    """Series coefficients of every gf_for_k against the oracle table.

    Each column is expanded once, here, apart from the formula
    registry's memo, so this stays a route of its own."""
    check_size(n_max, cap)
    cols = [series_coefficients(gf_for_k(k), n_max) for k in range(n_max + 1)]
    tally = _compare_cells(
        PatternSet.parse("231,321"), n_max, lambda n, k: cols[k][n], cap
    )
    return tally.report("gf-231-321", "genfun", n_max)


def audit_gf_sum(n_max: int, *, cap: int | None = None) -> AuditReport:
    """The summed {231,321} series against the oracle row totals."""
    return _audit_total("gf-sum-231-321", n_max, cap)


def audit_sum_identity(patterns, n_max: int, *, cap: int | None = None) -> AuditReport:
    """A summation corollary's row total against the oracle's: C(n,2) + 1
    for {132,321} and 2^(n-1) for {231,321}, from n = 1.  Any other set
    is refused before any count."""
    item_id = "sum-" + PatternSet(patterns).canonical().replace(",", "-")
    if item_id not in _ROW_TOTALS:
        raise ValueError(f"no summation identity registered as {item_id!r}")
    return _audit_total(item_id, n_max, cap)


def audit_small_class_bound(n_max: int, *, cap: int | None = None) -> AuditReport:
    """Every pattern set of cardinality >= 4 has refined counts in
    {0, 1, 2} at every (n, k)."""
    check_size(n_max, cap)
    tally = _Tally()
    detail = ""
    for size in (4, 5, 6):
        for combo in itertools.combinations(ALL_PATTERNS, size):
            ps = PatternSet(combo)
            for n in range(n_max + 1):
                for k, count in enumerate(refined_count(n, ps, cap=cap)):
                    text = str(count)
                    tally.compare(n, k, text if count <= 2 else "0|1|2", text)
            if tally.counterexample is not None and not detail:
                detail = f"violated by {{{ps.canonical()}}}"
    return tally.report("bound-size-ge-4", "property", n_max, detail)


def audit_vanishing(n_max: int, *, cap: int | None = None) -> AuditReport:
    """No permutation of size >= 5 avoids both monotone patterns."""
    return _audit_total("empty-123-321", n_max, cap)


def audit_all(n_max: int, *, cap: int | None = None) -> list[AuditReport]:
    """The reports of ``verify --all``: all registered formulas, every
    structural family, the recurrences, the generating functions, the
    summation identities, the cardinality >= 4 bound and the monotone
    emptiness, in a deterministic order.  The three refined-equivalence
    claims are not among them; :func:`audit_super_wilf` checks those."""
    reports = [audit_formula(fid, n_max, cap=cap) for fid in formulas.formula_ids()]
    for fam in generators.supported_families():
        reports.append(audit_generator(fam.patterns, n_max, cap=cap))
    for rec_id in RECURRENCES:
        reports.append(audit_recurrence(rec_id, n_max, cap=cap))
    reports.append(audit_gf_coefficients(n_max, cap=cap))
    reports.append(audit_gf_sum(n_max, cap=cap))
    reports.append(audit_sum_identity("132,321", n_max, cap=cap))
    reports.append(audit_sum_identity("231,321", n_max, cap=cap))
    reports.append(audit_small_class_bound(n_max, cap=cap))
    reports.append(audit_vanishing(n_max, cap=cap))
    return reports


def reports_to_json(reports: list[AuditReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2)


# ---------------------------------------------------------------------------
# refined-equivalence claims
# ---------------------------------------------------------------------------


_SUPER_WILF_CLAIMS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("singletons-132-213-321", ("132", "213", "321")),
    ("singletons-231-312", ("231", "312")),
    ("pairs-132-213-with-231-312", ("132,231", "132,312", "213,231", "213,312")),
)


def audit_super_wilf(n_max: int, *, cap: int | None = None) -> list[AuditReport]:
    """One report per known equivalence that goes beyond the symmetry
    group: {132}, {213}, {321} share one refined table; {231}, {312}
    share one; and the four mixed pairs share one.  Every other member's
    count is compared with the first member's at each cell up to n_max,
    in order of n, then member, then k."""
    check_size(n_max, cap)
    reports = []
    for name, (first, *others) in _SUPER_WILF_CLAIMS:
        tally = _Tally()
        detail = ""
        for n in range(n_max + 1):
            truth = refined_count(n, first, cap=cap)
            for member in others:
                row = refined_count(n, member, cap=cap)
                for k in range(n + 1):
                    tally.compare(n, k, str(row[k]), str(truth[k]))
                if tally.counterexample is not None and not detail:
                    detail = f"{{{member}}} differs from {{{first}}}"
        reports.append(tally.report(name, "equivalence", n_max, detail))
    return reports
