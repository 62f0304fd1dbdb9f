"""Cross-verification engine: every closed form, structural generator,
generating function, recurrence and bound is compared cell by cell
against the exhaustive oracle, which is ground truth by decree; so is
every printed row total (the summed series, the summation identities,
the monotone emptiness) against the oracle's row sums, and so is every
refined-equivalence claim, one member's table against another's.

A discrepancy is a statement about the audited route, never something to
auto-correct: the report carries the first counterexample and the repo
tracks known findings in DISCREPANCIES.md.  Reports serialize to JSON
deterministically, so two runs at the same n_max produce byte-identical
output.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import NamedTuple

import numpy as np

from . import formulas, generators
from .formulas import RECURRENCES, cell_text, evaluate, get_formula, recurrence_check
from .genfun import gf_for_k, series_coefficients, sum_over_k
from .oracle import avoider_rows, check_size, refined_count

# Not called here, but bound: the benchmark's tracer wraps it in every module that holds it.
from .oracle import enumerate_avoiders
from .perms import ALL_PATTERNS, PatternSet, _from_rows, fixed_points

__all__ = [
    "AuditReport",
    "Cell",
    "DISCREPANT",
    "VERIFIED",
    "audit_all",
    "audit_formula",
    "audit_generator",
    "audit_super_wilf",
]

VERIFIED = "verified"
DISCREPANT = "discrepant"

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


def _compare(item_id: str, kind: str, n_max: int, cells, detail: str = "") -> AuditReport:
    """The report on one statement from its cells ``(n, k, claimed, true,
    note)``, in the order that decides the first counterexample.  A claim
    of None is out of domain and skipped; the first claim that differs
    from the truth is the counterexample, and its note the detail unless
    the caller gives one.  The only place that makes a report."""
    checked = skipped = 0
    counterexample = None
    for n, k, claimed, true, note in cells:
        if claimed is None:
            skipped += 1
            continue
        checked += 1
        if claimed != true and counterexample is None:
            counterexample = Cell(n, k, claimed, true)
            detail = detail or note
    status = VERIFIED if counterexample is None else DISCREPANT
    return AuditReport(item_id, kind, status, n_max, checked, skipped, counterexample, detail)


def _oracle_cells(ps: PatternSet, n_max: int, claim, cap: int | None):
    """``claim(n, k)`` against the oracle at every cell of rows
    n = 0..n_max, by n, then k.  Lazy: the caller refuses an oversized
    n_max first."""
    for n in range(n_max + 1):
        row = refined_count(n, ps, cap=cap)
        for k in range(n + 1):
            yield n, k, cell_text(claim(n, k)), str(row[k]), ""


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
    cells = (
        (n, ROW_LEVEL, str(total(n)), str(sum(refined_count(n, patterns, cap=cap))), "")
        for n in range(first, n_max + 1)
    )
    return _compare(item_id, kind, n_max, cells)


def _gen_item_id(patterns: PatternSet) -> str:
    return "gen-" + patterns.canonical().replace(",", "-")


def audit_formula(formula_id: str, n_max: int, *, cap: int | None = None) -> AuditReport:
    """Compare a registered closed form against the oracle on its whole
    stated domain up to n_max; out-of-domain cells are skipped and
    counted."""
    f = get_formula(formula_id)
    check_size(n_max, cap)
    cells = _oracle_cells(f.patterns, n_max, lambda n, k: evaluate(formula_id, n, k), cap)
    return _compare(formula_id, "formula", n_max, cells)


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
    cells = _oracle_cells(ps, n_max, lambda n, k: hists[n][k], cap)
    detail = ""
    for n, rows in enumerate(built):
        oracle_rows = avoider_rows(n, ps, cap=cap)
        if np.array_equal(rows, oracle_rows):
            continue
        perms, truth = set(_from_rows(rows)), set(_from_rows(oracle_rows))
        spurious, missing = (
            min(d).compact() if d else "-" for d in (perms - truth, truth - perms)
        )
        detail = f"sets first differ at n={n} (spurious={spurious}, missing={missing})"
        if all(hist == refined_count(m, ps, cap=cap) for m, hist in enumerate(hists)):
            # Same histogram but different members; surface it anyway.
            cells = itertools.chain(cells, [(n, ROW_LEVEL, spurious, missing, "")])
        break
    return _compare(_gen_item_id(ps), "generator", n_max, cells, detail)


def audit_recurrence(formula_id: str, n_max: int, *, cap: int | None = None) -> AuditReport:
    """A registered recurrence on the oracle's table at every cell that
    recurrence_check walks: the recurrence's sum is the claim, the
    oracle's count the truth."""
    cells = (
        (n, k, str(rhs), str(lhs), "")
        for n, k, lhs, rhs in recurrence_check(formula_id, n_max, cap=cap)
    )
    item_id = "rec-" + formula_id.removeprefix("thm3-").removeprefix("thm-")
    return _compare(item_id, "recurrence", n_max, cells)


def audit_gf_coefficients(n_max: int, *, cap: int | None = None) -> AuditReport:
    """Series coefficients of every gf_for_k against the oracle table.

    Each column is expanded once, here, apart from the formula
    registry's memo, so this stays a route of its own."""
    check_size(n_max, cap)
    cols = [series_coefficients(gf_for_k(k), n_max) for k in range(n_max + 1)]
    cells = _oracle_cells(PatternSet.parse("231,321"), n_max, lambda n, k: cols[k][n], cap)
    return _compare("gf-231-321", "genfun", n_max, cells)


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
    {0, 1, 2} at every (n, k), in order of set, then n, then k."""
    check_size(n_max, cap)
    return _compare("bound-size-ge-4", "property", n_max, _bound_cells(n_max, cap))


def _bound_cells(n_max: int, cap: int | None):
    for size in (4, 5, 6):
        for combo in itertools.combinations(ALL_PATTERNS, size):
            ps = PatternSet(combo)
            note = f"violated by {{{ps.canonical()}}}"
            for n in range(n_max + 1):
                for k, count in enumerate(refined_count(n, ps, cap=cap)):
                    text = str(count)
                    yield n, k, text if count <= 2 else "0|1|2", text, note


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
    return [
        _compare(name, "equivalence", n_max, _equivalence_cells(first, others, n_max, cap))
        for name, (first, *others) in _SUPER_WILF_CLAIMS
    ]


def _equivalence_cells(first: str, others: list[str], n_max: int, cap: int | None):
    notes = [(member, f"{{{member}}} differs from {{{first}}}") for member in others]
    for n in range(n_max + 1):
        truth = refined_count(n, first, cap=cap)
        for member, note in notes:
            row = refined_count(n, member, cap=cap)
            for k in range(n + 1):
                yield n, k, str(row[k]), str(truth[k]), note
