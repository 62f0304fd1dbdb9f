"""Closed-form and recurrence evaluators for the refined avoidance counts.

Each formula is registered under a stable identifier ("thm-231-312")
together with the pattern set it counts and the smallest size it is
stated for.  Evaluation is exact: a division is an int when exact, else
a rational, and a value that fails to reduce to an integer is reported
as ``Undefined.NON_INTEGRAL`` instead of being rounded.  A formula is
transcribed as printed even where the brute-force oracle disagrees; the
audit module reports such verdicts without changing the registry (see
DISCREPANCIES.md).
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING, Callable, NamedTuple, Union

# Not called here, but bound: the benchmark's tracer wraps it in every module that holds it.
from .genfun import series_coefficients
from .oracle import count_table
from .perms import PatternSet

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Formula",
    "RECURRENCES",
    "Recurrence",
    "Undefined",
    "cell_text",
    "evaluate",
    "fibonacci",
    "formula_for_patterns",
    "formula_ids",
    "get_formula",
    "jacobsthal",
    "recurrence_check",
    "row_text",
]


class Undefined(Enum):
    """Non-value outcomes of a formula evaluation."""

    OUT_OF_DOMAIN = "out-of-domain"
    NON_INTEGRAL = "non-integral"


EvalValue = Union[int, Undefined]


def cell_text(value: EvalValue) -> str | None:
    """A value as a table cell: None out of domain, else its text."""
    if value is Undefined.OUT_OF_DOMAIN:
        return None
    return "non-integral" if value is Undefined.NON_INTEGRAL else str(value)


def row_text(row) -> list[str | None]:
    """:func:`cell_text` of each value of a row, in one pass that turns
    an int into text directly.

    >>> row_text([1, Undefined.NON_INTEGRAL, Undefined.OUT_OF_DOMAIN])
    ['1', 'non-integral', None]
    """
    return [str(v) if type(v) is int else cell_text(v) for v in row]


@lru_cache(maxsize=None)
def fibonacci(n: int) -> int:
    """Fibonacci numbers with the initialization F_0 = F_1 = 1."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@lru_cache(maxsize=None)
def jacobsthal(n: int) -> int:
    """J_n = J_{n-1} + 2 J_{n-2}, aligned so that J_0 = J_1 = 1.

    With this offset the zero-fixed-point counts of the {132,231}
    avoiders satisfy s_n^0 = J_{n-2}.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    a, b = 1, 1
    for _ in range(n):
        a, b = b, b + 2 * a
    return a


def _as_int(value: Union[int, Fraction]) -> EvalValue:
    if type(value) is not int:
        return int(value) if value.denominator == 1 else Undefined.NON_INTEGRAL
    return value


def _ratio(a: int, b: int) -> int | Fraction:
    """a / b exactly: an int when b divides a, else a Fraction.  Only
    then is ``fractions`` imported."""
    q, r = divmod(a, b)
    if not r:
        return q
    from fractions import Fraction

    return Fraction(a, b)


def _finite(*rows: tuple[int, ...]) -> Callable[[int, int], int]:
    """A finite table read as ``rows[k][n]``, and 0 past its entries."""

    def _eval(n: int, k: int) -> int:
        return rows[k][n] if k < len(rows) and n < len(rows[k]) else 0

    return _eval


# ---------------------------------------------------------------------------
# pairs of patterns
# ---------------------------------------------------------------------------

_eval_123_321 = _finite((1, 0, 1, 2, 4), (0, 1, 0, 2), (0, 0, 1))


def _eval_123_132(n: int, k: int):
    if k >= 3:
        return 0
    half, odd = divmod(n, 2)
    if k == 2:
        if odd:
            return 0
        return _ratio(4 ** (half - 1) + 2, 3)
    if k == 1:
        if odd:
            return _ratio(4**half + 2, 3)
        return _ratio(2 * (4 ** (half - 1) - 1), 3)
    if odd:
        return _ratio(2 * (4**half - 1), 3)
    return 4 ** (half - 1)


def _pair_123_231_two_fixed(n: int) -> int | Fraction:
    r = n % 6
    if r == 0:
        return _ratio(n * (n - 6), 24) + _ratio(n, 2)
    if r in (1, 5):
        return _ratio((n - 1) * (n + 1), 24)
    if r in (2, 4):
        return _ratio((n - 4) * (n - 2), 24) + _ratio(n, 2)
    return _ratio((n - 3) * (n + 3), 24)


def _pair_123_231_one_fixed(n: int) -> int | Fraction:
    r = n % 6
    if r == 0:
        return _ratio(n * (n - 6), 12) + 6 * comb((n + 6) // 6, 2)
    if r == 1:
        return (
            _ratio((n - 3) * (n - 1), 8)
            + _ratio((n - 7) * (n - 1), 12)
            + 6 * comb((n + 5) // 6, 2)
            + _ratio(n + 2, 3)
        )
    if r == 2:
        return _ratio(n * (n - 2), 12) + 6 * comb((n + 4) // 6, 2)
    if r == 3:
        return (
            _ratio((n - 3) * (n - 1), 8)
            + _ratio((n - 5) * (n - 3), 12)
            + 6 * comb((n + 3) // 6, 2)
            + _ratio(2 * n + 3, 3)
        )
    if r == 4:
        return _ratio((n - 12) * (n + 2), 12) + 6 * comb((n + 8) // 6, 2)
    return (
        _ratio((n - 3) * (n - 1), 8)
        + _ratio((n - 5) * (n - 3), 12)
        + 6 * comb((n + 1) // 6, 2)
        + n
    )


def _eval_123_231(n: int, k: int):
    if k >= 3:
        return 0
    if k == 2:
        return _pair_123_231_two_fixed(n)
    if k == 1:
        return _pair_123_231_one_fixed(n)
    return comb(n, 2) + 1 - _pair_123_231_one_fixed(n) - _pair_123_231_two_fixed(n)


def _eval_213_132(n: int, k: int):
    if k == n:
        return 1
    if k == n - 1:
        return 0
    half, odd = divmod(n, 2)
    if k == 0:
        if odd:
            return _ratio(2 * (4**half - 1), 3)
        return _ratio(5 * 4 ** (half - 1) - 2, 3)
    if k % 2 != odd:
        return 0
    return 4 ** ((n - k) // 2 - 1)


def _eval_132_231(n: int, k: int):
    # Transcribed as printed.  The 1 <= k <= n-2 clause disagrees with
    # the oracle whenever k < n-2 (first at n=4, k=1) and the audit
    # reports it as such; see DISCREPANCIES.md.
    if k == n:
        return 1
    if k == n - 1:
        return 0
    if k == 0:
        return _ratio(2 ** (n - 1) + (-1) ** n, 3)
    return _ratio(2 * (2 ** (n - k) + (-1) ** (n - k + 1)), 3)


def _eval_132_321(n: int, k: int):
    if k == n:
        return 1
    return n - k - 1


def _eval_231_312(n: int, k: int):
    if (n + k) % 2:
        return 0
    binoms = comb((n + k) // 2, (n - k) // 2) + comb((n + k - 2) // 2, (n - k) // 2)
    # The two-power exponent is -1 when k = n; stay in exact rationals.
    e = (n - k - 2) // 2
    if e >= 0:
        return binoms * 2**e
    return _ratio(binoms, 2**-e)


#: k -> column k, the coefficients of gf_for_k(k) from x^k on, as far as
#: computed, for the life of the process.  A column is only replaced whole
#: by a complete tuple, so readers need no lock; of two threads extending
#: one column, the later write wins.
_SERIES_COLUMNS: dict[int, tuple[int, ...]] = {}


def _eval_231_321(n: int, k: int):
    """[x^n] x^k (1-x)^(k+1) / (1-x-x^2)^(k+1), read by the column rule.

    With D = 1-x-x^2 that is ((1-x)/D) (x(1-x)/D)^k, so column k satisfies
    D C_k = x(1-x) C_{k-1}, and D C_0 = 1-x; from x^k on, the terms are
    d_k[i] = d_k[i-1] + d_k[i-2] + d_{k-1}[i] - d_{k-1}[i-1], with column
    -1 standing for the numerator 1 - x.

    >>> from patfix.genfun import gf_for_k
    >>> [_eval_231_321(n, 2) for n in range(2, 9)] == series_coefficients(gf_for_k(2), 8)[2:]
    True
    """
    i = n - k
    col = _SERIES_COLUMNS.get(k, ())
    if i >= len(col):
        # Double the terms: extending to i alone would copy a column read
        # one cell at a time once per cell.
        m = max(i + 1, 2 * len(col))
        # Walk down to the first column that is long enough, then extend
        # the ones above it in turn; a loop, since k has no cap.
        j = k
        while len(col) < m:
            j -= 1
            col = _SERIES_COLUMNS.get(j, ()) if j >= 0 else (1,) + (0,) * (m - 1)
        for j in range(j + 1, k + 1):
            # Continue column j from its stored terms (at most m, so that
            # column j - 1 covers them), behind zeros for d_j[-2], d_j[-1].
            terms = [0, 0, *_SERIES_COLUMNS.get(j, ())[:m]]
            t = len(terms) - 2
            d2, d1 = terms[-2:]
            before = col[t - 1] if t else 0
            for c in col[t:m]:
                d1, d2, before = d1 + d2 + c - before, d1, c
                terms.append(d1)
            col = _SERIES_COLUMNS[j] = tuple(terms[2:])
    return col[i]


# ---------------------------------------------------------------------------
# triples of patterns
# ---------------------------------------------------------------------------

# Finite tables for the {123, alpha, 321} families; everything avoiding
# both monotone patterns dies out at size 5.  alpha = 132 and 213 share
# a table, as do alpha = 231 and 312.
_eval3_123_132_321 = _finite((1, 0, 1, 2, 1), (0, 1, 0, 1), (0, 0, 1))
_eval3_123_231_321 = _finite((1, 0, 1, 1, 1), (0, 1, 0, 2), (0, 0, 1))


def _eval3_123_132_213(n: int, k: int):
    if k >= 3:
        return 0
    odd = n % 2
    if k == 2:
        return 0 if odd else fibonacci((n - 2) // 2) ** 2
    if k == 1:
        return fibonacci((n - 1) // 2) ** 2 if odd else 0
    if odd:
        return fibonacci(n) - fibonacci((n - 1) // 2) ** 2
    return fibonacci(n) - fibonacci((n - 2) // 2) ** 2


def _eval3_123_132_231(n: int, k: int):
    if k == 0:
        return n // 2
    if k == 1:
        return n // 2 + (-1) ** (n + 1)
    if k == 2:
        return (1 + (-1) ** n) // 2
    return 0


def _eval3_123_231_312(n: int, k: int):
    if k in (0, 2):
        return n // 2 if n % 2 == 0 else 0
    if k == 1:
        return n if n % 2 == 1 else 0
    return 0


def _eval3_132_213_231(n: int, k: int):
    # Transcribed as printed; the even-size k = 0 branch disagrees with
    # the oracle (first at n = 4) and the audit reports it as such.
    if k == 0:
        return n // 2 + (n // 2 + 1 if n % 2 == 0 else 0)
    if k == 1:
        return n // 2 if n % 2 == 1 else 0
    return 1 if n == k else 0


def _eval3_132_213_321(n: int, k: int):
    if k == 0:
        return n - 1
    return 1 if n == k else 0


def _eval3_132_231_312(n: int, k: int):
    if k == 0:
        return 1 if n % 2 == 0 else 0
    if n == k:
        return 1
    return 2 if (n - k) % 2 == 0 else 0


def _eval3_132_231_321(n: int, k: int):
    if k <= n - 2:
        return 1
    if k == n - 1:
        return 0
    return 1


def _eval3_231_312_321(n: int, k: int):
    if (n + k) % 2:
        return 0
    return comb((n + k) // 2, k)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class Formula(NamedTuple):
    """One registered closed form."""

    patterns: PatternSet
    min_n: int
    fn: Callable[[int, int], Union[int, Fraction]]


REGISTRY: dict[str, Formula] = {
    "thm-123-321": Formula(PatternSet.parse("123,321"), 0, _eval_123_321),
    "thm-123-132": Formula(PatternSet.parse("123,132"), 1, _eval_123_132),
    "thm-123-231": Formula(PatternSet.parse("123,231"), 2, _eval_123_231),
    "thm-213-132": Formula(PatternSet.parse("213,132"), 1, _eval_213_132),
    "thm-132-231": Formula(PatternSet.parse("132,231"), 3, _eval_132_231),
    "thm-132-321": Formula(PatternSet.parse("132,321"), 1, _eval_132_321),
    "thm-213-231": Formula(PatternSet.parse("213,231"), 3, _eval_132_231),
    "thm-231-312": Formula(PatternSet.parse("231,312"), 1, _eval_231_312),
    "thm-231-321": Formula(PatternSet.parse("231,321"), 0, _eval_231_321),
    "thm3-123-132-321": Formula(PatternSet.parse("123,132,321"), 0, _eval3_123_132_321),
    "thm3-123-213-321": Formula(PatternSet.parse("123,213,321"), 0, _eval3_123_132_321),
    "thm3-123-231-321": Formula(PatternSet.parse("123,231,321"), 0, _eval3_123_231_321),
    "thm3-123-312-321": Formula(PatternSet.parse("123,312,321"), 0, _eval3_123_231_321),
    "thm3-123-132-213": Formula(PatternSet.parse("123,132,213"), 3, _eval3_123_132_213),
    "thm3-123-132-231": Formula(PatternSet.parse("123,132,231"), 3, _eval3_123_132_231),
    "thm3-123-231-312": Formula(PatternSet.parse("123,231,312"), 3, _eval3_123_231_312),
    "thm3-132-213-231": Formula(PatternSet.parse("132,213,231"), 3, _eval3_132_213_231),
    "thm3-132-213-321": Formula(PatternSet.parse("132,213,321"), 3, _eval3_132_213_321),
    "thm3-132-231-312": Formula(PatternSet.parse("132,231,312"), 2, _eval3_132_231_312),
    "thm3-132-231-321": Formula(PatternSet.parse("132,231,321"), 3, _eval3_132_231_321),
    "thm3-231-312-321": Formula(PatternSet.parse("231,312,321"), 3, _eval3_231_312_321),
}

# Each id's (min_n, fn), so that evaluate finds both with one lookup.
_RULES = {fid: (f.min_n, f.fn) for fid, f in REGISTRY.items()}


def formula_ids() -> tuple[str, ...]:
    return tuple(REGISTRY)


def get_formula(formula_id: str) -> Formula:
    try:
        return REGISTRY[formula_id]
    except KeyError:
        raise ValueError(f"unknown formula id {formula_id!r}") from None


def formula_for_patterns(patterns) -> str | None:
    """The id of the formula counting ``patterns``, if one is registered."""
    pats = PatternSet(patterns)
    return next((fid for fid, f in REGISTRY.items() if f.patterns == pats), None)


def evaluate(formula_id: str, n: int, k: int) -> EvalValue:
    """Exact value of the registered closed form at (n, k).

    Returns ``Undefined.OUT_OF_DOMAIN`` below the formula's stated
    minimum size, 0 for k outside 0..n (the standing convention), and
    ``Undefined.NON_INTEGRAL`` if exact evaluation fails to produce an
    integer, which would indicate a transcription bug.
    """
    try:
        min_n, fn = _RULES[formula_id]
    except KeyError:
        raise ValueError(f"unknown formula id {formula_id!r}") from None
    if n < min_n:
        return Undefined.OUT_OF_DOMAIN
    if k < 0 or k > n:
        return 0
    value = fn(n, k)
    return value if type(value) is int else _as_int(value)


# ---------------------------------------------------------------------------
# recurrences
# ---------------------------------------------------------------------------


class Recurrence(NamedTuple):
    """A linear recurrence s_n^k = sum of coeff * s_{n-dn}^{k-dk}."""

    patterns: PatternSet
    min_n: int
    terms: tuple[tuple[int, int, int], ...]  # (coeff, dn, dk)
    zero_fixed_only: bool = False


RECURRENCES: dict[str, Recurrence] = {
    "thm-132-231": Recurrence(
        PatternSet.parse("132,231"), 3, ((1, 1, 0), (2, 2, 0)), zero_fixed_only=True
    ),
    "thm-231-312": Recurrence(PatternSet.parse("231,312"), 3, ((2, 2, 0), (1, 1, 1))),
    "thm-231-321": Recurrence(
        PatternSet.parse("231,321"), 2, ((1, 1, 1), (1, 2, 0), (1, 1, 0), (-1, 2, 1))
    ),
    "thm3-231-312-321": Recurrence(
        PatternSet.parse("231,312,321"), 2, ((1, 1, 1), (1, 2, 0))
    ),
}


def recurrence_check(
    formula_id: str, n_max: int, *, cap: int | None = None
) -> list[tuple[int, int, int, int]]:
    """Every cell of the registered recurrence on oracle data up to n_max,
    as ``(n, k, lhs, rhs)``: lhs is the oracle's count, rhs the
    recurrence's sum of smaller counts.  By n, then k, from the
    recurrence's first size; only k = 0 where it is stated for no fixed
    points.  It holds where every lhs equals its rhs."""
    try:
        rec = RECURRENCES[formula_id]
    except KeyError:
        raise ValueError(f"no recurrence registered under {formula_id!r}") from None
    rows = count_table(n_max, rec.patterns, cap=cap)
    # A count outside 0 <= k <= n is zero, by convention.
    return [
        (n, k, rows[n][k],
         sum(c * rows[n - dn][k - dk] for c, dn, dk in rec.terms if 0 <= k - dk <= n - dn))
        for n in range(rec.min_n, n_max + 1)
        for k in ((0,) if rec.zero_fixed_only else range(n + 1))
    ]
