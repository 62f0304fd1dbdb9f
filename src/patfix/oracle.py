"""Brute-force ground truth: exact refined counts over S_n.

For every size n the oracle knows, for each permutation of S_n that
avoids at least one of the six length-3 patterns, which of them it
contains (a 6-bit mask) and how many fixed points it has.  A pattern set
is never empty, so the permutations that contain all six patterns never
count and are not kept.  The (mask, fixed-point-count) histogram answers
every refined-count query for every pattern set at that size, and
listing the avoiders of a pattern set is a boolean filter on the kept
rows.

The rows of size n are grown from those of size n-1 in one insertion
step: each kept row of size n-1 gets each possible first entry v, with
its entries >= v raised by one.  This is exhaustive: deleting the first
entry of a permutation that avoids a pattern (and closing the gap in
the values) leaves a permutation that avoids it, so every kept row of
S_n comes from exactly one first entry and one kept row of S_{n-1}.
A candidate's mask is its parent row's mask plus the patterns that
start at v, which the parent's start table gives at once: one 6-bit mask
per row and per possible first entry (the insertion-step form of the
values used for refined restricted permutations by Robertson, Saracino
and Zeilberger, Ann. Comb. 6, 2002, and Elizalde, EJC 11, 2004, #R51).
The new row's table is its parent's with column v repeated, plus the
patterns that start with v second.  Taking v in increasing order and the
rows of size n-1 in their own order yields the rows of size n already in
lexicographic order.  A size's start table is built only if the caller's
cap allows a larger size, so each size is built once per process except
that a later call under a larger cap rebuilds from size 0.  One caller
builds the missing sizes under one lock while the others wait.

Counts are plain Python integers end to end; numpy is used only to
process the rows quickly.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .perms import PatternSet, Permutation, _from_rows

__all__ = [
    "CAP_ENV_VAR",
    "CapExceeded",
    "CountTable",
    "DEFAULT_CAP",
    "avoider_rows",
    "check_size",
    "clear_cache",
    "count_table",
    "enumerate_avoiders",
    "fixed_points",
    "refined_count",
    "resolve_cap",
]

DEFAULT_CAP = 13
CAP_ENV_VAR = "PATFIX_ORACLE_CAP"

# Fixed-point counts are packed into 4 bits of the histogram key; that
# field alone bounds the size.
_HARD_LIMIT = 15

# The mask of a permutation that contains every length-3 pattern.
_FULL = (1 << 6) - 1


class CapExceeded(Exception):
    """An exhaustive pass (or structural generation) was refused."""

    def __init__(self, n: int, cap: int, subject: str = "oracle enumeration",
                 override: str = f"--cap or {CAP_ENV_VAR}"):
        self.n = n
        self.cap = cap
        hint = f" (override with {override})" if override else ""
        super().__init__(f"size {n} exceeds the {subject} cap of {cap}{hint}")


def resolve_cap(cap: int | None = None) -> int:
    """Effective oracle cap: explicit value, else environment, else default.
    An environment value that is not a nonnegative integer is refused."""
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if env is None:
        return DEFAULT_CAP
    try:
        value = int(env)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{CAP_ENV_VAR} must be a nonnegative integer, got {env!r}")
    return value


def check_size(n: int, cap: int | None = None) -> int:
    """Refuse an exhaustive pass over S_n before any work is done.

    Returns the effective cap (see :func:`resolve_cap`), so a caller can
    resolve it once and pass it on.  Sizes above the histogram's hard
    limit are refused whatever the cap says.
    """
    if n < 0:
        raise ValueError("permutation size must be nonnegative")
    limit = resolve_cap(cap)
    if n > limit:
        raise CapExceeded(n, limit)
    if n > _HARD_LIMIT:
        raise CapExceeded(n, _HARD_LIMIT, subject="exhaustive histogram", override="")
    return limit


def _starts(n: int, v: int) -> np.ndarray:
    """For a row of size n whose first entry is v, the mask of the
    patterns that start at a new first entry w = 0..n with v second and
    some later entry x third, in the order of ALL_PATTERNS.  The row's
    later entries are every value but v, so some x is above v iff
    v < n - 1 and below v iff v > 0."""
    up, down = v < n - 1, v > 0
    return np.array([sum(bit << i for i, bit in enumerate((
        up and w <= v,  # 123
        down and w < v,  # 132
        up and v < w < n,  # 213
        down and 0 < w <= v,  # 231
        up and w > v + 1,  # 312
        down and w > v,  # 321
    ))) for w in range(n + 1)], dtype=np.uint8)


def fixed_points(rows: np.ndarray) -> np.ndarray:
    """Per row of 0-based entries, the number of fixed points (entry j at
    column j).  One column at a time, so no temporary is larger than a
    column."""
    fixed = np.zeros(len(rows), dtype=np.min_scalar_type(rows.shape[1]))
    for j in range(rows.shape[1]):
        fixed += rows[:, j] == j
    return fixed


@dataclass(frozen=True)
class _Sweep:
    """The permutations of S_n that avoid some length-3 pattern, as
    lexicographically sorted 0-based rows with their per-row pattern
    masks, and their (pattern mask, fixed points) -> count histogram."""

    histogram: dict[tuple[int, int], int]
    rows: np.ndarray
    masks: np.ndarray


def _run_sweep(n: int, prev: _Sweep | None, prev_table: np.ndarray | None,
               keep_table: bool) -> tuple[_Sweep, np.ndarray | None]:
    """Size n from size n-1 (``prev``, unused at n = 0) and its start
    table.  The start table of size n is built, and returned with it,
    only if ``keep_table``.

    Entry [r, w] of the start table of a size is the mask of the
    patterns that have an occurrence at position 0 of the row r with w
    placed first (and r's entries >= w raised by one)."""
    if n == 0:  # one empty row, which no w starts a pattern in
        return (_Sweep({(0, 0): 1}, np.zeros((1, 0), dtype=np.int8),
                       np.zeros(1, dtype=np.uint8)),
                np.zeros((1, 1), dtype=np.uint8) if keep_table else None)
    # A candidate is a kept row r of size n-1 behind a first entry v.  An
    # occurrence that does not use position 0 is one of r's, so its mask
    # is r's mask plus the patterns that start at v.  Every v's masks are
    # counted first, so the kept rows can be written straight into
    # arrays of their final size.
    total = sum(int(np.count_nonzero((prev.masks | prev_table[:, v]) != _FULL))
                for v in range(n))
    rows = np.empty((total, n), dtype=np.int8)
    masks = np.empty(len(rows), dtype=np.uint8)
    table = np.empty((len(rows), n + 1), dtype=np.uint8) if keep_table else None
    counts = np.zeros(64 * 16, dtype=np.int64)
    end = 0
    for v in range(n):
        candidates = prev.masks | prev_table[:, v]
        keep = np.flatnonzero(candidates != _FULL)
        part = slice(end, end + len(keep))
        end = part.stop
        tail = prev.rows.take(keep, axis=0)
        tail += tail >= v
        block = rows[part]
        block[:, 0] = v
        block[:, 1:] = tail
        del tail
        mask = candidates.take(keep, out=masks[part])
        counts += np.bincount((mask.astype(np.uint16) << 4) | fixed_points(block),
                              minlength=64 * 16)
        if table is None:
            continue
        # A w <= v sees r's entries as r's own column w does, and a w > v
        # as column w - 1 does; then add the starts (w, v, x).
        parent = prev_table.take(keep, axis=0)
        starts = table[part]
        starts[:, :v + 1] = parent[:, :v + 1]
        starts[:, v + 1:] = parent[:, v:]
        starts |= _starts(n, v)
    histogram = {
        (key >> 4, key & 15): c
        for key, c in enumerate(counts.tolist())
        if c
    }
    rows.flags.writeable = masks.flags.writeable = False
    return _Sweep(histogram, rows, masks), table


_build_lock = threading.Lock()
# Sizes 0..m, replaced whole and never changed once published, and the
# start table of size m while a larger size may still be asked for.
_built: tuple[_Sweep, ...] = ()
_frontier: np.ndarray | None = None


def _sweep(n: int, limit: int = DEFAULT_CAP) -> _Sweep:
    """The cached rows of size n, for a caller whose cap is ``limit``.
    A size already built is returned without a lock.  Otherwise the
    first caller builds the missing sizes under the build lock while
    later callers wait.  A size's start table is built only if a larger
    size is allowed under ``min(limit, _HARD_LIMIT)``."""
    global _built, _frontier
    built = _built
    if n < len(built):
        return built[n]
    with _build_lock:
        built, table = _built, _frontier
        if n >= len(built) and table is None:
            built = ()
        for m in range(len(built), n + 1):
            keep_table = m < min(limit, _HARD_LIMIT)
            sweep, table = _run_sweep(m, built[-1] if built else None, table, keep_table)
            built += (sweep,)
            _built, _frontier = built, table
        return built[n]


def refined_count(n: int, patterns, *, cap: int | None = None) -> list[int]:
    """Counts by fixed points: entry k is the number of permutations in
    S_n avoiding every pattern in ``patterns`` with exactly k fixed
    points."""
    pats = PatternSet(patterns)
    limit = check_size(n, cap)
    out = [0] * (n + 1)
    tmask = pats.mask
    for (mask, fp), count in _sweep(n, limit).histogram.items():
        if mask & tmask == 0:
            out[fp] += count
    return out


def avoider_rows(n: int, patterns, *, cap: int | None = None) -> np.ndarray:
    """The avoiders of ``patterns`` in S_n as 0-based rows (entry v is
    v - 1), in lexicographic order, filtered from the cached rows of
    size n."""
    pats = PatternSet(patterns)
    sweep = _sweep(n, check_size(n, cap))
    return sweep.rows[(sweep.masks & pats.mask) == 0]


def enumerate_avoiders(n: int, patterns, *, cap: int | None = None) -> Iterator[Permutation]:
    """Yield the avoiders of ``patterns`` in S_n, each exactly once, in
    lexicographic order."""
    yield from _from_rows(avoider_rows(n, patterns, cap=cap))


@dataclass(frozen=True)
class CountTable:
    """Refined counts for one pattern set, rows n = 0..n_max."""

    patterns: PatternSet
    rows: dict[int, list[int]]

    def row(self, n: int) -> list[int]:
        return list(self.rows[n])

    def get(self, n: int, k: int) -> int:
        """Count at (n, k), zero outside 0 <= k <= n by convention."""
        if k < 0 or k > n:
            return 0
        return self.rows[n][k]

    @property
    def n_max(self) -> int:
        return max(self.rows)


def count_table(n_max: int, patterns, *, cap: int | None = None) -> CountTable:
    """Rows n = 0..n_max of refined counts.  Backed by the shared
    per-size histogram cache, so repeated queries never re-enumerate."""
    pats = PatternSet(patterns)
    limit = check_size(n_max, cap)
    rows = {n: refined_count(n, pats, cap=limit) for n in range(n_max + 1)}
    return CountTable(pats, rows)


def clear_cache() -> None:
    """Drop all cached enumeration state (mainly for tests)."""
    global _built, _frontier
    with _build_lock:
        _built, _frontier = (), None
