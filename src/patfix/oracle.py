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
start at v, which six values kept per row decide in O(1) (the
insertion-step form of the values used for refined restricted
permutations by Robertson, Saracino and Zeilberger, Ann. Comb. 6, 2002,
and Elizalde, EJC 11, 2004, #R51); the values of the new row follow from
its parent's in O(1) as well.  Taking v in increasing order and the rows
of size n-1 in their own order yields the rows of size n already in
lexicographic order.  A size's six values are built only if the caller's
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
from typing import Iterator, NamedTuple

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

# Fixed-point counts are packed into 4 bits of the histogram key.
_HARD_LIMIT = 15

# The mask of a permutation that contains every length-3 pattern.
_FULL = (1 << 6) - 1


class CapExceeded(Exception):
    """An exhaustive pass (or structural generation) was refused."""

    def __init__(self, n: int, cap: int, subject: str = "oracle enumeration"):
        self.n = n
        self.cap = cap
        hint = f" (override with --cap or {CAP_ENV_VAR})" if "oracle" in subject else ""
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
        raise CapExceeded(n, _HARD_LIMIT, subject="exhaustive histogram")
    return limit


class _State(NamedTuple):
    """Six values per row that decide which patterns an occurrence
    starting at a new first entry v completes, for every v at once.
    Values are 0-based entries of the row, and a pair is two positions
    i < j.  With no such pair, m12 and s21 hold -1 and b12 and b21 hold
    the row's size, below and above every entry.  A bit set holds bits
    1..n-1 of a row of size n, so it fits in 16 bits because no row is
    longer than _HARD_LIMIT = 15 entries."""

    m12: np.ndarray  # int8, largest smaller entry of an ascent pair: 123 iff v <= m12
    s21: np.ndarray  # int8, largest smaller entry of a descent pair: 132 iff v <= s21
    i12: np.ndarray  # uint16, union of {a+1..b} over ascent pairs (a, b): 213 iff bit v
    i21: np.ndarray  # uint16, union of {b+1..a} over descent pairs (a, b): 231 iff bit v
    b12: np.ndarray  # int8, smallest larger entry of an ascent pair: 312 iff b12 < v
    b21: np.ndarray  # int8, smallest larger entry of a descent pair: 321 iff b21 < v


def _new_bits(state: _State, v: int) -> np.ndarray:
    """Per row, the mask bits of the patterns that start at a new first
    entry v, in the order of ALL_PATTERNS."""
    bits = (state.m12 >= v).view(np.uint8)
    bits |= (state.s21 >= v).view(np.uint8) << 1
    bits |= ((state.i12 >> v) & 1).astype(np.uint8) << 2
    bits |= ((state.i21 >> v) & 1).astype(np.uint8) << 3
    bits |= (state.b12 < v).view(np.uint8) << 4
    bits |= (state.b21 < v).view(np.uint8) << 5
    return bits


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


def _run_sweep(n: int, prev: _Sweep | None, prev_state: _State | None,
               keep_state: bool) -> tuple[_Sweep, _State | None]:
    """Size n from size n-1 (``prev``, unused at n = 0) and its six
    values.  The six values of size n are built, and returned with it,
    only if ``keep_state``."""
    if n == 0:  # one empty row, which has no pairs
        below, above = np.full(1, -1, dtype=np.int8), np.zeros(1, dtype=np.int8)
        no_bits = np.zeros(1, dtype=np.uint16)
        state = _State(below, below, no_bits, no_bits, above, above)
        return (_Sweep({(0, 0): 1}, np.zeros((1, 0), dtype=np.int8),
                       np.zeros(1, dtype=np.uint8)), state if keep_state else None)
    # A candidate is a kept row r of size n-1 behind a first entry v.  An
    # occurrence that does not use position 0 is one of r's, so its mask
    # is r's mask plus the patterns that start at v.  Every v's masks are
    # computed first, so the kept rows can be written straight into
    # arrays of their final size.
    new = [prev.masks | _new_bits(prev_state, v) for v in range(n)]
    total = sum(int(np.count_nonzero(mask != _FULL)) for mask in new)
    rows = np.empty((total, n), dtype=np.int8)
    masks = np.empty(len(rows), dtype=np.uint8)
    state = (_State(*(np.empty(len(rows), dtype=a.dtype) for a in prev_state))
             if keep_state else None)
    counts = np.zeros(64 * 16, dtype=np.int64)
    end = 0
    for v in range(n):
        # Each v's masks and raised rows are dropped as soon as they are
        # written, which lowers the peak memory of large sizes.
        candidates, new[v] = new[v], None
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
        if state is None:
            continue
        # Raise r's values to those of the new row: entries >= v move up
        # by one, and so does every bit >= v, while bit v stays.
        m12, s21, i12, i21, b12, b21 = (
            a.take(keep, out=out[part]) for a, out in zip(prev_state, state)
        )
        low = (1 << (v + 1)) - 1
        for x in (m12, s21, b12, b21):
            x += x >= v
        for x in (i12, i21):
            x[:] = (x & low) | ((x >> v) << (v + 1))
        # Then add the pairs (v, x) for every later entry x.
        if v < n - 1:
            np.maximum(m12, v, out=m12)
            np.minimum(b12, v + 1, out=b12)
            i12 |= ((1 << n) - 1) ^ low
        if v > 0:
            np.maximum(s21, v - 1, out=s21)
            np.minimum(b21, v, out=b21)
            i21 |= low ^ 1
    histogram = {
        (key >> 4, key & 15): c
        for key, c in enumerate(counts.tolist())
        if c
    }
    rows.flags.writeable = masks.flags.writeable = False
    return _Sweep(histogram, rows, masks), state


_build_lock = threading.Lock()
# Sizes 0..m, replaced whole and never changed once published, and the
# six values of size m while a larger size may still be asked for.
_built: tuple[_Sweep, ...] = ()
_frontier: _State | None = None


def _sweep(n: int, limit: int = DEFAULT_CAP) -> _Sweep:
    """The cached rows of size n, for a caller whose cap is ``limit``.
    A size already built is returned without a lock.  Otherwise the
    first caller builds the missing sizes under the build lock while
    later callers wait.  A size's six values are built only if a larger
    size is allowed under ``min(limit, _HARD_LIMIT)``."""
    global _built, _frontier
    built = _built
    if n < len(built):
        return built[n]
    with _build_lock:
        built, state = _built, _frontier
        if n >= len(built) and state is None:
            built = ()
        for m in range(len(built), n + 1):
            keep_state = m < min(limit, _HARD_LIMIT)
            sweep, state = _run_sweep(m, built[-1] if built else None, state, keep_state)
            built += (sweep,)
            _built, _frontier = built, state
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
