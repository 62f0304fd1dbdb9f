"""Brute-force ground truth: exact refined counts over S_n.

For every size n the oracle knows, for each permutation of S_n that
avoids at least one of the six length-3 patterns, which of them it
contains (a 6-bit mask) and how many fixed points it has.  A pattern set
is never empty, so the permutations that contain all six patterns never
count and are not kept.  Summing one (mask, fixed points) histogram per
size over the masks that miss each pattern set gives every set's row of
refined counts, so a query is a lookup.

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
lexicographic order.  One step per size writes its rows, masks and start
table in one pass over v, and only the largest size built keeps its
table.  The same step, keeping only the candidates that miss every
pattern of a set T, grows T's avoiders alone.

Size 0, one empty row that avoids every pattern set, is held from import
on as the seed of both caches, the shared rows and the count tables.
Every larger size is counted before its rows are built, from the rows,
masks and start table of the size below.  A candidate's fixed points
follow from its parent row and its first entry v: it has one at position
0 iff v = 0, and one at position j + 1 iff the parent's entry j is j
with j >= v, or is j + 1 with j <= v - 2.  So one running count per
parent row, started from its tests of r[j] = j (each made once and kept)
and moved from v - 1 to v by two of its columns, gives the fixed points
of every candidate, and the kept candidates give the size's
histogram and the length of its rows.  A size's shared rows are built
only to count the next size, so a query up to size n keeps them up to
size max(n - 1, 0) only.  The avoiders of T at a size below the largest
counted are a boolean filter on its shared rows; at the largest they are
grown alone from the size below.  Each size is built and counted once
per process, whatever the cap: one caller builds the missing sizes under
one lock while the others wait.

Counts are plain Python integers end to end; numpy is used only to
process the rows quickly.
"""

from __future__ import annotations

import threading
from typing import Iterator, NamedTuple

import numpy as np

from .perms import PatternSet, Permutation, _from_rows

__all__ = [
    "CapExceeded",
    "DEFAULT_CAP",
    "avoider_rows",
    "check_size",
    "clear_cache",
    "count_table",
    "enumerate_avoiders",
    "refined_count",
]

DEFAULT_CAP = 13

# Fixed-point counts are packed into 4 bits of the histogram key; that
# field alone bounds the size.
_HARD_LIMIT = 15

# The mask of a permutation that contains every length-3 pattern.
_FULL = (1 << 6) - 1


class CapExceeded(Exception):
    """An exhaustive pass (or structural generation) was refused;
    ``override`` names the option that lifts the cap, if any does."""

    def __init__(self, n: int, cap: int, subject: str = "oracle enumeration",
                 override: str = "--cap"):
        self.n = n
        self.cap = cap
        hint = f" (override with {override})" if override else ""
        super().__init__(f"size {n} exceeds the {subject} cap of {cap}{hint}")


def check_size(n: int, cap: int | None = None) -> None:
    """Refuse an exhaustive pass over S_n before any work is done, under
    ``cap``, else :data:`DEFAULT_CAP`.  A negative size or cap is a bad
    argument, not a refusal.  Sizes above the histogram's hard limit are
    refused whatever the cap says.
    """
    limit = DEFAULT_CAP if cap is None else cap
    if min(n, limit) < 0:
        raise ValueError(f"size {n} and cap {limit} must be nonnegative")
    if n > limit:
        raise CapExceeded(n, limit)
    if n > _HARD_LIMIT:
        raise CapExceeded(n, _HARD_LIMIT, subject="exhaustive histogram", override="")


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


# Rows per fixed-point count and bincount.  A chunk of rows and of its
# start table fits in a core's cache, so reading it column by column,
# once per first entry v, fetches it from memory once.
_CHUNK = 1 << 15


class _Sweep(NamedTuple):
    """The permutations of S_n that avoid some length-3 pattern, as
    lexicographically sorted 0-based rows with their per-row pattern
    masks, and their start table while n is the largest size built
    (None after).  Entry [r, w] of the table is the mask of the patterns
    at position 0 of row r with w placed first (r's entries >= w
    raised).  Never changed once built."""

    rows: np.ndarray
    masks: np.ndarray
    table: np.ndarray | None


def _sealed(rows: np.ndarray, masks: np.ndarray, table: np.ndarray) -> _Sweep:
    """A size's arrays as a :class:`_Sweep`, made read-only."""
    rows.flags.writeable = masks.flags.writeable = table.flags.writeable = False
    return _Sweep(rows, masks, table)


def _step(n: int, prev: _Sweep, tmask: int, total: int) -> _Sweep | np.ndarray:
    """Size n >= 1 from size n-1 (``prev``, with its start table),
    written straight into arrays of the ``total`` rows that the size's
    count table says are kept.  With ``tmask`` 0 it keeps every
    candidate that misses some pattern and returns the size's
    :class:`_Sweep`; otherwise it keeps those that miss every pattern in
    ``tmask`` and returns their rows alone."""
    # A candidate is a kept row r of size n-1 behind a first entry v.  An
    # occurrence that does not use position 0 is one of r's, so its mask
    # is r's mask plus the patterns that start at v.
    rows = np.empty((total, n), dtype=np.int8)
    if not tmask:
        masks = np.zeros(total, dtype=np.uint8)
        table = np.zeros((total, n + 1), dtype=np.uint8)
    end = 0
    for v in range(n):
        candidates = prev.masks | prev.table[:, v]
        keep = np.flatnonzero((candidates & tmask) == 0 if tmask else candidates != _FULL)
        part = slice(end, end + len(keep))
        end = part.stop
        tail = prev.rows.take(keep, axis=0)
        tail += tail >= v
        rows[part, 0] = v
        rows[part, 1:] = tail
        del tail
        if not tmask:
            candidates.take(keep, out=masks[part])
            # A w <= v sees r's entries as r's own column w does, and a
            # w > v as column w - 1 does; then add the starts (w, v, x).
            parent = prev.table.take(keep, axis=0)
            table[part, :v + 1] = parent[:, :v + 1]
            table[part, v + 1:] = parent[:, v:]
            table[part] |= _starts(n, v)
    if end != total:
        raise RuntimeError(f"size {n} keeps {end} rows, but {total} were counted")
    if tmask:
        return rows
    return _sealed(rows, masks, table)


def _histogram_from_below(n: int, prev: _Sweep) -> np.ndarray:
    """The (mask, fixed points) histogram of the kept rows of size n,
    indexed by mask * 16 + fixed points, from size n-1 and its start
    table without building the rows of size n.  A count is at most
    15! < 2**63.  Candidate v of a row r (r's entries >= v raised, v put
    first) has a fixed point at position 0 iff v = 0, and at position
    j + 1 iff r[j] = j with j >= v or r[j] = j + 1 with j <= v - 2."""
    histogram = np.zeros(64 * 16, dtype=np.int64)
    for start in range(0, len(prev.rows), _CHUNK):
        part = slice(start, start + _CHUNK)
        rows, masks, table = prev.rows[part], prev.masks[part], prev.table[part]
        # Where r[j] = j, each column of the chunk tested once.
        fixed_at = [rows[:, j] == j for j in range(n - 1)]
        fixed = np.ones(len(rows), dtype=np.uint8)  # candidate 0
        for column in fixed_at:
            fixed += column
        for v in range(n):
            if v:
                # From candidate v - 1 to v, position v stops being fixed
                # where r[v-1] = v - 1, and position v - 1 starts where
                # r[v-2] = v - 1 (position 0 stops, at v = 1).
                fixed -= fixed_at[v - 1]
                if v > 1:
                    fixed += rows[:, v - 2] == v - 1
                else:
                    fixed -= 1
            key = ((masks | table[:, v]).astype(np.uint16) << 4) | fixed
            histogram += np.bincount(key, minlength=64 * 16)
    # The candidates that contain all six patterns are not kept.
    histogram[_FULL << 4:] = 0
    return histogram


def _count_table(histogram: np.ndarray, n: int) -> list[list[int]]:
    """Every pattern set's refined counts at size n: entry [T][k] is the
    number of kept rows with k fixed points whose mask shares no bit
    with the pattern mask T, as a Python int."""
    # A cumulative sum along each mask bit's axis makes entry S the sum over
    # the masks within S; those that miss T are within 63 ^ T = 63 - T.
    sums = histogram.reshape((2,) * 6 + (16,))[..., :n + 1]
    for axis in range(6):
        sums = sums.cumsum(axis=axis)
    return sums.reshape(64, n + 1)[::-1].tolist()


_build_lock = threading.Lock()
# Size 0: one empty row, with no pattern in it nor at 0 placed first, and
# its count table, in which every pattern set has that row.
_SEED = ((_sealed(np.zeros((1, 0), np.int8), np.zeros(1, np.uint8), np.zeros((1, 1), np.uint8)),),
         ([[1]] * 64,))
# The shared rows of sizes 0..m - 1 and the count tables of sizes 0..m,
# each replaced whole and never changed once published.
_built, _counts = _SEED


def _grown(n: int) -> tuple[tuple[_Sweep, ...], list[list[int]]]:
    """The shared rows built so far, of every size below n at least, and
    the count table of size n.  Read without a lock once size n is
    counted.  Otherwise the first caller, under the build lock while
    later callers wait, counts each missing size up to n from the shared
    rows of the size below, building those rows first if they are not
    yet built."""
    global _built, _counts
    counts, built = _counts, _built
    if n < len(counts) and n <= len(built):
        return built, counts[n]
    with _build_lock:
        built, counts = _built, _counts
        for m in range(len(counts), n + 1):
            if len(built) < m:
                top = _step(m - 1, built[-1], 0, sum(counts[m - 1][0]))
                # Only the largest size built keeps its start table.
                _built = built = built[:-1] + (built[-1]._replace(table=None), top)
            count = _count_table(_histogram_from_below(m, built[m - 1]), m)
            _counts = counts = counts + (count,)
        return built, counts[n]


def refined_count(n: int, patterns, *, cap: int | None = None) -> list[int]:
    """Counts by fixed points: entry k is the number of permutations in
    S_n avoiding every pattern in ``patterns`` with exactly k fixed
    points."""
    pats = PatternSet(patterns)
    check_size(n, cap)
    return list(_grown(n)[1][pats.mask])


def avoider_rows(n: int, patterns, *, cap: int | None = None) -> np.ndarray:
    """The avoiders of ``patterns`` in S_n as 0-based rows (entry v is
    v - 1), in lexicographic order: filtered from the shared rows of
    size n if they are built, else grown alone from those of size n-1."""
    pats = PatternSet(patterns)
    check_size(n, cap)
    built, counts = _grown(n)
    if n < len(built):
        sweep = built[n]
        return sweep.rows[(sweep.masks & pats.mask) == 0]
    return _step(n, built[n - 1], pats.mask, sum(counts[pats.mask]))


def enumerate_avoiders(n: int, patterns, *, cap: int | None = None) -> Iterator[Permutation]:
    """The avoiders of ``patterns`` in S_n, each exactly once, in
    lexicographic order.  A bad set or size is refused at the call."""
    return _from_rows(avoider_rows(n, patterns, cap=cap))


def count_table(n_max: int, patterns, *, cap: int | None = None) -> list[list[int]]:
    """Rows n = 0..n_max of refined counts, each indexed by k, from the
    shared per-size count cache, so repeated queries never re-enumerate."""
    pats = PatternSet(patterns)
    check_size(n_max, cap)
    return [refined_count(n, pats, cap=cap) for n in range(n_max + 1)]


def clear_cache() -> None:
    """Drop all cached enumeration state but the seed (mainly for tests)."""
    global _built, _counts
    with _build_lock:
        _built, _counts = _SEED
