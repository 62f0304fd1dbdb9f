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
Each candidate's mask is computed afresh from its entries, and taking
v in increasing order and the rows of size n-1 in their own order
yields the rows of size n already in lexicographic order.  Each size is
built at most once per process, even under concurrent callers: the
first caller for n builds it (and, first, the sizes below it) while the
others wait for its result.

Counts are plain Python integers end to end; numpy is used only to
process the rows quickly.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .perms import PatternSet, Permutation

__all__ = [
    "CAP_ENV_VAR",
    "CapExceeded",
    "CountTable",
    "DEFAULT_CAP",
    "check_size",
    "clear_cache",
    "count_table",
    "enumerate_avoiders",
    "refined_count",
    "resolve_cap",
]

DEFAULT_CAP = 11
CAP_ENV_VAR = "PATFIX_ORACLE_CAP"

# Fixed-point counts are packed into 4 bits of the histogram key.
_HARD_LIMIT = 15

# The mask of a permutation that contains every length-3 pattern.
_FULL = (1 << 6) - 1

# Candidate rows go through _chunk_stats in blocks of at most this many
# rows, which bounds the temporary arrays of a sweep.
_SLICE_ROWS = 1 << 18


class CapExceeded(Exception):
    """An exhaustive pass (or structural generation) was refused."""

    def __init__(self, n: int, cap: int, subject: str = "oracle enumeration"):
        self.n = n
        self.cap = cap
        hint = f" (override with --cap or {CAP_ENV_VAR})" if "oracle" in subject else ""
        super().__init__(f"size {n} exceeds the {subject} cap of {cap}{hint}")


def resolve_cap(cap: int | None = None) -> int:
    """Effective oracle cap: explicit value, else environment, else default."""
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_CAP


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


def _chunk_stats(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row containment mask and fixed-point count.

    Containment is resolved through position pairs: for positions a < b,
    the prefix minimum/maximum before a and the suffix minimum/maximum
    after b decide which length-3 patterns the pair can complete.  Every
    occurrence of a pattern is witnessed by the pair of its last two
    positions (prefix cases) or first two positions (suffix cases).
    """
    chunk = np.asfortranarray(chunk)  # the loops below read whole columns
    rows, n = chunk.shape
    fixed = (chunk == np.arange(n, dtype=np.int8)).sum(axis=1, dtype=np.uint8)
    mask = np.zeros(rows, dtype=np.uint8)
    if n < 3:
        return mask, fixed
    pmin = np.minimum.accumulate(chunk, axis=1)
    pmax = np.maximum.accumulate(chunk, axis=1)
    smin = np.minimum.accumulate(chunk[:, ::-1], axis=1)[:, ::-1]
    smax = np.maximum.accumulate(chunk[:, ::-1], axis=1)[:, ::-1]
    bits = [np.zeros(rows, dtype=bool) for _ in range(6)]
    b123, b132, b213, b231, b312, b321 = bits
    for a in range(n - 1):
        va = chunk[:, a]
        for b in range(a + 1, n):
            vb = chunk[:, b]
            asc = va < vb
            desc = ~asc
            if a >= 1:
                lo, hi = pmin[:, a - 1], pmax[:, a - 1]
                b123 |= asc & (lo < va)
                b132 |= desc & (lo < vb)
                b312 |= asc & (vb < hi)
                b321 |= desc & (va < hi)
            if b <= n - 2:
                lo, hi = smin[:, b + 1], smax[:, b + 1]
                b213 |= desc & (va < hi)
                b231 |= asc & (lo < va)
    for i, flag in enumerate(bits):
        mask |= flag * np.uint8(1 << i)
    return mask, fixed


@dataclass(frozen=True)
class _Sweep:
    """The permutations of S_n that avoid some length-3 pattern, as
    lexicographically sorted 0-based rows with their per-row pattern
    masks, and their (pattern mask, fixed points) -> count histogram."""

    histogram: dict[tuple[int, int], int]
    rows: np.ndarray
    masks: np.ndarray


def _candidates(n: int) -> Iterator[np.ndarray]:
    """S_0 as one block; for n >= 1, every kept row of size n-1 behind
    every first entry v, with the row's entries >= v raised by one.  The
    blocks come in lexicographic order, v by v and, for each v, in the
    order of the rows of size n-1, at most _SLICE_ROWS rows at a time."""
    if n == 0:
        yield np.zeros((1, 0), dtype=np.int8)
        return
    prev = _sweep(n - 1).rows
    for v in range(n):
        for lo in range(0, len(prev), _SLICE_ROWS):
            tail = prev[lo:lo + _SLICE_ROWS]
            block = np.empty((len(tail), n), dtype=np.int8)
            block[:, 0] = v
            block[:, 1:] = tail + (tail >= v)
            yield block


def _run_sweep(n: int) -> _Sweep:
    # The kept rows go straight into arrays with room for every
    # candidate, so they are never held twice.  The tail that no kept
    # row reaches is never written: it takes address space, not memory.
    room = n * len(_sweep(n - 1).rows) if n else 1
    rows = np.empty((room, n), dtype=np.int8)
    masks = np.empty(room, dtype=np.uint8)
    end = 0
    counts = np.zeros(64 * 16, dtype=np.int64)
    for block in _candidates(n):
        mask, fixed = _chunk_stats(block)
        keep = mask != _FULL
        mask, fixed = mask[keep], fixed[keep]
        rows[end:end + len(mask)] = block[keep]
        masks[end:end + len(mask)] = mask
        end += len(mask)
        counts += np.bincount((mask.astype(np.uint16) << 4) | fixed, minlength=64 * 16)
    histogram = {
        (key >> 4, key & 15): c
        for key, c in enumerate(counts.tolist())
        if c
    }
    rows, masks = rows[:end], masks[:end]
    rows.flags.writeable = masks.flags.writeable = False
    return _Sweep(histogram, rows, masks)


_cache_lock = threading.Lock()
_sweeps: dict[int, _Sweep] = {}
_size_locks: dict[int, threading.Lock] = {}


def _sweep(n: int) -> _Sweep:
    """The cached rows of size n.  Single-flight: the first caller for n
    builds them while later callers for the same n wait for its result.
    Building n takes the lock of n-1 while holding that of n, so locks
    are always taken in descending order of size."""
    with _cache_lock:
        done = _sweeps.get(n)
        if done is not None:
            return done
        size_lock = _size_locks.setdefault(n, threading.Lock())
    with size_lock:
        with _cache_lock:
            done = _sweeps.get(n)
        if done is None:
            done = _run_sweep(n)
            with _cache_lock:
                _sweeps[n] = done
    return done


def refined_count(n: int, patterns, *, cap: int | None = None) -> list[int]:
    """Counts by fixed points: entry k is the number of permutations in
    S_n avoiding every pattern in ``patterns`` with exactly k fixed
    points."""
    pats = PatternSet(patterns)
    check_size(n, cap)
    out = [0] * (n + 1)
    tmask = pats.mask
    for (mask, fp), count in _sweep(n).histogram.items():
        if mask & tmask == 0:
            out[fp] += count
    return out


def enumerate_avoiders(n: int, patterns, *, cap: int | None = None) -> Iterator[Permutation]:
    """Yield the avoiders of ``patterns`` in S_n, each exactly once, in
    lexicographic order, filtered from the cached rows of size n."""
    pats = PatternSet(patterns)
    check_size(n, cap)
    sweep = _sweep(n)
    for entries in (sweep.rows[(sweep.masks & pats.mask) == 0] + 1).tolist():
        yield Permutation(entries)


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

    def total(self, n: int) -> int:
        return sum(self.rows[n])

    @property
    def n_max(self) -> int:
        return max(self.rows)


def count_table(n_max: int, patterns, *, cap: int | None = None) -> CountTable:
    """Rows n = 0..n_max of refined counts.  Backed by the shared
    per-size histogram cache, so repeated queries never re-enumerate."""
    pats = PatternSet(patterns)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    limit = check_size(n_max, cap)
    rows = {n: refined_count(n, pats, cap=limit) for n in range(n_max + 1)}
    return CountTable(pats, rows)


def clear_cache() -> None:
    """Drop all cached enumeration state (mainly for tests)."""
    with _cache_lock:
        _sweeps.clear()
