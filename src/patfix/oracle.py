"""Brute-force ground truth: exact refined counts over all of S_n.

One exhaustive pass per size n computes, for every permutation, which of
the six length-3 patterns it contains (a 6-bit mask) and how many fixed
points it has.  The (mask, fixed-point-count) histogram then answers
every refined-count query for every pattern set at that size, so the n!
work is shared across pattern sets and cached for the process lifetime.

For n <= 9 the pass also keeps the permutation matrix and its per-row
masks, so the same single sweep serves both counts and avoider streams:
listing the avoiders of a pattern set is a boolean filter on the cached
rows.  Larger sizes keep only the histogram and stream avoiders chunk by
chunk.  Each size is swept at most once per process, even under
concurrent callers: the first caller for n sweeps while the others wait
for its result.

Counts are plain Python integers end to end; numpy is used only to walk
the permutations quickly, in deterministic lexicographic blocks.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
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

# Largest block materialized at once, and the largest size whose rows and
# masks stay cached; larger sizes stream in lexicographic chunks of
# _BASE_SIZE! rows to bound memory.
_BASE_SIZE = 9

# Fixed-point counts are packed into 4 bits of the histogram key.
_HARD_LIMIT = 15


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


def _as_pattern_set(patterns) -> PatternSet:
    if isinstance(patterns, PatternSet):
        return patterns
    return PatternSet(patterns)


@lru_cache(maxsize=None)
def _perm_matrix(n: int) -> np.ndarray:
    """All permutations of 0..n-1 as rows, in lexicographic order."""
    if n == 0:
        out = np.zeros((1, 0), dtype=np.int8)
    else:
        out = np.zeros((1, 1), dtype=np.int8)
        for m in range(2, n + 1):
            prev = out
            rows = prev.shape[0]
            out = np.empty((rows * m, m), dtype=np.int8)
            vals = np.arange(m, dtype=np.int8)
            for lead in range(m):
                rest = np.delete(vals, lead)
                block = out[lead * rows:(lead + 1) * rows]
                block[:, 0] = lead
                block[:, 1:] = rest[prev]
    out.flags.writeable = False
    return out


def _blocks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The one-line matrix of S_n (0-based) in lexicographic blocks, each
    with its per-row pattern mask and fixed-point count.  For n <= _BASE_SIZE
    the single block is the cached :func:`_perm_matrix` itself."""
    base = min(n, _BASE_SIZE)
    body = _perm_matrix(base)
    head = n - base
    for prefix in itertools.permutations(range(n), head):
        chunk = body
        if head:
            chunk = np.empty((body.shape[0], n), dtype=np.int8)
            chunk[:, :head] = np.array(prefix, dtype=np.int8)
            rest = np.array(sorted(set(range(n)) - set(prefix)), dtype=np.int8)
            chunk[:, head:] = rest[body]
        yield (chunk, *_chunk_stats(chunk))


def _chunk_stats(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row containment mask and fixed-point count.

    Containment is resolved through position pairs: for positions a < b,
    the prefix minimum/maximum before a and the suffix minimum/maximum
    after b decide which length-3 patterns the pair can complete.  Every
    occurrence of a pattern is witnessed by the pair of its last two
    positions (prefix cases) or first two positions (suffix cases).
    """
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
    """One exhaustive pass over S_n: the (pattern mask, fixed points) ->
    count histogram and, for n <= _BASE_SIZE only, the permutation rows
    with their per-row pattern masks."""

    histogram: dict[tuple[int, int], int]
    rows: np.ndarray | None = None
    masks: np.ndarray | None = None


def _run_sweep(n: int) -> _Sweep:
    counts = np.zeros(64 * 16, dtype=np.int64)
    for rows, mask, fixed in _blocks(n):
        key = (mask.astype(np.uint16) << 4) | fixed
        counts += np.bincount(key, minlength=64 * 16)
    histogram = {
        (key >> 4, key & 15): c
        for key, c in enumerate(counts.tolist())
        if c
    }
    if n > _BASE_SIZE:
        return _Sweep(histogram)
    # A single block: the whole of S_n.
    return _Sweep(histogram, rows, mask)


_cache_lock = threading.Lock()
_sweeps: dict[int, _Sweep] = {}
_size_locks: dict[int, threading.Lock] = {}


def _sweep(n: int) -> _Sweep:
    """The cached pass over S_n.  Single-flight: the first caller for n
    runs it while later callers for the same n wait for its result."""
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
    pats = _as_pattern_set(patterns)
    check_size(n, cap)
    out = [0] * (n + 1)
    tmask = pats.mask
    for (mask, fp), count in _sweep(n).histogram.items():
        if mask & tmask == 0:
            out[fp] += count
    return out


def enumerate_avoiders(n: int, patterns, *, cap: int | None = None) -> Iterator[Permutation]:
    """Yield the avoiders of ``patterns`` in S_n, each exactly once, in
    lexicographic order.  For n <= 9 this filters the cached sweep of
    S_n; larger sizes are streamed again, block by block."""
    pats = _as_pattern_set(patterns)
    check_size(n, cap)
    tmask = pats.mask
    if n <= _BASE_SIZE:
        sweep = _sweep(n)
        blocks = [(sweep.rows, sweep.masks)]
    else:
        blocks = ((rows, mask) for rows, mask, _ in _blocks(n))
    for rows, mask in blocks:
        for entries in (rows[(mask & tmask) == 0] + 1).tolist():
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
    pats = _as_pattern_set(patterns)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    limit = check_size(n_max, cap)
    rows = {n: refined_count(n, pats, cap=limit) for n in range(n_max + 1)}
    return CountTable(pats, rows)


def clear_cache() -> None:
    """Drop all cached enumeration state (mainly for tests)."""
    with _cache_lock:
        _sweeps.clear()
    _perm_matrix.cache_clear()
