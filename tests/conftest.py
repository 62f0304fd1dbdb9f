import threading
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from patfix import oracle
from patfix.perms import PatternSet, Permutation, fixed_points


def chunk_stats(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def histogram_of(rows: np.ndarray, masks: np.ndarray) -> Counter:
    """The (pattern mask, fixed-point count) -> count histogram of rows
    with their masks."""
    fixed = (rows == np.arange(rows.shape[1])).sum(axis=1)
    return Counter(zip(masks.tolist(), fixed.tolist()))


def filtered_count(histogram, tmask: int, n: int) -> list[int]:
    """Refined counts of the pattern set with mask ``tmask`` at size n:
    one pass over a (mask, fixed points) histogram, adding every entry
    whose mask shares no bit with ``tmask``."""
    out = [0] * (n + 1)
    for (mask, fp), count in histogram.items():
        if mask & tmask == 0:
            out[fp] += count
    return out


def lexsort_distinct(rows: np.ndarray) -> np.ndarray:
    """``rows`` in lexicographic order, each once: one ``np.lexsort``
    over the columns, then a row-by-row comparison with the row before."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def packed_sorted_distinct(rows: np.ndarray) -> np.ndarray:
    """``rows`` in lexicographic order, each once: each row packed into
    as few int64 words as hold it (``max(1, (n-1).bit_length())`` bits
    an entry, first entry highest), one ``np.lexsort`` of the words, and
    a comparison of each word with the row before's."""
    n = rows.shape[1]
    if n == 0:
        return rows[:1]
    bits = max(1, (n - 1).bit_length())
    per_word = 63 // bits
    words = []
    for start in range(0, n, per_word):
        word = np.zeros(len(rows), dtype=np.int64)
        for j in range(start, min(n, start + per_word)):
            word <<= bits
            word |= rows[:, j]
        words.append(word)
    order = np.lexsort(words[::-1])
    keep = np.zeros(len(order), dtype=bool)
    keep[:1] = True
    for word in words:
        word = word[order]
        keep[1:] |= word[1:] != word[:-1]
    return rows[order[keep]]


def refined_histogram(rows: np.ndarray) -> list[int]:
    """Fixed-point histogram of the distinct rows of ``rows``, indexed
    k = 0..n: the packed-word normaliser, then the package's one
    fixed-point counter."""
    n = rows.shape[1]
    return np.bincount(fixed_points(packed_sorted_distinct(rows)), minlength=n + 1).tolist()


def orbit_by_closure(patterns) -> tuple:
    """The orbit of {patterns} as a sorted tuple, closed under
    elementwise inverse and reverse-complement by a breadth-first
    fixpoint."""
    ps = PatternSet(patterns)
    seen = {ps}
    frontier = [ps]
    while frontier:
        frontier = [img for s in frontier
                    for img in (PatternSet(map(Permutation.inverse, s)),
                                PatternSet(map(Permutation.reverse_complement, s)))
                    if img not in seen]
        seen.update(frontier)
    return tuple(sorted(seen))


def shared_sweep(n: int):
    """The oracle's shared rows of size n, with their start table: the
    rows of a size are built to count the size above it."""
    oracle._grown(n + 1)
    return oracle._state[0][n]


@pytest.fixture
def sweeps(monkeypatch):
    """Cold oracle caches, which hold only the seed (size 0), and
    Counters of the sizes n for which the oracle builds shared rows
    (``rows``: calls to ``_step`` with pattern mask 0), grows one set's
    avoiders alone (``sets``: calls to ``_step`` with a pattern mask) and
    counts from the size below (``counted``: calls to
    ``_histogram_from_below``).  Size 0 is never stepped or counted: a
    call to ``_step`` with n = 0 fails the test.  The sizes cached before
    the test are put back afterwards, so later tests do not pay for them
    again."""
    calls = SimpleNamespace(rows=Counter(), sets=Counter(), counted=Counter())
    # Sets are grown outside the build lock, so threads may count at once.
    lock = threading.Lock()

    def step(n, prev, tmask, total, real=oracle._step):
        assert n > 0, "size 0 is the seed, never stepped"
        with lock:
            (calls.sets if tmask else calls.rows)[n] += 1
        return real(n, prev, tmask, total)

    def counting(n, *args, real=oracle._histogram_from_below):
        with lock:
            calls.counted[n] += 1
        return real(n, *args)

    monkeypatch.setattr(oracle, "_step", step)
    monkeypatch.setattr(oracle, "_histogram_from_below", counting)
    warm = oracle._state
    oracle.clear_cache()
    yield calls
    oracle._state = warm
