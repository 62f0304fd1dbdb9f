import functools
import hashlib
import itertools
import random
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from math import comb

import numpy as np
import pytest
from conftest import chunk_stats, filtered_count, histogram_of, shared_sweep

from patfix import oracle
from patfix.audit import audit_all
from patfix.formulas import fibonacci
from patfix.oracle import (
    DEFAULT_CAP,
    CapExceeded,
    clear_cache,
    avoider_rows,
    count_table,
    enumerate_avoiders,
    refined_count,
)
from patfix.perms import ALL_PATTERNS, PatternSet, Permutation


def naive_refined(n, patterns):
    """Reference implementation straight from the definitions."""
    ps = PatternSet.parse(patterns) if isinstance(patterns, str) else patterns
    out = [0] * (n + 1)
    for entries in itertools.permutations(range(1, n + 1)):
        p = Permutation(entries)
        if p.avoids_all(ps):
            out[p.fixed_point_count()] += 1
    return out


def overlapping(monkeypatch, name, delay, work):
    """``work(i)`` for i = 0..7, in eight threads that start together;
    each call to ``oracle.<name>`` sleeps ``delay`` seconds first, and the
    switch interval is cut, to widen the window in which callers
    overlap."""
    real = getattr(oracle, name)

    def slow(*args):
        time.sleep(delay)
        return real(*args)

    monkeypatch.setattr(oracle, name, slow)
    start = threading.Barrier(8)

    def worker(i):
        start.wait(timeout=10)
        return work(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            return list(pool.map(worker, range(8), timeout=30))
    finally:
        sys.setswitchinterval(interval)


ALL_SETS = [PatternSet(combo) for size in range(1, 7)
            for combo in itertools.combinations(ALL_PATTERNS, size)]


@functools.cache
def contains_masks(n):
    """The permutations of S_n in lexicographic order, and each one's
    mask of the patterns it contains, by ``Permutation.contains``."""
    perms = [Permutation(e) for e in itertools.permutations(range(1, n + 1))]
    return perms, [sum(1 << i for i, q in enumerate(ALL_PATTERNS) if p.contains(q))
                   for p in perms]


def naive_avoiders(n, patterns):
    ps = PatternSet.parse(patterns) if isinstance(patterns, str) else patterns
    return [
        Permutation(entries)
        for entries in itertools.permutations(range(1, n + 1))
        if Permutation(entries).avoids_all(ps)
    ]


class TestSpecValues:
    def test_empty_size(self, sweeps):
        # On a cold cache too, which holds size 0 from import on, so
        # nothing is stepped or counted.
        for ps in ALL_SETS:
            assert list(enumerate_avoiders(0, ps)) == [Permutation(())]
            assert refined_count(0, ps) == [1]
        assert not (sweeps.rows or sweeps.sets or sweeps.counted)
        assert oracle._state is oracle._SEED

    def test_s3_examples(self):
        assert [p.compact() for p in enumerate_avoiders(3, "231,312")] == [
            "123", "132", "213", "321",
        ]
        assert [p.compact() for p in enumerate_avoiders(3, "123,132")] == [
            "213", "231", "312", "321",
        ]
        assert refined_count(3, "231,312") == [0, 3, 0, 1]

    def test_size_two_rows(self):
        for combo_size in (1, 2, 3):
            for combo in itertools.combinations(ALL_PATTERNS, combo_size):
                assert refined_count(2, PatternSet(combo)) == [1, 0, 1]

    def test_both_monotone_table(self):
        table = count_table(5, "123,321")
        assert table == [refined_count(n, "123,321") for n in range(6)]
        assert table[4] == [4, 0, 0, 0, 0]
        assert table[5] == [0, 0, 0, 0, 0, 0]


class TestAgainstNaive:
    @pytest.mark.parametrize("patterns", [
        "123", "132", "213", "231", "312", "321",
        "123,321", "132,231", "231,312", "123,132",
        "132,213,231", "231,312,321", "123,132,213,231", "123,132,213,231,312,321",
    ])
    def test_refined_counts_match_definition(self, patterns):
        for n in range(6):
            assert refined_count(n, patterns) == naive_refined(n, patterns)

    def test_avoider_streams_match_definition(self):
        for patterns in ("321", "123,132", "231,321", "132,213,231"):
            for n in range(6):
                assert list(enumerate_avoiders(n, patterns)) == naive_avoiders(n, patterns)


class TestStructure:
    def test_lexicographic_order(self):
        for n in (4, 5):
            perms = list(enumerate_avoiders(n, "231"))
            assert perms == sorted(perms)
            assert len(perms) == len(set(perms))

    def test_row_sums_match_avoider_count(self):
        for patterns in ("123,132", "231,312", "132,213,321"):
            for n in range(7):
                row = refined_count(n, patterns)
                assert sum(row) == sum(1 for _ in enumerate_avoiders(n, patterns))

    def test_symmetry_invariance(self):
        # Applying I or RC elementwise to the pattern set leaves the table alone.
        for combo_size in (1, 2, 3):
            for combo in itertools.combinations(ALL_PATTERNS, combo_size):
                ps = PatternSet(combo)
                inverse = PatternSet(p.inverse() for p in ps)
                rc = PatternSet(p.reverse_complement() for p in ps)
                for n in range(6):
                    row = refined_count(n, ps)
                    assert refined_count(n, inverse) == row
                    assert refined_count(n, rc) == row

    def test_monotone_supersets_kill_three_fixed_points(self):
        # Three fixed points embed an ascending triple.
        for extra in ("", ",321", ",231", ",132,213"):
            ps = PatternSet.parse("123" + extra)
            for n in range(3, 8):
                row = refined_count(n, ps)
                assert all(v == 0 for v in row[3:])


class TestSimionSchmidt:
    """Row totals for every pattern set T with |T| >= 2, as Simion and
    Schmidt (Europ. J. Combin. 6, 1985) give them for n >= 5.  They
    share nothing with the start table, so they check the counts from
    outside it."""

    BINOMIAL = {PatternSet(t) for t in ("123,231", "123,312", "132,321", "213,321")}
    FIBONACCI = {PatternSet(t) for t in ("123,132,213", "231,312,321")}
    MONOTONE = PatternSet("123,321").mask

    def total(self, ps):
        """The name of ps's total and the total as a function of n."""
        if ps.mask & self.MONOTONE == self.MONOTONE:
            return "0", lambda n: 0  # from n = 5 on, each holds 123 or 321
        if len(ps) == 2:
            if ps in self.BINOMIAL:
                return "C(n,2)+1", lambda n: comb(n, 2) + 1
            return "2^(n-1)", lambda n: 2 ** (n - 1)
        if len(ps) == 3:
            if ps in self.FIBONACCI:
                return "fibonacci(n)", fibonacci
            return "n", lambda n: n
        return ("2", lambda n: 2) if len(ps) == 4 else ("1", lambda n: 1)

    def test_totals_for_every_set_of_two_or_more(self):
        named = Counter()
        for ps in ALL_SETS:
            if len(ps) < 2:
                continue
            name, total = self.total(ps)
            named[name] += 1
            for n in range(5, 13):
                assert sum(refined_count(n, ps)) == total(n), (ps, n)
        assert named == {"2^(n-1)": 10, "C(n,2)+1": 4, "n": 14, "fibonacci(n)": 2,
                         "2": 9, "1": 2, "0": 16}


class TestCaps:
    def test_cap_error_names_the_cap(self):
        with pytest.raises(CapExceeded) as exc:
            refined_count(4, "123", cap=3)
        assert "cap of 3" in str(exc.value)
        assert exc.value.n == 4 and exc.value.cap == 3

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            refined_count(-1, "123")

    def test_negative_cap_is_a_bad_argument_not_a_refusal(self):
        with pytest.raises(ValueError, match="cap -1 must be nonnegative"):
            refined_count(0, "123", cap=-1)

    def test_enumerate_avoiders_refuses_at_the_call(self, sweeps):
        # Neither call is iterated: the refusal comes with the call.
        with pytest.raises(CapExceeded):
            enumerate_avoiders(DEFAULT_CAP + 1, "123")
        with pytest.raises(ValueError, match="length-3"):
            enumerate_avoiders(3, "12")
        assert not (sweeps.rows or sweeps.sets or sweeps.counted)


class TestConcurrency:
    def test_concurrent_queries_are_consistent(self):
        expected = {
            (n, ps): refined_count(n, ps)
            for n in range(6)
            for ps in ("123", "132,231", "231,312,321")
        }

        def worker(arg):
            n, ps = arg
            return refined_count(n, ps) == expected[(n, ps)]

        jobs = [key for key in expected for _ in range(8)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(worker, jobs))


class TestSharedSweep:
    def test_every_pattern_set_matches_contains(self, sweeps):
        # Six containment bits per permutation, computed once per n from
        # the definition, then filtered for each of the 63 pattern sets.
        # Each size from 1 on is listed first before its shared rows are
        # built, so each set is grown alone from the size below, and then
        # again filtered from the shared rows, which counting the size
        # above builds.  Size 0 is always filtered from the seed.
        assert len(ALL_SETS) == 63
        for n in range(8):
            perms, bits = contains_masks(n)
            for _ in range(2):
                for ps in ALL_SETS:
                    expected = [p for p, b in zip(perms, bits) if b & ps.mask == 0]
                    assert list(enumerate_avoiders(n, ps)) == expected, (n, ps)
                oracle._grown(n + 1)
        assert sweeps.sets == Counter({n: 63 for n in range(1, 8)})

    @pytest.mark.parametrize("n", [8, 9])
    def test_every_pattern_set_matches_the_full_histogram(self, n):
        # Reference: chunk_stats over all of S_n, which the test above
        # ties to Permutation.contains for n <= 7.
        mask, fixed = chunk_stats(
            np.array(list(itertools.permutations(range(n))), dtype=np.int8)
        )
        histogram = Counter(zip(mask.tolist(), fixed.tolist()))
        for size in range(1, 7):
            for combo in itertools.combinations(ALL_PATTERNS, size):
                ps = PatternSet(combo)
                assert refined_count(n, ps) == filtered_count(histogram, ps.mask, n), ps

    def test_single_patterns_give_catalan_at_ten(self):
        for q in ALL_PATTERNS:
            assert sum(refined_count(10, PatternSet([q]))) == 16796

    def test_cached_rows_are_the_sorted_permutations_missing_some_pattern(self):
        for n in range(8):
            expected_rows, expected_masks = [], []
            for p, bits in zip(*contains_masks(n)):
                if bits != (1 << 6) - 1:
                    expected_rows.append([v - 1 for v in p])
                    expected_masks.append(bits)
            sweep = shared_sweep(n)
            assert sweep.rows.tolist() == expected_rows, n
            assert sweep.masks.tolist() == expected_masks, n

    def test_cached_masks_and_fixed_points_match_the_reference(self):
        # The incremental masks against chunk_stats, which resolves every
        # row's containment from its own entries, and the count table's
        # row of every mask (the 63 pattern sets and 0) against the
        # filtered histogram.  The 64 rows determine the histogram.
        for n in range(11):
            sweep = shared_sweep(n)
            mask, fixed = chunk_stats(sweep.rows)
            assert np.array_equal(sweep.masks, mask), n
            histogram = Counter(zip(mask.tolist(), fixed.tolist()))
            counts = oracle._state[1][n]
            assert counts == [filtered_count(histogram, t, n) for t in range(64)], n
            # Python ints, so no numpy integer reaches str() or JSON.
            assert all(type(c) is int for row in counts for c in row), n

    @pytest.mark.parametrize("n, count, digest", [
        (10, 95_774, "03dcc848705ebf5137d4b23ca9a32c038b2f430b9006873fba247a7387343eb1"),
        (11, 342_678, "cdfacf81c06ec3264d812d1b71c72990c0344b990dbea856767a6b84bbb8bd4a"),
        (12, 1_227_942, "8c8f894dbc31eb898e821d20b82f4880fa633467e72081ffcfab995abdd088ce"),
    ], ids=["n10", "n11", "n12"])
    def test_rows_masks_and_histogram_are_pinned(self, n, count, digest):
        # Recorded from the build that resolved every candidate's mask
        # from its own entries, as chunk_stats does.
        sweep = shared_sweep(n)
        h = hashlib.sha256()
        h.update(sweep.rows.tobytes())
        h.update(sweep.masks.tobytes())
        histogram = histogram_of(sweep.rows, sweep.masks)
        h.update(repr(sorted(histogram.items())).encode())
        assert len(sweep.rows) == count
        assert h.hexdigest() == digest
        assert oracle._state[1][n] == [filtered_count(histogram, t, n) for t in range(64)]

    def test_start_table_matches_the_definition(self, sweeps):
        # Entry [r, w] has bit i iff ALL_PATTERNS[i] occurs on a triple
        # (0, j, k) of row r with w placed first and r's entries >= w
        # raised by one.
        for n in range(8):
            sweep = shared_sweep(n)
            rows, table = sweep.rows, sweep.table
            assert table.shape == (len(rows), n + 1), n
            for w in range(n + 1):
                placed = np.column_stack([np.full(len(rows), w), rows + (rows >= w)])
                expected = np.zeros(len(rows), dtype=np.uint8)
                for j, k in itertools.combinations(range(1, n + 1), 2):
                    a, b, c = placed[:, 0], placed[:, j], placed[:, k]
                    for i, p in enumerate(ALL_PATTERNS):
                        occurs = (((a < b) == (p[0] < p[1])) & ((a < c) == (p[0] < p[2]))
                                  & ((b < c) == (p[1] < p[2])))
                        expected |= occurs.astype(np.uint8) << i
                assert np.array_equal(table[:, w], expected), (n, w)

    def test_audit_sweeps_each_size_once(self, sweeps):
        # The audit's items ask for counts and rows in their own order;
        # each size is counted from the size below once, and the shared
        # rows of every size below the largest are built once.  The
        # generator audit lists each family's avoiders at the largest
        # size, which grows that family's set alone; the family of
        # {132,213,231} stops at the first size where its set differs.
        audit_all(9)
        assert sweeps.rows == Counter({n: 1 for n in range(1, 9)})
        assert sweeps.counted == Counter({n: 1 for n in range(1, 10)})
        assert sweeps.sets == Counter({9: 13})

    def test_counts_and_avoiders_share_one_sweep(self, sweeps):
        for ps in ("123", "132,231", "231,312,321"):
            refined_count(8, ps)
            list(enumerate_avoiders(8, ps))
        assert sweeps.rows == Counter({n: 1 for n in range(1, 8)})
        assert sweeps.counted == Counter({n: 1 for n in range(1, 9)})
        assert sweeps.sets == Counter({8: 3})

    def test_clear_cache_drops_the_sweep(self, sweeps):
        list(enumerate_avoiders(6, "123"))
        # Building size 1 dropped the seed's start table from the cache,
        # not from the seed, which clear_cache puts back as it is.
        assert oracle._state[0][0].table is None
        clear_cache()
        assert oracle._state is oracle._SEED
        (seed,), (counts,) = oracle._SEED
        assert seed.rows.shape == (1, 0) and seed.masks.tolist() == [0]
        assert seed.table.tolist() == [[0]] and counts == [[1]] * 64
        for array in seed:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 1
        refined_count(6, "123")
        # Counts or avoiders of size 6 build shared rows only up to size 5.
        assert sweeps.rows == Counter({n: 2 for n in range(1, 6)})
        assert sweeps.counted == Counter({n: 2 for n in range(1, 7)})
        assert sweeps.sets == Counter({6: 1})

    def test_size_one_on_a_cold_cache_is_one_step_from_the_seed(self, sweeps, monkeypatch):
        parents, real = [], oracle._step

        def step(n, prev, tmask, total):
            parents.append(prev)
            return real(n, prev, tmask, total)

        monkeypatch.setattr(oracle, "_step", step)
        for ps in ALL_SETS:
            clear_cache()
            assert avoider_rows(1, ps).tolist() == [[0]]
        assert len(parents) == len(ALL_SETS)
        assert all(prev is oracle._SEED[0][0] for prev in parents)
        assert sweeps.sets == sweeps.counted == Counter({1: len(ALL_SETS)})
        assert not sweeps.rows

    def test_threads_on_a_cold_size_one_count_it_once(self, sweeps, monkeypatch):
        def work(i):
            if i % 2:
                return refined_count(1, ALL_SETS[i])
            return avoider_rows(1, ALL_SETS[i]).tolist()

        results = overlapping(monkeypatch, "_histogram_from_below", 0.05, work)
        assert results == [[[0]], [0, 1]] * 4
        assert sweeps.counted == Counter({1: 1}) and not sweeps.rows
        assert sweeps.sets == Counter({1: 4})

    def test_single_flight_under_threads(self, sweeps, monkeypatch):
        def work(i):
            if i % 2:
                return refined_count(7, "132")
            return sum(1 for _ in enumerate_avoiders(7, "132"))

        results = overlapping(monkeypatch, "_step", 0.05, work)
        assert sweeps.rows == Counter({n: 1 for n in range(1, 7)})
        assert sweeps.counted == Counter({n: 1 for n in range(1, 8)})
        assert sweeps.sets == Counter({7: 4})
        assert results[::2] == [429] * 4
        assert results[1::2] == [naive_refined(7, "132")] * 4

    def test_no_state_is_built_at_the_hard_limit(self, sweeps, monkeypatch):
        # Only the largest size built keeps its start table, and neither
        # counts nor avoiders of the largest size asked for build its
        # shared rows, so the table of that size is never built.
        for n in range(1, 7):
            refined_count(n, "123")
            assert [s.table is not None for s in oracle._state[0]] == [False] * (n - 1) + [True]
            assert oracle._state[0][-1].table.shape == (len(oracle._state[0][n - 1].rows), n), n
        full, full_counts = avoider_rows(6, "123"), oracle._state[1][6]
        oracle.clear_cache()
        monkeypatch.setattr(oracle, "_HARD_LIMIT", 6)
        refined_count(6, "123", cap=20)
        assert len(oracle._state[0]) == 6 and len(oracle._state[1]) == 7
        assert oracle._state[0][5].table.shape == (len(oracle._state[0][5].rows), 6)
        assert oracle._state[1][6] == full_counts
        assert np.array_equal(avoider_rows(6, "123", cap=20), full)
        assert len(oracle._state[0]) == 6 and len(oracle._state[1]) == 7
        assert sweeps.rows == Counter({n: 2 for n in range(1, 6)})
        assert sweeps.counted == Counter({n: 2 for n in range(1, 7)})
        assert sweeps.sets == Counter({6: 2})
        with pytest.raises(CapExceeded):
            refined_count(7, "123", cap=20)

    def test_a_larger_cap_builds_only_the_new_sizes(self, sweeps, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_CAP", 7)
        refined_count(7, "123")
        assert oracle._state[0][6].table.shape == (len(oracle._state[0][6].rows), 7)
        refined_count(8, "123", cap=8)
        assert sweeps.rows == Counter({n: 1 for n in range(1, 8)})
        assert sweeps.counted == Counter({n: 1 for n in range(1, 9)})
        built, counts = oracle._state
        oracle.clear_cache()
        for n, sweep in enumerate(built):
            fresh = shared_sweep(n)
            assert np.array_equal(sweep.rows, fresh.rows), n
            assert np.array_equal(sweep.masks, fresh.masks), n
        assert counts == oracle._state[1]

    def test_a_build_that_raised_resumes_where_it_stopped(self, sweeps, monkeypatch):
        counting = oracle._step

        def failing(n, *args):
            if n == 6:
                raise MemoryError
            return counting(n, *args)

        monkeypatch.setattr(oracle, "_step", failing)
        with pytest.raises(MemoryError):
            refined_count(7, "132")
        # Size 6's counts and size 5's rows and table were published
        # before the rows of size 6 failed.
        assert len(oracle._state[0]) == 6 and len(oracle._state[1]) == 7
        assert oracle._state[0][5].table.shape == (len(oracle._state[0][5].rows), 6)
        monkeypatch.setattr(oracle, "_step", counting)
        assert refined_count(7, "132") == naive_refined(7, "132")
        assert sweeps.rows == Counter({n: 1 for n in range(1, 7)})
        assert sweeps.counted == Counter({n: 1 for n in range(1, 8)})

    def test_a_built_size_is_read_without_the_lock(self):
        expected = refined_count(5, "123")
        results = []
        reader = threading.Thread(target=lambda: results.append(refined_count(5, "123")),
                                  daemon=True)
        with oracle._build_lock:
            reader.start()
            reader.join(timeout=5)
            assert not reader.is_alive()
        assert results == [expected]

    def test_threads_asking_for_different_sizes_build_each_once(self, sweeps, monkeypatch):
        results = overlapping(monkeypatch, "_step", 0.01,
                              lambda i: sum(refined_count(5 + i % 4, "132")))
        # Which sizes get rows depends on the order the threads arrive
        # in; each size is built and counted once.
        assert sweeps.rows == Counter({n: 1 for n in range(1, 8)})
        assert sweeps.counted == Counter({n: 1 for n in range(1, 9)})
        assert results == [42, 132, 429, 1430] * 2

    def test_cap_refused_before_any_sweep(self, sweeps):
        with pytest.raises(CapExceeded):
            count_table(DEFAULT_CAP + 1, "123")
        with pytest.raises(CapExceeded) as exc:
            count_table(16, "123", cap=20)
        assert exc.value.cap == 15
        with pytest.raises(CapExceeded):
            next(enumerate_avoiders(DEFAULT_CAP + 1, "123"))
        assert not (sweeps.rows or sweeps.sets or sweeps.counted)


class TestGrowOneSet:
    def test_a_set_grown_alone_equals_the_filter(self, sweeps):
        # Each size from 1 on is listed before its shared rows are built,
        # so every listing is grown from the size below; counting the size
        # above then builds the shared rows it is compared with.  Size 0
        # is filtered from the seed.
        for n in range(10):
            grown = [avoider_rows(n, ps) for ps in ALL_SETS]
            assert len(oracle._state[0]) == max(n, 1), n
            sweep = shared_sweep(n)
            for ps, rows in zip(ALL_SETS, grown):
                assert np.array_equal(rows, sweep.rows[(sweep.masks & ps.mask) == 0]), (n, ps)
        assert sweeps.sets == Counter({n: len(ALL_SETS) for n in range(1, 10)})

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_a_cold_listing_builds_only_the_sizes_below(self, sweeps, n):
        # Size 0 is the seed, so its listing is a filter and steps nothing.
        rows = avoider_rows(n, "132")
        assert len(oracle._state[0]) == max(n, 1) and len(oracle._state[1]) == n + 1
        assert len(rows) == sum(refined_count(n, "132"))
        assert sweeps.rows == Counter(range(1, n))
        assert sweeps.sets == (Counter({n: 1}) if n else Counter())

    def test_threads_listing_and_counting_a_cold_size(self, sweeps, monkeypatch):
        sets = ALL_SETS[::8]

        def work(i):
            if i % 2:
                return refined_count(8, sets[i])
            return avoider_rows(8, sets[i])

        results = overlapping(monkeypatch, "_step", 0.01, work)
        assert sweeps.rows == Counter({n: 1 for n in range(1, 8)})
        assert sweeps.counted == Counter({n: 1 for n in range(1, 9)})
        assert sweeps.sets == Counter({8: 4})
        sweep = shared_sweep(8)
        histogram = histogram_of(sweep.rows, sweep.masks)
        for i, ps in enumerate(sets):
            if i % 2:
                assert results[i] == filtered_count(histogram, ps.mask, 8), ps
            else:
                assert np.array_equal(results[i], sweep.rows[(sweep.masks & ps.mask) == 0]), ps


class TestCountFromBelow:
    def test_counts_from_below_equal_counts_from_rows(self, sweeps):
        # All 64 rows of the table, row 0 (every kept row) included, so
        # the candidates that contain all six patterns are not counted.
        for n in range(1, 12):
            counts = oracle._grown(n)[1]
            assert len(oracle._state[0]) == n, n
            sweep = shared_sweep(n)
            histogram = histogram_of(sweep.rows, sweep.masks)
            assert counts == [filtered_count(histogram, t, n) for t in range(64)], n
            for ps in ALL_SETS:
                assert refined_count(n, ps) == counts[ps.mask], (n, ps)
        # The rows of size 11 are built by counting size 12.
        assert sweeps.counted == Counter({n: 1 for n in range(1, 13)})

    def test_counts_from_below_match_contains(self, sweeps):
        for n in range(9):
            counts = oracle._grown(n)[1]
            assert len(oracle._state[0]) == max(n, 1), n
            histogram = Counter()
            for p, bits in zip(*contains_masks(n)):
                if bits != (1 << 6) - 1:
                    histogram[bits, p.fixed_point_count()] += 1
            assert counts == [filtered_count(histogram, t, n) for t in range(64)], n
        assert sweeps.counted == Counter({n: 1 for n in range(1, 9)})

    @pytest.mark.parametrize("seed", [0, 1])
    def test_interleaved_queries_match_an_ascending_build(self, sweeps, seed):
        rng = random.Random(seed)
        queries = [(rng.choice(("refined_count", "avoider_rows", "count_table")),
                    rng.randrange(12), rng.choice(ALL_SETS)) for _ in range(80)]

        def answer(kind, n, ps):
            if kind == "refined_count":
                return refined_count(n, ps)
            if kind == "avoider_rows":
                return avoider_rows(n, ps).tolist()
            return count_table(n, ps)

        oracle._grown(11)
        expected = [answer(*q) for q in queries]
        oracle.clear_cache()
        got = []
        for q in queries:
            got.append(answer(*q))
            # The shared rows of a size are built to count the size above;
            # those of size 0 are the seed.
            assert len(oracle._state[0]) == max(len(oracle._state[1]) - 1, 1), q
        assert got == expected
        # Each size up to the largest asked for is counted once more.
        top = max(n for _, n, _ in queries)
        assert sweeps.counted == Counter(range(1, 12)) + Counter(range(1, top + 1))
        assert max(sweeps.rows.values()) == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_published_state_has_the_rows_below_its_counts(self, sweeps, seed):
        # _grown reads a counted size without the lock and hands on the
        # rows published with it, which avoider_rows indexes below n.
        calls = ([functools.partial(refined_count, n, "132") for n in range(11)]
                 + [functools.partial(avoider_rows, n, "231,321") for n in range(11)]
                 + [clear_cache] * 5)
        random.Random(seed).shuffle(calls)
        for call in calls:
            call()
            built, counts = oracle._state
            assert len(built) == max(1, len(counts) - 1), call

    def test_rows_built_after_counts_are_not_counted_again(self, sweeps):
        row = refined_count(9, "132")
        counts = oracle._state[1][9]
        # Counts alone build no rows of size 9.
        assert len(oracle._state[0]) == 9
        assert sweeps.rows == Counter({n: 1 for n in range(1, 9)})
        assert sweeps.counted == Counter({n: 1 for n in range(1, 10)})
        rows = avoider_rows(9, "132")
        assert len(rows) == sum(row) == 4862
        avoider_rows(9, "132")
        # The avoiders of size 9 are grown alone, from the rows of size 8.
        assert len(oracle._state[0]) == 9
        assert sweeps.rows == Counter({n: 1 for n in range(1, 9)})
        assert sweeps.counted == Counter({n: 1 for n in range(1, 10)})
        assert sweeps.sets == Counter({9: 2})
        assert oracle._state[1][9] is counts

    def test_counts_do_not_depend_on_the_chunk_size(self, sweeps, monkeypatch):
        # Chunks of 7 rows split every size from 4 on, most with a short
        # last chunk, so each chunk's column tests start over many times.
        default = [oracle._grown(n)[1] for n in range(10)]
        oracle.clear_cache()
        monkeypatch.setattr(oracle, "_CHUNK", 7)
        assert [oracle._grown(n)[1] for n in range(10)] == default
        assert sweeps.counted == Counter({n: 2 for n in range(1, 10)})

    def test_the_counts_give_the_number_of_rows(self, sweeps):
        # Row 0 of a count table is the empty pattern mask, which every
        # kept row misses; the rows are written into arrays of that size.
        for m in range(12):
            assert len(shared_sweep(m).rows) == sum(oracle._state[1][m][0]), m

    @pytest.mark.parametrize("n, off, error", [
        (6, 1, RuntimeError), (6, -1, ValueError), (1, 1, RuntimeError),
    ])
    def test_a_wrong_row_total_is_refused(self, sweeps, n, off, error):
        # Too many rows would leave rows of np.empty unwritten; too few
        # cannot hold the candidates kept.
        counts = oracle._grown(n)[1]
        with pytest.raises(error):
            oracle._step(n, oracle._state[0][n - 1], 0, sum(counts[0]) + off)

    def test_threads_on_a_cold_size_count_it_once(self, sweeps, monkeypatch):
        oracle._grown(8)
        sets = ALL_SETS[:8]
        results = overlapping(monkeypatch, "_histogram_from_below", 0.05,
                              lambda i: refined_count(9, sets[i]))
        assert sweeps.counted == Counter({n: 1 for n in range(1, 10)})
        assert len(oracle._state[0]) == 9
        sweep = shared_sweep(9)
        histogram = histogram_of(sweep.rows, sweep.masks)
        assert results == [filtered_count(histogram, ps.mask, 9) for ps in sets]
