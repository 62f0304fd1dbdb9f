import itertools
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from patfix import oracle
from patfix.audit import audit_all
from patfix.oracle import (
    CAP_ENV_VAR,
    CapExceeded,
    clear_cache,
    count_table,
    enumerate_avoiders,
    refined_count,
    resolve_cap,
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


def naive_avoiders(n, patterns):
    ps = PatternSet.parse(patterns) if isinstance(patterns, str) else patterns
    return [
        Permutation(entries)
        for entries in itertools.permutations(range(1, n + 1))
        if Permutation(entries).avoids_all(ps)
    ]


class TestSpecValues:
    def test_empty_size(self):
        assert refined_count(0, "123") == [1]
        assert list(enumerate_avoiders(0, "123")) == [Permutation(())]

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
        assert table.row(4) == [4, 0, 0, 0, 0]
        assert table.row(5) == [0, 0, 0, 0, 0, 0]
        assert table.get(4, 9) == 0
        assert table.get(4, -1) == 0
        assert table.n_max == 5


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
                for n in range(6):
                    row = refined_count(n, ps)
                    assert refined_count(n, ps.apply("I")) == row
                    assert refined_count(n, ps.apply("RC")) == row

    def test_monotone_supersets_kill_three_fixed_points(self):
        # Three fixed points embed an ascending triple.
        for extra in ("", ",321", ",231", ",132,213"):
            ps = PatternSet.parse("123" + extra)
            for n in range(3, 8):
                row = refined_count(n, ps)
                assert all(v == 0 for v in row[3:])


class TestCaps:
    def test_cap_error_names_the_cap(self):
        with pytest.raises(CapExceeded) as exc:
            refined_count(4, "123", cap=3)
        assert "cap of 3" in str(exc.value)
        assert exc.value.n == 4 and exc.value.cap == 3

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "2")
        assert resolve_cap() == 2
        with pytest.raises(CapExceeded):
            refined_count(3, "123")
        assert resolve_cap(9) == 9  # explicit beats environment
        monkeypatch.setenv(CAP_ENV_VAR, "junk")
        with pytest.raises(ValueError):
            resolve_cap()

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            refined_count(-1, "123")


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
    def test_every_pattern_set_matches_contains(self):
        # Six containment bits per permutation, computed once per n from
        # the definition, then filtered for each of the 63 pattern sets.
        all_sets = [
            PatternSet(combo)
            for size in range(1, 7)
            for combo in itertools.combinations(ALL_PATTERNS, size)
        ]
        assert len(all_sets) == 63
        for n in range(8):
            perms = [Permutation(e) for e in itertools.permutations(range(1, n + 1))]
            bits = [
                sum(1 << i for i, q in enumerate(ALL_PATTERNS) if p.contains(q))
                for p in perms
            ]
            for ps in all_sets:
                expected = [p for p, b in zip(perms, bits) if b & ps.mask == 0]
                assert list(enumerate_avoiders(n, ps)) == expected, (n, ps)

    def test_audit_sweeps_each_size_once(self, sweeps):
        audit_all(9)
        assert sweeps == Counter({n: 1 for n in range(10)})

    def test_counts_and_avoiders_share_one_sweep(self, sweeps):
        for ps in ("123", "132,231", "231,312,321"):
            refined_count(8, ps)
            list(enumerate_avoiders(8, ps))
        assert sweeps == Counter({8: 1})

    def test_clear_cache_drops_the_sweep(self, sweeps):
        list(enumerate_avoiders(6, "123"))
        clear_cache()
        refined_count(6, "123")
        assert sweeps == Counter({6: 2})

    def test_single_flight_under_threads(self, sweeps, monkeypatch):
        counting = oracle._chunk_stats

        def slow(chunk):
            time.sleep(0.05)  # widen the window in which callers overlap
            return counting(chunk)

        monkeypatch.setattr(oracle, "_chunk_stats", slow)
        start = threading.Barrier(8)

        def worker(i):
            start.wait(timeout=10)
            if i % 2:
                return refined_count(7, "132")
            return sum(1 for _ in enumerate_avoiders(7, "132"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(worker, range(8), timeout=30))
        finally:
            sys.setswitchinterval(interval)
        assert sweeps == Counter({7: 1})
        assert results[::2] == [429] * 4
        assert results[1::2] == [naive_refined(7, "132")] * 4

    def test_large_sizes_stream_and_keep_no_rows(self, sweeps, monkeypatch):
        # Shrink the cached size so the streaming path runs at small n.
        monkeypatch.setattr(oracle, "_BASE_SIZE", 4)
        for patterns in ("321", "132,213,231"):
            assert list(enumerate_avoiders(6, patterns)) == naive_avoiders(6, patterns)
            assert refined_count(6, patterns) == naive_refined(6, patterns)
        assert oracle._sweeps[6].rows is None and oracle._sweeps[6].masks is None
        # S_6 is 30 blocks of 4! rows: each of the two avoider streams
        # sweeps them all again, the cached histogram only once.
        assert sweeps[6] == 3 * 30

    def test_cap_refused_before_any_sweep(self, sweeps):
        with pytest.raises(CapExceeded):
            count_table(12, "123")
        with pytest.raises(CapExceeded) as exc:
            count_table(16, "123", cap=20)
        assert exc.value.cap == 15
        with pytest.raises(CapExceeded):
            next(enumerate_avoiders(12, "123"))
        assert not sweeps
