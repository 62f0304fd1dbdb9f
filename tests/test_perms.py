import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from patfix.oracle import refined_count
from patfix.perms import (
    ALL_PATTERNS,
    PatternSet,
    Permutation,
    _from_rows,
)

perm_strategy = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


class TestPermutation:
    def test_validation(self):
        Permutation(())
        Permutation((1,))
        Permutation((2, 1, 3))
        with pytest.raises(ValueError):
            Permutation((1, 1))
        with pytest.raises(ValueError):
            Permutation((0, 1))
        with pytest.raises(ValueError):
            Permutation((2, 3))

    def test_rows_checked_at_once(self):
        rows = np.array([[0, 1, 2], [2, 0, 1]], dtype=np.int16)
        assert list(_from_rows(rows)) == [Permutation((1, 2, 3)), Permutation((3, 1, 2))]
        assert list(_from_rows(np.zeros((1, 0), dtype=np.int16))) == [Permutation(())]
        for bad in ([[0, 1, 2], [1, 1, 2]], [[1, 2, 3]], [[0, 2, 3]]):
            with pytest.raises(ValueError):
                _from_rows(np.array(bad, dtype=np.int16))

    def test_parse_and_compact_round_trip(self):
        assert Permutation.parse("132") == (1, 3, 2)
        assert Permutation.parse("1,3,2") == (1, 3, 2)
        assert Permutation.parse("") == ()
        big = Permutation(range(1, 12))
        assert Permutation.parse(big.compact()) == big
        # Digits up to size 9, commas from size 10 on.
        assert Permutation(range(9, 0, -1)).compact() == "987654321"
        assert Permutation(range(10, 0, -1)).compact() == "10,9,8,7,6,5,4,3,2,1"
        assert Permutation.parse("10,9,8,7,6,5,4,3,2,1") == tuple(range(10, 0, -1))
        with pytest.raises(ValueError):
            Permutation.parse("x32")

    def test_fixed_points(self):
        assert Permutation.parse("123").fixed_point_count() == 3
        assert Permutation.parse("231").fixed_point_count() == 0
        assert Permutation.parse("132").fixed_point_count() == 1

    def test_symmetries(self):
        p = Permutation.parse("132")
        assert p.inverse() == p
        assert p.reverse_complement() == Permutation.parse("213")
        assert Permutation.parse("231").inverse() == Permutation.parse("312")
        assert Permutation.parse("2413").reverse_complement() == Permutation.parse("2413")
        assert Permutation.parse("2431").reverse_complement() == Permutation.parse("4213")


class TestContains:
    def test_spec_cases(self):
        assert Permutation.parse("132").contains(Permutation.parse("132"))
        assert not Permutation.parse("321").contains(Permutation.parse("123"))
        assert Permutation.parse("3142").contains(Permutation.parse("231"))

    def test_avoids_all(self):
        t = PatternSet.parse("132,231")
        assert Permutation.parse("21").avoids_all(t)
        assert not Permutation.parse("132").avoids_all(t)
        assert Permutation.parse("321").avoids_all(PatternSet.parse("123,132"))

    def test_short_permutations_avoid_everything(self):
        for n in (0, 1, 2):
            for p in all_perms(n):
                assert p.avoids_all(ALL_PATTERNS)

    def test_empty_pattern_always_contained(self):
        assert Permutation.parse("21").contains(())


class TestInvariants:
    @given(perm_strategy)
    def test_symmetries_are_involutions(self, entries):
        p = Permutation(entries)
        assert p.inverse().inverse() == p
        assert p.reverse_complement().reverse_complement() == p

    def test_fixed_point_preservation_exhaustive(self):
        # I and RC preserve the count.
        for n in range(7):
            for p in all_perms(n):
                fp = p.fixed_point_count()
                assert p.inverse().fixed_point_count() == fp
                assert p.reverse_complement().fixed_point_count() == fp

    def test_containment_commutes_with_symmetry(self):
        for n in range(6):
            for p in all_perms(n):
                for q in ALL_PATTERNS:
                    assert p.contains(q) == p.inverse().contains(q.inverse())
                    assert p.contains(q) == (
                        p.reverse_complement().contains(q.reverse_complement())
                    )


class TestPatternSet:
    def test_canonical_ordering(self):
        ps = PatternSet.parse("321,123")
        assert ps.canonical() == "123,321"
        assert PatternSet(["123", "321"]) == ps
        assert PatternSet.parse("321,123,321") == ps

    def test_validation(self):
        with pytest.raises(ValueError):
            PatternSet.parse("")
        with pytest.raises(ValueError):
            PatternSet(["12"])

    def test_bare_pattern_refused(self):
        # A pattern's entries are not patterns: a set is text or an
        # iterable of patterns.
        for bare in ((1, 3, 2), Permutation.parse("132"), [1, 3, 2], np.array([1, 3, 2]),
                     np.array([1, 3, 2], dtype=np.int8)):
            with pytest.raises(ValueError, match='text like "132,231"'):
                PatternSet(bare)
        with pytest.raises(ValueError, match="iterable of patterns"):
            refined_count(4, Permutation.parse("132"))
        assert PatternSet([(1, 3, 2)]) == PatternSet(["132"]) == PatternSet.parse("132")
        assert PatternSet([np.array([1, 3, 2])]) == PatternSet.parse("132")
        assert PatternSet(np.array([[1, 3, 2], [2, 3, 1]])) == PatternSet.parse("132,231")
        with pytest.raises(TypeError):
            PatternSet(132)

    def test_mask(self):
        assert PatternSet.parse("123").mask == 1
        assert PatternSet.parse("321").mask == 32
        assert PatternSet(ALL_PATTERNS).mask == 63

    def test_all_patterns_lex(self):
        names = [p.compact() for p in ALL_PATTERNS]
        assert names == ["123", "132", "213", "231", "312", "321"]
