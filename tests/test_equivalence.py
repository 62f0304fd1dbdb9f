import itertools
from math import comb

import pytest
from conftest import orbit_by_closure

from patfix import oracle
from patfix.equivalence import (
    divergence_witness,
    orbit,
    super_wilf_classes,
    symmetry_classes,
)
from patfix.oracle import refined_count
from patfix.perms import ALL_PATTERNS, PatternSet

# The published case layout for pairs of patterns.
PAIR_CLASSES = [
    {"123,132", "123,213"},
    {"123,231", "123,312"},
    {"123,321"},
    {"132,213"},
    {"132,231", "132,312"},
    {"132,321", "213,321"},
    {"213,231", "213,312"},
    {"231,312"},
    {"231,321", "312,321"},
]

# The published case layout for triples.
TRIPLE_CLASSES = [
    {"123,132,213"},
    {"123,132,231", "123,132,312", "123,213,231", "123,213,312"},
    {"123,132,321", "123,213,321", "123,231,321", "123,312,321"},
    {"123,231,312"},
    {"132,213,231", "132,213,312"},
    {"132,213,321"},
    {"132,231,312", "213,231,312"},
    {"132,231,321", "132,312,321", "213,231,321", "213,312,321"},
    {"231,312,321"},
]


def as_sets(classes):
    return [{m.canonical() for m in c} for c in classes]


class TestGroup:
    def test_action_on_patterns(self):
        # I transposes 231 and 312; RC additionally transposes 132 and 213.
        inv = {p.compact(): p.inverse().compact() for p in ALL_PATTERNS}
        assert inv == {"123": "123", "132": "132", "213": "213",
                       "231": "312", "312": "231", "321": "321"}
        rc = {p.compact(): p.reverse_complement().compact() for p in ALL_PATTERNS}
        assert rc == {"123": "123", "132": "213", "213": "132",
                      "231": "312", "312": "231", "321": "321"}


class TestOrbit:
    def test_fixed_singleton(self):
        orb = orbit("123,321")
        assert [m.canonical() for m in orb] == ["123,321"]

    def test_pair(self):
        orb = orbit("123,132")
        assert {m.canonical() for m in orb} == {"123,132", "123,213"}

    def test_four_member_orbit(self):
        orb = orbit("132,231,321")
        assert len(orb) == 4
        assert PatternSet.parse("213,312,321") in orb
        assert orb[0] == min(orb)

    def test_matches_the_closure_on_every_set(self):
        sets = [PatternSet(c) for size in range(1, 7)
                for c in itertools.combinations(ALL_PATTERNS, size)]
        assert len(sets) == 63
        for ps in sets:
            assert orbit(ps) == orbit_by_closure(ps)

    def test_orbit_members_share_tables(self):
        for size in (1, 2, 3):
            for combo in itertools.combinations(ALL_PATTERNS, size):
                orb = orbit(PatternSet(combo))
                base = [refined_count(n, orb[0]) for n in range(7)]
                for member in orb:
                    assert [refined_count(n, member) for n in range(7)] == base


class TestSymmetryClasses:
    def test_pair_layout(self):
        got = as_sets(symmetry_classes(2))
        assert len(got) == 9
        for expected in PAIR_CLASSES:
            assert expected in got

    def test_triple_layout(self):
        got = as_sets(symmetry_classes(3))
        assert len(got) == 9
        for expected in TRIPLE_CLASSES:
            assert expected in got

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
    def test_partition(self, size):
        classes = symmetry_classes(size)
        seen = [m for c in classes for m in c]
        assert len(seen) == len(set(seen)) == comb(6, size)

    def test_full_set_is_one_class(self):
        assert len(symmetry_classes(6)) == 1

    def test_singletons(self):
        got = as_sets(symmetry_classes(1))
        assert {"123"} in got and {"321"} in got
        assert {"132", "213"} in got and {"231", "312"} in got

    def test_ordering_by_representative(self):
        classes = symmetry_classes(2)
        reps = [c[0] for c in classes]
        assert reps == sorted(reps)

    def test_bad_cardinality(self):
        with pytest.raises(ValueError):
            symmetry_classes(0)
        with pytest.raises(ValueError):
            symmetry_classes(7)


class TestSuperWilf:
    def test_singleton_split(self):
        classes = super_wilf_classes(["321", "132", "213", "231", "312"], 8)
        got = as_sets(classes)
        assert {"132", "213", "321"} in got
        assert {"231", "312"} in got
        assert len(classes) == 2

    def test_mixed_pairs_one_class(self):
        classes = super_wilf_classes(
            ["132,231", "132,312", "213,231", "213,312"], 8
        )
        assert classes == [orbit("132,231")]

    def test_single_candidate(self):
        classes = super_wilf_classes(["123,321"], 6)
        assert len(classes) == 1 and len(classes[0]) == 1

    def test_witness(self):
        # {123} splits from {321} first at n=3, k=1 (3 avoiders vs 2).
        assert divergence_witness("123", "321", 8) == (3, 1)
        assert divergence_witness("231", "312", 8) is None

    def test_a_malformed_candidate_is_refused_before_any_count(self, sweeps):
        with pytest.raises(ValueError, match="length-3"):
            super_wilf_classes(["132", "12"], 8)
        assert len(oracle._state[1]) == 1
        assert not (sweeps.rows or sweeps.sets or sweeps.counted)

    def test_a_malformed_set_is_refused_before_the_cap(self):
        with pytest.raises(ValueError, match="length-3"):
            divergence_witness("12", "132", 99)

    def test_super_wilf_refines_orbits(self):
        for size in (1, 2, 3):
            for combo in itertools.combinations(ALL_PATTERNS, size):
                orb = orbit(PatternSet(combo))
                assert super_wilf_classes(orb, 6) == [orb]

    def test_all_pattern_sets_at_twelve(self):
        # Over all 63 sets the refined tables to n = 12 fall into 34
        # classes, and the one equality the two symmetries do not explain
        # is {132} ~ {321} (Robertson-Saracino-Zeilberger; Elizalde).
        all_sets = [
            PatternSet(combo)
            for size in range(1, 7)
            for combo in itertools.combinations(ALL_PATTERNS, size)
        ]
        classes = super_wilf_classes(all_sets, 12, cap=12)
        assert len(classes) == 34
        spanning = [
            {m.canonical() for m in c}
            for c in classes
            if len({orbit(m) for m in c}) > 1
        ]
        assert spanning == [{"132", "213", "321"}]


def assert_class(cls):
    """A class is the sorted tuple of its distinct member pattern sets."""
    assert type(cls) is tuple and cls
    assert all(type(m) is PatternSet for m in cls)
    assert list(cls) == sorted(set(cls))


class TestShapes:
    def test_orbit_is_a_sorted_tuple(self):
        for ps in (PatternSet(c) for size in range(1, 7)
                   for c in itertools.combinations(ALL_PATTERNS, size)):
            orb = orbit(ps)
            assert_class(orb)
            assert ps in orb and orbit(orb[-1]) == orb

    @pytest.mark.parametrize("patterns, size", [("123", 1), ("132", 2), ("132,231", 4)])
    def test_len_is_the_member_count(self, patterns, size):
        orb = orbit(patterns)
        assert len(orb) == len(set(orb)) == size
        assert {orbit(m) for m in orb} == {orb}

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
    def test_symmetry_classes_are_sorted_tuples(self, size):
        classes = symmetry_classes(size)
        for cls in classes:
            assert_class(cls)
        assert classes == sorted(classes)
        assert len(set(classes)) == len(classes)
        assert sum(map(len, classes)) == comb(6, size)

    def test_super_wilf_classes_are_sorted_tuples(self):
        classes = super_wilf_classes(["321", "213", "132", "123", "321"], 5)
        for cls in classes:
            assert_class(cls)
        assert classes == sorted(classes)
        assert [len(c) for c in classes] == [1, 3]
        assert classes == [(PatternSet("123"),),
                           tuple(PatternSet(t) for t in ("132", "213", "321"))]
        assert len(set(classes)) == 2
