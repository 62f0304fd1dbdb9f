import itertools
from math import comb

import pytest
from conftest import orbit_by_closure

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
    return [{m.canonical() for m in c.members} for c in classes]


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
        assert [m.canonical() for m in orb.members] == ["123,321"]

    def test_pair(self):
        orb = orbit("123,132")
        assert {m.canonical() for m in orb.members} == {"123,132", "123,213"}

    def test_four_member_orbit(self):
        orb = orbit("132,231,321")
        assert len(orb) == 4
        assert PatternSet.parse("213,312,321") in orb.members
        assert orb.representative == min(orb.members)

    def test_matches_the_closure_on_every_set(self):
        sets = [PatternSet(c) for size in range(1, 7)
                for c in itertools.combinations(ALL_PATTERNS, size)]
        assert len(sets) == 63
        for ps in sets:
            orb = orbit(ps)
            assert orb.members == orbit_by_closure(ps)
            assert orb.representative == orb.members[0]

    def test_orbit_members_share_tables(self):
        for size in (1, 2, 3):
            for combo in itertools.combinations(ALL_PATTERNS, size):
                orb = orbit(PatternSet(combo))
                base = [refined_count(n, orb.representative) for n in range(7)]
                for member in orb.members:
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
        seen = [m for c in classes for m in c.members]
        assert len(seen) == len(set(seen)) == comb(6, size)

    def test_full_set_is_one_class(self):
        assert len(symmetry_classes(6)) == 1

    def test_singletons(self):
        got = as_sets(symmetry_classes(1))
        assert {"123"} in got and {"321"} in got
        assert {"132", "213"} in got and {"231", "312"} in got

    def test_ordering_by_representative(self):
        classes = symmetry_classes(2)
        reps = [c.representative for c in classes]
        assert reps == sorted(reps)

    def test_bad_cardinality(self):
        with pytest.raises(ValueError):
            symmetry_classes(0)
        with pytest.raises(ValueError):
            symmetry_classes(7)


class TestSuperWilf:
    def test_singleton_split(self):
        classes = super_wilf_classes(["321", "132", "213", "231", "312"], 8)
        got = [{m.canonical() for m in c.members} for c in classes]
        assert {"132", "213", "321"} in got
        assert {"231", "312"} in got
        assert len(classes) == 2

    def test_mixed_pairs_one_class(self):
        classes = super_wilf_classes(
            ["132,231", "132,312", "213,231", "213,312"], 8
        )
        assert len(classes) == 1
        assert classes[0].n_max == 8

    def test_single_candidate(self):
        classes = super_wilf_classes(["123,321"], 6)
        assert len(classes) == 1 and len(classes[0]) == 1

    def test_witness(self):
        # {123} splits from {321} first at n=3, k=1 (3 avoiders vs 2).
        assert divergence_witness("123", "321", 8) == (3, 1)
        assert divergence_witness("231", "312", 8) is None

    def test_super_wilf_refines_orbits(self):
        for size in (1, 2, 3):
            for combo in itertools.combinations(ALL_PATTERNS, size):
                orb = orbit(PatternSet(combo))
                assert len(super_wilf_classes(orb.members, 6)) == 1

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
            {m.canonical() for m in c.members}
            for c in classes
            if len({orbit(m).representative for m in c.members}) > 1
        ]
        assert spanning == [{"132", "213", "321"}]
