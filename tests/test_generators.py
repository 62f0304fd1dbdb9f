import hashlib
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import lexsort_distinct, refined_histogram

from patfix import generators
from patfix.formulas import evaluate, formula_ids, get_formula
from patfix.generators import (
    GENERATOR_CAP,
    UnsupportedFamily,
    generate,
    generate_refined,
    generate_rows,
    supported_families,
)
from patfix.oracle import CapExceeded, enumerate_avoiders, refined_count
from patfix.perms import PatternSet, Permutation, fixed_points

FAMILIES = [ps.canonical() for ps in supported_families()]

# The printed one-parameter family for this set misses the identity
# permutation at every size >= 2; kept verbatim, see DISCREPANCIES.md.
DEFICIENT = "132,213,231"


def built(patterns, n):
    """A family's rows of size n as built: unsorted, maybe repeated; a
    size past the default cap is its own cap."""
    return generators._built(patterns, n, max(n, GENERATOR_CAP))


class TestRegistry:
    def test_supported_sets(self):
        assert len(FAMILIES) == 14
        assert "231,312" in FAMILIES
        assert "132,321" in FAMILIES
        assert "132,231,321" in FAMILIES
        assert PatternSet.parse("123") not in supported_families()

    def test_verify_order(self):
        # The order in which verify --all reports the families.
        assert supported_families() == tuple(map(PatternSet.parse, (
            "123,132", "132,213", "123,231", "132,231", "132,321", "231,312",
            "231,321", "123,132,231", "123,231,312", "132,213,231", "132,213,321",
            "132,231,312", "132,231,321", "231,312,321",
        )))

    def test_unsupported_family_error(self):
        with pytest.raises(UnsupportedFamily) as exc:
            generate("123,321", 4)
        assert "oracle" in str(exc.value)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            generate("231,312", GENERATOR_CAP + 1)
        with pytest.raises(CapExceeded):
            generate("231,312", 5, cap=4)

    def test_negative_cap_is_a_bad_argument_not_a_refusal(self):
        with pytest.raises(ValueError, match="cap -1 must be nonnegative"):
            generate("123,132", 0, cap=-1)


class TestFrozenExamples:
    def test_rotations(self):
        assert [p.compact() for p in generate("132,213,321", 4)] == [
            "1234", "2341", "3412", "4123",
        ]

    def test_tail_descent(self):
        assert [p.compact() for p in generate("231,312", 3)] == [
            "123", "132", "213", "321",
        ]

    def test_trivial_sizes(self):
        for fam in FAMILIES:
            assert generate(fam, 0) == [Permutation(())]
            assert generate(fam, 1) == [Permutation((1,))]

    def test_refined_examples(self):
        assert generate_refined("231,312,321", 4) == [1, 0, 3, 0, 1]
        assert generate_refined("132,231,321", 4) == [1, 1, 1, 0, 1]
        assert generate_refined("123,231,312", 2) == [1, 0, 1]

    def test_block_family_histogram(self):
        assert generate_refined("123,132", 4) == [4, 2, 2, 0, 0]

    def test_long_rows_do_not_wrap(self):
        # Values and fixed-point counts past 127, where int8 rows would
        # wrap without a warning.
        assert generate_refined("132,213,321", 130, cap=130) == [129] + [0] * 129 + [1]
        expected = sorted(
            Permutation((j,) + tuple(range(1, j)) + tuple(range(j + 1, 131)))
            for j in range(1, 131)
        )
        assert generate("132,231,321", 130, cap=130) == expected


class TestAgainstOracle:
    @pytest.mark.parametrize("patterns", [f for f in FAMILIES if f != DEFICIENT])
    def test_set_equality(self, patterns):
        for n in range(8):
            assert generate(patterns, n) == list(enumerate_avoiders(n, patterns))

    @pytest.mark.parametrize("patterns", [f for f in FAMILIES if f != DEFICIENT])
    def test_refined_equality(self, patterns):
        for n in range(8):
            assert generate_refined(patterns, n) == refined_count(n, patterns)

    def test_deficient_family_misses_exactly_the_identity(self):
        for n in range(2, 8):
            built = set(generate(DEFICIENT, n))
            truth = set(enumerate_avoiders(n, DEFICIENT))
            assert truth - built == {Permutation.identity(n)}
            assert built < truth


class TestDeterminism:
    def test_sorted_and_deduplicated(self):
        for patterns in FAMILIES:
            for n in range(7):
                out = generate(patterns, n)
                assert out == sorted(out)
                assert len(out) == len(set(out))

    def test_repeat_calls_identical(self):
        assert generate("231,321", 9) == generate("231,321", 9)

    def test_cardinality_cross_checks(self):
        from math import comb

        for n in range(1, 12):
            assert len(generate("132,321", n)) == comb(n, 2) + 1
            assert len(generate("231,321", n)) == 2 ** (n - 1)

    def test_scales_past_oracle_cap(self):
        # Cardinalities for sizes beyond brute-force reach.
        assert len(generate("231,321", 14)) == 2**13
        assert len(generate("123,132", 13)) == 2**12
        assert sum(generate_refined("132,321", 14)) == 14 * 13 // 2 + 1

    def test_concurrent_generation_consistent(self):
        from concurrent.futures import ThreadPoolExecutor

        expected = generate("231,312,321", 10)
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(lambda _: generate("231,312,321", 10), range(12)))
        assert all(r == expected for r in results)


class TestNormaliser:
    """The packed-key sort against one ``np.lexsort`` over the columns,
    on each family's rows as built: unsorted, and repeated where a
    printed family repeats a member."""

    @staticmethod
    def check(rows):
        want = lexsort_distinct(rows)
        shuffled = rows[np.random.default_rng(len(rows)).permutation(len(rows))]
        for block in (rows, shuffled):
            got = block[generators._distinct(block)]
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("patterns", FAMILIES)
    def test_every_family_to_the_cap(self, patterns):
        for n in range(1, GENERATOR_CAP + 1):
            self.check(built(patterns, n))

    @pytest.mark.parametrize("patterns", ["132,321", "132,231,321", "132,213,321"])
    def test_rows_past_one_word(self, patterns):
        # One word holds 15 entries of 4 bits; from n = 16 on a row takes
        # two words and more, and from n = 17 on an entry takes 5 bits.
        for n in (15, 16, 17, 31):
            self.check(built(patterns, n))

    def test_repeated_rows(self):
        # A row of size 15 is one key word, sorted as a 1-D key; one of
        # size 16 takes two words.
        for n in (9, 15, 16):
            rows = built(DEFICIENT, n)
            assert len(lexsort_distinct(rows)) < len(rows)
            self.check(rows)

    def test_no_rows(self):
        for n in (1, 5, 17):
            self.check(np.zeros((0, n), dtype=np.int16))


class TestRefinedFromKeys:
    """``generate_refined`` counts the fixed points of the rows as built
    and picks out the members' counts; the reference gathers the
    members first, sorted by packed words, and counts those."""

    @pytest.mark.parametrize("patterns", FAMILIES)
    def test_every_family_to_15(self, patterns):
        for n in range(16):
            assert generate_refined(patterns, n, cap=15) == refined_histogram(built(patterns, n))

    def test_a_recursive_family_past_15(self):
        for n in (16, 17):
            got = generate_refined("231,312,321", n, cap=n)
            assert got == refined_histogram(built("231,312,321", n))

    def test_long_rotations(self):
        rows = built("132,213,321", 130)
        assert generate_refined("132,213,321", 130, cap=130) == refined_histogram(rows)

    @pytest.mark.parametrize("n", [*range(1, 21), 31, 32, 64, 130, 300])
    def test_fixed_points_in_every_layout(self, n):
        # Row r moves each position with probability r/64, so the first
        # row is the identity and the fixed-point counts spread from n
        # down; at n = 300 a count needs uint16.
        rng = np.random.default_rng(n)
        rows = np.tile(np.arange(n, dtype=np.int16), (64, 1))
        for r, row in enumerate(rows):
            moved = np.flatnonzero(rng.random(n) < r / 64)
            row[moved] = rng.permutation(moved)
        got = fixed_points(rows)
        assert got.dtype == np.min_scalar_type(n)
        assert got.tolist() == (rows == np.arange(n)).sum(axis=1).tolist()
        assert got.max() == n

    @pytest.mark.parametrize("count", [1, 1024, 1025, 1 << 15])
    def test_fixed_points_either_side_of_its_shape_choice(self, count):
        # One comparison counts every height and layout: row-major int8
        # as the oracle keeps its rows, column-major int16 as the
        # generators build theirs, and the C-order int16 rows that
        # generate_rows gathers from those.  Every fifth row is the
        # identity.
        n = 13
        rows = np.random.default_rng(count).integers(0, n, (count, n), dtype=np.int8)
        rows[::5] = np.arange(n)
        want = (rows == np.arange(n)).sum(axis=1).tolist()
        column_major = np.asfortranarray(rows, dtype=np.int16)
        gathered = column_major[np.arange(count)]
        assert gathered.flags.c_contiguous
        for layout in (rows, column_major, gathered):
            got = fixed_points(layout)
            assert got.dtype == np.min_scalar_type(n)
            assert got.tolist() == want


class TestGrowMemo:
    """A recursive family keeps the sizes it grew last, so that a table
    walking n = 0, 1, 2, ... builds each size once."""

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        monkeypatch.setattr(generators, "_grown", (None, (), ()))

    @staticmethod
    def fresh(monkeypatch, patterns, n):
        monkeypatch.setattr(generators, "_grown", (None, (), ()))
        rows = built(patterns, n)
        monkeypatch.setattr(generators, "_grown", (None, (), ()))
        return rows

    def test_interleaved_families(self, monkeypatch):
        asks = [("123,132", n) for n in range(GENERATOR_CAP + 1)]
        asks += [("231,321", 5), ("123,132", 3), ("231,321", 12)]
        expected = [self.fresh(monkeypatch, *ask) for ask in asks]
        for (patterns, n), want in zip(asks, expected):
            assert np.array_equal(built(patterns, n), want)

    def test_threads_get_the_serial_results(self, monkeypatch):
        asks = [(patterns, n) for patterns in FAMILIES for n in range(13)]
        serial = {ask: self.fresh(monkeypatch, *ask) for ask in asks}

        def run(seed):
            # Three rounds, so that threads often grow one family at once.
            order = asks * 3
            random.Random(seed).shuffle(order)
            return [(ask, built(*ask)) for ask in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, seed) for seed in range(8)]
                results = [f.result(timeout=300) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            for ask, rows in result:
                assert np.array_equal(rows, serial[ask])

    def test_holds_the_last_family_only(self):
        # A recursive family, then a one-parameter one, whose step reads
        # no smaller size: each replaces the family grown before it.
        for patterns, last in (("132,321", generators._step_132_321),
                               ("132,213,321", generators._gen_132_213_321)):
            for ps in ("231,321", patterns):
                for n in range(11):
                    generate_refined(ps, n)
            step, sizes, orders = generators._grown
            assert step is last
            assert len(sizes) == len(orders) == 11
            assert not any(a.flags.writeable for a in (*sizes, *orders))
            assert generate_rows(patterns, 10).flags.writeable

    def test_each_size_sorted_once(self, monkeypatch):
        # The histogram and the members of a size share its one sort.
        calls = []
        distinct = generators._distinct

        def counted(rows):
            calls.append(rows.shape)
            return distinct(rows)

        monkeypatch.setattr(generators, "_distinct", counted)
        for n in range(10):
            generate_rows("123,132", n)
            generate_refined("123,132", n)
        assert [shape[1] for shape in calls] == list(range(10))

    def test_size_zero_is_the_seed_of_every_family(self, monkeypatch):
        # Size 0 is the one empty member, which no step builds.
        for ps in supported_families():
            def never(n, below):
                raise AssertionError(f"{ps.canonical()} stepped at size {n}")

            monkeypatch.setitem(generators._FAMILIES, ps, never)
            rows = generators._built(ps, 0, None)
            assert rows.shape == (1, 0) and rows.dtype == np.int16
            assert generate(ps, 0) == [Permutation(())]


# sha256 over n = 0..14 of each member's compact() plus "\n", in generate
# order, taken from the earlier top-down constructions, so that any change
# to a member list shows past the oracle's reach.  ALL_MEMBERS_DIGEST is
# the same digest over every family in registration order.
MEMBER_DIGESTS = {
    "123,132": "c48d701b66ad8e49c5016807e6605acb9de8b30b1ce783ddfe3df56987cdabfd",
    "132,213": "b5d4ff80069ff2997d3dd511fdb49a3e01e90c3d303b5244219c8fc2e6e48aa1",
    "123,231": "5f44d1613869ca4815b1a7e84d46eed21eec4db8632be4c621bd89b2ccd87439",
    "132,231": "766df13bebcaf522700c2029bce40b810423b7f532ade708626e35bd2e2b2874",
    "132,321": "79cdf17156ea3c92d1f4348f78439a2ea353e57d152e0c4aa82b928855e2182e",
    "231,312": "6bdaaa58fd5d5aca6953dd3f8922adeb5cd09eeee7851200af0ddb43d5f64b39",
    "231,321": "8bb9dccf9f36b3bffc439b8494340d001a4206a0766c8f94549048d21ec9af4a",
    "123,132,231": "ddf41655c170eb0d9739100e3dc95e80e9bbd50623205a89f3eec0644e09bc20",
    "123,231,312": "fca71585e0643b510df8db587543a0b38e325c7d90bdf5a96abf9eb27cf513de",
    "132,213,231": "45c52297eba539602e77f0bdb22b1ab9aef0618cf1d2340e22050d9bf934d43b",
    "132,213,321": "2e3eafbc5e44d46c4de52abc732bbd87287596bd5e65ee9124bbc66cab7ef73a",
    "132,231,312": "1116e9bbb0f11d0c332fc8aa8e3eada50caf56bb0c792ba5242bec5fa7f3abc8",
    "132,231,321": "a48046285c0ec655f9af6b73e530e5b41b738909c4b8f03ecf0c6d335f246361",
    "231,312,321": "b2871ce1d196cfaca98cc1701b5137555e1d110b32214e4ca7644a452a906cbd",
}
ALL_MEMBERS_DIGEST = "104992bc25551cfea82af3aab2a8108f8ba690eb53346c39ad8556a849195ea0"

# Formulas that disagree with their generator past the oracle's reach,
# with the first cell (n, k, formula, generator); see DISCREPANCIES.md.
FORMULA_VS_GENERATOR_AT_12_TO_14 = {
    "thm-132-231": (12, 1, 1366, 682),
    "thm3-132-213-231": (12, 0, 13, 11),
}


class TestPastTheOracle:
    def test_members_unchanged_to_the_cap(self):
        assert GENERATOR_CAP == 14
        everything = hashlib.sha256()
        digests = {}
        for patterns in FAMILIES:
            h = hashlib.sha256()
            for n in range(GENERATOR_CAP + 1):
                for p in generate(patterns, n):
                    line = (p.compact() + "\n").encode()
                    h.update(line)
                    everything.update(line)
            digests[patterns] = h.hexdigest()
        assert digests == MEMBER_DIGESTS
        assert everything.hexdigest() == ALL_MEMBERS_DIGEST

    def test_formulas_against_generators_at_12_to_14(self):
        first_miss = {}
        for fid in formula_ids():
            patterns = get_formula(fid).patterns
            if patterns not in supported_families():
                continue
            for n in range(12, GENERATOR_CAP + 1):
                claimed = [evaluate(fid, n, k) for k in range(n + 1)]
                built = generate_refined(patterns, n)
                misses = [
                    (n, k, c, b) for k, (c, b) in enumerate(zip(claimed, built)) if c != b
                ]
                if misses:
                    first_miss[fid] = misses[0]
                    break
        assert first_miss == FORMULA_VS_GENERATOR_AT_12_TO_14
