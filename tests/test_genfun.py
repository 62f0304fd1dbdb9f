import random

import pytest

from patfix.genfun import (
    RationalGF,
    gf_for_k,
    poly_mul,
    poly_pow,
    poly_text,
    series_coefficients,
    sum_over_k,
)
from patfix.oracle import refined_count


class TestPolynomials:
    def test_mul_and_trim(self):
        assert poly_mul((1, -1), (1, 1)) == (1, 0, -1)
        assert poly_mul((), (1, 2)) == ()
        assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)
        assert poly_pow((1, -1), 0) == (1,)
        assert poly_pow((1, -1, -1), 2) == (1, -2, -1, 2, 1)

    def test_pow_matches_repeated_mul(self):
        def by_mul(p, e):
            out = (1,)
            for _ in range(e):
                out = poly_mul(out, p)
            return out

        fixed = [
            ((), 0), ((), 3), ((0,), 2), ((0, 0), 1), ((5,), 4), ((1, 0, 0), 3),
            ((0, 0, 1), 4), ((0, 2, -1), 3), ((-1, 1), 5), ((-3, 0, 2), 4),
            ((1, -1, -1), 0),
        ]
        rng = random.Random(20021)
        drawn = [
            (tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 6))), rng.randint(0, 9))
            for _ in range(400)
        ]
        for p, e in fixed + drawn:
            assert poly_pow(p, e) == by_mul(p, e), (p, e)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            poly_pow((1, 1), -1)

    def test_text(self):
        assert poly_text((1, -1, -1)) == "1 - x - x^2"
        assert poly_text((0, 1, -2, 1)) == "x - 2x^2 + x^3"
        assert poly_text(()) == "0"
        assert poly_text((-1, 0, 3)) == "-1 + 3x^2"


class TestRationalGF:
    def test_validation(self):
        with pytest.raises(ValueError):
            RationalGF((1,), (0, 1))
        with pytest.raises(ValueError):
            RationalGF((1,), ())

    def test_gf_for_k_literal_forms(self):
        g0 = gf_for_k(0)
        assert g0.numerator == (1, -1)
        assert g0.denominator == (1, -1, -1)
        g1 = gf_for_k(1)
        assert g1.numerator == (0, 1, -2, 1)
        assert g1.denominator == (1, -2, -1, 2, 1)

    def test_gf_for_k_product_structure(self):
        # Each level multiplies by x(1-x) upstairs and (1-x-x^2) downstairs;
        # the step-by-step products check poly_pow's closed powers.
        for k in range(1, 201):
            prev, cur = gf_for_k(k - 1), gf_for_k(k)
            assert cur.numerator == poly_mul(prev.numerator, (0, 1, -1))
            assert cur.denominator == poly_mul(prev.denominator, (1, -1, -1))

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            gf_for_k(-1)


class TestSeries:
    def test_geometric(self):
        assert series_coefficients(RationalGF((1,), (1, -1)), 3) == [1, 1, 1, 1]

    def test_gf0_is_shifted_fibonacci(self):
        assert series_coefficients(gf_for_k(0), 5) == [1, 0, 1, 1, 2, 3]
        assert series_coefficients(gf_for_k(0), 9) == [1, 0, 1, 1, 2, 3, 5, 8, 13, 21]

    def test_gf1(self):
        assert series_coefficients(gf_for_k(1), 6) == [0, 1, 0, 2, 2, 5, 8]

    def test_low_terms_vanish_below_k(self):
        assert series_coefficients(gf_for_k(3), 2) == [0, 0, 0]

    def test_prefix_consistency(self):
        long = series_coefficients(gf_for_k(2), 12)
        for m in range(13):
            assert series_coefficients(gf_for_k(2), m) == long[: m + 1]

    def test_non_integer_series_rejected(self):
        with pytest.raises(ValueError):
            series_coefficients(RationalGF((1,), (2, -1)), 3)

    def test_integer_series_with_other_constant_terms(self):
        assert series_coefficients(RationalGF((2,), (2,)), 2) == [1, 0, 0]
        # 1 / (-1 + x) = -(1 + x + x^2 + ...)
        assert series_coefficients(RationalGF((1,), (-1, 1)), 3) == [-1, -1, -1, -1]

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            series_coefficients(gf_for_k(0), -1)

    def test_matches_oracle(self):
        for n in range(8):
            row = refined_count(n, "231,321")
            for k in range(n + 1):
                assert series_coefficients(gf_for_k(k), n)[n] == row[k]


class TestSumOverK:
    def test_doubling(self):
        assert sum_over_k(4, 4) == [1, 1, 2, 4, 8]
        assert sum_over_k(6, 6) == [1, 1, 2, 4, 8, 16, 32]
        assert sum_over_k(0, 0) == [1]

    def test_lossy_truncation_rejected(self):
        with pytest.raises(ValueError):
            sum_over_k(3, 4)
