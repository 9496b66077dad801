"""Exact dyadic coordinates: normalization, comparisons, arithmetic."""
import random
from fractions import Fraction

import pytest

from lrbsplines.dyadic import dyadic


def test_normalization_strips_common_factors_of_two():
    assert dyadic(4, 2).pair() == [1, 0]
    assert dyadic(6, 3).pair() == [3, 2]
    assert dyadic(0, 7).pair() == [0, 0]
    assert dyadic(-8, 1).pair() == [-4, 0]


def test_integer_and_float_coercion():
    assert dyadic(3).pair() == [3, 0]
    assert dyadic(0.75).pair() == [3, 2]
    assert dyadic(-2.5).pair() == [-5, 1]
    assert float(dyadic(11, 4)) == 11 / 16


def test_non_dyadic_float_rejected():
    # floats whose reduced denominator exceeds the resolution cap are
    # rejected rather than rounded
    with pytest.raises(ValueError):
        dyadic(1 / 3)
    with pytest.raises(ValueError):
        dyadic(0.1)


@pytest.mark.parametrize(
    "args",
    [(2.7, 1), (1, 0.5), ((1.5, 0),), ([3, 1.9],), (True, 0), (3, False), ((True, 0),), ("3", 0), (1, float("inf"))],
)
def test_numerator_and_exponent_must_be_integers(args):
    # int() would truncate 2.7 to 2 and read True as 1
    with pytest.raises((TypeError, ValueError), match=r"(numerator|exponent) must be an integer"):
        dyadic(*args)


def test_integral_numerators_and_exponents_convert():
    assert dyadic(6.0, 2.0) == dyadic((6, 2)) == dyadic([6.0, 2]) == 1.5
    assert dyadic(-0.0, 3).pair() == [0, 0]
    with pytest.raises(TypeError, match="bool"):
        dyadic(True)


def test_fraction_view_matches_float():
    rng = random.Random(5)
    for _ in range(200):
        num = rng.randint(-(2**20), 2**20)
        exp = rng.randint(0, 20)
        c = dyadic(num, exp)
        assert c.fraction == Fraction(num, 2**exp)
        assert float(c) == num / 2**exp


def test_comparisons_match_fractions():
    rng = random.Random(6)
    coords = [dyadic(rng.randint(-64, 64), rng.randint(0, 6)) for _ in range(60)]
    for a in coords:
        for b in coords:
            assert (a < b) == (a.fraction < b.fraction)
            assert (a == b) == (a.fraction == b.fraction)
            assert (a <= b) == (a.fraction <= b.fraction)


def test_arithmetic_is_exact():
    rng = random.Random(7)
    for _ in range(200):
        a = dyadic(rng.randint(-99, 99), rng.randint(0, 8))
        b = dyadic(rng.randint(-99, 99), rng.randint(0, 8))
        assert (a + b).fraction == a.fraction + b.fraction
        assert (a - b).fraction == a.fraction - b.fraction
        assert (-a).fraction == -a.fraction


def test_midpoint():
    from lrbsplines.dyadic import midpoint

    a, b = dyadic(1, 2), dyadic(3, 2)
    assert midpoint(a, b) == dyadic(1, 1)
    assert midpoint(dyadic(0), dyadic(1)).fraction == Fraction(1, 2)


def test_hash_consistent_with_equality():
    assert hash(dyadic(2, 1)) == hash(dyadic(1, 0))
    s = {dyadic(4, 2), dyadic(1, 0), dyadic(1)}
    assert len(s) == 1


def test_sorting_matches_numeric_order():
    rng = random.Random(8)
    coords = [dyadic(rng.randint(-512, 512), rng.randint(0, 9)) for _ in range(300)]
    by_coord = sorted(coords)
    by_value = sorted(coords, key=lambda c: c.fraction)
    assert by_coord == by_value
