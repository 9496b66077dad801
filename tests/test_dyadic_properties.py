"""Properties of the coordinate type: a coordinate is the exact float of
its dyadic value, and agrees with ``Fraction`` arithmetic everywhere."""
import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrbsplines.dyadic import DyadicCoord, dyadic, midpoint

numerators = st.integers(-(2**52) + 1, 2**52 - 1)
exponents = st.integers(0, 48)
coords = st.builds(dyadic, numerators, exponents)

props = settings(deadline=None)


def _in_range(value: Fraction) -> bool:
    """Whether a dyadic rational is representable as a coordinate."""
    return value.denominator.bit_length() - 1 <= 48 and abs(value.numerator) < 2**53


@props
@given(numerators, exponents)
def test_fraction_and_float_are_exact(num, exp):
    c = dyadic(num, exp)
    exact = Fraction(num, 2**exp)
    assert c.fraction == exact
    assert Fraction(float(c)) == exact
    assert dyadic(float(c)) == c


@props
@given(coords, coords)
def test_order_equality_and_hash_agree_with_fractions(a, b):
    assert (a < b) == (a.fraction < b.fraction)
    assert (a <= b) == (a.fraction <= b.fraction)
    assert (a == b) == (a.fraction == b.fraction)
    assert hash(a) == hash(a.fraction)
    if a == b:
        assert hash(a) == hash(b)


@st.composite
def rescalings(draw):
    """``(num, exp, k)`` such that ``num * 2**k / 2**(exp + k)`` is in range."""
    k = draw(st.integers(1, 48))
    bound = 2 ** (52 - k)
    return draw(st.integers(-bound + 1, bound - 1)), draw(st.integers(0, 48 - k)), k


@props
@given(rescalings())
def test_unnormalized_pairs_give_the_same_key(case):
    num, exp, k = case
    a, b = dyadic(num, exp), dyadic(num * 2**k, exp + k)
    assert a == b and hash(a) == hash(b) and a.pair() == b.pair()
    assert len({a, b}) == 1


@props
@given(coords)
def test_pair_round_trips_in_lowest_terms(c):
    num, exp = c.pair()
    assert DyadicCoord(num, exp) == c
    assert type(DyadicCoord(*c.pair())) is DyadicCoord
    assert (num, exp) == (c.numerator, c.exponent)
    assert exp == 0 or num % 2 == 1
    assert eval(repr(c), {"dyadic": dyadic}) == c


@props
@given(coords, coords)
def test_sum_difference_and_midpoint_are_exact_or_raise(a, b):
    cases = (
        (operator.add, a.fraction + b.fraction),
        (operator.sub, a.fraction - b.fraction),
        (midpoint, (a.fraction + b.fraction) / 2),
    )
    for op, exact in cases:
        if _in_range(exact):
            result = op(a, b)
            assert type(result) is DyadicCoord
            assert result.fraction == exact
        else:
            with pytest.raises(ValueError):
                op(a, b)
    assert type(-a) is DyadicCoord and (-a).fraction == -a.fraction


@props
@given(coords, st.floats(-4.0, 4.0))
def test_plain_float_operands_give_float_arithmetic(c, x):
    assert type(c + x) is float and c + x == float(c) + x
    assert type(c - x) is float and c - x == float(c) - x
    assert type(x - c) is float and x - c == x - float(c)


@props
@given(coords)
def test_copy_and_pickle_keep_the_type(c):
    for twin in (copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert type(twin) is DyadicCoord and twin == c


def test_equality_with_plain_numbers_is_numeric():
    assert dyadic(3, 1) == 1.5
    assert hash(dyadic(3, 1)) == hash(1.5)
    assert dyadic(4, 2) == 1 and hash(dyadic(4, 2)) == hash(1)
    assert {1.5: "x"}[dyadic(3, 1)] == "x"


def test_zero_is_positive_zero():
    for zero in (dyadic(0), -dyadic(0), dyadic(0, 7), dyadic(-0.0), dyadic(1) - dyadic(1)):
        assert math.copysign(1.0, zero) == 1.0
        assert repr(float(zero)) == "0.0"


def test_text_forms():
    c = dyadic(1, 4)
    assert repr(c) == "dyadic(1, 4)" and str(c) == "1/2^4" and f"{c}" == "1/2^4"
    assert repr(float(c)) == "0.0625"
    assert str(dyadic(-3)) == "-3"


@pytest.mark.parametrize(
    "num, exp",
    [(1, 49), (3, 10**12), (2**53, 0), (-(2**53), 0), (1, -53), (2**60, 0)],
)
def test_out_of_range_values_raise(num, exp):
    with pytest.raises(ValueError):
        DyadicCoord(num, exp)


@pytest.mark.parametrize(
    "num, exp, pair",
    [(2, 49, [1, 48]), (2**53 - 1, 0, [2**53 - 1, 0]), (1, -52, [2**52, 0]), (2**60, 10, [2**50, 0])],
)
def test_values_that_normalize_into_range_are_accepted(num, exp, pair):
    assert DyadicCoord(num, exp).pair() == pair


def test_midpoint_past_the_deepest_level_raises():
    with pytest.raises(ValueError):
        midpoint(dyadic(0), dyadic(1, 48))
    assert midpoint(dyadic(0), dyadic(1, 47)) == dyadic(1, 48)
