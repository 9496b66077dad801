"""Properties of the stacked Cox--de Boor kernel that batched assembly
uses: every row equals the single-window reference bit for bit, signed
zeros included.  Also: knot insertion's unvalidated children equal
validated ones."""
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lrbsplines.bspline import (
    TensorBSpline,
    _stacked_values,
    insert_knot,
    univariate_derivatives,
    univariate_values,
)
from lrbsplines.dyadic import DyadicCoord, dyadic

props = settings(deadline=None, max_examples=200)


def same_bits(a, b):
    """Equal as stored doubles, so ``-0.0`` differs from ``0.0``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def windows(draw, p):
    """A local knot vector of degree ``p`` on the lattice of eighths in
    [0, 2]; knots repeat up to p+1 times, so denominators can vanish."""
    v = sorted(draw(st.lists(st.integers(0, 16), min_size=p + 2, max_size=p + 2)))
    if v[0] == v[-1]:
        v[-1] += draw(st.integers(1, 4))
    return [x / 8 for x in v]


@st.composite
def points(draw, knots, q):
    """``q`` points: knots themselves, points inside the support and
    points outside it."""
    lo, hi = knots[0], knots[-1]
    return draw(
        st.lists(
            st.one_of(
                st.sampled_from(knots),
                st.floats(lo, hi),
                st.floats(lo - 1.0, hi + 1.0),
            ),
            min_size=q,
            max_size=q,
        )
    )


@st.composite
def stacks(draw):
    """``(degree, knots (m, p+2), points (m, q))`` with per-row points."""
    p = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    q = draw(st.integers(1, 8))
    rows = [draw(windows(p)) for _ in range(m)]
    pts = [draw(points(row, q)) for row in rows]
    return p, np.array(rows), np.array(pts)


@props
@given(stacks())
def test_stacked_rows_equal_the_reference(case):
    _, knots, pts = case
    values, derivatives = _stacked_values(knots, pts, derivatives=True)
    assert same_bits(_stacked_values(knots, pts), values)
    for v, t, val, der in zip(knots, pts, values, derivatives):
        assert same_bits(val, univariate_values(v, t))
        assert same_bits(der, univariate_derivatives(v, t))


@props
@given(stacks())
def test_shared_points_broadcast_over_functions(case):
    # Assembly's layout: (elements, functions, p+2) windows against
    # (elements, 1, q) points shared by an element's functions.
    _, knots, pts = case
    values, derivatives = _stacked_values(knots[None], pts[:1, None, :], derivatives=True)
    assert values.shape == (1, len(knots), pts.shape[1])
    for v, val, der in zip(knots, values[0], derivatives[0]):
        assert same_bits(val, univariate_values(v, pts[0]))
        assert same_bits(der, univariate_derivatives(v, pts[0]))


@st.composite
def insertions(draw):
    """``(b, direction, z)``: a weighted function on eighths and an
    insertion point on sixteenths strictly inside its span in
    ``direction`` that keeps every multiplicity at most degree + 1."""
    p1, p2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    xv = tuple(dyadic(v) for v in draw(windows(p1)))
    yv = tuple(dyadic(v) for v in draw(windows(p2)))
    weight = Fraction(draw(st.integers(1, 64)), draw(st.integers(1, 64)))
    b = TensorBSpline(xv, yv, weight)
    direction = draw(st.sampled_from((1, 2)))
    v = b.knots(direction)
    lo, hi = int(v[0] * 16) + 1, int(v[-1] * 16) - 1
    z = dyadic(draw(st.integers(lo, hi).filter(lambda n: v.count(n / 16) <= len(v) - 2)) / 16)
    return b, direction, z


@props
@given(insertions())
def test_inserted_children_equal_validated_ones(case):
    b, direction, z = case
    augmented = tuple(sorted(b.knots(direction) + (z,)))
    children = insert_knot(b, direction, z)
    for (alpha, child), vec in zip(children, (augmented[:-1], augmented[1:])):
        if direction == 1:
            expected = TensorBSpline(vec, b.yknots, b.weight * alpha)
        else:
            expected = TensorBSpline(b.xknots, vec, b.weight * alpha)
        assert type(child) is TensorBSpline and child == expected
        for field in ("xknots", "yknots"):
            got, want = getattr(child, field), getattr(expected, field)
            assert type(got) is tuple and got == want
            assert all(type(c) is DyadicCoord for c in got)
        assert type(child.weight) is Fraction and child.weight == expected.weight
