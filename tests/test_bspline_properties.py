"""Properties of the stacked Cox--de Boor kernel, the package's only
B-spline evaluator: every row equals the scalar reference recursion of
``conftest`` bit for bit, signed zeros included, with and without a
closure coordinate, and so does every Greville collocation matrix.  Also:
knot insertion's children equal the functions on the augmented vector's
windows with the parent's weight times the coefficient, and its
coefficients are exact over the whole coordinate range, for one knot and
for several inserted in one step, where the children also equal
single-knot insertions folded knot by knot.  The memoized Boehm kernel
holds integers only, and with the children's windows it equals its
uncached loop, on cache hits and on moved copies of an input."""
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import reference_boehm, reference_derivatives, reference_values
from lrbsplines.bspline import (
    TensorBSpline,
    _boehm,
    _children,
    _greville_collocation,
    _insert_knots,
    _knot_windows,
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
def closures(draw, rows):
    """A closure coordinate for the stacked ``rows``: None, the last knot
    of one row, a repeated interior knot, or a value outside every
    support."""
    repeated = sorted({x for row in rows for x in row[1:-1] if row.count(x) > 1})
    options = [st.none(), st.sampled_from([row[-1] for row in rows])]
    if repeated:
        options.append(st.sampled_from(repeated))
    options.append(st.sampled_from([-0.5, 2.75]))
    return draw(st.one_of(*options))


@st.composite
def stacks(draw):
    """``(degree, knots (m, p+2), points (m, q), close_at)`` with per-row
    points and one closure coordinate for all rows."""
    p = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    q = draw(st.integers(1, 8))
    rows = [draw(windows(p)) for _ in range(m)]
    pts = [draw(points(row, q)) for row in rows]
    return p, np.array(rows), np.array(pts), draw(closures(rows))


@props
@given(stacks())
def test_stacked_rows_equal_the_reference(case):
    _, knots, pts, close_at = case
    values, derivatives = _stacked_values(knots, pts, close_at, derivatives=True)
    assert same_bits(_stacked_values(knots, pts, close_at), values)
    for v, t, val, der in zip(knots, pts, values, derivatives):
        assert same_bits(val, reference_values(v, t, close_at))
        assert same_bits(der, reference_derivatives(v, t, close_at))
        assert same_bits(univariate_values(v, t, close_at), val)
        assert same_bits(univariate_derivatives(v, t, close_at), der)


@props
@given(stacks())
def test_shared_points_broadcast_over_functions(case):
    # Assembly's layout: (elements, functions, p+2) windows against
    # (elements, 1, q) points shared by an element's functions.
    _, knots, pts, close_at = case
    values, derivatives = _stacked_values(
        knots[None], pts[:1, None, :], close_at, derivatives=True
    )
    assert values.shape == (1, len(knots), pts.shape[1])
    for v, val, der in zip(knots, values[0], derivatives[0]):
        assert same_bits(val, reference_values(v, pts[0], close_at))
        assert same_bits(der, reference_derivatives(v, pts[0], close_at))


def test_one_window_calls_keep_the_shape_of_the_points():
    knots = [0.0, 0.25, 0.5, 1.0]
    for t in (0.3, [[0.1, 0.5], [1.0, 2.0]]):
        want = reference_values(knots, t, 1.0)
        got = univariate_values(knots, t, 1.0)
        assert got.shape == np.shape(t) and same_bits(got, want)
        got = univariate_derivatives(knots, t, 1.0)
        assert got.shape == np.shape(t) and same_bits(got, reference_derivatives(knots, t, 1.0))


@st.composite
def global_vectors(draw):
    """``(degree, knots)``: an open global knot vector on eighths in
    [0, 2] with interior knots repeated up to the degree, as the
    quasi-interpolant and the Dirichlet edges use."""
    p = draw(st.integers(1, 4))
    interior = sorted(draw(st.lists(st.integers(1, 15), max_size=8)))
    interior = [x for x in interior if interior.count(x) <= p]
    return p, [0.0] * (p + 1) + [x / 8 for x in interior] + [2.0] * (p + 1)


@props
@given(global_vectors())
def test_greville_collocation_columns_equal_the_reference(case):
    p, knots = case
    windows = _knot_windows(knots, p)
    nodes, matrix = _greville_collocation(windows, knots[-1])
    assert matrix.shape == (len(windows), len(windows))
    for j, vec in enumerate(windows):
        assert same_bits(matrix[:, j], reference_values(vec, nodes, knots[-1]))


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


#: Coordinates whose numerators lie near 2**52, at any exponent: their
#: pairwise differences need up to 100 bits over a common denominator,
#: far outside the coordinate range.
wide_coords = st.builds(
    DyadicCoord, st.integers(2**52 - 2**16, 2**52 + 2**16), st.integers(0, 48)
)


@st.composite
def wide_insertions(draw):
    """``(b, direction, z)`` with knots and insertion point drawn from
    ``wide_coords``: z is one of p + 3 sorted draws, the knots the rest."""
    p = draw(st.integers(1, 3))
    values = sorted(draw(st.lists(wide_coords, min_size=p + 3, max_size=p + 3)))
    z = values.pop(draw(st.integers(1, p + 1)))
    vec = tuple(values)
    assume(vec[0] < z < vec[-1] and max(Counter(vec + (z,)).values()) <= p + 1)
    direction = draw(st.sampled_from((1, 2)))
    other = (dyadic(0), dyadic(1), dyadic(2))
    b = TensorBSpline(*((vec, other) if direction == 1 else (other, vec)), Fraction(3, 7))
    return b, direction, z


@props
@given(wide_insertions())
def test_insertion_alphas_equal_the_fraction_formula(case):
    b, direction, z = case
    v = [c.fraction for c in b.knots(direction)]
    p = len(v) - 2
    f = z.fraction
    want1 = Fraction(1) if f >= v[p] else (f - v[0]) / (v[p] - v[0])
    want2 = Fraction(1) if f <= v[1] else (v[p + 1] - f) / (v[p + 1] - v[1])
    (alpha1, child1), (alpha2, child2) = insert_knot(b, direction, z)
    assert type(alpha1) is Fraction and alpha1 == want1
    assert type(alpha2) is Fraction and alpha2 == want2
    assert child1.weight == b.weight * want1 and child2.weight == b.weight * want2


def folded_insertion(b, direction, knots) -> dict:
    """``insert_knot`` folded knot by knot over ``b`` and its children:
    each knot splits every function whose span holds it strictly inside,
    and children on the same knot vectors merge by adding weights.
    Returns the functions by key."""
    functions = {b.key: b}
    for z in knots:
        refined = {}
        for f in functions.values():
            v = f.knots(direction)
            pieces = [c for _, c in insert_knot(f, direction, z)] if v[0] < z < v[-1] else [f]
            for c in pieces:
                old = refined.get(c.key)
                refined[c.key] = c if old is None else TensorBSpline(c.xknots, c.yknots, old.weight + c.weight)
        functions = refined
    return functions


@st.composite
def multi_insertions(draw):
    """``(b, direction, knots)``: a function as in :func:`insertions` and
    one to four sorted knots on sixteenths strictly inside its span in
    ``direction``, repeats allowed, that keep every multiplicity at most
    degree + 1."""
    b, direction, _ = draw(insertions())
    v = b.knots(direction)
    lo, hi = int(v[0] * 16) + 1, int(v[-1] * 16) - 1
    knots = sorted(dyadic(n / 16) for n in draw(st.lists(st.integers(lo, hi), min_size=1, max_size=4)))
    assume(max(Counter(v + tuple(knots)).values()) <= len(v) - 1)
    return b, direction, knots


@props
@given(multi_insertions())
def test_multi_knot_children_equal_validated_ones(case):
    b, direction, knots = case
    augmented = tuple(sorted(b.knots(direction) + tuple(knots)))
    p = len(augmented) - len(knots) - 2
    children = _insert_knots(b, direction, knots)
    assert len(children) == len(knots) + 1
    for j, (num, den, child) in enumerate(children):
        vec = augmented[j : j + p + 2]
        coefficient = Fraction(num, den)
        if direction == 1:
            expected = TensorBSpline(vec, b.yknots, b.weight * coefficient)
        else:
            expected = TensorBSpline(b.xknots, vec, b.weight * coefficient)
        assert type(child) is TensorBSpline and child == expected
        for field in ("xknots", "yknots"):
            got, want = getattr(child, field), getattr(expected, field)
            assert type(got) is tuple and got == want
            assert all(type(c) is DyadicCoord for c in got)
        assert type(child.weight) is Fraction and child.weight == expected.weight
    assert {child.key: child for _, _, child in children} == folded_insertion(b, direction, knots)


@st.composite
def wide_multi_insertions(draw):
    """``(b, direction, knots)`` with knots and insertion points drawn
    from ``wide_coords``: the knots are p + 2 of the sorted draws, and the
    one to three others strictly inside them are inserted."""
    p = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    values = sorted(draw(st.lists(wide_coords, min_size=p + 2 + k, max_size=p + 2 + k)))
    picks = set(draw(st.lists(st.integers(1, p + k), min_size=k, max_size=k, unique=True)))
    knots = [z for i, z in enumerate(values) if i in picks]
    vec = tuple(z for i, z in enumerate(values) if i not in picks)
    assume(all(vec[0] < z < vec[-1] for z in knots))
    assume(max(Counter(values).values()) <= p + 1)
    direction = draw(st.sampled_from((1, 2)))
    other = (dyadic(0), dyadic(1), dyadic(2))
    b = TensorBSpline(*((vec, other) if direction == 1 else (other, vec)), Fraction(3, 7))
    return b, direction, knots


def fraction_coefficients(v, knots, p) -> list:
    """The refined coefficients of the B-spline on ``v`` after inserting
    ``knots``, by the alpha formula folded in ``Fraction`` arithmetic on
    one global vector: window j of it splits at z into windows j and
    j + 1 of the next."""
    t, coefficients = list(v), [Fraction(1)]
    for z in knots:
        refined = [Fraction(0)] * (len(coefficients) + 1)
        for j, c in enumerate(coefficients):
            lo, hi = t[j], t[j + p + 1]
            if hi <= z:
                refined[j] += c
            elif lo >= z:
                refined[j + 1] += c
            else:
                refined[j] += c * (1 if z >= t[j + p] else (z - lo) / (t[j + p] - lo))
                refined[j + 1] += c * (1 if z <= t[j + 1] else (hi - z) / (hi - t[j + 1]))
        t = sorted(t + [z])
        coefficients = refined
    return coefficients


@props
@given(wide_multi_insertions())
def test_multi_knot_coefficients_equal_the_fraction_formula(case):
    b, direction, knots = case
    v = [c.fraction for c in b.knots(direction)]
    want = fraction_coefficients(v, [z.fraction for z in knots], len(v) - 2)
    children = _insert_knots(b, direction, knots)
    assert [Fraction(num, den) for num, den, _ in children] == want
    for (_, _, child), coefficient in zip(children, want):
        assert type(child.weight) is Fraction and child.weight == b.weight * coefficient
    assert {child.key: child for _, _, child in children} == folded_insertion(b, direction, knots)


@st.composite
def boehm_inputs(draw):
    """``(window, knots)``: a local knot vector of degree 1-3 on eighths
    and one to four sorted knots on sixteenths strictly inside it, one of
    them drawn twice when the multiplicities allow."""
    p = draw(st.integers(1, 3))
    window = tuple(dyadic(v) for v in draw(windows(p)))
    lo, hi = int(window[0] * 16) + 1, int(window[-1] * 16) - 1
    assume(lo <= hi)
    picks = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=3))
    picks.append(draw(st.sampled_from(picks)))
    knots = tuple(sorted(dyadic(n / 16) for n in picks))
    if max(Counter(window + knots).values()) > p + 1:
        knots = knots[1:]
    assume(max(Counter(window + knots).values()) <= p + 1)
    return window, knots


@props
@given(boehm_inputs(), st.integers(-64, 64), st.integers(-4, 4))
def test_memoized_boehm_equals_the_uncached_loop(case, shift, exponent):
    # A copy translated by shift / 8 and scaled by 2**exponent is another
    # cache entry with the same coefficients and moved windows.
    window, knots = case

    def moved(values):
        return tuple(dyadic((v + shift / 8) * 2.0**exponent) for v in values)

    results = []
    for w, k in ((window, knots), (moved(window), moved(knots))):
        want = list(reference_boehm(w, k))
        got = _children(w, k)
        assert got == want
        coefficients = _boehm(w, k)
        assert all(type(c) is int for c in coefficients)
        hits = _boehm.cache_info().hits
        assert _boehm(w, k) is coefficients and _boehm.cache_info().hits == hits + 1
        assert _children(w, k) == want
        for _, _, vec in got:
            assert type(vec) is tuple and all(type(c) is DyadicCoord for c in vec)
        results.append(got)
    original, copy = results
    assert len(original) == len(knots) + 1
    assert [Fraction(n, d) for n, d, _ in original] == [Fraction(n, d) for n, d, _ in copy]
    assert [moved(vec) for _, _, vec in original] == [vec for _, _, vec in copy]
