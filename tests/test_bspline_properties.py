"""Properties of the stacked Cox--de Boor kernel, the package's only
B-spline evaluator: every row equals the scalar reference recursion of
``conftest`` bit for bit, signed zeros included, with and without a
closure coordinate, one for all rows or one per row, and so does every
Greville collocation matrix.  Also:
knot insertion's children are the keys on the augmented vector's windows,
a parent equals its children weighted by their coefficients pointwise,
and the coefficients are exact over the whole coordinate range, for one
knot and for several inserted in one step, where the children with the
parent's weight times their coefficients also equal single-knot
insertions folded knot by knot.  The memoized Boehm kernel
holds integers only, and with the children's windows it equals its
uncached loop, on cache hits and on moved copies of an input."""
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import reference_boehm, reference_derivatives, reference_values
from lrbsplines.bspline import (
    _boehm,
    _children,
    _greville_collocation,
    _knot_windows,
    _stacked_values,
    evaluate,
    insert_knot,
    local_knot_vector,
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


@st.composite
def closed_rows(draw):
    """``(knots (m, p+2), points (m, q), close_at (m,))``: each row
    closed at its own coordinate, drawn as :func:`closures` draws one,
    with the row's last point on it."""
    p = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    q = draw(st.integers(1, 7))
    rows = [draw(windows(p)) for _ in range(m)]
    close_at = [draw(closures([row])) for row in rows]
    close_at = [row[-1] if c is None else c for row, c in zip(rows, close_at)]
    pts = [draw(points(row, q)) + [c] for row, c in zip(rows, close_at)]
    return np.array(rows), np.array(pts), np.array(close_at)


@props
@given(closed_rows())
def test_per_row_closures_equal_one_call_per_row(case):
    # The collocation tables' layout: each row closed at its own knot.
    knots, pts, close_at = case
    values = _stacked_values(knots, pts, close_at)
    for v, t, c, val in zip(knots, pts, close_at, values):
        assert same_bits(val, _stacked_values(v, t, float(c)))
        assert same_bits(val, reference_values(v, t, c))
    # and broadcast over a leading axis, one closure per stack
    stacked = _stacked_values(knots[:, None], pts[:, None], close_at[:, None])
    assert same_bits(stacked[:, 0], values)


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
    """``(key, direction, z)``: a function on eighths and an insertion
    point on sixteenths strictly inside its span in ``direction`` that
    keeps every multiplicity at most degree + 1."""
    p1, p2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    xv = tuple(dyadic(v) for v in draw(windows(p1)))
    yv = tuple(dyadic(v) for v in draw(windows(p2)))
    direction = draw(st.sampled_from((1, 2)))
    v = (xv, yv)[direction - 1]
    lo, hi = int(v[0] * 16) + 1, int(v[-1] * 16) - 1
    z = dyadic(draw(st.integers(lo, hi).filter(lambda n: v.count(n / 16) <= len(v) - 2)) / 16)
    return (xv, yv), direction, z


def with_vector(key, direction, vec):
    """``key`` with its knot vector in ``direction`` replaced by ``vec``."""
    return (vec, key[1]) if direction == 1 else (key[0], vec)


@props
@given(insertions())
def test_inserted_children_equal_validated_ones(case):
    key, direction, z = case
    augmented = tuple(sorted(key[direction - 1] + (z,)))
    children = insert_knot(key, direction, z)
    for (alpha, child), vec in zip(children, (augmented[:-1], augmented[1:])):
        expected = with_vector(key, direction, local_knot_vector(vec))
        assert type(child) is tuple and child == expected
        for got, want in zip(child, expected):
            assert type(got) is tuple and got == want
            assert all(type(c) is DyadicCoord for c in got)
        assert type(alpha) is Fraction and alpha > 0


@props
@given(insertions(), st.floats(0, 1), st.floats(0, 1))
def test_insertion_is_a_pointwise_identity_on_keys(case, s, t):
    # B = alpha1 * B1 + alpha2 * B2 for the unweighted functions, at a
    # point of the parent's support off every knot of the three
    key, direction, z = case
    (alpha1, key1), (alpha2, key2) = insert_knot(key, direction, z)
    point = tuple(float(v[0]) + u * (float(v[-1]) - float(v[0])) for v, u in zip(key, (s, t)))
    assume(all(c not in vec for c, vec in zip(point, key1)))
    assume(all(c not in vec for c, vec in zip(point, key2)))
    both = float(alpha1) * evaluate(key1, point) + float(alpha2) * evaluate(key2, point)
    assert abs(evaluate(key, point) - both) <= 1e-12


#: Coordinates whose numerators lie near 2**52, at any exponent: their
#: pairwise differences need up to 100 bits over a common denominator,
#: far outside the coordinate range.
wide_coords = st.builds(
    DyadicCoord, st.integers(2**52 - 2**16, 2**52 + 2**16), st.integers(0, 48)
)


@st.composite
def wide_insertions(draw):
    """``(key, direction, z)`` with knots and insertion point drawn from
    ``wide_coords``: z is one of p + 3 sorted draws, the knots the rest."""
    p = draw(st.integers(1, 3))
    values = sorted(draw(st.lists(wide_coords, min_size=p + 3, max_size=p + 3)))
    z = values.pop(draw(st.integers(1, p + 1)))
    vec = tuple(values)
    assume(vec[0] < z < vec[-1] and max(Counter(vec + (z,)).values()) <= p + 1)
    direction = draw(st.sampled_from((1, 2)))
    other = (dyadic(0), dyadic(1), dyadic(2))
    return with_vector((other, other), direction, vec), direction, z


@props
@given(wide_insertions())
def test_insertion_alphas_equal_the_fraction_formula(case):
    key, direction, z = case
    v = [c.fraction for c in key[direction - 1]]
    p = len(v) - 2
    f = z.fraction
    want1 = Fraction(1) if f >= v[p] else (f - v[0]) / (v[p] - v[0])
    want2 = Fraction(1) if f <= v[1] else (v[p + 1] - f) / (v[p + 1] - v[1])
    (alpha1, _), (alpha2, _) = insert_knot(key, direction, z)
    assert type(alpha1) is Fraction and alpha1 == want1
    assert type(alpha2) is Fraction and alpha2 == want2


def folded_insertion(key, weight, direction, knots) -> dict:
    """``insert_knot`` folded knot by knot over the function ``key`` of
    weight ``weight`` and its children: each knot splits every function
    whose span holds it strictly inside, a child's weight is its parent's
    times its alpha, and children on the same key merge by adding
    weights.  Returns the weights by key."""
    functions = {key: weight}
    for z in knots:
        refined = {}
        for f, w in functions.items():
            v = f[direction - 1]
            pieces = insert_knot(f, direction, z) if v[0] < z < v[-1] else [(1, f)]
            for alpha, c in pieces:
                refined[c] = refined.get(c, 0) + w * alpha
        functions = refined
    return functions


@st.composite
def multi_insertions(draw):
    """``(key, direction, knots)``: a function as in :func:`insertions`
    and one to four sorted knots on sixteenths strictly inside its span
    in ``direction``, repeats allowed, that keep every multiplicity at
    most degree + 1."""
    key, direction, _ = draw(insertions())
    v = key[direction - 1]
    lo, hi = int(v[0] * 16) + 1, int(v[-1] * 16) - 1
    knots = sorted(dyadic(n / 16) for n in draw(st.lists(st.integers(lo, hi), min_size=1, max_size=4)))
    assume(max(Counter(v + tuple(knots)).values()) <= len(v) - 1)
    return key, direction, knots


@props
@given(multi_insertions(), st.integers(1, 64), st.integers(1, 64))
def test_multi_knot_children_equal_validated_ones(case, num, den):
    key, direction, knots = case
    weight = Fraction(num, den)
    v = key[direction - 1]
    augmented = tuple(sorted(v + tuple(knots)))
    p = len(v) - 2
    children = _children(v, tuple(knots))
    assert len(children) == len(knots) + 1
    weights = {}
    for j, (cn, cd, vec) in enumerate(children):
        assert type(vec) is tuple and vec == local_knot_vector(augmented[j : j + p + 2])
        assert all(type(c) is DyadicCoord for c in vec)
        child_weight = weight * Fraction(cn, cd)
        assert type(child_weight) is Fraction and child_weight > 0
        weights[with_vector(key, direction, vec)] = child_weight
    assert weights == folded_insertion(key, weight, direction, knots)


@st.composite
def wide_multi_insertions(draw):
    """``(key, direction, knots)`` with knots and insertion points drawn
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
    return with_vector((other, other), direction, vec), direction, knots


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
    key, direction, knots = case
    weight = Fraction(3, 7)
    v = [c.fraction for c in key[direction - 1]]
    want = fraction_coefficients(v, [z.fraction for z in knots], len(v) - 2)
    children = _children(key[direction - 1], tuple(knots))
    assert [Fraction(num, den) for num, den, _ in children] == want
    weights = {with_vector(key, direction, vec): weight * c for (_, _, vec), c in zip(children, want)}
    assert weights == folded_insertion(key, weight, direction, knots)


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
