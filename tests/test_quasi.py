"""Tests for the quasi-interpolant: local tensor spaces, coefficient
functionals, polynomial reproduction, and the three-peaks benchmark.

Two independent oracles anchor the functional itself before any
space-level claims: the closed-form Greville coefficients of linear
functions, and exact recovery of random coefficient vectors on tensor
spaces (a member restricted to one function's support lies in that
function's local tensor space, so interpolating it there is exact).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrbsplines.quasi as quasi
from lrbsplines import (
    Mesh,
    SpaceError,
    dyadic,
    evaluate,
    evaluate_space,
    initial_space,
    lr_qi,
    local_tensor_space,
    make_initial_mesh,
    qi_max_error,
    tensor_qi_coefficient,
    is_locally_linearly_independent,
    tensor_space_for_level,
    three_peaks,
    three_peaks_marker,
    three_peaks_spaces,
    TensorBSpline,
)

from conftest import random_pipeline_space


def _greville(vec):
    """Greville abscissa of a degree-2 function: mean of the two
    interior knots of its length-4 local vector."""
    return (float(vec[1]) + float(vec[2])) / 2.0


# -- oracle: closed-form coefficients of low-degree monomials ----------------


def test_constant_has_unit_coefficients():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    coeffs = lr_qi(space, lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
    assert max(abs(c - 1.0) for c in coeffs.values()) <= 1e-12


def test_linear_functions_have_greville_coefficients():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    coeffs = lr_qi(space, lambda x, y: 2.0 * np.asarray(x) - 3.0 * np.asarray(y) + 1.0)
    for key, c in coeffs.items():
        expected = 2.0 * _greville(key[0]) - 3.0 * _greville(key[1]) + 1.0
        assert abs(c - expected) <= 1e-12


def test_bilinear_coefficients_are_greville_products():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    coeffs = lr_qi(space, lambda x, y: np.asarray(x) * np.asarray(y))
    for key, c in coeffs.items():
        assert abs(c - _greville(key[0]) * _greville(key[1])) <= 1e-12


# -- oracle: coefficient recovery on tensor spaces ---------------------------


def test_recovers_random_coefficients_on_tensor_space():
    # A member of a uniform tensor space restricts, on any function's
    # support, to a spline of the local tensor space, so interpolating it
    # there is exact and the functional must return that member's own
    # coefficient.
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    rng = random.Random(9317)
    target = {key: rng.uniform(-2.0, 2.0) for key in space.sorted_keys()}
    functions = list(space.functions.values())

    def member(grid_x, grid_y):
        grid_x = np.asarray(grid_x, dtype=float)
        grid_y = np.asarray(grid_y, dtype=float)
        out = np.zeros_like(grid_x)
        for idx in np.ndindex(grid_x.shape):
            point = (grid_x[idx], grid_y[idx])
            out[idx] = sum(
                target[b.key] * evaluate(b, point) for b in functions
            )
        return out

    recovered = lr_qi(space, member)
    assert recovered.keys() == target.keys()
    worst = max(abs(recovered[k] - target[k]) for k in target)
    assert worst <= 1e-11


# -- the local tensor space --------------------------------------------------


def test_local_tensor_space_structure():
    b = TensorBSpline(
        tuple(dyadic(v) for v in (0, 1, 2, 3)),
        tuple(dyadic(v) for v in (0, 2, 4, 8)),
    )
    lts = local_tensor_space(b)
    assert lts.origin == b.key
    assert lts.mesh.bidegree == b.degrees
    # Boundary knots raised to multiplicity 3 over distinct values
    # {0,1,2,3} x {0,2,4,8}: five functions per direction.
    assert len(lts.basis) == 25
    assert any(f.key == b.key for f in lts.basis)
    dom = lts.mesh.domain.float_bounds()
    assert dom == (0.0, 3.0, 0.0, 8.0)
    assert len(lts.mesh.elements()) == 9
    for f in lts.basis:
        x0, x1, y0, y1 = f.support.float_bounds()
        assert 0.0 <= x0 < x1 <= 3.0 and 0.0 <= y0 < y1 <= 8.0


def test_local_tensor_space_handles_interior_multiplicity():
    b = TensorBSpline(
        tuple(dyadic(v) for v in (0, 0.5, 0.5, 1)),
        tuple(dyadic(v) for v in (0, 0.25, 0.75, 1)),
    )
    lts = local_tensor_space(b)
    # x-direction: distinct {0, 1/2, 1} raised at the boundary gives a
    # 10-knot global vector... no: [0,0,0, 1/2, 1,1,1] keeps only the
    # *distinct* interior values, so the doubled interior knot of the
    # origin collapses to multiplicity one and the origin must still be
    # found among the products.  The implementation instead keeps every
    # interior knot as given.
    assert any(f.key == b.key for f in lts.basis)
    coeff = tensor_qi_coefficient(b, lambda x, y: np.ones_like(np.asarray(x)))
    assert abs(coeff - 1.0) <= 1e-12


def test_quadratic_coefficient_is_blossom_value():
    # The exact degree-2 coefficient of x^2 is the blossom of the two
    # interior knots: any polynomial-reproducing functional must hit it.
    space = initial_space(make_initial_mesh((-1, 1, -1, 1), (2, 2), 8))
    key = space.sorted_keys()[len(space.sorted_keys()) // 2]
    lts = local_tensor_space(space.functions[key])
    value = tensor_qi_coefficient(space.functions[key], lambda x, y: np.asarray(x) ** 2)
    ξ = key[0]
    # Exact coefficient of x^2 in a degree-2 basis: the blossom value
    # of the two interior knots, v1 * v2.
    assert abs(value - float(ξ[1]) * float(ξ[2])) <= 1e-12


def _smooth(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.sin(3.0 * x + 1.0) * np.exp(y) + np.cos(x * y)


def _dense_coefficient(b, f):
    """Coefficient of ``b`` from one dense solve over its full local
    tensor space: one column per basis function, evaluated pointwise at
    the tensor grid of the basis's Greville points."""
    basis = local_tensor_space(b).basis

    def greville(windows):
        return sorted({sum(float(v) for v in w[1:-1]) / (len(w) - 2) for w in windows})

    xs = greville(g.xknots for g in basis)
    ys = greville(g.yknots for g in basis)
    points = [(x, y) for x in xs for y in ys]
    matrix = np.array([[evaluate(g, point) for g in basis] for point in points])
    data = np.array([float(f(x, y)) for x, y in points])
    coeffs = np.linalg.solve(matrix, data)
    return coeffs[[g.key for g in basis].index(b.key)]


def test_coefficient_matches_the_dense_local_solve(running_example):
    functions = list(running_example["pipeline_2"].functions.values())
    functions.append(
        TensorBSpline(
            tuple(dyadic(v) for v in (0, 0.5, 0.5, 1)),
            tuple(dyadic(v) for v in (0, 0.25, 0.75, 1)),
        )
    )
    for b in functions:
        assert abs(tensor_qi_coefficient(b, _smooth) - _dense_coefficient(b, _smooth)) <= 1e-12


def test_lr_qi_builds_no_mesh(monkeypatch, running_example):
    space = running_example["pipeline_2"]
    built = []
    build = Mesh.__init__

    def counting(self, *args):
        built.append(self)
        build(self, *args)

    monkeypatch.setattr(Mesh, "__init__", counting)
    assert len(lr_qi(space, _smooth)) == space.n_functions
    assert built == []
    # The wrapper does see meshes: the reference local space builds one.
    local_tensor_space(space.functions[space.sorted_keys()[0]])
    assert len(built) == 1


# -- the batched space-wide solve --------------------------------------------


def _bits(coefficients):
    """Keys and stored doubles in order; ``hex`` tells -0.0 from 0.0."""
    return [(key, float(c).hex()) for key, c in coefficients.items()]


def _one_by_one(space, f):
    return {key: tensor_qi_coefficient(space.functions[key], f) for key in space.sorted_keys()}


@settings(deadline=None, max_examples=25)
@given(
    bidegree=st.sampled_from([(1, 1), (2, 2), (3, 2)]),
    seed=st.integers(0, 10**6),
    iterations=st.integers(0, 2),
    n_cells=st.sampled_from([2, 4]),
)
def test_lr_qi_equals_the_per_function_oracle(bidegree, seed, iterations, n_cells):
    # iterations == 0 leaves the tensor space.
    space = random_pipeline_space(seed, iterations=iterations, n_cells=n_cells, bidegree=bidegree)
    for f in (_smooth, three_peaks):
        assert _bits(lr_qi(space, f)) == _bits(_one_by_one(space, f))


def _counting(f):
    calls = []

    def counted(x, y):
        calls.append(np.shape(x))
        return f(x, y)

    return counted, calls


def test_lr_qi_samples_once_per_local_size(running_example):
    space = running_example["pipeline_2"]
    sizes = set()
    for b in space.functions.values():
        basis = local_tensor_space(b).basis
        sizes.add((len({g.xknots for g in basis}), len({g.yknots for g in basis})))
    counted, calls = _counting(_smooth)
    lr_qi(space, counted)
    # One call per local size: the space is small enough for one chunk each.
    assert len(calls) == len(sizes) < space.n_functions
    assert {shape[1:] for shape in calls} == sizes
    assert sum(shape[0] for shape in calls) == space.n_functions


def test_lr_qi_chunks_do_not_change_the_result(monkeypatch):
    space = tensor_space_for_level(2)
    expected = _bits(lr_qi(space, three_peaks))
    monkeypatch.setattr(quasi, "_CHUNK_ENTRIES", 1000)
    counted, calls = _counting(three_peaks)
    assert _bits(lr_qi(space, counted)) == expected
    assert len(calls) > 10
    assert sum(shape[0] for shape in calls) == space.n_functions


@pytest.mark.parametrize(
    "f",
    [lambda x, y: 1.0, lambda x, y: np.zeros(3), lambda x, y: np.asarray(x)[..., :1]],
    ids=["scalar", "flat", "truncated"],
)
def test_wrongly_shaped_data_is_a_space_error(f):
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    with pytest.raises(SpaceError, match="interpolation data has shape"):
        lr_qi(space, f)
    b = space.functions[space.sorted_keys()[0]]
    with pytest.raises(SpaceError, match="interpolation data has shape"):
        tensor_qi_coefficient(b, f)


# -- polynomial reproduction on locally refined spaces -----------------------


def _random_biquadratic(rng):
    c = [rng.uniform(-1.0, 1.0) for _ in range(9)]

    def g(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(x)
        k = 0
        for i in range(3):
            for j in range(3):
                out = out + c[k] * x**i * y**j
                k += 1
        return out

    return g


def test_reproduces_biquadratics_on_pipeline_space(running_example):
    space = running_example["pipeline_2"]
    rng = random.Random(552)
    for _ in range(5):
        g = _random_biquadratic(rng)
        coeffs = lr_qi(space, g)
        assert qi_max_error(space, coeffs, g, grid=150) <= 1e-10


def test_reproduces_biquadratics_on_randomized_spaces():
    rng = random.Random(2024)
    for seed in (11, 83, 407):
        space = random_pipeline_space(seed, iterations=2, n_cells=4)
        g = _random_biquadratic(rng)
        coeffs = lr_qi(space, g)
        assert qi_max_error(space, coeffs, g, grid=80) <= 1e-10


def test_quasi_interpolant_is_a_projection_idempotent():
    # Applying the quasi-interpolant to its own output changes nothing:
    # the interpolant lies in the space, whose members the operator
    # recovers exactly on a tensor mesh.
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    coeffs = lr_qi(space, three_peaks)

    def interpolant(grid_x, grid_y):
        # Pointwise, as lr_qi requires: tabulate the interpolant on the
        # distinct coordinates, then read each pair back from the table.
        grid_x = np.asarray(grid_x, dtype=float)
        grid_y = np.asarray(grid_y, dtype=float)
        xs, ys = np.unique(grid_x), np.unique(grid_y)
        table = evaluate_space(space, coeffs, xs, ys)
        return table[np.searchsorted(xs, grid_x), np.searchsorted(ys, grid_y)]

    again = lr_qi(space, interpolant)
    assert max(abs(again[k] - coeffs[k]) for k in coeffs) <= 1e-10


# -- the three-peaks benchmark -----------------------------------------------


def test_three_peaks_values():
    # Independent scalar arithmetic for the value at a peak.
    def reference(x, y):
        total = 0.0
        for px, py in ((0.3, 0.3), (-0.3, -0.3), (0.0, 0.0)):
            total += math.exp(-math.hypot(10 * (x - px), 10 * (y - py)))
        return 2.0 * total / 3.0

    for pt in [(0.3, 0.3), (0.0, 0.0), (-0.5, 0.7), (1.0, -1.0)]:
        assert abs(float(three_peaks(*pt)) - reference(*pt)) <= 1e-14
    # All peaks sit on the diagonal, so the sum is symmetric both under
    # swapping the arguments and under negating them.
    assert float(three_peaks(0.4, -0.2)) == pytest.approx(float(three_peaks(-0.2, 0.4)))
    assert float(three_peaks(0.4, -0.2)) == pytest.approx(float(three_peaks(-0.4, 0.2)))


def test_three_peaks_marker_uses_central_span():
    def bsp(xc, yc, h):
        xv = tuple(dyadic(xc + k * h) for k in (-1, 0, 1, 2))
        yv = tuple(dyadic(yc + k * h) for k in (-1, 0, 1, 2))
        return TensorBSpline(xv, yv)

    # Central span [0.25, 0.5)^2 contains the (0.3, 0.3) peak.
    assert three_peaks_marker(bsp(0.25, 0.25, 0.25))
    # Central span [0.5, 0.75)^2 contains no peak.
    assert not three_peaks_marker(bsp(0.5, 0.5, 0.25))
    # Half-open: a span *starting* exactly at the (0, 0) peak claims it...
    assert three_peaks_marker(bsp(0.0, 0.0, 0.25))
    # ...while the span ending there does not.
    assert not three_peaks_marker(bsp(-0.25, -0.25, 0.25))


def test_tensor_space_cardinalities_per_level():
    assert tensor_space_for_level(1).n_functions == 36
    assert tensor_space_for_level(2).n_functions == 100
    space = tensor_space_for_level(1)
    assert space.mesh.domain.float_bounds() == (-1.0, 1.0, -1.0, 1.0)


def test_three_peaks_spaces_counts_and_errors():
    spaces = three_peaks_spaces(2)
    assert [s.n_functions for s in spaces] == [36, 86]
    for space in spaces:
        assert is_locally_linearly_independent(space)
    # Reference benchmark values for the first two levels.  The grid is
    # chosen to include the peak points themselves (step 0.01): the
    # error concentrates at the gradient discontinuities, and a grid
    # that misses them understates the maximum.
    reference = [5.686e-01, 4.645e-01]
    for space, expected in zip(spaces, reference):
        coeffs = lr_qi(space, three_peaks)
        measured = qi_max_error(space, coeffs, three_peaks, grid=201)
        assert expected / 2.0 <= measured <= expected * 2.0
