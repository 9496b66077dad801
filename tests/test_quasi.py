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

from lrbsplines import (
    Mesh,
    SpaceError,
    collocation_rank,
    diagonal_marker,
    dyadic,
    evaluate_space,
    initial_space,
    lr_qi,
    make_initial_mesh,
    qi_max_error,
    structured_refine,
    is_locally_linearly_independent,
    tensor_space_for_level,
    three_peaks,
    three_peaks_marker,
    three_peaks_spaces,
)
from lrbsplines import quasi
from lrbsplines import space as space_module

from conftest import (
    evaluate_spline,
    key_of,
    local_collocation,
    local_tensor_space,
    random_pipeline_space,
    reference_values,
    tensor_qi_coefficient,
)


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

    def member(grid_x, grid_y):
        grid_x = np.asarray(grid_x, dtype=float)
        grid_y = np.asarray(grid_y, dtype=float)
        out = np.zeros_like(grid_x)
        for key in space.functions:
            xv, yv = key
            vx = reference_values(xv, grid_x, xv[-1])
            vy = reference_values(yv, grid_y, yv[-1])
            out += target[key] * (vx * vy)
        return out

    recovered = lr_qi(space, member)
    assert recovered.keys() == target.keys()
    worst = max(abs(recovered[k] - target[k]) for k in target)
    assert worst <= 1e-11


# -- the local tensor space --------------------------------------------------


def test_local_tensor_space_structure():
    key = key_of((0, 1, 2, 3), (0, 2, 4, 8))
    lts = local_tensor_space(key)
    assert lts.origin == key
    assert lts.mesh.bidegree == (len(key[0]) - 2, len(key[1]) - 2) == (2, 2)
    # Boundary knots raised to multiplicity 3 over distinct values
    # {0,1,2,3} x {0,2,4,8}: five functions per direction.
    assert len(lts.basis) == 25
    assert key in lts.basis
    dom = lts.mesh.domain
    assert (dom.x_min, dom.x_max, dom.y_min, dom.y_max) == (0.0, 3.0, 0.0, 8.0)
    assert len(lts.mesh.elements()) == 9
    for xv, yv in lts.basis:
        x0, x1, y0, y1 = xv[0], xv[-1], yv[0], yv[-1]
        assert 0.0 <= x0 < x1 <= 3.0 and 0.0 <= y0 < y1 <= 8.0


def test_local_tensor_space_handles_interior_multiplicity():
    key = key_of((0, 0.5, 0.5, 1), (0, 0.25, 0.75, 1))
    lts = local_tensor_space(key)
    # x-direction: distinct {0, 1/2, 1} raised at the boundary gives a
    # 10-knot global vector... no: [0,0,0, 1/2, 1,1,1] keeps only the
    # *distinct* interior values, so the doubled interior knot of the
    # origin collapses to multiplicity one and the origin must still be
    # found among the products.  The implementation instead keeps every
    # interior knot as given.
    assert key in lts.basis
    coeff = tensor_qi_coefficient(key, lambda x, y: np.ones_like(np.asarray(x)))
    assert abs(coeff - 1.0) <= 1e-12


def test_quadratic_coefficient_is_blossom_value():
    # The exact degree-2 coefficient of x^2 is the blossom of the two
    # interior knots: any polynomial-reproducing functional must hit it.
    space = initial_space(make_initial_mesh((-1, 1, -1, 1), (2, 2), 8))
    key = space.sorted_keys()[len(space.sorted_keys()) // 2]
    lts = local_tensor_space(key)
    value = tensor_qi_coefficient(key, lambda x, y: np.asarray(x) ** 2)
    ξ = key[0]
    # Exact coefficient of x^2 in a degree-2 basis: the blossom value
    # of the two interior knots, v1 * v2.
    assert abs(value - float(ξ[1]) * float(ξ[2])) <= 1e-12


def _smooth(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.sin(3.0 * x + 1.0) * np.exp(y) + np.cos(x * y)


def _dense_coefficient(key, f):
    """Coefficient of the function ``key`` from one dense solve over its full local
    tensor space: one column per basis function, its values at the tensor
    grid of the basis's Greville points from the scalar reference
    recursion, closed at the function's own last knots."""
    basis = local_tensor_space(key).basis

    def greville(windows):
        return sorted({sum(float(v) for v in w[1:-1]) / (len(w) - 2) for w in windows})

    xs = greville(xv for xv, _ in basis)
    ys = greville(yv for _, yv in basis)
    points = np.array([(x, y) for x in xs for y in ys])
    matrix = np.stack(
        [
            reference_values(xv, points[:, 0], xv[-1]) * reference_values(yv, points[:, 1], yv[-1])
            for xv, yv in basis
        ],
        axis=1,
    )
    data = np.array([float(f(x, y)) for x, y in points])
    coeffs = np.linalg.solve(matrix, data)
    return coeffs[basis.index(key)]


def test_coefficient_matches_the_dense_local_solve(running_example):
    keys = list(running_example["pipeline_2"].functions)
    keys.append(key_of((0, 0.5, 0.5, 1), (0, 0.25, 0.75, 1)))
    for key in keys:
        assert abs(tensor_qi_coefficient(key, _smooth) - _dense_coefficient(key, _smooth)) <= 1e-12


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
    local_tensor_space(space.sorted_keys()[0])
    assert len(built) == 1


# -- the batched space-wide solve --------------------------------------------


def _bits(coefficients):
    """Keys and stored doubles in order; ``hex`` tells -0.0 from 0.0."""
    return [(key, float(c).hex()) for key, c in coefficients.items()]


def _one_by_one(space, f):
    return {
        key: tensor_qi_coefficient(key, f)
        for key in space.sorted_keys()
    }


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


def _int64(a):
    """The stored doubles of ``a`` as integers: equal bits, signed zeros
    told apart."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@settings(deadline=None, max_examples=25)
@given(
    bidegree=st.sampled_from([(1, 1), (2, 2), (3, 2)]),
    seed=st.integers(0, 10**6),
    iterations=st.integers(0, 2),
    n_cells=st.sampled_from([2, 4]),
)
def test_collocation_tables_equal_the_greville_oracle(bidegree, seed, iterations, n_cells):
    # Each distinct vector's rows equal the Greville collocation of its
    # raised windows, computed alone by the oracle.
    space = random_pipeline_space(seed, iterations=iterations, n_cells=n_cells, bidegree=bidegree)
    keys = space.sorted_keys()
    vectors = space_module._distinct(keys, 1)[0] + space_module._distinct(keys, 2)[0]
    group, row, stacks = quasi._collocations(vectors)
    for vec, g, r in zip(vectors, group, row):
        nodes, matrices, origins = stacks[g]
        want_nodes, want_matrix, want_origin = local_collocation(vec)
        assert np.array_equal(_int64(nodes[r]), _int64(want_nodes))
        assert np.array_equal(_int64(matrices[r]), _int64(want_matrix))
        assert origins[r] == want_origin


def test_level_one_of_both_peaks_families_is_one_space():
    # qi-peaks computes level 1 once and writes it in both columns.
    for bidegree in ((1, 1), (2, 2), (3, 2)):
        assert tensor_space_for_level(1, bidegree) == three_peaks_spaces(1, bidegree)[0]


def test_qi_max_error_refuses_a_grid_above_the_cap():
    space = tensor_space_for_level(1)
    coefficients = lr_qi(space, three_peaks)
    side = math.isqrt(space_module.MAX_GRID_POINTS) + 1
    with pytest.raises(SpaceError, match=f"exceeds the cap of {space_module.MAX_GRID_POINTS} points"):
        qi_max_error(space, coefficients, three_peaks, grid=side)


def _counting(f):
    calls = []

    def counted(x, y):
        calls.append(np.shape(x))
        return f(x, y)

    return counted, calls


def test_lr_qi_samples_once_per_local_size(running_example):
    space = running_example["pipeline_2"]
    sizes = set()
    for key in space.functions:
        basis = local_tensor_space(key).basis
        sizes.add((len({xv for xv, _ in basis}), len({yv for _, yv in basis})))
    counted, calls = _counting(_smooth)
    lr_qi(space, counted)
    # One call per local size: the space is small enough for one chunk each.
    assert len(calls) == len(sizes) < space.n_functions
    assert {shape[1:] for shape in calls} == sizes
    assert sum(shape[0] for shape in calls) == space.n_functions


def test_lr_qi_chunks_do_not_change_the_result(monkeypatch):
    space = tensor_space_for_level(2)
    expected = _bits(lr_qi(space, three_peaks))
    monkeypatch.setattr(space_module, "_CHUNK_ENTRIES", 1000)
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
    with pytest.raises(SpaceError, match="interpolation data has shape"):
        tensor_qi_coefficient(space.sorted_keys()[0], f)


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


@pytest.mark.parametrize("grid", [0, -3])
def test_qi_max_error_needs_a_grid_point(grid):
    space = tensor_space_for_level(1)
    coefficients = lr_qi(space, three_peaks)
    with pytest.raises(SpaceError, match="grid"):
        qi_max_error(space, coefficients, three_peaks, grid=grid)


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


def _qi_error(space, seed) -> float:
    """``max |lr_qi(s) - c| / max |c|`` for the spline ``s`` of the space
    with coefficients ``c`` drawn from N(0, 1)."""
    rng = np.random.default_rng(seed)
    keys = space.sorted_keys()
    c = dict(zip(keys, rng.standard_normal(len(keys)).tolist()))
    got = lr_qi(space, lambda x, y: evaluate_spline(space, c, x, y))
    want = np.array([c[k] for k in keys])
    return float(np.max(np.abs(np.array([got[k] for k in keys]) - want)) / np.max(np.abs(want)))


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    bidegree=st.sampled_from([(1, 1), (2, 2), (3, 2), (2, 3)]),
    iterations=st.integers(1, 3),
)
def test_lr_qi_is_a_projector_on_locally_independent_spaces(seed, bidegree, iterations):
    # The paper's claim: on a locally linearly independent space each
    # local problem recovers the coefficient of every spline of the
    # space, so the quasi-interpolant reproduces the whole space.
    space = random_pipeline_space(seed, iterations=iterations, bidegree=bidegree)
    assert _qi_error(space, seed) <= 1e-12


def test_lr_qi_is_no_projector_on_a_space_that_is_only_globally_independent():
    # The structured 4-iteration mesh-demo space: 180 linearly
    # independent functions, not locally independent.  The local
    # problems then miss the coefficients by about half their size
    # (0.48 relative, 1.14 absolute at seed 0), so it is local, not
    # global, independence that makes the scheme a projector.
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 1))
    for _ in range(4):
        space = structured_refine(space, [k for k in space.sorted_keys() if diagonal_marker(k)])
    assert space.n_functions == 180
    assert not is_locally_linearly_independent(space)
    assert collocation_rank(space) == 180
    assert _qi_error(space, 0) > 0.4


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
        return (xv, yv)

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
    dom = space.mesh.domain
    assert (dom.x_min, dom.x_max, dom.y_min, dom.y_max) == (-1.0, 1.0, -1.0, 1.0)


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
