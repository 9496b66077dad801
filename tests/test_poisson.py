"""Tests for the Galerkin Poisson solver: assembly, boundary data,
solving, error reporting, and the interior-layer benchmark.

The load-side oracles are a biquadratic patch test (the discrete
solution must coincide with an exact member of the space up to solver
round-off) and a Richardson-extrapolated five-point Laplacian that
checks the closed-form right-hand side of the layer problem without
reusing its polar-coordinate derivation.
"""

import csv
import math
import random
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from conftest import (
    count_incidence_calls,
    element_support_table,
    reference_derivatives,
    reference_values,
)
from lrbsplines import (
    SpaceError,
    adaptive_solve,
    assemble,
    dyadic,
    error_norms,
    impose_dirichlet,
    initial_space,
    layer_marker,
    layer_rhs,
    layer_solution,
    main,
    make_initial_mesh,
    n2s_pipeline,
    solve,
)
from lrbsplines import poisson as poisson_module
from lrbsplines import space as space_module
from lrbsplines.poisson import _composite_rule
from lrbsplines.space import LRSpace


# -- oracle: the biquadratic patch test --------------------------------------


def _patch_u(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x**2 + y**2 - x * y + 2 * x + 3


def _patch_f(x, y):
    # -laplace(u) for the patch solution: the xy term drops out.
    return -4.0 * np.ones_like(np.asarray(x, dtype=float))


def test_patch_test_reproduces_biquadratic():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 8))
    system = assemble(space, _patch_f)
    system = impose_dirichlet(system, space, _patch_u)
    coefficients = solve(system)
    report = error_norms(space, coefficients, _patch_u, grid=(80, 80))
    assert report.linf <= 1e-9
    assert report.l2 <= 1e-9
    assert report.n_functions == space.n_functions


def test_patch_test_on_locally_refined_space(running_example):
    space = running_example["pipeline_2"]
    system = assemble(space, _patch_f)
    system = impose_dirichlet(system, space, _patch_u)
    coefficients = solve(system)
    report = error_norms(space, coefficients, _patch_u, grid=(60, 60))
    assert report.linf <= 1e-9


def _mixed_u(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x**3 * y**2 + x * y**2 + 2 * x + y + 1


def _mixed_f(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return -(6 * x * y**2 + 2 * x**3 + 2 * x)


def _linear_quadratic_u(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x * y**2 + 2 * x + y + 1


def _linear_quadratic_f(x, y):
    return -2.0 * np.asarray(x, dtype=float)


@pytest.mark.parametrize(
    "bidegree, u, f",
    [((3, 2), _mixed_u, _mixed_f), ((1, 2), _linear_quadratic_u, _linear_quadratic_f)],
)
def test_patch_test_with_unequal_degrees(bidegree, u, f):
    # The boundary interpolation of each edge runs in the cross direction,
    # so its Greville points must use the cross degree; with the pinned
    # direction's degree they coincide and the edge matrix is singular.
    space = initial_space(make_initial_mesh((0, 1, 0, 1), bidegree, (4, 8)))
    system = impose_dirichlet(assemble(space, f), space, u)
    coefficients = solve(system)
    report = error_norms(space, coefficients, u, grid=(60, 60))
    assert report.linf <= 1e-9


# -- oracle: finite-difference check of the layer right-hand side ------------


def test_layer_rhs_matches_fd_laplacian():
    def lap(x, y, h):
        return (
            layer_solution(x + h, y)
            + layer_solution(x - h, y)
            + layer_solution(x, y + h)
            + layer_solution(x, y - h)
            - 4.0 * layer_solution(x, y)
        ) / h**2

    rng = random.Random(7321)
    for _ in range(25):
        x = rng.uniform(0.05, 0.95)
        y = rng.uniform(0.05, 0.95)
        h = 1e-3
        richardson = (4.0 * lap(x, y, h / 2) - lap(x, y, h)) / 3.0
        expected = -float(richardson)
        measured = float(layer_rhs(x, y))
        assert abs(measured - expected) <= 1e-4 * (1.0 + abs(expected))


def test_layer_solution_shape_and_range():
    xs = np.linspace(0, 1, 11)
    vals = layer_solution(xs, xs)
    assert vals.shape == xs.shape
    assert np.all(np.abs(vals) < math.pi / 2)


# -- quadrature helpers -------------------------------------------------------


def test_composite_rule_subdivides_to_resolution():
    nodes, weights = np.polynomial.legendre.leggauss(3)
    xs, ws = _composite_rule(0.0, 1.0, nodes, weights, 0.25)
    assert len(xs) == 12 and len(ws) == 12
    assert abs(np.sum(ws) - 1.0) <= 1e-14
    assert np.all((0 < xs) & (xs < 1))
    # Degree-5 exactness survives subdivision.
    assert abs(np.sum(ws * xs**5) - 1.0 / 6.0) <= 1e-14


def test_composite_rule_handles_kinks():
    nodes, weights = np.polynomial.legendre.leggauss(3)
    f = lambda x: np.abs(x - 0.5)
    # One panel misses the kink at 1/2 badly ...
    xs, ws = _composite_rule(0.0, 1.0, nodes, weights, 1.0)
    single = abs(np.sum(ws * f(xs)) - 0.25)
    assert single > 1e-6
    # ... two panels split exactly there and are exact on each half.
    xs, ws = _composite_rule(0.0, 1.0, nodes, weights, 0.5)
    assert abs(np.sum(ws * f(xs)) - 0.25) <= 1e-14


def test_load_resolution_keeps_polynomial_loads():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    plain = assemble(space, _patch_f)
    refined = assemble(space, _patch_f, load_resolution=0.125)
    assert np.allclose(plain.load, refined.load, atol=1e-14)
    assert (plain.stiffness != refined.stiffness).nnz == 0


def test_load_resolution_changes_rough_loads():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    plain = assemble(space, layer_rhs)
    refined = assemble(space, layer_rhs, load_resolution=1.0 / 64.0)
    assert not np.allclose(plain.load, refined.load, atol=1e-6)


# -- oracle: per-element assembly ---------------------------------------------


def _reference_assemble(space, f, load_resolution=None):
    """Stiffness, load and keys element by element, with one scalar
    reference recursion per function and direction: the loop that batched
    assembly replaced, kept as its oracle."""
    p1, p2 = space.mesh.bidegree
    keys, table = element_support_table(space)
    gauss_x, weights_x = leggauss(p1 + 1)
    gauss_y, weights_y = leggauss(p2 + 1)
    n = len(keys)
    load = np.zeros(n)
    rows_acc, cols_acc, vals_acc = [], [], []
    for row, r in zip(table, space.mesh.elements()):
        x0, x1, y0, y1 = r.x_min, r.x_max, r.y_min, r.y_max
        hx, hy = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
        xs = x0 + hx * (gauss_x + 1.0)
        ys = y0 + hy * (gauss_y + 1.0)
        wq = np.outer(weights_x * hx, weights_y * hy).ravel()
        n_loc = len(row)
        vals = np.empty((n_loc, xs.size * ys.size))
        grad_x = np.empty_like(vals)
        grad_y = np.empty_like(vals)
        for a, idx in enumerate(row):
            xv, yv = keys[idx]
            vx = reference_values(xv, xs)
            vy = reference_values(yv, ys)
            dx = reference_derivatives(xv, xs)
            dy = reference_derivatives(yv, ys)
            vals[a] = np.outer(vx, vy).ravel()
            grad_x[a] = np.outer(dx, vy).ravel()
            grad_y[a] = np.outer(vx, dy).ravel()
        local = (grad_x * wq) @ grad_x.T + (grad_y * wq) @ grad_y.T
        if load_resolution is None:
            grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
            fq = np.asarray(f(grid_x, grid_y), dtype=float).ravel()
            load[row] += vals @ (wq * fq)
        else:
            lx, lwx = _composite_rule(x0, x1, gauss_x, weights_x, load_resolution)
            ly, lwy = _composite_rule(y0, y1, gauss_y, weights_y, load_resolution)
            lw = np.outer(lwx, lwy).ravel()
            grid_x, grid_y = np.meshgrid(lx, ly, indexing="ij")
            fq = np.asarray(f(grid_x, grid_y), dtype=float).ravel()
            lvals = np.empty((n_loc, lx.size * ly.size))
            for a, idx in enumerate(row):
                xv, yv = keys[idx]
                lvals[a] = np.outer(reference_values(xv, lx), reference_values(yv, ly)).ravel()
            load[row] += lvals @ (lw * fq)
        rows_acc.append(np.repeat(row, n_loc))
        cols_acc.append(np.tile(row, n_loc))
        vals_acc.append(local.ravel())
    stiffness = sp.coo_matrix(
        (np.concatenate(vals_acc), (np.concatenate(rows_acc), np.concatenate(cols_acc))),
        shape=(n, n),
    ).tocsr()
    return tuple(keys), (stiffness + stiffness.T) * 0.5, load


@lru_cache(maxsize=None)
def _oracle_space(kind, bidegree, level):
    """A tensor space of 2^level cells, or the adaptive layer space that
    ``adaptive_solve`` solves on at ``level``."""
    if kind == "tensor":
        return initial_space(make_initial_mesh((0, 1, 0, 1), bidegree, 2**level))
    space = initial_space(make_initial_mesh((0, 1, 0, 1), bidegree, 4))
    for lv in range(3, level + 1):
        [space], _ = n2s_pipeline(space, layer_marker, 1, start_index=lv - 2)
    return space


_ORACLE_SPACES = [
    ("tensor", bidegree, level)
    for bidegree in ((1, 1), (2, 2), (3, 2))
    for level in (1, 2, 3, 4)
] + [("n2s2", (2, 2), level) for level in (2, 3, 4, 5)]


def _assert_same_system(system, reference):
    keys, stiffness, load = reference
    assert system.keys == keys
    assert np.array_equal(system.stiffness.toarray(), stiffness.toarray())
    assert np.array_equal(system.load, load)


@pytest.mark.parametrize("resolution", [None, 2.0**-6, 1.0 / 3.0], ids=["none", "2^-6", "1/3"])
@pytest.mark.parametrize("case", _ORACLE_SPACES, ids=lambda c: f"{c[0]}-{c[1][0]}{c[1][1]}-L{c[2]}")
def test_batched_assembly_matches_per_element_oracle(case, resolution):
    space = _oracle_space(*case)
    system = assemble(space, layer_rhs, load_resolution=resolution)
    _assert_same_system(system, _reference_assemble(space, layer_rhs, resolution))


@pytest.mark.parametrize("resolution", [None, 1.0 / 3.0])
def test_assembly_across_chunks_matches_oracle(monkeypatch, resolution):
    # A cap of a few elements per chunk splits the stiffness pass and
    # every sub-cell group of the load into several chunks.
    space = _oracle_space("n2s2", (2, 2), 4)
    monkeypatch.setattr(space_module, "_CHUNK_ENTRIES", 1000)
    assert len(space_module._chunks(len(space.mesh.elements()), 81)) > 10
    system = assemble(space, layer_rhs, load_resolution=resolution)
    _assert_same_system(system, _reference_assemble(space, layer_rhs, resolution))


def test_assembly_reads_the_element_bounds_once(monkeypatch):
    # The incidence's bounds also place the quadrature points.  Each
    # assembly gets a fresh space, which holds no incidence yet.
    space = _oracle_space("n2s2", (2, 2), 4)
    calls = count_incidence_calls(monkeypatch)
    for resolution in (None, 1.0 / 3.0):
        calls.clear()
        assemble(LRSpace(space.mesh, space.functions), layer_rhs, load_resolution=resolution)
        assert len(calls) == 1


def test_load_accepts_scalar_data():
    space = _oracle_space("tensor", (2, 2), 2)
    constant = assemble(space, lambda x, y: -4.0)
    assert np.array_equal(constant.load, assemble(space, _patch_f).load)


# ``poisson --levels 4 --grid 80`` as written before assembly was batched.
_POISSON_L4_G80 = [
    ("tensor", "2", "36", 1.7263523806783572, 0.41839540608249565),
    ("tensor", "3", "100", 1.8475733905626428, 0.3645415773082179),
    ("tensor", "4", "324", 1.7617175168411507, 0.3302536367674812),
    ("n2s2", "2", "36", 1.7263523806783572, 0.41839540608249565),
    ("n2s2", "3", "93", 1.847698406578863, 0.36456178483528157),
    ("n2s2", "4", "222", 1.7618677767203916, 0.33025365884510205),
]


def test_poisson_table_is_pinned(tmp_path):
    out = tmp_path / "poisson.csv"
    assert main(["poisson", "--levels", "4", "--grid", "80", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(_POISSON_L4_G80)
    for row, (strategy, level, n, linf, l2) in zip(rows, _POISSON_L4_G80):
        assert (row["strategy"], row["level"], row["n_functions"]) == (strategy, level, n)
        assert math.isclose(float(row["linf"]), linf, rel_tol=1e-12, abs_tol=0.0)
        assert math.isclose(float(row["l2"]), l2, rel_tol=1e-12, abs_tol=0.0)


# -- boundary data ------------------------------------------------------------


def test_dirichlet_pins_edge_functions():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    system = impose_dirichlet(assemble(space, _patch_f), space, _patch_u)
    # 6 functions per edge, 4 corners shared pairwise.
    assert len(system.dirichlet) == 4 * 6 - 4
    corner_values = {
        (0.0, 0.0): _patch_u(0.0, 0.0),
        (1.0, 0.0): _patch_u(1.0, 0.0),
        (0.0, 1.0): _patch_u(0.0, 1.0),
        (1.0, 1.0): _patch_u(1.0, 1.0),
    }
    for key, coefficient in system.dirichlet.items():
        xv, yv = key
        x0, x1 = float(xv[0]), float(xv[-1])
        y0, y1 = float(yv[0]), float(yv[-1])
        for (cx, cy), value in corner_values.items():
            # The corner function's B-spline is interpolatory there, so
            # its coefficient must equal the boundary value exactly.
            if (x0 == cx or x1 == cx) and (y0 == cy or y1 == cy):
                if xv.count(xv[0]) == 3 or xv.count(xv[-1]) == 3:
                    if yv.count(yv[0]) == 3 or yv.count(yv[-1]) == 3:
                        assert abs(coefficient - float(value)) <= 1e-12


def test_solve_requires_boundary_data():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2))
    system = assemble(space, _patch_f)
    with pytest.raises(SpaceError):
        solve(system)


def test_solve_covers_every_function():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    system = impose_dirichlet(assemble(space, _patch_f), space, _patch_u)
    coefficients = solve(system)
    assert set(coefficients) == set(space.functions)
    assert all(isinstance(v, float) for v in coefficients.values())


def test_assembly_refuses_dependent_space(running_example):
    # The twice-refined structured space is linearly dependent (one of
    # its elements carries more than nine functions), which would make
    # the stiffness matrix exactly singular; assembly refuses up front.
    space = running_example["structured_2"]
    with pytest.raises(SpaceError, match="local linear independence") as info:
        assemble(space, _patch_f)
    assert str(info.value) == (
        "element [1/2^2, 5/2^4] x [3/2^3, 7/2^4] carries 10 functions, expected 9; "
        "assembly requires local linear independence"
    )


# -- error reporting -----------------------------------------------------------


def test_error_norms_of_exact_member():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    coefficients = {key: 1.0 for key in space.sorted_keys()}
    report = error_norms(
        space, coefficients, lambda x, y: np.ones_like(np.asarray(x)), grid=40
    )
    assert report.linf <= 1e-12
    assert report.l2 <= 1e-12


@pytest.mark.parametrize("grid", [0, (0, 5), (5, -1)])
def test_error_norms_needs_a_grid_point_per_side(grid):
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2))
    coefficients = dict.fromkeys(space.functions, 1.0)
    with pytest.raises(SpaceError, match="grid"):
        error_norms(space, coefficients, layer_solution, grid=grid)


# -- the layer benchmark -------------------------------------------------------


def test_layer_marker_geometry():
    def bsp(x0, y0, h):
        xv = tuple(dyadic(x0 + k * h) for k in (-1, 0, 1, 2))
        yv = tuple(dyadic(y0 + k * h) for k in (-1, 0, 1, 2))
        return (xv, yv)

    # The layer circle (center (1.25, -0.25), radius pi/3) crosses the
    # cell [0.25, 0.5) x [0.25, 0.5): its near corner is inside, its far
    # corner outside.
    assert layer_marker(bsp(0.25, 0.25, 0.25))
    # A cell deep inside the circle is not marked ...
    assert not layer_marker(bsp(0.875, 0.0, 0.125))
    # ... nor one entirely outside it.
    assert not layer_marker(bsp(0.0, 0.75, 0.25))


def test_layer_marker_ignores_degenerate_spans():
    xv = tuple(dyadic(v) for v in (0, 0.5, 0.5, 1))
    yv = tuple(dyadic(v) for v in (0.25, 0.5, 0.75, 1))
    assert not layer_marker((xv, yv))


def test_adaptive_solve_ladder():
    rows = adaptive_solve(4, grid=(200, 200))
    tensor = {r["level"]: r for r in rows if r["strategy"] == "tensor"}
    adaptive = {r["level"]: r for r in rows if r["strategy"] == "n2s2"}
    assert sorted(tensor) == [2, 3, 4] and sorted(adaptive) == [2, 3, 4]
    # Uniform refinement must converge monotonically in L2 once the load
    # is integrated at the fine resolution on every level.
    assert tensor[2]["l2"] > tensor[3]["l2"] > tensor[4]["l2"]
    # The adaptive run tracks the tensor accuracy with no more functions.
    assert adaptive[4]["n_functions"] <= tensor[4]["n_functions"]
    assert adaptive[4]["l2"] <= tensor[4]["l2"] * 1.25
    for row in rows:
        assert row["linf"] >= row["l2"] > 0.0


def test_adaptive_solve_single_strategy():
    rows = adaptive_solve(3, grid=(100, 100), strategies=("tensor",))
    assert [r["strategy"] for r in rows] == ["tensor", "tensor"]
    assert [r["level"] for r in rows] == [2, 3]


def test_adaptive_solve_reads_one_incidence_per_space(monkeypatch):
    # Assembly and the error grid share the incidence of their space, and
    # level 2 of both strategies is one space, solved once.
    calls = count_incidence_calls(monkeypatch)
    rows = adaptive_solve(3, grid=(20, 20))
    assert len(rows) == 4 and len(calls) == len(rows) - 1
    for strategy in ("tensor", "n2s2"):
        calls.clear()
        rows = adaptive_solve(3, grid=(20, 20), strategies=(strategy,))
        assert len(rows) == 2 and len(calls) == len(rows)


def test_adaptive_solve_builds_the_shared_level_once(monkeypatch):
    # Level 2 of both strategies is the 4x4 tensor space: built once
    # through the module's own initial_space, and its row written twice.
    built = []
    real = poisson_module.initial_space

    def counting(mesh):
        built.append(len(mesh.element_boxes()))
        return real(mesh)

    monkeypatch.setattr(poisson_module, "initial_space", counting)
    rows = adaptive_solve(4, grid=(20, 20))
    assert built == [16, 64, 256]
    level2 = [{k: v for k, v in row.items() if k != "strategy"} for row in rows if row["level"] == 2]
    assert len(level2) == 2 and level2[0] == level2[1]


def test_error_norms_refuse_a_grid_above_the_cap():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2))
    coefficients = dict.fromkeys(space.functions, 0.0)
    with pytest.raises(SpaceError, match="exceeds the cap"):
        error_norms(space, coefficients, layer_solution, grid=(space_module.MAX_GRID_POINTS + 1, 1))


def test_adaptive_solve_builds_the_distinct_vectors_once_per_space(monkeypatch):
    # The incidence builds each direction's distinct knot vectors, and
    # assembly and the error grid read them from it.
    calls = []
    real = space_module._distinct

    def counting(keys, direction):
        calls.append(direction)
        return real(keys, direction)

    monkeypatch.setattr(space_module, "_distinct", counting)
    rows = adaptive_solve(3, grid=(20, 20))
    assert len(rows) == 4 and calls == [1, 2] * (len(rows) - 1)
