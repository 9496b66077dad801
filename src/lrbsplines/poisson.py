"""Isogeometric Galerkin discretization of the Poisson problem.

Solves ``-Δu = f`` on the mesh domain (identity geometry) with Dirichlet
data, using the space's functions as the basis.  Assembly requires local
linear independence -- every element must carry exactly (p1+1)(p2+1)
functions -- which the non-nested refinement strategy guarantees, and
which also makes all weights one, so the unweighted basis is used
throughout.  Boundary coefficients come from univariate Greville-point
interpolation of the trace, edge by edge; element integrals use
(p+1)-point Gauss--Legendre per direction.

Because every element carries the same number of functions, the element
support table is a rectangular index array and assembly is an array
program.  Per direction, the Cox--de Boor kernel runs once per distinct
(knot window, element interval) pair; per chunk of elements the values
are gathered from those pairs, and batched matrix products form the
local stiffness matrices and loads.  Chunks are capped in size so memory
stays bounded on large spaces.  The arithmetic is that of a
per-element, per-function loop, in the same order, so the results equal
it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .bspline import _stacked_greville
from .mesh import Rect, make_initial_mesh
from .refine import _check_expansion, central_span, n2s_pipeline
from .space import (
    _chunks,
    _coefficient_array,
    _element_pairs,
    _evaluate_sums,
    _gauss_rule,
    _incidence,
    _outer,
    _sampled,
    LRSpace,
    SpaceError,
    initial_space,
)

__all__ = [
    "NumericsError",
    "GalerkinSystem",
    "ErrorReport",
    "assemble",
    "impose_dirichlet",
    "solve",
    "error_norms",
    "layer_solution",
    "layer_rhs",
    "layer_marker",
    "adaptive_solve",
    "LAYER_CENTER",
    "LAYER_RADIUS",
]


class NumericsError(RuntimeError):
    """A linear-algebra step failed its accuracy contract."""


@dataclass
class GalerkinSystem:
    """Stiffness matrix and load vector over the space's sorted keys.

    ``dirichlet`` maps boundary function keys to prescribed coefficients
    once :func:`impose_dirichlet` has run.
    """

    keys: tuple
    stiffness: sp.csr_matrix
    load: np.ndarray
    dirichlet: dict | None = None


def _cell_counts(lo, hi, resolution):
    """Sub-cells per interval for :func:`_composite_rule`: enough that
    none is wider than ``resolution`` (one when resolution is None)."""
    if resolution is None:
        return np.ones(np.shape(lo), dtype=int)
    return np.maximum(1, np.ceil((hi - lo) / resolution - 1e-12)).astype(int)


def _composite_rule(lo, hi, nodes, weights, resolution):
    """Gauss points and weights on [lo, hi], subdivided so each sub-cell
    is no wider than ``resolution`` (one cell when resolution is None).

    ``lo`` and ``hi`` may be equal-shaped arrays of intervals that need
    the same number of sub-cells; their shape then leads the result's.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    cells = np.unique(_cell_counts(lo, hi, resolution))
    if cells.size != 1:
        raise ValueError(f"intervals need different sub-cell counts {cells.tolist()}")
    edges = np.linspace(lo, hi, int(cells[0]) + 1, axis=-1)
    half = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[..., :-1] + edges[..., 1:])
    pts = (half[..., :, None] * nodes + mids[..., :, None]).reshape(lo.shape + (-1,))
    wts = (half[..., :, None] * weights).reshape(lo.shape + (-1,))
    return pts, wts


def _element_load(vals, weights, f, xs, ys):
    """Per element, ``vals @ (weights * f)`` on the tensor grid of the
    element's points ``xs`` x ``ys``, which ``f`` gets as read-only
    broadcast views."""
    grid_x, grid_y = np.broadcast_arrays(xs[:, :, None], ys[:, None, :])
    fq = np.broadcast_to(np.asarray(f(grid_x, grid_y), dtype=float), grid_x.shape)
    return (vals @ (weights * fq.reshape(weights.shape))[..., None])[..., 0]


def assemble(space: LRSpace, f, *, load_resolution: float | None = None) -> GalerkinSystem:
    """Galerkin stiffness and load for ``-Δu = f`` on the space.

    The stiffness uses (p+1)^2 Gauss-Legendre points per element, which
    integrates its piecewise-polynomial entries exactly.  The load
    integrand carries ``f`` and is generally not polynomial; when
    ``load_resolution`` is given, the load integral subdivides each
    element into sub-cells no wider than that resolution so sharp data
    is integrated honestly rather than sampled at a handful of points.

    Each element's functions are read from the element--function
    incidence, a range query over the elements' sorted corners that
    costs O(nnz log n) for nnz incidences.  Rejects spaces with
    overloaded elements (more supported functions than (p1+1)(p2+1)):
    assembly is defined for locally linearly independent spaces only.
    Then every element carries the same number of functions, the
    incidence is an ``(elements, (p1+1)(p2+1))`` index array, and
    assembly runs as array operations over chunks of elements.  Values
    and derivatives are computed once per direction and distinct (knot
    window, element interval) pair, points once per interval, and both
    are gathered per chunk (``space._pair_values``); batched products give
    the local matrices and loads, and the loads are scattered once, in
    element order.  ``f`` is called once per chunk with ``(elements, nx,
    ny)`` coordinate arrays, read-only broadcast views of the points.
    """
    p1, p2 = space.mesh.bidegree
    expected = (p1 + 1) * (p2 + 1)
    keys, counts, indices, bounds, _ = _incidence(space)
    overloaded = np.flatnonzero(counts != expected)
    if overloaded.size:
        e = overloaded[0]
        i0, i1, j0, j1 = space.mesh.element_boxes()[e].tolist()
        xs, ys = space.mesh.positions(1), space.mesh.positions(2)
        raise SpaceError(
            f"element {Rect(xs[i0], xs[i1], ys[j0], ys[j1])} carries {counts[e]} functions, "
            f"expected {expected}; assembly requires local linear "
            f"independence"
        )
    T = indices.reshape(len(counts), expected)
    n_elements, n_loc = T.shape
    x_at, y_at = _element_pairs(space, _gauss_rule, derivatives=True)

    local = np.empty((n_elements, n_loc, n_loc))
    contrib = np.empty((n_elements, n_loc))
    for c in _chunks(n_elements, n_loc * expected):
        xs, wx, vx, dx = x_at(c)
        ys, wy, vy, dy = y_at(c)
        wq = _outer(wx, wy)
        # one gradient component at a time, so fewer (elements, n_loc,
        # n_loc) temporaries are alive at once
        grad = _outer(dx, vy)
        k = (grad * wq[:, None, :]) @ grad.swapaxes(1, 2)
        grad = _outer(vx, dy)
        k += (grad * wq[:, None, :]) @ grad.swapaxes(1, 2)
        local[c] = k
        if load_resolution is None:
            contrib[c] = _element_load(_outer(vx, vy), wq, f, xs, ys)

    if load_resolution is not None:
        x0, x1, y0, y1 = bounds
        cells = np.stack(
            [_cell_counts(x0, x1, load_resolution), _cell_counts(y0, y1, load_resolution)], axis=1
        )
        rule = partial(_composite_rule, resolution=load_resolution)
        for cx, cy in np.unique(cells, axis=0):
            group = np.flatnonzero((cells[:, 0] == cx) & (cells[:, 1] == cy))
            x_at, y_at = _element_pairs(space, rule, rows=group)
            for c in _chunks(len(group), n_loc * cx * cy * expected):
                lx, lwx, lvx = x_at(c)
                ly, lwy, lvy = y_at(c)
                contrib[group[c]] = _element_load(_outer(lvx, lvy), _outer(lwx, lwy), f, lx, ly)

    del x_at, y_at  # their pair tables: free them before the sparse matrix is built
    n = len(keys)
    load = np.zeros(n)
    np.add.at(load, T, contrib)
    stiffness = sp.coo_matrix(
        (local.ravel(), (np.repeat(T, n_loc, axis=1).ravel(), np.tile(T, n_loc).ravel())),
        shape=(n, n),
    ).tocsr()
    stiffness = (stiffness + stiffness.T) * 0.5
    return GalerkinSystem(keys, stiffness, load)


def impose_dirichlet(system: GalerkinSystem, space: LRSpace, u_dirichlet) -> GalerkinSystem:
    """Interpolate the boundary data and pin the edge functions.

    Per edge, the functions with full knot multiplicity there form a
    univariate B-spline basis in the running coordinate; their
    coefficients interpolate ``u_dirichlet`` at its Greville points, the
    collocation of ``bspline._stacked_greville``.  A corner function's
    first Greville point is the corner itself, so the two edges sharing
    it assign the same value.  Returns a new system with the
    ``dirichlet`` map filled.
    """
    p1, p2 = space.mesh.bidegree
    dom = space.mesh.domain
    dirichlet: dict = {}
    # per edge: the direction of its fixed coordinate, that coordinate,
    # and whether it is the domain's lower side
    for direction, value, is_lower in (
        (1, dom.x_min, True),
        (1, dom.x_max, False),
        (2, dom.y_min, True),
        (2, dom.y_max, False),
    ):
        at = (p1 if direction == 1 else p2) if is_lower else 1
        cross_top = dom.y_max if direction == 1 else dom.x_max
        edge = sorted(
            (key for key in system.keys if key[direction - 1][at] == value),
            key=lambda k: k[2 - direction],
        )
        if not edge:
            raise SpaceError(f"no functions pinned to the edge at {value}")
        cross = np.array([k[2 - direction] for k in edge], dtype=float)
        nodes, matrix = _stacked_greville(cross, cross_top)
        fixed = value * np.ones_like(nodes)
        points = (fixed, nodes) if direction == 1 else (nodes, fixed)
        coeffs = np.linalg.solve(matrix, np.asarray(u_dirichlet(*points), dtype=float))
        for key, c in zip(edge, coeffs):
            dirichlet[key] = float(c)
    return GalerkinSystem(system.keys, system.stiffness, system.load, dirichlet)


def solve(system: GalerkinSystem) -> dict:
    """Solve the reduced symmetric system; returns key -> coefficient.

    Verifies the relative residual of the interior solve is at most
    1e-10 and raises :class:`NumericsError` otherwise.
    """
    if system.dirichlet is None:
        raise SpaceError("impose Dirichlet data before solving")
    keys = system.keys
    index = {k: i for i, k in enumerate(keys)}
    coeffs = np.zeros(len(keys))
    pinned = np.zeros(len(keys), dtype=bool)
    for key, value in system.dirichlet.items():
        coeffs[index[key]] = value
        pinned[index[key]] = True
    interior = np.flatnonzero(~pinned)
    boundary = np.flatnonzero(pinned)

    rows = system.stiffness[interior]
    k_ii = rows[:, interior]
    k_ib = rows[:, boundary]
    rhs = system.load[interior] - k_ib @ coeffs[boundary]
    u = spsolve(k_ii.tocsc(), rhs)

    reference = np.linalg.norm(rhs)
    residual = np.linalg.norm(k_ii @ u - rhs)
    # "not <=" rather than ">" so a NaN residual (singular matrix) also raises.
    if not residual <= 1e-10 * max(reference, 1.0):
        raise NumericsError(
            f"interior solve residual {residual:.3e} exceeds tolerance "
            f"relative to {reference:.3e}"
        )
    coeffs[interior] = u
    return {key: float(c) for key, c in zip(keys, coeffs)}


@dataclass
class ErrorReport:
    """Discretization-error summary on a sampling grid."""

    n_functions: int
    linf: float
    l2: float


def error_norms(space: LRSpace, coefficients: dict, u_exact, grid=(500, 500)) -> ErrorReport:
    """Max and cell-averaged L2 errors of ``sum c_k B_k`` on a uniform
    grid of ``grid = (nx, ny)`` points, or ``grid`` x ``grid`` for an
    int; each side has at least 1 point."""
    return _grid_errors(space, coefficients, _sampled(space.mesh.domain, u_exact, grid))


def _grid_errors(space: LRSpace, coefficients: dict, sample) -> ErrorReport:
    """:func:`error_norms` against ``sample``, which :func:`_sampled`
    gives for the space's domain."""
    xs, ys, exact = sample
    err = _evaluate_sums(space, [_coefficient_array(space, coefficients)], xs, ys)[0] - exact
    dom = space.mesh.domain
    area = (dom.x_max - dom.x_min) * (dom.y_max - dom.y_min)
    return ErrorReport(
        n_functions=space.n_functions,
        linf=float(np.max(np.abs(err))),
        l2=float(math.sqrt(np.mean(err**2) * area)),
    )


# -- the interior-layer benchmark -------------------------------------------

LAYER_CENTER = (1.25, -0.25)
LAYER_RADIUS = math.pi / 3
_LAYER_SLOPE = 100.0


def layer_solution(x, y):
    """Sharp circular interior layer: ``atan(100 (r - pi/3))``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x - LAYER_CENTER[0], y - LAYER_CENTER[1])
    return np.arctan(_LAYER_SLOPE * (r - LAYER_RADIUS))


def layer_rhs(x, y):
    """``-Δ`` of :func:`layer_solution` (the layer circle misses the
    domain corner region, so ``r`` stays well away from zero)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x - LAYER_CENTER[0], y - LAYER_CENTER[1])
    s = _LAYER_SLOPE
    t = s * (r - LAYER_RADIUS)
    du = s / (1.0 + t**2)
    d2u = -2.0 * s**2 * t / (1.0 + t**2) ** 2
    return -(d2u + du / r)


def layer_marker(key) -> bool:
    """Marker: the central knot span of the function with the key ``key``
    straddles the layer circle, having points both within the radius of
    the centre and at least the radius from it."""
    x0, x1, y0, y1 = central_span(key)
    if not (x0 < x1 and y0 < y1):
        return False
    cx, cy = LAYER_CENTER
    dx = max(x0 - cx, 0.0, cx - x1)
    dy = max(y0 - cy, 0.0, cy - y1)
    d_min = math.hypot(dx, dy)
    d_max = max(math.hypot(x - cx, y - cy) for x in (x0, x1) for y in (y0, y1))
    return d_min <= LAYER_RADIUS <= d_max


def adaptive_solve(
    levels: int,
    bidegree=(2, 2),
    *,
    grid=(500, 500),
    strategies=("tensor", "n2s2"),
    expansion: str = "odd-vertical",
) -> list[dict]:
    """Solve the layer problem per level and strategy; returns CSV-ready rows.

    Tensor level L uses 2^L x 2^L uniform cells on [0, 1]^2; the adaptive
    strategy's level L is the level-2 (4x4) space after iteration L - 2
    of one pipeline run with the layer marker.  The load is integrated at
    the finest level's resolution on every mesh so coarse solves are
    honest Galerkin solutions rather than aliasing artifacts.  Level 2
    of both strategies is one space, solved once, and the exact solution
    is sampled once (:func:`~lrbsplines.space._sampled`).  Tensor spaces
    are built one at a time, and every other space is dropped after its
    solve.  Rows carry strategy, level, n_functions, linf, l2.
    """
    _check_expansion(expansion)
    resolution = 2.0 ** -levels
    domain = Rect.from_bounds((0, 1, 0, 1))
    # Every space shares the domain, so the exact solution is sampled once.
    exact = _sampled(domain, layer_solution, grid)

    def run(space: LRSpace) -> ErrorReport:
        system = assemble(space, layer_rhs, load_resolution=resolution)
        system = impose_dirichlet(system, space, layer_solution)
        coefficients = solve(system)
        return _grid_errors(space, coefficients, exact)

    # Level 2 of both strategies is the same 4x4 tensor space: it is
    # built and solved once.
    shared, shared_report = initial_space(make_initial_mesh(domain, bidegree, 4)), None

    def tensor_spaces():
        yield shared
        for level in range(3, levels + 1):
            yield initial_space(make_initial_mesh(domain, bidegree, 2**level))

    def n2s2_spaces():
        spaces = n2s_pipeline(shared, layer_marker, max(levels - 2, 0), expansion=expansion)[0]
        yield shared
        while spaces:
            yield spaces.pop(0)

    rows = []
    for strategy, spaces in (("tensor", tensor_spaces), ("n2s2", n2s2_spaces)):
        if strategy not in strategies:
            continue
        for level, space in zip(range(2, levels + 1), spaces()):
            if space is not shared:
                report = run(space)
            elif shared_report is None:
                report = shared_report = run(space)
            else:
                report = shared_report
            rows.append(
                {
                    "strategy": strategy,
                    "level": level,
                    "n_functions": report.n_functions,
                    "linf": report.linf,
                    "l2": report.l2,
                }
            )
    return rows
