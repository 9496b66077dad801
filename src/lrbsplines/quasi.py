"""Polynomial-reproducing quasi-interpolation on LR B-spline spaces.

Each coefficient is computed locally: a function's knot vectors span a
small tensor space once the boundary knots are raised to full
multiplicity, and interpolating the target at the Greville points of
that local space determines the coefficient of the original function.
The two raised knot vectors describe that space completely -- their
consecutive windows are its univariate bases -- so the coefficient is
computed from them alone, with no mesh or basis objects.
The collocation matrix is a tensor product of two univariate ones, each
nonsingular because Greville points interlace their knot vector, so the
local problem is always solvable.  Every local problem reproduces
polynomials up to the bidegree, hence so does the assembled operator;
combined with the unweighted basis this makes the scheme exact on
polynomials on spaces with unit weights.

:func:`lr_qi` solves all the local problems of a space as stacked
arrays.  The target ``f`` must be pointwise and vectorised: called with
two arrays of one shape, any shape, it returns an array of that shape
holding ``f`` at each pair of entries.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .bspline import _stacked_values
from .dyadic import DyadicCoord
from .mesh import make_initial_mesh
from .refine import n2s_pipeline, point_marker
from .space import (
    _chunks,
    _distinct,
    _rows,
    _sampled,
    LRSpace,
    SpaceError,
    evaluate_space,
    initial_space,
)

__all__ = [
    "lr_qi",
    "qi_max_error",
    "three_peaks",
    "three_peaks_marker",
    "three_peaks_spaces",
    "tensor_space_for_level",
]


def _raised_vector(vec, degree: int) -> list[DyadicCoord]:
    """Global knot vector of ``vec``'s knots with the boundary
    multiplicities raised to ``degree + 1``; interior knots keep theirs."""
    out: list[DyadicCoord] = [vec[0]] * (degree + 1)
    for v in vec[1:]:
        if v != vec[0] and v != vec[-1]:
            out.append(v)
    out.extend([vec[-1]] * (degree + 1))
    return out


#: The tables of :func:`_collocations` by local knot vector, least
#: recently used first, and the most it keeps.  An entry of degree 2
#: takes about 0.9 KiB, so the bound keeps the cache under 4 MiB;
#: ``qi-peaks --levels 7`` meets under 300 distinct vectors per level.
_tables: OrderedDict = OrderedDict()
_TABLES_MAX = 1 << 12


def _collocations(vectors) -> list:
    """Per local knot vector of ``vectors``, its Greville nodes,
    collocation matrix and origin index: those of the windows of the
    vector with its boundary knots raised to full multiplicity
    (:func:`_raised_vector`), whose origin is the vector itself.

    The tables are kept across calls, so successive calls of
    :func:`lr_qi` on a space, and on the spaces of successive levels,
    share them; the cache holds the :data:`_TABLES_MAX` most recently
    used, and its nodes and matrices are read-only.  The vectors not yet
    kept are built together, per group of one degree and one raised
    length: the group's raised vectors are float rows, their windows and
    Greville nodes are sliced and summed from them, and one stacked
    Cox--de Boor call per chunk (``space._chunks``) evaluates every window
    at its vector's nodes, each vector closed at its own last knot.  The
    origin index is ``degree + 1`` less the multiplicity of the first
    knot, since the raised vector starts with ``degree + 1`` copies of it.
    """
    groups: dict = {}
    for vec in vectors:
        if vec not in _tables:
            degree = len(vec) - 2
            raised = _raised_vector(vec, degree)
            groups.setdefault((degree, len(raised)), {})[vec] = raised
    for (p, m), members in groups.items():
        n = m - p - 1
        raised = _rows(list(members.values()), m)
        windows = raised[:, np.arange(n)[:, None] + np.arange(p + 2)]
        nodes = windows[..., 1].copy()
        for k in range(2, p + 1):
            nodes += windows[..., k]
        nodes /= p
        values = np.empty((len(members), n, n))
        for c in _chunks(len(members), n * n * (p + 2)):
            values[c] = _stacked_values(windows[c], nodes[c, None, :], close_at=raised[c, -1:])
        matrices = values.swapaxes(-1, -2)
        for vec, x, mat in zip(members, nodes, matrices):
            table = (x.copy(), mat.copy(), p + 1 - vec.count(vec[0]))
            table[0].flags.writeable = table[1].flags.writeable = False
            _tables[vec] = table
    for vec in vectors:
        _tables.move_to_end(vec)
    out = [_tables[vec] for vec in vectors]
    while len(_tables) > _TABLES_MAX:
        _tables.popitem(last=False)
    return out


def _stacked_tables(tables, which):
    """One direction's collocation tables, stacked per local size.

    ``tables`` holds the :func:`_collocations` of that direction's
    distinct vectors and ``which`` the vector of each key.  Returns
    ``(size, row, stacks)``: per key the size ``n`` of its local basis
    and its row in ``stacks[n]``, the stacked nodes ``(vectors, n)``,
    matrices ``(vectors, n, n)`` and origin indices of the distinct
    vectors of that size."""
    sizes = np.fromiter((len(nodes) for nodes, _, _ in tables), np.intp, len(tables))
    rows = np.empty_like(sizes)
    stacks = {}
    for n in set(sizes.tolist()):
        ids = np.flatnonzero(sizes == n)
        rows[ids] = np.arange(len(ids))
        nodes, matrices, origins = zip(*(tables[i] for i in ids))
        stacks[n] = (np.stack(nodes), np.stack(matrices), np.array(origins))
    return sizes[which], rows[which], stacks


def _solve_local(f, xs, mx, ys, my):
    """Coefficients interpolating ``f`` on the tensor grids of the nodes
    ``xs`` x ``ys``, whose univariate collocation matrices are ``mx`` and
    ``my``; all are stacked over any leading axes.  The two univariate
    solves run back to back, x first.  ``f`` gets the node grids as
    broadcast views, which copy no node."""
    grid_x, grid_y = np.broadcast_arrays(xs[..., :, None], ys[..., None, :])
    values = np.asarray(f(grid_x, grid_y), dtype=float)
    if values.shape != grid_x.shape:
        raise SpaceError(
            f"interpolation data has shape {values.shape}, expected {grid_x.shape}"
        )
    try:
        coeffs = np.linalg.solve(mx, values)
        return np.linalg.solve(my, coeffs.swapaxes(-1, -2)).swapaxes(-1, -2)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - Greville
        raise SpaceError(f"singular local collocation matrix: {exc}") from exc


def lr_qi(space: LRSpace, f) -> dict:
    """Quasi-interpolation coefficients for every function of the space.

    ``f`` must be pointwise and vectorised: called with two arrays of one
    shape (any shape), it returns an array of that shape holding ``f`` at
    each pair of entries.  The result pairs with the *unweighted* basis:
    evaluate with ``evaluate_space(space, coefficients, ...)``.

    On a locally linearly independent space the operator is a
    projector: for a spline of the space it returns the spline's
    coefficients.  That is measured and tested, not proven here, to
    1e-12 relative on random pipeline spaces; on the structured
    4-iteration ``mesh-demo`` space, independent but not locally, the
    coefficients come back off by about half their size.

    Each coefficient equals, bit for bit, that of its function's local
    problem solved alone.
    The local collocation of each distinct knot vector is a table built
    by a batched kernel call and kept across calls, up to
    :data:`_TABLES_MAX` tables (:func:`_collocations`); per direction
    the space's tables are stacked per local size, and each function
    reads its rows by index (:func:`_stacked_tables`).  Functions of one
    local size ``(nx, ny)`` are stacked in the space module's bounded
    chunks (``space._chunks``); per chunk, ``f`` is sampled once and the
    local problems are solved by two batched calls.
    """
    keys = space.sorted_keys()
    (vx, wx), (vy, wy) = _distinct(keys, 1), _distinct(keys, 2)
    tables = _collocations(vx + vy)
    size_x, row_x, stacks_x = _stacked_tables(tables[: len(vx)], wx)
    size_y, row_y, stacks_y = _stacked_tables(tables[len(vx) :], wy)
    out = np.empty(len(keys))
    for nx, ny in sorted(set(zip(size_x.tolist(), size_y.tolist()))):
        members = np.flatnonzero((size_x == nx) & (size_y == ny))
        (xs, mx, ix), (ys, my, iy) = stacks_x[nx], stacks_y[ny]
        # Per function a chunk stacks two collocation matrices and, counting
        # the temporaries of ``f`` itself, about eight (nx, ny) arrays.
        for c in _chunks(len(members), nx * nx + ny * ny + 8 * nx * ny):
            pos = members[c]
            rx, ry = row_x[pos], row_y[pos]
            coeffs = _solve_local(f, xs[rx], mx[rx], ys[ry], my[ry])
            out[pos] = coeffs[np.arange(len(pos)), ix[rx], iy[ry]]
    return {key: float(c) for key, c in zip(keys, out)}


def qi_max_error(space: LRSpace, coefficients: dict, f, grid: int = 150) -> float:
    """Max pointwise error of the quasi-interpolant on a uniform ``grid``
    x ``grid`` grid; ``grid`` is at least 1, and at most
    :data:`~lrbsplines.space.MAX_GRID_POINTS` points in all.

    ``f`` is sampled on the grid by :func:`~lrbsplines.space._sampled`,
    which hands it the two axes broadcast against each other, with no
    meshgrid built; :func:`_max_error` is the same error against a sample
    taken once, which is how ``qi-peaks`` shares one sample among all its
    spaces.
    """
    return _max_error(space, coefficients, _sampled(space.mesh.domain, f, grid))


def _max_error(space: LRSpace, coefficients: dict, sample) -> float:
    """:func:`qi_max_error` against ``sample``, the ``(xs, ys, values)``
    of :func:`~lrbsplines.space._sampled` on the space's domain."""
    xs, ys, exact = sample
    return float(np.max(np.abs(evaluate_space(space, coefficients, xs, ys) - exact)))


# -- the three-peaks benchmark ----------------------------------------------

_PEAKS = ((0.3, 0.3), (-0.3, -0.3), (0.0, 0.0))


def three_peaks(x, y):
    """Sum of three sharp exponential peaks on [-1, 1]^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = 0.0
    for px, py in _PEAKS:
        out = out + np.exp(-np.sqrt((10 * x - 10 * px) ** 2 + (10 * y - 10 * py) ** 2))
    return (2.0 / 3.0) * out


#: Marker: the half-open central knot span contains one of the peaks.
three_peaks_marker = point_marker(_PEAKS)


_DOMAIN = (-1, 1, -1, 1)


def tensor_space_for_level(level: int, bidegree=(2, 2)) -> LRSpace:
    """Uniform tensor space on the peaks domain whose elements match the
    given level (cell width ``2**-level``)."""
    n = 2 ** (level + 1)
    return initial_space(make_initial_mesh(_DOMAIN, bidegree, (n, n)))


def three_peaks_spaces(
    max_level: int,
    bidegree=(2, 2),
    *,
    expansion: str = "odd-vertical",
) -> list[LRSpace]:
    """Adaptive spaces for levels 1..max_level of the peaks benchmark.

    Level 1 is the open 4x4 tensor space on [-1, 1]^2; level ``L`` is the
    space after iteration ``L - 1`` of one pipeline run marking the
    functions whose support contains a peak.  A ``max_level`` below 2
    gives level 1 alone.
    """
    space = initial_space(make_initial_mesh(_DOMAIN, bidegree, (4, 4)))
    refined, _ = n2s_pipeline(space, three_peaks_marker, max(max_level - 1, 0), expansion=expansion)
    return [space] + refined
