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
arrays; :func:`tensor_qi_coefficient` solves one and serves as its
oracle.  The target ``f`` must be pointwise and vectorised: called with
two arrays of one shape, any shape, it returns an array of that shape
holding ``f`` at each pair of entries.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bspline import _checked, _greville_collocation, _knot_windows
from .dyadic import DyadicCoord
from .mesh import make_initial_mesh
from .refine import n2s_pipeline, point_marker
from .space import _chunks, LRSpace, SpaceError, evaluate_space, initial_space

__all__ = [
    "tensor_qi_coefficient",
    "lr_qi",
    "qi_max_error",
    "three_peaks",
    "three_peaks_marker",
    "three_peaks_spaces",
    "tensor_space_for_level",
]


def _raised_vector(vec, degree: int) -> list[DyadicCoord]:
    """Global knot vector over the distinct values of ``vec`` with the
    boundary multiplicities raised to ``degree + 1``."""
    out: list[DyadicCoord] = [vec[0]] * (degree + 1)
    for v in vec[1:]:
        if v != vec[0] and v != vec[-1]:
            out.append(v)
    out.extend([vec[-1]] * (degree + 1))
    return out


@lru_cache(maxsize=1 << 12)
def _local_collocation(vec):
    """Greville nodes, collocation matrix and origin index of the local
    univariate basis of one local knot vector.

    The basis is the windows of ``vec`` with its boundary knots raised
    to full multiplicity; the origin index is the position of ``vec``
    itself among them.

    Memoized per vector, as ``bspline._validated`` is, so successive
    calls of :func:`lr_qi` on a space, and on the spaces of successive
    levels, share their collocations; the cached nodes and matrix are
    read-only.  An entry of degree 2 takes about 0.9 KiB, so the bound
    keeps the cache under 4 MiB; ``qi-peaks --levels 7`` meets under 300
    distinct vectors per level.
    """
    degree = len(vec) - 2
    raised = _raised_vector(vec, degree)
    windows = _knot_windows(raised, degree)
    nodes, matrix = _greville_collocation(windows, raised[-1])
    nodes.flags.writeable = matrix.flags.writeable = False
    return nodes, matrix, windows.index(vec)


def _solve_local(f, xs, mx, ys, my):
    """Coefficients interpolating ``f`` on the tensor grids of the nodes
    ``xs`` x ``ys``, whose univariate collocation matrices are ``mx`` and
    ``my``; all are stacked over any leading axes.  The two univariate
    solves run back to back, x first."""
    grid_x = np.repeat(xs[..., :, None], ys.shape[-1], axis=-1)
    grid_y = np.repeat(ys[..., None, :], xs.shape[-1], axis=-2)
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


def tensor_qi_coefficient(key, f) -> float:
    """Coefficient of the function ``key`` for interpolating ``f`` in its
    local space.

    The local tensor space of the function, the tensor space on its
    support with the boundary knots raised to full multiplicity, is read
    from its raised knot vectors alone: their consecutive windows
    are the local basis in each direction.  Interpolates ``f`` at the
    tensor grid of the windows' Greville points and reads off the
    coefficient of ``key``, whose knot vectors are among the windows.
    The collocation matrix factors into two univariate ones, solved back
    to back.  This is the one-function form of :func:`lr_qi`, and pairs
    with the unweighted basis as it does.
    """
    xv, yv = _checked(key)
    xs, mx, ix = _local_collocation(xv)
    ys, my, iy = _local_collocation(yv)
    return float(_solve_local(f, xs, mx, ys, my)[ix, iy])


def lr_qi(space: LRSpace, f) -> dict:
    """Quasi-interpolation coefficients for every function of the space.

    ``f`` must be pointwise and vectorised: called with two arrays of one
    shape (any shape), it returns an array of that shape holding ``f`` at
    each pair of entries.  The result pairs with the *unweighted* basis:
    evaluate with ``evaluate_space(space, coefficients, ...)``.

    Each coefficient equals :func:`tensor_qi_coefficient` bit for bit.
    The local collocation of each distinct knot vector is computed once
    and kept across calls (:func:`_local_collocation`).
    Functions of one local size ``(nx, ny)`` are stacked in the space
    module's bounded chunks (``space._chunks``); per chunk, ``f`` is
    sampled once and the local problems are solved by two batched calls.
    """
    keys = space.sorted_keys()
    groups: dict = {}
    for pos, (xv, yv) in enumerate(keys):
        cx, cy = _local_collocation(xv), _local_collocation(yv)
        groups.setdefault((len(cx[0]), len(cy[0])), []).append((pos, cx, cy))
    out = np.empty(len(keys))
    for (nx, ny), members in groups.items():
        # Per function a chunk stacks two collocation matrices and, counting
        # the temporaries of ``f`` itself, about eight (nx, ny) arrays.
        for c in _chunks(len(members), nx * nx + ny * ny + 8 * nx * ny):
            pos, cx, cy = zip(*members[c])
            xs, mx, ix = (np.array(a) for a in zip(*cx))
            ys, my, iy = (np.array(a) for a in zip(*cy))
            coeffs = _solve_local(f, xs, mx, ys, my)
            out[list(pos)] = coeffs[np.arange(len(pos)), ix, iy]
    return {key: float(c) for key, c in zip(keys, out)}


def qi_max_error(space: LRSpace, coefficients: dict, f, grid: int = 150) -> float:
    """Max pointwise error of the quasi-interpolant on a uniform ``grid``
    x ``grid`` grid; ``grid`` is at least 1."""
    if grid < 1:
        raise SpaceError(f"grid must be at least 1, got {grid}")
    dom = space.mesh.domain
    xs = np.linspace(dom.x_min, dom.x_max, grid)
    ys = np.linspace(dom.y_min, dom.y_max, grid)
    u = evaluate_space(space, coefficients, xs, ys)
    grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
    return float(np.max(np.abs(u - np.asarray(f(grid_x, grid_y), dtype=float))))


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
