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
arrays, from collocations built per call.  The target ``f`` must be
pointwise and vectorised: called with two arrays of one shape, any
shape, it returns an array of that shape holding ``f`` at each pair of
entries.
"""

from __future__ import annotations

import numpy as np

from .bspline import _stacked_greville
from .dyadic import DyadicCoord
from .mesh import make_initial_mesh
from .refine import n2s_pipeline, point_marker
from .space import (
    _chunks,
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


def _collocations(vectors):
    """The local Greville collocations of local knot vectors of any
    degrees, each distinct vector's built once.

    A vector's local basis is the windows of the vector with its boundary
    knots raised to full multiplicity (:func:`_raised_vector`); the
    vector is the window at its origin index, ``p + 1`` less the
    multiplicity of its first knot.  The bases are stacked per (degree,
    size ``n``) group and built by ``bspline._stacked_greville`` in the
    chunks of ``space._chunks``, each closed at its own last knot.
    Returns ``(group, row, stacks)``: ``vectors[i]`` is row ``row[i]`` of
    ``stacks[group[i]]``, the group's nodes ``(bases, n)``, matrices
    ``(bases, n, n)`` and origin indices.
    """
    ids: dict = {}
    which = np.fromiter((ids.setdefault(v, len(ids)) for v in vectors), np.intp, len(vectors))
    groups: dict = {}
    for i, vec in enumerate(ids):
        p = len(vec) - 2
        raised = _raised_vector(vec, p)
        groups.setdefault((p, len(raised)), []).append((i, raised, p + 1 - vec.count(vec[0])))
    group, row = np.empty((2, len(ids)), np.intp)
    stacks = []
    for (p, m), members in groups.items():
        at, raised, origins = zip(*members)
        group[list(at)], row[list(at)] = len(stacks), np.arange(len(at))
        n = m - p - 1
        raised = _rows(raised, m)
        windows = raised[:, np.arange(n)[:, None] + np.arange(p + 2)]
        nodes, matrices = np.empty((len(at), n)), np.empty((len(at), n, n))
        for c in _chunks(len(at), n * n * (p + 2)):
            nodes[c], matrices[c] = _stacked_greville(windows[c], raised[c, -1])
        stacks.append((nodes, matrices, np.array(origins)))
    return group[which], row[which], stacks


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
    problem solved alone.  The local collocations of both directions'
    knot vectors are built fresh, by one :func:`_collocations` call, and
    each function reads its rows of them by index.  Functions of one
    pair of local sizes ``(nx, ny)`` are stacked in the space module's
    bounded chunks (``space._chunks``); per chunk, ``f`` is sampled once
    and the local problems are solved by two batched calls.
    """
    keys = space.sorted_keys()
    group, row, stacks = _collocations([k[0] for k in keys] + [k[1] for k in keys])
    (gx, gy), (rx, ry) = group.reshape(2, -1), row.reshape(2, -1)
    out = np.empty(len(keys))
    for a, b in sorted(set(zip(gx.tolist(), gy.tolist()))):
        members = np.flatnonzero((gx == a) & (gy == b))
        (xs, mx, ix), (ys, my, iy) = stacks[a], stacks[b]
        nx, ny = xs.shape[1], ys.shape[1]
        # Per function a chunk stacks two collocation matrices and, counting
        # the temporaries of ``f`` itself, about eight (nx, ny) arrays.
        for c in _chunks(len(members), nx * nx + ny * ny + 8 * nx * ny):
            pos = members[c]
            i, j = rx[pos], ry[pos]
            coeffs = _solve_local(f, xs[i], mx[i], ys[j], my[j])
            out[pos] = coeffs[np.arange(len(pos)), ix[i], iy[j]]
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
