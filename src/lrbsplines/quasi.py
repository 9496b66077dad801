"""Polynomial-reproducing quasi-interpolation on LR B-spline spaces.

Each coefficient is computed locally: a function's knot vectors span a
small tensor space once the boundary knots are raised to full
multiplicity, and interpolating the target at the Greville points of
that local space determines the coefficient of the original function.
The two raised knot vectors describe that space completely -- their
consecutive windows are its univariate bases -- so the coefficient is
computed from them alone, with no mesh or basis objects;
:func:`local_tensor_space` builds the full space for reference.
The collocation matrix is a tensor product of two univariate ones, each
nonsingular because Greville points interlace their knot vector, so the
local problem is always solvable.  Every local problem reproduces
polynomials up to the bidegree, hence so does the assembled operator;
combined with the unweighted basis this makes the scheme exact on
polynomials on spaces with unit weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import TensorBSpline, _greville_collocation, _knot_windows
from .dyadic import DyadicCoord
from .mesh import Mesh, _build_mesh, _knot_multiplicities, make_initial_mesh
from .refine import point_marker
from .space import LRSpace, SpaceError, evaluate_space, initial_space

__all__ = [
    "LocalTensorSpace",
    "local_tensor_space",
    "tensor_qi_coefficient",
    "lr_qi",
    "qi_max_error",
    "three_peaks",
    "three_peaks_marker",
    "three_peaks_spaces",
    "tensor_space_for_level",
]


@dataclass(frozen=True)
class LocalTensorSpace:
    """The tensor space spanned by one function's knots, boundary raised
    to full multiplicity.  ``origin`` keys the function it was built for,
    which is always among ``basis``."""

    origin: tuple
    mesh: Mesh
    basis: tuple[TensorBSpline, ...]


def _raised_vector(vec, degree: int) -> list[DyadicCoord]:
    """Global knot vector over the distinct values of ``vec`` with the
    boundary multiplicities raised to ``degree + 1``."""
    out: list[DyadicCoord] = [vec[0]] * (degree + 1)
    for v in vec[1:]:
        if v != vec[0] and v != vec[-1]:
            out.append(v)
    out.extend([vec[-1]] * (degree + 1))
    return out


def local_tensor_space(b: TensorBSpline) -> LocalTensorSpace:
    """Tensor space on the support of ``b`` containing ``b`` itself."""
    p1, p2 = b.degrees
    gx = _raised_vector(b.xknots, p1)
    gy = _raised_vector(b.yknots, p2)
    domain = b.support
    items = [(1, x, domain.y_min, domain.y_max, m) for x, m in _knot_multiplicities(gx)]
    items += [(2, y, domain.x_min, domain.x_max, m) for y, m in _knot_multiplicities(gy)]
    mesh = _build_mesh(domain, (p1, p2), items)
    basis = tuple(
        TensorBSpline(xv, yv) for xv in _knot_windows(gx, p1) for yv in _knot_windows(gy, p2)
    )
    if all(f.key != b.key for f in basis):
        raise SpaceError(f"local tensor space does not contain {b.key}")
    return LocalTensorSpace(b.key, mesh, basis)


def tensor_qi_coefficient(b: TensorBSpline, f) -> float:
    """Coefficient of ``b`` for interpolating ``f`` in its local space.

    The local tensor space of ``b`` (see :func:`local_tensor_space`) is
    read from its raised knot vectors alone: their consecutive windows
    are the local basis in each direction.  Interpolates ``f`` at the
    tensor grid of the windows' Greville points and reads off the
    coefficient of ``b``, whose knot vectors are among the windows.  The
    collocation matrix factors into two univariate ones, solved back to
    back.
    """
    p1, p2 = b.degrees
    gx = _raised_vector(b.xknots, p1)
    gy = _raised_vector(b.yknots, p2)
    x_windows = _knot_windows(gx, p1)
    y_windows = _knot_windows(gy, p2)
    xs, mx = _greville_collocation(x_windows, gx[-1])
    ys, my = _greville_collocation(y_windows, gy[-1])

    grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
    values = np.asarray(f(grid_x, grid_y), dtype=float)
    if values.shape != (len(xs), len(ys)):
        raise SpaceError(
            f"interpolation data has shape {values.shape}, "
            f"expected {(len(xs), len(ys))}"
        )
    try:
        coeffs = np.linalg.solve(mx, values)
        coeffs = np.linalg.solve(my, coeffs.T).T
    except np.linalg.LinAlgError as exc:  # pragma: no cover - Greville
        raise SpaceError(f"singular local collocation matrix: {exc}") from exc
    return float(coeffs[x_windows.index(b.xknots), y_windows.index(b.yknots)])


def lr_qi(space: LRSpace, f) -> dict:
    """Quasi-interpolation coefficients for every function of the space.

    The result pairs with the *unweighted* basis: evaluate with
    ``evaluate_space(space, coefficients, ...)``.
    """
    return {key: tensor_qi_coefficient(b, f) for key, b in sorted(space.functions.items())}


def qi_max_error(space: LRSpace, coefficients: dict, f, grid: int = 150) -> float:
    """Max pointwise error of the quasi-interpolant on a uniform grid."""
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


def tensor_space_for_level(level: int, bidegree=(2, 2), bounds=(-1, 1, -1, 1)) -> LRSpace:
    """Uniform tensor space whose smallest elements match the given level
    (cell width ``2**-level`` on the default domain)."""
    n = 2 ** (level + 1)
    return initial_space(make_initial_mesh(bounds, bidegree, (n, n)))


def three_peaks_spaces(
    max_level: int,
    bidegree=(2, 2),
    *,
    parity: str = "odd-vertical",
    expansion: str = "one-directional",
) -> list[LRSpace]:
    """Adaptive spaces for levels 1..max_level of the peaks benchmark.

    Level 1 is the open 4x4 tensor space on [-1, 1]^2; each further level
    runs one pipeline iteration marking the functions whose support
    contains a peak.  Iteration indices continue across levels, so the
    expansion direction alternates exactly as in one long run.
    """
    from .refine import n2s_pipeline

    space = initial_space(make_initial_mesh((-1, 1, -1, 1), bidegree, (4, 4)))
    spaces = [space]
    for level in range(2, max_level + 1):
        space, _ = n2s_pipeline(
            space,
            three_peaks_marker,
            1,
            parity=parity,
            expansion=expansion,
            start_index=level - 1,
        )
        spaces.append(space)
    return spaces
