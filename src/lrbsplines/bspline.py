"""Tensor-product B-splines on local knot vectors.

A bivariate function is described by two local knot vectors of lengths
``p1 + 2`` and ``p2 + 2`` plus a positive rational weight.  Univariate
values come from one Cox--de Boor kernel, `_stacked_values`, over
stacked windows and half-open spans ``[k_i, k_{i+1})``; an optional
closure coordinate makes the evaluation left-continuous there, which is
how the top domain edge is handled.  `univariate_values` and
`univariate_derivatives` are its one-window calls.

The support queries (`has_support_on`, `has_minimal_support`,
`find_refining_split`) implement the containment tests between a
function's knot mesh and an LR mesh: every knot line must be covered by
a mesh run of at least the knot multiplicity, and minimal support
additionally forbids any mesh line that crosses the full support at a
higher multiplicity than the function's own knots there.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .dyadic import DyadicCoord, dyadic
from .mesh import Mesh, Rect, _knot_multiplicities

__all__ = [
    "KnotVectorError",
    "local_knot_vector",
    "TensorBSpline",
    "univariate_values",
    "univariate_derivatives",
    "evaluate",
    "evaluate_gradient",
    "insert_knot",
    "has_support_on",
    "has_minimal_support",
    "find_refining_split",
]


class KnotVectorError(ValueError):
    """A local knot vector violates its invariants."""


def local_knot_vector(values) -> tuple[DyadicCoord, ...]:
    """Coerce and validate a local knot vector of degree ``len - 2``.

    Requires at least 3 entries (degree >= 1), nondecreasing values,
    first < last, and no value repeated more than degree + 1 times.
    """
    if type(values) is tuple and all(type(v) is DyadicCoord for v in values):
        return _validated(values)
    return _validated(tuple(dyadic(v) for v in values))


@lru_cache(maxsize=200_000)
def _validated(vec: tuple[DyadicCoord, ...]) -> tuple[DyadicCoord, ...]:
    """Validation body of ``local_knot_vector``, memoized per vector.

    The same local vector recurs across every function in a row or
    column of a tensor mesh, so caching turns the per-function check
    into a hash lookup.  Failures raise and are therefore never cached.
    """
    if len(vec) < 3:
        raise KnotVectorError(f"knot vector needs at least 3 entries, got {len(vec)}")
    p = len(vec) - 2
    for a, b in zip(vec, vec[1:]):
        if b < a:
            raise KnotVectorError(f"knot vector is not nondecreasing: {a} > {b}")
    if not vec[0] < vec[-1]:
        raise KnotVectorError("knot vector must span a nonempty interval")
    for value, mult in Counter(vec).items():
        if mult > p + 1:
            raise KnotVectorError(
                f"knot {value} has multiplicity {mult} > degree + 1 = {p + 1}"
            )
    return vec


@dataclass(frozen=True, slots=True)
class TensorBSpline:
    """A bivariate B-spline on local knot vectors with a rational weight."""

    xknots: tuple[DyadicCoord, ...]
    yknots: tuple[DyadicCoord, ...]
    weight: Fraction = field(default=Fraction(1))

    def __post_init__(self) -> None:
        xv = local_knot_vector(self.xknots)
        if xv is not self.xknots:
            object.__setattr__(self, "xknots", xv)
        yv = local_knot_vector(self.yknots)
        if yv is not self.yknots:
            object.__setattr__(self, "yknots", yv)
        w = self.weight
        if type(w) is not Fraction:
            w = Fraction(w)
            object.__setattr__(self, "weight", w)
        if w <= 0:
            raise KnotVectorError(f"weight must be positive, got {w}")

    @property
    def degrees(self) -> tuple[int, int]:
        return (len(self.xknots) - 2, len(self.yknots) - 2)

    @property
    def key(self) -> tuple[tuple[DyadicCoord, ...], tuple[DyadicCoord, ...]]:
        """Identity of the function: its pair of knot vectors."""
        return (self.xknots, self.yknots)

    @property
    def support(self) -> Rect:
        return Rect(self.xknots[0], self.xknots[-1], self.yknots[0], self.yknots[-1])

    def knots(self, direction: int) -> tuple[DyadicCoord, ...]:
        return self.xknots if direction == 1 else self.yknots


_set_xknots = TensorBSpline.xknots.__set__
_set_yknots = TensorBSpline.yknots.__set__
_set_weight = TensorBSpline.weight.__set__


def _trusted_bspline(xknots, yknots, weight: Fraction) -> TensorBSpline:
    """``TensorBSpline(xknots, yknots, weight)`` without ``__post_init__``.

    For bulk construction from knot vectors that ``local_knot_vector``
    has already returned and a positive ``Fraction`` weight; the result
    equals the validated one, field by field.
    """
    b = object.__new__(TensorBSpline)
    _set_xknots(b, xknots)
    _set_yknots(b, yknots)
    _set_weight(b, weight)
    return b


def _knot_windows(vec, degree: int) -> list[tuple]:
    """The consecutive length-(degree+2) windows of a global knot vector:
    the local knot vectors of its univariate B-spline basis."""
    return [tuple(vec[i : i + degree + 2]) for i in range(len(vec) - degree - 1)]


# -- univariate evaluation --------------------------------------------------


def _stacked_values(v: np.ndarray, t: np.ndarray, close_at=None, derivatives: bool = False):
    """Cox--de Boor over stacked windows: ``v`` is ``(..., p+2)`` knots,
    ``t`` is ``(..., q)`` points, broadcast against each other's leading
    axes; returns the ``(..., q)`` values, and with ``derivatives`` the
    pair (values, first derivatives).

    Spans are half-open, ``[k_i, k_{i+1})``.  A point equal to
    ``close_at`` (a knot value, typically the top of the domain) also
    joins the span with ``k_i < close_at == k_{i+1}``, so it gets the
    left-limit value and a space evaluated over a closed domain sums
    correctly on the top edges.  Each degree of the recursion is one
    array pass over all its spans, and a term whose denominator vanishes
    is masked out.  The degree-(p-1) values on ``v[:-1]`` and ``v[1:]``
    that the derivative needs are the recursion's own second-to-last
    stage.
    """
    p = v.shape[-1] - 2
    k = v[..., :, None]
    t = t[..., None, :]
    spans = (k[..., :-1, :] <= t) & (t < k[..., 1:, :])
    if close_at is not None:
        # numpy compares a float subclass such as a coordinate through its
        # generic (several times slower) path; a plain float takes the fast one
        c = float(close_at)
        spans |= (t == c) & (k[..., :-1, :] < c) & (k[..., 1:, :] == c)
    layers = lower = spans.astype(float)
    for d in range(1, p + 1):
        n = p + 1 - d
        left, right = k[..., :n, :], k[..., d + 1 :, :]
        den1 = k[..., d : d + n, :] - left
        den2 = right - k[..., 1 : n + 1, :]
        on1, on2 = den1 > 0.0, den2 > 0.0
        # In place, so that a stage holds two arrays of its size besides
        # the previous stage's.
        acc = t - left
        acc /= np.where(on1, den1, 1.0)
        acc *= layers[..., :n, :]
        np.copyto(acc, 0.0, where=~on1)
        term = right - t
        term /= np.where(on2, den2, 1.0)
        term *= layers[..., 1:, :]
        term += acc
        np.copyto(term, acc, where=~on2)
        layers = term
        if d == p - 1:
            lower = layers
    values = layers[..., 0, :]
    if not derivatives:
        return values
    den1 = k[..., p, :] - k[..., 0, :]
    den2 = k[..., p + 1, :] - k[..., 1, :]
    on1, on2 = den1 > 0.0, den2 > 0.0
    out = np.where(on1, lower[..., 0, :] / np.where(on1, den1, 1.0), 0.0)
    out = np.where(on2, out - lower[..., 1, :] / np.where(on2, den2, 1.0), out)
    return values, p * out


def univariate_values(knots, t, close_at: float | None = None) -> np.ndarray:
    """Values of the B-spline on ``knots`` at points ``t`` of any shape,
    closed at ``close_at``: one row of :func:`_stacked_values`."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(knots, dtype=float)
    return _stacked_values(v, t.reshape(-1), close_at).reshape(t.shape)


def univariate_derivatives(knots, t, close_at: float | None = None) -> np.ndarray:
    """First derivative of the B-spline on ``knots`` at points ``t``."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(knots, dtype=float)
    return _stacked_values(v, t.reshape(-1), close_at, derivatives=True)[1].reshape(t.shape)


def _greville_collocation(windows, close_at: float):
    """Greville nodes and collocation matrix of a univariate basis.

    ``windows`` lists the basis's local knot vectors, consecutive windows
    of one global vector; the degree is the window length minus two.
    Each window's Greville point is the mean of its interior knots;
    these interlace the knots, so the matrix is nonsingular.  Column j
    holds window j's values at the nodes, closed at ``close_at``.
    """
    degree = len(windows[0]) - 2
    nodes = np.array([sum(vec[1 : degree + 1]) / degree for vec in windows])
    values = _stacked_values(np.array(windows, dtype=float), nodes, close_at)
    return nodes, values.T


def evaluate(b: TensorBSpline, point) -> float:
    """Weighted value at one point, closed at the function's own last knots."""
    x, y = float(point[0]), float(point[1])
    vx = univariate_values(b.xknots, np.array([x]), close_at=b.xknots[-1])
    vy = univariate_values(b.yknots, np.array([y]), close_at=b.yknots[-1])
    return float(b.weight) * float(vx[0]) * float(vy[0])


def evaluate_gradient(b: TensorBSpline, point) -> tuple[float, float]:
    """Weighted gradient at one point, same closure as :func:`evaluate`:
    one kernel call per direction gives the values and derivatives."""
    x, y = float(point[0]), float(point[1])
    xv, yv = np.array(b.xknots, dtype=float), np.array(b.yknots, dtype=float)
    vx, dx = _stacked_values(xv, np.array([x]), b.xknots[-1], derivatives=True)
    vy, dy = _stacked_values(yv, np.array([y]), b.yknots[-1], derivatives=True)
    w = float(b.weight)
    return (w * float(dx[0]) * float(vy[0]), w * float(vx[0]) * float(dy[0]))


# -- knot insertion ---------------------------------------------------------


_ONE = Fraction(1)


def _quotient(a, b, c, d) -> Fraction:
    """``(a - b) / (c - d)`` of four coordinates, exactly.

    The differences are taken on the coordinates' integer numerators
    over their common power-of-two denominator, so no intermediate value
    has to be a coordinate, and one ``Fraction`` is built.
    """
    (na, da), (nb, db), (nc, dc), (nd, dd) = (
        a.as_integer_ratio(),
        b.as_integer_ratio(),
        c.as_integer_ratio(),
        d.as_integer_ratio(),
    )
    m = max(da, db, dc, dd)
    return Fraction(na * (m // da) - nb * (m // db), nc * (m // dc) - nd * (m // dd))


def insert_knot(b: TensorBSpline, direction: int, z):
    """Split ``b`` at ``z`` in ``direction`` into two weighted children.

    Returns ``((alpha1, b1), (alpha2, b2))`` where ``b = alpha1*b1' +
    alpha2*b2'`` for the unweighted children; the returned children carry
    the parent weight multiplied into the coefficients, so the weighted
    sum of the children replaces the parent exactly.  The coefficients
    are exact rationals.
    """
    if direction not in (1, 2):
        raise KnotVectorError(f"direction must be 1 or 2, got {direction}")
    z = dyadic(z)
    v = b.knots(direction)
    p = len(v) - 2
    if not (v[0] < z < v[-1]):
        raise KnotVectorError(
            f"insertion point {z} must lie strictly inside the span "
            f"[{v[0]}, {v[-1]}]"
        )
    i = bisect.bisect_right(v, z)
    augmented = v[:i] + (z,) + v[i:]
    if augmented.count(z) > p + 1:
        raise KnotVectorError(
            f"inserting {z} exceeds multiplicity {p + 1} in {tuple(map(str, v))}"
        )

    alpha1 = _ONE if z >= v[p] else _quotient(z, v[0], v[p], v[0])
    alpha2 = _ONE if z <= v[1] else _quotient(v[p + 1], z, v[p + 1], v[1])

    # Both children are valid without re-checking: each drops one end
    # knot of ``augmented``, whose multiplicities were checked above, and
    # z lies strictly inside the span, so each keeps a nonempty span; both
    # alphas are positive for the same reason.
    def child(vec, alpha):
        if direction == 1:
            return _trusted_bspline(vec, b.yknots, b.weight * alpha)
        return _trusted_bspline(b.xknots, vec, b.weight * alpha)

    return (
        (alpha1, child(augmented[:-1], alpha1)),
        (alpha2, child(augmented[1:], alpha2)),
    )


# -- support against a mesh -------------------------------------------------


def has_support_on(b: TensorBSpline, mesh: Mesh) -> bool:
    """True when every knot line of ``b`` is covered by mesh runs of
    at least the knot multiplicity."""
    for direction in (1, 2):
        vec = b.knots(direction)
        cross = b.knots(2 if direction == 1 else 1)
        c_lo, c_hi = cross[0], cross[-1]
        for value, mult in _knot_multiplicities(vec):
            run = mesh.covering_run(direction, value, c_lo, c_hi)
            if run is None or run[2] < mult:
                return False
    return True


def find_refining_split(b: TensorBSpline, mesh: Mesh):
    """First mesh line that crosses the support above the knot multiplicity.

    Scans direction 1 then 2, positions ascending, and returns
    ``(direction, position, deficit)`` where ``deficit`` is the covering
    run's multiplicity minus the function's knot multiplicity there;
    ``None`` when the function has minimal support.  Assumes
    ``has_support_on(b, mesh)``.
    """
    for direction in (1, 2):
        vec = b.knots(direction)
        cross = b.knots(2 if direction == 1 else 1)
        c_lo, c_hi = cross[0], cross[-1]
        mults = dict(_knot_multiplicities(vec))
        positions = mesh.positions(direction)
        i0 = bisect.bisect_right(positions, vec[0])
        i1 = bisect.bisect_left(positions, vec[-1])
        for pos in positions[i0:i1]:
            run = mesh.covering_run(direction, pos, c_lo, c_hi)
            if run is None:
                continue
            deficit = run[2] - mults.get(pos, 0)
            if deficit > 0:
                return (direction, pos, deficit)
    return None


def has_minimal_support(b: TensorBSpline, mesh: Mesh) -> bool:
    """Support containment with equality: no mesh line crosses the
    support at higher multiplicity than the function's knots."""
    return has_support_on(b, mesh) and find_refining_split(b, mesh) is None
