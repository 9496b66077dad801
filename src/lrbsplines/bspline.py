"""Tensor-product B-splines on local knot vectors.

A bivariate function is its key ``(xknots, yknots)``: two local knot
vectors of lengths ``p1 + 2`` and ``p2 + 2``.  Its positive rational
weight lives beside the key, in a space's ``functions`` dict; the
public per-function calls here take the key alone and work on the
unweighted function.  Each checks its key once through
`local_knot_vector`, a scan of each vector's few entries.

Univariate values come from one Cox--de Boor kernel, `_stacked_values`,
over stacked windows and half-open spans ``[k_i, k_{i+1})``; an
optional closure coordinate makes the evaluation left-continuous there,
which is how the top domain edge is handled.  `univariate_values` and
`univariate_derivatives` are its one-window calls, and `_stacked_greville`
builds from it the Greville collocations of the quasi-interpolant and
the Dirichlet data.

The support queries implement the containment tests between a
function's knot mesh and an LR mesh: every knot line must be covered by
a mesh run of at least the knot multiplicity (`has_support_on`), and
minimal support additionally forbids any mesh line that crosses the full
support at a higher multiplicity than the function's own knots there.
`_minimal_support` decides both rules in one scan per direction;
`_deficits` lists a direction's crossing lines, the knots the generation
fixpoint inserts.  `_lacking_minimal_support` gives the verdicts of
`_minimal_support` for many functions at once, by array lookups in the
mesh's run tables; it is how a space checks its functions.

Knot insertion has one kernel, `_boehm`: a local knot vector and the
knots to insert give the children's coefficients as integer (numerator,
denominator) pairs, by Boehm's algorithm in integer arithmetic.  It is
memoized per exact (window, knots) pair, since the generation fixpoint
meets few distinct ones, and its entries hold integers only.
`_children` puts the coefficients on the children's windows, and
`insert_knot` is its checked one-knot call on a key.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np

from .dyadic import DyadicCoord, dyadic
from .mesh import Mesh, _knot_multiplicities

__all__ = [
    "KnotVectorError",
    "local_knot_vector",
    "univariate_values",
    "univariate_derivatives",
    "evaluate",
    "insert_knot",
    "has_support_on",
]


class KnotVectorError(ValueError):
    """A local knot vector violates its invariants."""


def local_knot_vector(values) -> tuple[DyadicCoord, ...]:
    """Coerce and validate a local knot vector of degree ``len - 2``.

    Requires at least 3 entries (degree >= 1), nondecreasing values and
    first < last.  The last rule also bounds every multiplicity by
    degree + 1: a value repeated degree + 2 times fills the vector.
    """
    if type(values) is tuple and all(type(v) is DyadicCoord for v in values):
        return _validated(values)
    return _validated(tuple(dyadic(v) for v in values))


def _validated(vec: tuple[DyadicCoord, ...]) -> tuple[DyadicCoord, ...]:
    """Validation body of ``local_knot_vector``: ``vec`` itself, once
    its length, order and span pass; raises ``KnotVectorError``."""
    if len(vec) < 3:
        raise KnotVectorError(f"knot vector needs at least 3 entries, got {len(vec)}")
    for a, b in zip(vec, vec[1:]):
        if b < a:
            raise KnotVectorError(f"knot vector is not nondecreasing: {a} > {b}")
    if not vec[0] < vec[-1]:
        raise KnotVectorError("knot vector must span a nonempty interval")
    return vec


def _checked(key) -> tuple:
    """``key`` as a pair of local knot vectors, each coerced and
    validated by :func:`local_knot_vector`; raises ``KnotVectorError``."""
    xv, yv = key
    return (local_knot_vector(xv), local_knot_vector(yv))


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
    correctly on the top edges.  ``close_at`` is one number for all
    windows, or an array broadcast against ``v``'s leading axes: one
    value per window.  Each degree of the recursion is one
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
        if isinstance(close_at, np.ndarray):
            c = close_at.astype(float, copy=False)[..., None, None]
        else:
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


def _stacked_greville(windows: np.ndarray, close_at):
    """Greville nodes ``(..., n)`` and collocation matrices ``(..., n, n)``
    of the bases ``windows`` ``(..., n, p+2)``, each the ``n`` consecutive
    windows of one global vector.  A node is the mean of its window's
    interior knots, summed in order; nodes interlace the knots, so each
    matrix is nonsingular.  Column ``j`` holds window ``j``'s values at
    the nodes, closed at ``close_at``: one number, or one per basis."""
    p = windows.shape[-1] - 2
    nodes = windows[..., 1].copy()
    for k in range(2, p + 1):
        nodes += windows[..., k]
    nodes /= p
    close_at = np.asarray(close_at, dtype=float)[..., None]
    values = _stacked_values(windows, nodes[..., None, :], close_at=close_at)
    return nodes, values.swapaxes(-1, -2)


def evaluate(key, point) -> float:
    """Unweighted value at one point, closed at the function's own last
    knots."""
    xv, yv = _checked(key)
    vx = univariate_values(xv, np.array([float(point[0])]), close_at=xv[-1])
    vy = univariate_values(yv, np.array([float(point[1])]), close_at=yv[-1])
    return float(vx[0]) * float(vy[0])


# -- knot insertion ---------------------------------------------------------


@lru_cache(maxsize=1 << 13)
def _boehm(window: tuple, knots: tuple) -> tuple:
    """The coefficients of the B-spline on the local knot vector
    ``window`` after inserting ``knots`` (sorted or not, a value may
    repeat), by Boehm's algorithm: one knot at a time, every window the
    knot lies strictly inside splits into its two knot-insertion
    children, and children on the same window merge.

    Returns ``(num_0, den_0, num_1, den_1, ...)``, one flat tuple: child
    ``j`` lies on window ``j`` of the augmented vector (see
    :func:`_children`) with the coefficient ``num_j / den_j``, not
    reduced.  The knots must lie strictly inside the span and keep every
    multiplicity at most degree + 1; they are not checked.

    The arithmetic is on integers.  The window and the knots are scaled
    to their common power-of-two denominator, each alpha is a pair of
    scaled differences, and each coefficient is an unnormalized
    (numerator, denominator) pair.  The generation fixpoint meets the
    same few (window, knots) pairs again and again, so the result is
    memoized per exact pair.  The result holds integers only: an entry
    keeps no tuple of coordinates alive beyond its key, so the cache
    adds few objects for the garbage collector to count and traverse,
    and :func:`_children` cuts the children's windows on each call
    instead.  An entry takes about 360 bytes.  The bound keeps the
    cache to a few MiB and still misses no reuse of a 10-iteration
    ``mesh-demo``: its 12,949 distinct inputs over 45,789 calls miss as
    often as with no bound.
    """
    p = len(window) - 2
    ratios = [c.as_integer_ratio() for c in window]
    inserted = [z.as_integer_ratio() for z in knots]
    m = max(den for _, den in chain(ratios, inserted))
    t = [num * (m // den) for num, den in ratios]
    nums, dens = [1], [1]
    for num, den in inserted:
        z = num * (m // den)
        new_nums, new_dens = [], []
        # window j's two parts go to the new windows j and j + 1; rn / rd
        # is the part that window j - 1 passed on to window j
        rn, rd = 0, 1
        for j, cn in enumerate(nums):
            cd = dens[j]
            lo, hi = t[j], t[j + p + 1]
            if hi <= z:  # the window lies left of z and keeps its index
                ln, ld, next_n, next_d = cn, cd, 0, 1
            elif lo >= z:  # right of z: one index on
                ln, ld, next_n, next_d = 0, 1, cn, cd
            else:  # split into the two knot-insertion children
                a = t[j + p]
                ln, ld = (cn, cd) if z >= a else (cn * (z - lo), cd * (a - lo))
                a = t[j + 1]
                next_n, next_d = (cn, cd) if z <= a else (cn * (hi - z), cd * (hi - a))
            if rn:
                new_nums.append(rn * ld + ln * rd)
                new_dens.append(rd * ld)
            else:
                new_nums.append(ln)
                new_dens.append(ld)
            rn, rd = next_n, next_d
        new_nums.append(rn)
        new_dens.append(rd)
        bisect.insort_right(t, z)
        nums, dens = new_nums, new_dens
    return tuple(chain.from_iterable(zip(nums, dens)))


def _children(window: tuple, knots: tuple) -> list:
    """``(num, den, child_window)`` per child of inserting ``knots`` into
    ``window``, in order: :func:`_boehm`'s coefficients on the
    consecutive windows of the augmented vector ``sorted(window +
    knots)``."""
    coefficients = _boehm(window, knots)
    augmented = tuple(sorted(window + knots))
    q = len(window)
    return [
        (coefficients[2 * j], coefficients[2 * j + 1], augmented[j : j + q])
        for j in range(len(coefficients) // 2)
    ]


def insert_knot(key, direction: int, z):
    """Split the function ``key`` at ``z`` in ``direction``.

    Returns ``((alpha1, key1), (alpha2, key2))`` with ``B = alpha1*B1 +
    alpha2*B2`` for the unweighted functions; the alphas are exact
    positive ``Fraction``s.  A function of weight ``w`` therefore splits
    into children of weights ``w*alpha1`` and ``w*alpha2``.  This is the
    one-knot call of :func:`_children`.
    """
    xv, yv = _checked(key)
    if direction not in (1, 2):
        raise KnotVectorError(f"direction must be 1 or 2, got {direction}")
    z = dyadic(z)
    v = xv if direction == 1 else yv
    p = len(v) - 2
    if not (v[0] < z < v[-1]):
        raise KnotVectorError(
            f"insertion point {z} must lie strictly inside the span "
            f"[{v[0]}, {v[-1]}]"
        )
    if v.count(z) > p:
        raise KnotVectorError(
            f"inserting {z} exceeds multiplicity {p + 1} in {tuple(map(str, v))}"
        )
    # Each child drops one end knot of the augmented vector, whose
    # multiplicities were checked above, and z lies strictly inside the
    # span, so each child is a valid local vector with a nonempty span;
    # both alphas are positive for the same reason.
    (n1, d1, v1), (n2, d2, v2) = _children(v, (z,))
    if direction == 1:
        return ((Fraction(n1, d1), (v1, yv)), (Fraction(n2, d2), (v2, yv)))
    return ((Fraction(n1, d1), (xv, v1)), (Fraction(n2, d2), (xv, v2)))


# -- support against a mesh -------------------------------------------------


def has_support_on(key, mesh: Mesh) -> bool:
    """True when every knot line of the function ``key`` is covered by
    mesh runs of at least the knot multiplicity."""
    xv, yv = _checked(key)
    for direction, vec, cross in ((1, xv, yv), (2, yv, xv)):
        c_lo, c_hi = cross[0], cross[-1]
        for value, mult in _knot_multiplicities(vec):
            run = mesh.covering_run(direction, value, c_lo, c_hi)
            if run is None or run[2] < mult:
                return False
    return True


def _deficits(xknots, yknots, mesh: Mesh, direction: int, positions=None) -> list:
    """The direction-``direction`` lines that cross the support of the
    function on the knot vectors ``xknots``, ``yknots`` above its knot
    multiplicity, as ``(position, deficit)`` pairs with the positions
    ascending; ``deficit`` is the covering run's multiplicity minus the
    function's knot multiplicity there.

    The candidates are the mesh's direction-``direction`` positions
    strictly inside the support, or those of the sorted ``positions``
    when given, read in one :meth:`Mesh.covering_runs` scan.
    A line counts only where one run covers the whole cross extent of
    the support.  Assumes ``has_support_on`` holds.
    """
    vec, cross = (xknots, yknots) if direction == 1 else (yknots, xknots)
    if positions is None:
        positions = mesh.positions(direction)
    i0 = bisect.bisect_right(positions, vec[0])
    i1 = bisect.bisect_left(positions, vec[-1], i0)
    scan = positions[i0:i1]
    out = []
    for pos, run in zip(scan, mesh.covering_runs(direction, scan, cross[0], cross[-1])):
        if run is not None:
            deficit = run[2] - vec.count(pos)
            if deficit > 0:
                out.append((pos, deficit))
    return out


def _minimal_support(xknots, yknots, mesh: Mesh) -> bool:
    """Support containment with equality: no mesh line crosses the
    support of the function on the unchecked knot vectors ``xknots``,
    ``yknots`` at higher multiplicity than its knots there.

    One scan per direction over the mesh positions in the support's
    closed span, with one covering-run lookup each: a knot needs a run
    of at least its multiplicity, an interior position one of at most
    it, and every knot must lie on a mesh position."""
    covering_run = mesh.covering_run
    for direction in (1, 2):
        vec, cross = (xknots, yknots) if direction == 1 else (yknots, xknots)
        lo, hi = vec[0], vec[-1]
        c_lo, c_hi = cross[0], cross[-1]
        positions = mesh.positions(direction)
        i0 = bisect.bisect_left(positions, lo)
        i1 = bisect.bisect_right(positions, hi, i0)
        on_mesh = 0  # knots on the scanned positions, repeats counted
        for pos in positions[i0:i1]:
            mult = vec.count(pos)
            run = covering_run(direction, pos, c_lo, c_hi)
            have = 0 if run is None else run[2]
            if have < mult or (have > mult and lo < pos < hi):
                return False
            on_mesh += mult
        if on_mesh != len(vec):
            return False
    return True


def _expand_ranges(lo, hi):
    """``(which, at)``: every ``at`` in ``range(lo[i], hi[i])``, with the
    ``i`` it came from, in order of ``i`` and then ``at``."""
    sizes = hi - lo
    which = np.repeat(np.arange(len(sizes)), sizes)
    at = np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
    at += np.arange(len(which))
    return which, at


def _run_table(mesh: Mesh, direction: int):
    """One direction's runs as sorted integer-keyed arrays.

    Returns ``(keys, starts, ends, mults)``: ``starts`` holds the
    distinct run starts, sorted, and run ``r``, in the order of
    :meth:`Mesh.lines`, has the key ``f * len(starts) + s`` for its
    position index ``f`` and the index ``s`` of its start in ``starts``,
    the end ``ends[r]`` and the multiplicity ``mults[r]``.  The runs at
    one position are disjoint and sorted, so the keys ascend.  On a
    valid mesh every run start is a position of the cross direction;
    ranking the starts themselves keeps the lookup exact on any runs.
    """
    at_position = [mesh.runs_at(direction, pos) for pos in mesh.positions(direction)]
    counts = np.fromiter(map(len, at_position), np.intp, len(at_position))
    table = np.fromiter(chain.from_iterable(chain.from_iterable(at_position)), float)
    lo, hi, mult = table.reshape(-1, 3).T
    starts, rank = np.unique(lo, return_inverse=True)
    keys = np.repeat(np.arange(len(counts)), counts) * len(starts) + rank
    return keys, starts, hi, mult.astype(np.intp)


def _lacking_minimal_support(windows, mesh: Mesh) -> np.ndarray:
    """Per function, whether it lacks minimal support on ``mesh``: the
    verdicts of :func:`_minimal_support`, from one array pass per
    direction.

    ``windows`` holds, for directions 1 and 2, the pair ``(v, which)``:
    knot vectors of that direction as float rows of one length, and per
    function the row of its vector.  The scan's three rules become array
    comparisons over (function, position) pairs, one pair for each mesh
    position in the closed span of a function's support:

    - a knot needs a covering run of at least its multiplicity;
    - a position strictly inside the span needs one of at most the knot
      multiplicity there, zero for a position that holds no knot;
    - the knots counted on the span's positions must sum to the vector
      length, that is, every knot lies on a position.

    The knots at each position and the third rule depend only on the
    vector, so they are computed once per row.  The run covering a
    pair's cross extent is found by one ``searchsorted`` in the run
    table (:func:`_run_table`).  Time and memory are linear in the pairs,
    besides the searches and a sort of the runs.
    """
    lacking = np.zeros(len(windows[0][1]), dtype=bool)
    for direction, (v, which), (cv, cross) in ((1, *windows), (2, *windows[::-1])):
        positions = np.array(mesh.positions(direction), dtype=float)
        keys, starts, ends, mults = _run_table(mesh, direction)
        # per row: each position of its closed span, the knots there, and
        # whether it lies strictly inside the span
        i0 = np.searchsorted(positions, v[:, 0], side="left")
        i1 = np.searchsorted(positions, v[:, -1], side="right")
        row, at = _expand_ranges(i0, i1)
        pos = positions[at]
        knots = sum(v[row, k] == pos for k in range(v.shape[1]))
        inside = (v[row, 0] < pos) & (pos < v[row, -1])
        lacking |= (np.bincount(row, knots, minlength=len(v)) != v.shape[1])[which]
        # per function: the same pairs, and the last run at each position
        # that starts at or below the cross extent's start, if it also
        # reaches the extent's end
        base = np.cumsum(i1 - i0) - (i1 - i0)
        f, pair = _expand_ranges(base[which], (base + i1 - i0)[which])
        at, knots, inside, c = at[pair], knots[pair], inside[pair], cross[f]
        s = np.searchsorted(starts, cv[:, 0], side="right") - 1
        r = np.searchsorted(keys, at * len(starts) + s[c], side="right") - 1
        found = r >= 0
        r[~found] = 0
        found &= ((keys // len(starts))[r] == at) & (ends[r] >= cv[:, -1][c])
        have = np.where(found, mults[r], 0)
        bad = (have < knots) | ((have > knots) & inside)
        lacking[f[bad]] = True
    return lacking
