"""Refinement to non-nested supports (the ``n2s2`` strategy).

Two B-splines are *nested* when one's support sits inside the other's
in the strong sense below; nested pairs are exactly what breaks local
linear independence of LR B-splines on open meshes.  This module
provides the pair tests, the one-directional tensor expansions that
remove a nested pair by extending knot lines across the outer support,
and the pipeline that alternates structured refinement with expansion
sweeps so every produced space has pairwise non-nested supports -- and
with it, local linear independence and partition of unity with unit
weights.

Nestedness, central spans and markers read only knot vectors, so they
take function keys, the ``(xknots, yknots)`` pairs of
``LRSpace.functions``, and no function object is built per call.
"""

from __future__ import annotations

import heapq

from .bspline import _minimal_support
from .mesh import Split
from .space import Key, LRSpace, SpaceError, _incidence, _nested_supports, _refine_marked, _Refinement

__all__ = [
    "is_nested_knotwise",
    "is_nested_meshwise",
    "one_directional_expansion",
    "tensor_expansion",
    "central_span",
    "diagonal_marker",
    "point_marker",
    "n2s_pipeline",
    "EXPANSIONS",
]

#: The sweeps :func:`n2s_pipeline` can run, its ``expansion`` values.
EXPANSIONS = ("odd-vertical", "odd-horizontal", "full")


def _check_expansion(expansion) -> None:
    """Raise :class:`SpaceError` unless ``expansion`` is in :data:`EXPANSIONS`."""
    if expansion not in EXPANSIONS:
        raise SpaceError(f"unknown expansion {expansion!r}")


# -- nestedness -------------------------------------------------------------


def _vector_nested(vi, vo) -> bool:
    """Direction-wise nestedness of local knot vectors (inner vs outer).

    Inside the inner's span the inner must repeat every knot at least as
    often as the outer; outside the outer's open span (boundary included)
    the inner must not exceed the outer's multiplicities.  Together these
    confine the inner's support and regularity inside the outer's.

    The first rule can fail only at a knot of the outer, the second only
    at a knot of the inner, so each scans one vector's few knots and
    counts them in both; a repeated knot is counted again, which costs
    less than skipping it.
    """
    lo, hi = vi[0], vi[-1]
    for z in vo:
        if lo < z < hi and vi.count(z) < vo.count(z):
            return False
    lo, hi = vo[0], vo[-1]
    for z in vi:
        if not (lo < z < hi) and vi.count(z) > vo.count(z):
            return False
    return True


def is_nested_knotwise(inner: Key, outer: Key) -> bool:
    """Nestedness of the functions with the keys ``inner`` and ``outer``,
    decided from the knot vectors alone."""
    if inner == outer:
        return False
    return _vector_nested(inner[0], outer[0]) and _vector_nested(inner[1], outer[1])


def is_nested_meshwise(inner: Key, outer: Key, mesh) -> bool:
    """Nestedness of the functions with the keys ``inner`` and ``outer``,
    decided from their supports on a common mesh.

    Requires support containment and, on every side where the two
    support rectangles coincide, at least the inner's knot multiplicity
    on the outer.  Both functions must have minimal support on ``mesh``;
    on such pairs this agrees with :func:`is_nested_knotwise`.
    """
    for key in (inner, outer):
        if not _minimal_support(*key, mesh):
            raise SpaceError(
                "meshwise nestedness requires minimal support on the mesh"
            )
    return _nested_meshwise(inner, outer)


def _nested_meshwise(inner: Key, outer: Key) -> bool:
    """:func:`is_nested_meshwise` of two functions with minimal support
    on a common mesh, which it does not check."""
    if inner == outer:
        return False
    for vi, vo in zip(inner, outer):
        if not (vo[0] <= vi[0] and vi[-1] <= vo[-1]):
            return False
    for vi, vo in zip(inner, outer):
        for end in (0, -1):
            value = vi[end]
            if value == vo[end] and vi.count(value) > vo.count(value):
                return False
    return True


def _nested_verdicts(space: LRSpace) -> tuple[list, list]:
    """The knotwise and the meshwise verdict on every pair of functions
    whose supports nest, found from the space's incidence, in one pair
    order, so either test can find a pair the other misses.  The meshwise
    test is unchecked: every function must have minimal support."""
    keys, _, _, _, ((vx, wx), (vy, wy)) = _incidence(space)
    inner, outer = _nested_supports(space.mesh, (vx[wx, 0], vx[wx, -1], vy[wy, 0], vy[wy, -1]))
    pairs = [(keys[i], keys[o]) for i, o in zip(inner.tolist(), outer.tolist())]
    knotwise = [is_nested_knotwise(inner, outer) for inner, outer in pairs]
    return knotwise, [_nested_meshwise(inner, outer) for inner, outer in pairs]


# -- expansions -------------------------------------------------------------


def _one_directional_pieces(outer_key: Key, inner_keys, direction: int):
    """The meshline pieces of :func:`one_directional_expansion` across
    the function with the key ``outer_key``."""
    cross = outer_key[2 - direction]
    values = set(outer_key[direction - 1])
    for key in inner_keys:
        values.update(key[direction - 1])
    return [Split(direction, v, cross[0], cross[-1]) for v in sorted(values)]


def one_directional_expansion(space: LRSpace, outer_key, direction: int) -> LRSpace:
    """Extend the knot lines of a function and its nested functions in one
    direction across the outer support.

    All direction-``direction`` knot values of the outer function and of
    every function nested under it are completed across the outer
    support's cross-extent at multiplicity one (only uncovered gaps are
    inserted), and the space is regenerated.  Returns the space
    unchanged when every such line already spans the support.  Raises
    when the function has no nested functions.
    """
    if outer_key not in space.functions:
        raise SpaceError(f"function {outer_key} is not in the space")
    state = _Refinement(space)
    pairs = state.containment([outer_key])
    inner_keys = [k for k, o in pairs if o == outer_key and is_nested_knotwise(k, outer_key)]
    if not inner_keys:
        raise SpaceError("expansion requires a function with nested functions")
    pieces = _one_directional_pieces(outer_key, inner_keys, direction)
    return space if state.insert(pieces) is None else state.space()


def tensor_expansion(space: LRSpace, outer_key) -> LRSpace:
    """Extend every meshline crossing the support across it, both directions.

    The heavier alternative to :func:`one_directional_expansion`: the
    mesh restricted to the support becomes a tensor mesh, so no nested
    pair involving the region survives.  Returns the space unchanged
    when the restriction is already tensorized.
    """
    if outer_key not in space.functions:
        raise SpaceError(f"function {outer_key} is not in the space")
    state = _Refinement(space)
    return space if state.insert(_tensor_pieces(space.mesh, outer_key)) is None else state.space()


def _tensor_pieces(mesh, key: Key) -> list:
    """The meshline pieces of :func:`tensor_expansion` across the
    function with the key ``key``."""
    pieces = []
    xv, yv = key
    for direction, vec, cross in ((1, xv, yv), (2, yv, xv)):
        c_lo, c_hi = cross[0], cross[-1]
        for pos in mesh.positions(direction):
            if not (vec[0] < pos < vec[-1]):
                continue
            touches = any(
                r_lo < c_hi and c_lo < r_hi
                for r_lo, r_hi, _ in mesh.runs_at(direction, pos)
            )
            if touches:
                pieces.append(Split(direction, pos, c_lo, c_hi))
    return pieces


def central_span(key: Key) -> tuple[float, float, float, float]:
    """Bounds ``(x_lo, x_hi, y_lo, y_hi)`` of the central knot span of the
    function with the key ``key``.

    Each local knot vector of degree p spans p + 1 consecutive knot
    intervals; the function attains its maximum inside the middle one,
    which is therefore the natural footprint to test against a feature
    when deciding whether to refine.  Where knots repeat, the central
    span collapses to zero width and the half-open box [x_lo, x_hi) x
    [y_lo, y_hi) is empty, so markers built on it never select functions
    centred on the boundary.
    """
    xv, yv = key
    cx = (len(xv) - 1) // 2
    cy = (len(yv) - 1) // 2
    return (xv[cx], xv[cx + 1], yv[cy], yv[cy + 1])


def diagonal_marker(key: Key) -> bool:
    """Marker: the half-open central span meets the diagonal y = x."""
    x0, x1, y0, y1 = central_span(key)
    return max(x0, y0) < min(x1, y1)


def point_marker(points) -> "callable":
    """Build a marker selecting the keys of functions whose half-open
    central span contains one of the given points.

    The half-open convention [x_lo, x_hi) x [y_lo, y_hi) assigns a point
    sitting exactly on a knot line to the functions centred on its upper
    side, so each point marks a bounded cluster of functions rather than
    everything whose support merely touches it.
    """
    pts = tuple((float(px), float(py)) for px, py in points)

    def marker(key: Key) -> bool:
        x0, x1, y0, y1 = central_span(key)
        return any(x0 <= px < x1 and y0 <= py < y1 for px, py in pts)

    return marker


# -- the pipeline -----------------------------------------------------------


def _rank(key: Key):
    """Selection order of outers: the largest support area first, ties
    broken by the lexicographically smallest knot vectors."""
    # The area times 2^96, exactly: the widths are dyadic with
    # exponents at most 48, so their denominators divide 2^96.
    xv, yv = key
    nx, dx = (xv[-1] - xv[0]).as_integer_ratio()
    ny, dy = (yv[-1] - yv[0]).as_integer_ratio()
    return (-(nx * ny << 96) // (dx * dy), key)


class _NestedTracker:
    """Incrementally maintained nested-pair relation of a refinement
    state's functions: ``by_outer`` maps each outer key to its inner
    keys.

    Whether two functions are nested depends only on their knot vectors,
    so pairs between surviving functions never change; an update only
    adds the pairs of the added functions.  Candidates are the key pairs
    whose supports nest, from the state's support queries, and the exact
    knotwise test decides each.

    Keys the state has removed are dropped lazily, when :meth:`select`
    reads them.  That is sound because a removed key never comes back: it
    lacked minimal support on the line that split it, and that line stays
    in the mesh.  A fresh tracker holds live keys only.
    """

    def __init__(self, state: _Refinement):
        self.state = state
        self.by_outer: dict[Key, set] = {}
        # (rank, outer) entries, exactly one per outer in by_outer
        self._heap: list = []
        self._add(state.nested_pairs())

    def _add(self, pairs) -> None:
        """Record the candidate pairs ``(inner, outer)`` that nest."""
        for inner_key, outer_key in pairs:
            if is_nested_knotwise(inner_key, outer_key):
                inners = self.by_outer.get(outer_key)
                if inners is None:
                    inners = self.by_outer[outer_key] = set()
                    heapq.heappush(self._heap, _rank(outer_key))
                inners.add(inner_key)

    def update(self, added) -> None:
        """Add the pairs of the keys a refinement of the state added."""
        if added:
            self._add(self.state.containment(added))

    def select(self):
        """The live outer with the largest support area, ties broken by
        the lexicographically smallest knot vectors, and its sorted live
        inner keys; None when no live pair is left.

        The outer is ``min(live outers, key=_rank)``, read off the heap;
        outers found dead, or with no live inner, leave the relation here.
        Expanding wide outers first resolves whole regions of nested
        pairs at once and keeps the final spaces close to the minimal
        hierarchically graded ones; the tie-break makes the pipeline
        fully deterministic.
        """
        heap, by_outer, live = self._heap, self.by_outer, self.state.functions
        while heap:
            outer_key = heap[0][1]
            if outer_key in live:
                inners = by_outer[outer_key] = {k for k in by_outer[outer_key] if k in live}
                if inners:
                    return outer_key, sorted(inners)
            heapq.heappop(heap)
            del by_outer[outer_key]
        return None


def n2s_pipeline(
    space: LRSpace,
    marker,
    iterations: int,
    *,
    expansion: str = "odd-vertical",
    start_index: int = 1,
) -> tuple[list[LRSpace], list[dict]]:
    """Alternate structured refinement with expansion sweeps.

    Per iteration ``i``: mark functions with ``marker``, called with each
    key in ascending order (selecting none is an error), structured-refine
    them, then expand outers of nested pairs one at a time -- largest
    support first -- until no nested pair remains.  ``expansion`` picks
    the sweep: ``"odd-vertical"`` (the default) expands in one direction,
    vertical on odd ``i`` and horizontal on even; ``"odd-horizontal"``
    swaps the two; ``"full"`` uses two-directional tensor expansions.

    The sweep terminates.  Each expansion inserts at least one uncovered
    piece, or it raises ``RuntimeError``.  Every piece lies at an
    existing mesh position and runs between existing positions, because
    the knots of functions with minimal support are mesh positions; so
    the sweep adds no position.  Each of the finitely many edges of the
    position grid at the start of the sweep can be covered only once.

    ``start_index`` numbers the first iteration, so a run can be
    continued with the same alternation as one long run.

    All iterations refine one working state in place, so no space is
    built between expansions.  Returns ``(spaces, trace)``: ``spaces[j]``
    is the space after iteration ``start_index + j``, and ``trace`` holds
    one record per expansion, a dict of the iteration ``iter``, the
    ``outer`` key, the direction ``dir`` and ``n_functions_after``.  A
    tensor expansion reads no direction; under ``"full"``, ``dir`` is the
    ``"odd-vertical"`` direction of the iteration.
    """
    if iterations < 0:
        raise SpaceError(f"iterations must be >= 0, got {iterations}")
    _check_expansion(expansion)

    state = _Refinement(space)
    functions = state.functions  # refined in place throughout
    spaces, trace = [], []
    last = start_index + iterations - 1
    for i in range(start_index, last + 1):
        marked = [k for k in sorted(functions) if marker(k)]
        if not marked:
            raise SpaceError(f"marker selected no functions at iteration {i}")
        _refine_marked(state, marked)

        direction = 1 if (i % 2 == 1) == (expansion != "odd-horizontal") else 2
        tracker = _NestedTracker(state)
        while (pair := tracker.select()) is not None:
            outer_key, inner_keys = pair
            if expansion == "full":
                pieces = _tensor_pieces(state.mesh, outer_key)
            else:
                pieces = _one_directional_pieces(outer_key, inner_keys, direction)
            diff = state.insert(pieces)
            if diff is None:
                raise RuntimeError(
                    f"expansion at iteration {i} made no progress on a nested "
                    f"pair; the mesh violates the interior-multiplicity-1 "
                    f"assumption of the strategy"
                )
            tracker.update(diff[1])
            trace.append(
                {"iter": i, "outer": outer_key, "dir": direction, "n_functions_after": len(functions)}
            )
        spaces.append(state.space() if i == last else LRSpace(state.mesh, dict(functions)))
    return spaces, trace
