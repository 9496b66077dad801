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
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

from .bspline import TensorBSpline, has_minimal_support
from .space import Key, LRSpace, SpaceError, _refine_marked, _Refinement

__all__ = [
    "is_nested_knotwise",
    "is_nested_meshwise",
    "nested_map",
    "one_directional_expansion",
    "tensor_expansion",
    "central_span",
    "diagonal_marker",
    "point_marker",
    "RefinementTrace",
    "n2s_pipeline",
]


# -- nestedness -------------------------------------------------------------


def _vector_nested(vi, vo) -> bool:
    """Direction-wise nestedness of local knot vectors (inner vs outer).

    Inside the inner's span the inner must repeat every knot at least as
    often as the outer; outside the outer's open span (boundary included)
    the inner must not exceed the outer's multiplicities.  Together these
    confine the inner's support and regularity inside the outer's.
    """
    ci, co = Counter(vi), Counter(vo)
    for z in ci.keys() | co.keys():
        if vi[0] < z < vi[-1] and ci[z] < co[z]:
            return False
        if not (vo[0] < z < vo[-1]) and ci[z] > co[z]:
            return False
    return True


def is_nested_knotwise(inner: TensorBSpline, outer: TensorBSpline) -> bool:
    """Nestedness decided from the knot vectors alone."""
    if inner.key == outer.key:
        return False
    return _vector_nested(inner.xknots, outer.xknots) and _vector_nested(
        inner.yknots, outer.yknots
    )


def is_nested_meshwise(inner: TensorBSpline, outer: TensorBSpline, mesh) -> bool:
    """Nestedness decided from the supports on a common mesh.

    Requires support containment and, on every side where the two
    support rectangles coincide, at least the inner's knot multiplicity
    on the outer.  Both functions must have minimal support on ``mesh``;
    on such pairs this agrees with :func:`is_nested_knotwise`.
    """
    for b in (inner, outer):
        if not has_minimal_support(b, mesh):
            raise SpaceError(
                "meshwise nestedness requires minimal support on the mesh"
            )
    if inner.key == outer.key:
        return False
    si, so = inner.support, outer.support
    if not so.contains_rect(si):
        return False

    def mult(vec, value) -> int:
        return sum(1 for v in vec if v == value)

    sides = (
        (si.x_min == so.x_min, inner.xknots, outer.xknots, si.x_min),
        (si.x_max == so.x_max, inner.xknots, outer.xknots, si.x_max),
        (si.y_min == so.y_min, inner.yknots, outer.yknots, si.y_min),
        (si.y_max == so.y_max, inner.yknots, outer.yknots, si.y_max),
    )
    for coincide, vi, vo, value in sides:
        if coincide and mult(vi, value) > mult(vo, value):
            return False
    return True


def nested_map(space: LRSpace) -> dict:
    """Map each function with nested functions to their sorted keys.

    Functions without nested functions do not appear, so a space with
    pairwise non-nested supports maps to ``{}``.
    """
    by_outer = _NestedTracker(_Refinement(space)).by_outer
    return {key: tuple(sorted(by_outer[key])) for key in sorted(by_outer)}


# -- expansions -------------------------------------------------------------


def _inners_scan(state: _Refinement, b: TensorBSpline) -> list:
    """The state's functions nested in ``b``, one of them: the support
    rows keep the exact knotwise test to the functions inside ``b``'s
    support."""
    (_, rows), _ = state.containment(state.bounds[[state.rows[b.key]]])
    functions = [state.functions[state.keys[r]] for r in rows]
    return [f for f in functions if is_nested_knotwise(f, b)]


def _one_directional_pieces(b: TensorBSpline, inners, direction: int):
    cross = b.knots(2 if direction == 1 else 1)
    values = set(b.knots(direction))
    for f in inners:
        values.update(f.knots(direction))
    return [(direction, v, cross[0], cross[-1]) for v in sorted(values)]


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
    b = space.functions.get(outer_key)
    if b is None:
        raise SpaceError(f"function {outer_key} is not in the space")
    state = _Refinement(space)
    inners = _inners_scan(state, b)
    if not inners:
        raise SpaceError("expansion requires a function with nested functions")
    pieces = _one_directional_pieces(b, inners, direction)
    return space if state.insert(pieces) is None else state.space()


def tensor_expansion(space: LRSpace, outer_key) -> LRSpace:
    """Extend every meshline crossing the support across it, both directions.

    The heavier alternative to :func:`one_directional_expansion`: the
    mesh restricted to the support becomes a tensor mesh, so no nested
    pair involving the region survives.  Returns the space unchanged
    when the restriction is already tensorized.
    """
    b = space.functions.get(outer_key)
    if b is None:
        raise SpaceError(f"function {outer_key} is not in the space")
    state = _Refinement(space)
    return space if state.insert(_tensor_pieces(space.mesh, b)) is None else state.space()


def _tensor_pieces(mesh, b: TensorBSpline) -> list:
    """The meshline pieces of :func:`tensor_expansion` across ``b``."""
    pieces = []
    for direction in (1, 2):
        vec = b.knots(direction)
        cross = b.knots(2 if direction == 1 else 1)
        c_lo, c_hi = cross[0], cross[-1]
        for pos in mesh.positions(direction):
            if not (vec[0] < pos < vec[-1]):
                continue
            touches = any(
                r_lo < c_hi and c_lo < r_hi
                for r_lo, r_hi, _ in mesh.runs_at(direction, pos)
            )
            if touches:
                pieces.append((direction, pos, c_lo, c_hi))
    return pieces


def central_span(b: TensorBSpline) -> tuple[float, float, float, float]:
    """Bounds ``(x_lo, x_hi, y_lo, y_hi)`` of the central knot span of ``b``.

    Each local knot vector of degree p spans p + 1 consecutive knot
    intervals; the function attains its maximum inside the middle one,
    which is therefore the natural footprint to test against a feature
    when deciding whether to refine.  Where knots repeat, the central
    span collapses to zero width and the half-open box [x_lo, x_hi) x
    [y_lo, y_hi) is empty, so markers built on it never select functions
    centred on the boundary.
    """
    p1, p2 = b.degrees
    cx = (p1 + 1) // 2
    cy = (p2 + 1) // 2
    return (b.xknots[cx], b.xknots[cx + 1], b.yknots[cy], b.yknots[cy + 1])


def diagonal_marker(b: TensorBSpline) -> bool:
    """Marker: the half-open central span meets the diagonal y = x."""
    x0, x1, y0, y1 = central_span(b)
    return max(x0, y0) < min(x1, y1)


def point_marker(points) -> "callable":
    """Build a marker selecting functions whose half-open central span
    contains one of the given points.

    The half-open convention [x_lo, x_hi) x [y_lo, y_hi) assigns a point
    sitting exactly on a knot line to the functions centred on its upper
    side, so each point marks a bounded cluster of functions rather than
    everything whose support merely touches it.
    """
    pts = tuple((float(px), float(py)) for px, py in points)

    def marker(b: TensorBSpline) -> bool:
        x0, x1, y0, y1 = central_span(b)
        return any(x0 <= px < x1 and y0 <= py < y1 for px, py in pts)

    return marker


# -- the pipeline -----------------------------------------------------------


@dataclass
class RefinementTrace:
    """One record per expansion: iteration, outer key, direction, and the
    function count afterwards."""

    records: list = field(default_factory=list)

    def append(self, **fields) -> None:
        self.records.append(dict(fields))

    def __len__(self) -> int:
        return len(self.records)


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
    state's functions.

    Whether two functions are nested depends only on their knot vectors,
    so pairs between surviving functions never change; updates only have
    to handle removed and added functions.  Candidates come from the
    state's support rows, and the exact knotwise test decides each.
    """

    def __init__(self, state: _Refinement):
        self.state = state
        self.by_outer: dict[Key, set] = {}
        self.by_inner: dict[Key, set] = {}
        # (rank, outer) entries; one per outer in by_outer, plus stale ones
        self._heap: list = []
        keys, functions = state.keys, state.functions
        for i, o in zip(*state.nested_pairs()):
            inner_key, outer_key = keys[i], keys[o]
            if is_nested_knotwise(functions[inner_key], functions[outer_key]):
                self._add(inner_key, outer_key)

    def _add(self, inner_key, outer_key) -> None:
        inners = self.by_outer.get(outer_key)
        if inners is None:
            inners = self.by_outer[outer_key] = set()
            heapq.heappush(self._heap, _rank(outer_key))
        inners.add(inner_key)
        self.by_inner.setdefault(inner_key, set()).add(outer_key)

    def _drop(self, key) -> None:
        for outer in self.by_inner.pop(key, ()):
            peers = self.by_outer.get(outer)
            if peers is not None:
                peers.discard(key)
                if not peers:
                    del self.by_outer[outer]
        for inner in self.by_outer.pop(key, ()):
            peers = self.by_inner.get(inner)
            if peers is not None:
                peers.discard(key)
                if not peers:
                    del self.by_inner[inner]

    def update(self, removed, added) -> None:
        """Follow a refinement of the state that removed and added the
        given keys."""
        for key in removed:
            self._drop(key)
        if not added:
            return
        state = self.state
        keys, functions = state.keys, state.functions
        added = list(added)
        own = [state.rows[key] for key in added]
        inside, around = state.containment(state.bounds[own])
        pairs = [(added[a], keys[r]) for a, r in zip(*around) if r != own[a]]
        pairs += [(keys[r], added[a]) for a, r in zip(*inside) if r != own[a]]
        for inner_key, outer_key in pairs:
            if is_nested_knotwise(functions[inner_key], functions[outer_key]):
                self._add(inner_key, outer_key)

    def has_pairs(self) -> bool:
        return bool(self.by_outer)

    def select_outer(self) -> Key:
        """The outer with the largest support area, ties broken by the
        lexicographically smallest knot vectors: ``min(by_outer,
        key=_rank)``, read off a heap whose stale entries are dropped
        here.

        Expanding wide outers first resolves whole regions of nested
        pairs at once and keeps the final spaces close to the minimal
        hierarchically graded ones; the tie-break makes the pipeline
        fully deterministic.
        """
        heap = self._heap
        while heap[0][1] not in self.by_outer:
            heapq.heappop(heap)
        return heap[0][1]

    def inners_of(self, outer_key) -> list:
        return sorted(self.by_outer[outer_key])


def _total_runs(mesh) -> int:
    return sum(
        len(mesh.runs_at(d, pos)) for d in (1, 2) for pos in mesh.positions(d)
    )


def n2s_pipeline(
    space: LRSpace,
    marker,
    iterations: int,
    *,
    parity: str = "odd-vertical",
    expansion: str = "one-directional",
    start_index: int = 1,
) -> tuple[LRSpace, RefinementTrace]:
    """Alternate structured refinement with expansion sweeps.

    Per iteration ``i``: mark functions with ``marker`` (selecting none
    is an error), structured-refine them, then expand outers of nested
    pairs one at a time -- largest support first -- in a single
    direction (vertical on odd ``i`` under the default parity,
    horizontal on even; ``parity="odd-horizontal"`` flips this,
    ``expansion="full"`` substitutes two-directional tensor expansions)
    until no nested pair remains.  The sweep provably terminates; a
    generous cap on the expansion count (the mesh's meshline-run total)
    turns a violation into a diagnostic ``RuntimeError``.

    ``start_index`` numbers the first iteration, so a run can be
    continued level by level with the same alternation as one long run.

    All iterations refine one working state in place, so no space is
    built between expansions.  Returns the refined space and a trace
    with one record per expansion.
    """
    if iterations < 0:
        raise SpaceError(f"iterations must be >= 0, got {iterations}")
    if parity not in ("odd-vertical", "odd-horizontal"):
        raise SpaceError(f"unknown parity {parity!r}")
    if expansion not in ("one-directional", "full"):
        raise SpaceError(f"unknown expansion mode {expansion!r}")

    state = _Refinement(space)
    functions = state.functions  # refined in place throughout
    trace = RefinementTrace()
    for i in range(start_index, start_index + iterations):
        marked = [k for k in sorted(functions) if marker(functions[k])]
        if not marked:
            raise SpaceError(f"marker selected no functions at iteration {i}")
        _refine_marked(state, marked)

        odd = i % 2 == 1
        if parity == "odd-vertical":
            direction = 1 if odd else 2
        else:
            direction = 2 if odd else 1

        tracker = _NestedTracker(state)
        cap = _total_runs(state.mesh)
        count = 0
        while tracker.has_pairs():
            outer_key = tracker.select_outer()
            outer = functions[outer_key]
            if expansion == "one-directional":
                inners = [functions[k] for k in tracker.inners_of(outer_key)]
                pieces = _one_directional_pieces(outer, inners, direction)
            else:
                pieces = _tensor_pieces(state.mesh, outer)
            diff = state.insert(pieces)
            if diff is None:
                raise RuntimeError(
                    f"expansion at iteration {i} made no progress on a nested "
                    f"pair; the mesh violates the interior-multiplicity-1 "
                    f"assumption of the strategy"
                )
            count += 1
            if count > cap:
                raise RuntimeError(
                    f"expansion count exceeded the termination cap {cap} at "
                    f"iteration {i}"
                )
            tracker.update(*diff)
            trace.append(
                iter=i,
                outer=outer_key,
                dir=direction,
                n_functions_after=len(functions),
            )
    return state.space(), trace
