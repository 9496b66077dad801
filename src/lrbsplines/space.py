"""LR B-spline spaces: generation by knot insertion and diagnostics.

A space couples a mesh with the set of B-splines of minimal support on
it, keyed by their knot vectors and carrying exact rational weights.
Whenever meshlines are added, functions that lose minimal support are
replaced by their knot-insertion children until the set is stable; the
resulting set is independent of the order in which lines are added or
functions are processed, and the weights accumulate exactly.

A refinement call never modifies the space it is given.  It builds one
private working state from it (:class:`_Refinement`: the mesh, a copy
of the function dict and the support rows), inserts meshlines and runs
generation fixpoints on that state in place, and returns one new space.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bspline import (
    _knot_windows,
    _stacked_values,
    _trusted_bspline,
    find_refining_split,
    has_minimal_support,
    insert_knot,
    local_knot_vector,
    univariate_values,
)
from .dyadic import DyadicCoord, dyadic, midpoint
from .mesh import Element, Mesh, MeshError, Split, insert_split, is_tensorized

__all__ = [
    "SpaceError",
    "LRSpace",
    "function_key",
    "initial_space",
    "apply_split",
    "structured_refine",
    "element_support_count",
    "element_support_table",
    "is_locally_linearly_independent",
    "partition_of_unity_defect",
    "evaluate_space",
    "collocation_rank",
    "collocation_points",
]

#: A function key: the pair of knot vectors.
Key = tuple[tuple[DyadicCoord, ...], tuple[DyadicCoord, ...]]


class SpaceError(ValueError):
    """A space-level operation violates its contract."""


def function_key(xknots, yknots) -> Key:
    """Normalize two knot vectors into a function key."""
    return (local_knot_vector(xknots), local_knot_vector(yknots))


class LRSpace:
    """A mesh plus its minimal-support B-splines, keyed by knot vectors.

    Treat instances as immutable; operations return new spaces.
    """

    __slots__ = ("mesh", "functions")

    def __init__(self, mesh: Mesh, functions: dict):
        self.mesh = mesh
        self.functions = functions

    @property
    def n_functions(self) -> int:
        return len(self.functions)

    def sorted_keys(self) -> list[Key]:
        return sorted(self.functions)

    def validate(self) -> None:
        """Check the space invariants; raises SpaceError on violation."""
        p1, p2 = self.mesh.bidegree
        for key, b in self.functions.items():
            if b.degrees != (p1, p2):
                raise SpaceError(f"function {key} has degrees {b.degrees}, mesh {self.mesh.bidegree}")
            if b.key != key:
                raise SpaceError(f"function stored under foreign key {key}")
            if not has_minimal_support(b, self.mesh):
                raise SpaceError(f"function {key} lacks minimal support")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LRSpace):
            return NotImplemented
        return self.mesh == other.mesh and self.functions == other.functions

    def __repr__(self) -> str:
        return f"<LRSpace {self.mesh.domain} bidegree {self.mesh.bidegree}: {self.n_functions} functions>"


# -- construction -----------------------------------------------------------


def initial_space(mesh: Mesh) -> LRSpace:
    """All tensor-product B-splines of an open tensor mesh, weight one.

    The functions are the products of the consecutive windows of the two
    global knot vectors.  Each window is validated once, through
    ``local_knot_vector``, and the functions are built from the validated
    windows without running ``TensorBSpline.__post_init__`` again: they
    equal what the validating constructor gives.  The mesh's elements
    are not read.
    """
    if not (is_tensorized(mesh, 1) and is_tensorized(mesh, 2)):
        raise SpaceError("initial space requires a tensor mesh")
    p1, p2 = mesh.bidegree

    def global_vector(direction: int, degree: int):
        out = []
        f_lo, f_hi = mesh.domain.interval(direction)
        for pos in mesh.positions(direction):
            mult = mesh.runs_at(direction, pos)[0][2]
            if pos in (f_lo, f_hi) and mult != degree + 1:
                raise SpaceError(
                    f"initial space requires an open mesh; boundary at {pos} "
                    f"has multiplicity {mult}, expected {degree + 1}"
                )
            out.extend([pos] * mult)
        return out

    gx = global_vector(1, p1)
    gy = global_vector(2, p2)
    x_windows = [local_knot_vector(w) for w in _knot_windows(gx, p1)]
    y_windows = [local_knot_vector(w) for w in _knot_windows(gy, p2)]
    one = Fraction(1)
    functions = {(xv, yv): _trusted_bspline(xv, yv, one) for xv in x_windows for yv in y_windows}
    return LRSpace(mesh, functions)


# -- the refinement state ---------------------------------------------------

#: Element-batched array code works in chunks of elements small enough
#: that no per-chunk temporary of shape (elements, functions[, points])
#: holds more than this many entries (2 MiB of floats), which keeps its
#: peak memory below that of the sparse solve that follows assembly.
_CHUNK_ENTRIES = 1 << 18


def _support_bounds(keys) -> np.ndarray:
    """Support rectangles ``(x_min, x_max, y_min, y_max)`` of the functions
    with the given keys, one row per key, read from the knot vectors."""
    rows = chain.from_iterable((xv[0], xv[-1], yv[0], yv[-1]) for xv, yv in keys)
    return np.fromiter(rows, dtype=float).reshape(-1, 4)


def _expand_ranges(lo, hi):
    """``(which, at)``: every ``at`` in ``range(lo[i], hi[i])``, with the
    ``i`` it came from, in order of ``i`` and then ``at``."""
    sizes = hi - lo
    which = np.repeat(np.arange(len(sizes)), sizes)
    at = np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
    at += np.arange(len(which))
    return which, at


class _Refinement:
    """The working state of one refinement call: the current mesh, a
    private copy of the function dict, and the functions' support rows
    for crossing and containment queries.

    Row ``i`` holds the key ``keys[i]`` and its support bounds
    ``bounds[i] = (x_min, x_max, y_min, y_max)``; ``rows`` maps every
    live key to its row.  :meth:`insert` and :meth:`regenerate` refine
    the functions in place and follow the generation fixpoint's diff in
    the rows: a removed key's row is blanked to NaN bounds, which fail
    every comparison, and an added key gets a new row.  Dead rows are
    dropped once they outnumber the live ones.  Bounds are the doubles of
    dyadic coordinates, hence exact, and so is every comparison.  The
    space the state starts from is never modified.
    """

    __slots__ = ("mesh", "functions", "keys", "bounds", "rows")

    def __init__(self, space: LRSpace):
        self.mesh = space.mesh
        self.functions = dict(space.functions)
        self.keys = list(self.functions)
        self.bounds = _support_bounds(self.keys)
        self.rows = {key: i for i, key in enumerate(self.keys)}

    def space(self) -> LRSpace:
        """The refined space.  It shares the state's function dict, so
        this is the state's last use."""
        return LRSpace(self.mesh, self.functions)

    def insert(self, pieces):
        """Insert meshline pieces (gap-decomposed against the evolving
        mesh) and regenerate.  ``pieces`` are (direction, pos, lo, hi)
        requests at multiplicity one.  Returns the fixpoint's diff as
        :meth:`regenerate` does, or None, changing nothing, when every
        piece is already covered."""
        mesh = self.mesh
        inserted = []
        for direction, pos, lo, hi in sorted(set(pieces)):
            for g_lo, g_hi in _uncovered_gaps(mesh, direction, pos, lo, hi):
                mesh = insert_split(mesh, Split(direction, pos, g_lo, g_hi, 1))
                inserted.append((direction, pos, g_lo, g_hi))
        return self.regenerate(mesh, inserted) if inserted else None

    def regenerate(self, mesh: Mesh, segments):
        """Move to ``mesh``, which is the current mesh plus the
        ``(direction, pos, lo, hi)`` segments, and restore minimal support.

        Only the functions whose support a segment crosses can lose
        minimal support, so the fixpoint starts from those.  Returns its
        diff, ``(removed, added)``.
        """
        dirty = self.crossing(segments)
        self.mesh = mesh
        removed, added = _fixpoint(mesh, self.functions, dirty)
        self._follow(removed, added)
        return removed, added

    def _follow(self, removed, added) -> None:
        """Drop the rows of ``removed`` and give ``added`` new ones."""
        added = list(added)
        keys, rows = self.keys, self.rows
        rows.update(zip(added, range(len(keys), len(keys) + len(added))))
        keys.extend(added)
        self.bounds = bounds = np.concatenate((self.bounds, _support_bounds(added)))
        dead = [rows.pop(key) for key in removed]
        bounds[dead] = np.nan
        for i in dead:
            keys[i] = None
        if 2 * len(rows) < len(keys):
            live = np.flatnonzero(~np.isnan(bounds[:, 0]))
            self.keys = [keys[i] for i in live]
            self.bounds = bounds[live]
            self.rows = {key: i for i, key in enumerate(self.keys)}

    def crossing(self, segments) -> list:
        """Keys of the functions whose support one of the ``(direction,
        pos, lo, hi)`` segments crosses: ``pos`` lies strictly inside the
        support in ``direction``, and ``[lo, hi]`` meets the open cross
        extent."""
        segments = np.array(segments, dtype=float).reshape(-1, 4)
        b = self.bounds.T
        hit = np.zeros(len(self.keys), dtype=bool)
        step = max(1, _CHUNK_ENTRIES // max(len(self.keys), 1))
        for direction, (a0, a1, c0, c1) in ((1, b), (2, b[[2, 3, 0, 1]])):
            seg = segments[segments[:, 0] == direction]
            for start in range(0, len(seg), step):
                pos, lo, hi = seg[start : start + step, 1:, None].transpose(1, 0, 2)
                mask = (a0 < pos) & (pos < a1) & (c0 < hi) & (lo < c1)
                hit |= mask.any(axis=0)
        return [self.keys[i] for i in np.flatnonzero(hit)]

    def containment(self, boxes):
        """Rows nested with the rectangles ``boxes``, ``(m, 4)`` bounds.

        Returns ``(inside, around)``, each a pair of index arrays ``(i,
        rows)``: in ``inside`` row ``rows[j]``'s support lies in box
        ``i[j]``, in ``around`` it contains that box.
        """
        b = self.bounds.T
        step = max(1, _CHUNK_ENTRIES // max(len(self.keys), 1))
        inside, around = [], []
        for start in range(0, len(boxes), step):
            x0, x1, y0, y1 = boxes[start : start + step, :, None].transpose(1, 0, 2)
            for out, mask in (
                (inside, (b[0] >= x0) & (b[1] <= x1) & (b[2] >= y0) & (b[3] <= y1)),
                (around, (b[0] <= x0) & (b[1] >= x1) & (b[2] <= y0) & (b[3] >= y1)),
            ):
                i, r = np.nonzero(mask)
                out.append((i + start, r))
        return tuple(
            (np.concatenate([i for i, _ in pairs]), np.concatenate([r for _, r in pairs]))
            for pairs in (inside, around)
        )

    def nested_pairs(self):
        """All pairs ``(inner, outer)`` of distinct live rows whose
        supports nest, as two index arrays.

        Sorting the rows by ``x_min`` confines each row's candidates to
        the run whose ``x_min`` lies in ``[x_min, x_max)``, so the work is
        proportional to those runs, not to all pairs.
        """
        live = np.flatnonzero(~np.isnan(self.bounds[:, 0]))
        b = self.bounds[live]
        order = np.argsort(b[:, 0], kind="stable")
        x_sorted = b[order, 0]
        first = np.searchsorted(x_sorted, b[:, 0], side="left")
        counts = np.searchsorted(x_sorted, b[:, 1], side="left") - first
        ends = np.cumsum(counts)
        inner, outer = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        start = done = 0
        while start < len(b):
            # outers start:stop, whose runs hold about _CHUNK_ENTRIES candidates
            stop = max(start + 1, int(np.searchsorted(ends, done + _CHUNK_ENTRIES, side="right")))
            which, at = _expand_ranges(first[start:stop], first[start:stop] + counts[start:stop])
            o = which + start
            i = order[at]
            keep = (i != o) & (b[i, 1] <= b[o, 1]) & (b[i, 2] >= b[o, 2]) & (b[i, 3] <= b[o, 3])
            inner.append(live[i[keep]])
            outer.append(live[o[keep]])
            start, done = stop, ends[stop - 1]
        return np.concatenate(inner), np.concatenate(outer)


# -- the generation fixpoint ------------------------------------------------


def _fixpoint(mesh: Mesh, functions: dict, dirty) -> tuple[set, set]:
    """Replace functions lacking minimal support by their knot-insertion
    children until stable, starting from the distinct keys ``dirty``.
    Mutates ``functions``; returns the keys it removed and the keys it
    added, disjoint: a key split here that comes back as a child lacks
    minimal support on the same mesh, so it is split again.  Coinciding
    children merge by adding weights, so the result is independent of
    processing order."""
    heap = sorted(dirty)
    removed: set = set()
    added: set = set()
    while heap:
        key = heapq.heappop(heap)
        b = functions.get(key)
        if b is None:
            continue
        hit = find_refining_split(b, mesh)
        if hit is None:
            continue
        direction, pos, _deficit = hit
        (_, child1), (_, child2) = insert_knot(b, direction, pos)
        del functions[key]
        if key in added:
            added.remove(key)
        else:
            removed.add(key)
        for child in (child1, child2):
            k = child.key
            old = functions.get(k)
            if old is None:
                functions[k] = child
                heapq.heappush(heap, k)
                added.add(k)
            else:
                functions[k] = _trusted_bspline(old.xknots, old.yknots, old.weight + child.weight)
    return removed, added


def _uncovered_gaps(mesh: Mesh, direction: int, pos, lo, hi):
    """Subintervals of [lo, hi] not covered by runs at (direction, pos)."""
    gaps = []
    current = lo
    for r_lo, r_hi, _ in mesh.runs_at(direction, pos):
        if r_hi <= current or r_lo >= hi:
            continue
        if r_lo > current:
            gaps.append((current, r_lo))
        if r_hi > current:
            current = r_hi
        if current >= hi:
            break
    if current < hi:
        gaps.append((current, hi))
    return gaps


def apply_split(space: LRSpace, split: Split) -> LRSpace:
    """Insert one split and regenerate.  The split must be insertable on
    the mesh and must refine at least one function."""
    mesh = insert_split(space.mesh, split)
    state = _Refinement(space)
    removed, _ = state.regenerate(mesh, [(split.direction, split.fixed, split.lo, split.hi)])
    if not removed:
        raise SpaceError(
            f"split at direction-{split.direction} position {split.fixed} "
            f"refines no function in the space"
        )
    return state.space()


def structured_refine(space: LRSpace, marked) -> LRSpace:
    """Halve every knot span of the marked functions across their supports.

    For each marked function and each direction, meshlines are inserted
    at the midpoints of consecutive distinct knots, spanning the full
    support cross-extent, at multiplicity one.  Only the uncovered gaps
    are added; one generation fixpoint then restores minimal support.
    """
    marked_keys = list(marked)
    if not marked_keys:
        raise SpaceError("no functions marked for refinement")
    state = _Refinement(space)
    _refine_marked(state, marked_keys)
    return state.space()


def _refine_marked(state: _Refinement, marked) -> None:
    """:func:`structured_refine` of the marked keys (or functions) on
    ``state``."""
    pieces = []
    for key in marked:
        b = state.functions.get(key if isinstance(key, tuple) else key.key)
        if b is None:
            raise SpaceError(f"marked function {key} is not in the space")
        for direction in (1, 2):
            vec = b.knots(direction)
            cross = b.knots(2 if direction == 1 else 1)
            distinct = sorted(set(vec))
            for a, c in zip(distinct, distinct[1:]):
                pieces.append((direction, midpoint(a, c), cross[0], cross[-1]))
    if state.insert(pieces) is None:
        raise SpaceError("marked functions are already refined (no new meshlines)")


# -- diagnostics ------------------------------------------------------------


def element_support_count(space: LRSpace, element: Element) -> int:
    """Number of functions whose support contains the element, by an
    exact-coordinate scan of every function: O(n) per element."""
    rect = element.rect
    return sum(1 for b in space.functions.values() if b.support.contains_rect(rect))


def _element_bounds(mesh: Mesh) -> np.ndarray:
    """The elements' bounds ``x0, x1, y0, y1`` as a ``(4, elements)``
    array, in ``mesh.elements()`` order."""
    rects = (e.rect for e in mesh.elements())
    rows = chain.from_iterable((r.x_min, r.x_max, r.y_min, r.y_max) for r in rects)
    return np.fromiter(rows, dtype=float).reshape(-1, 4).T


def _incidence(space: LRSpace):
    """The element--function incidence in compressed rows.

    Returns ``(keys, counts, indices, bounds)``: ``keys`` is
    ``space.sorted_keys()``, and element ``e`` of ``mesh.elements()``
    carries the functions ``indices[s:s + counts[e]]``, ascending, with
    ``s`` the sum of the earlier counts; ``bounds`` is
    :func:`_element_bounds` of the mesh.  A function is supported on an
    element when its support contains the element's closure.

    Elements tile the domain, so each one is named by its lower-left
    corner, keyed by the corner's position indices.  A function's
    support ``[a, b] x [c, d]`` holds the corners in ``[a, b) x [c, d)``:
    per mesh column in ``[a, b)``, two searches of the sorted corner keys
    find those in ``[c, d)``, and the candidates whose far corner lies
    outside the support are dropped, so the result is the dense
    containment test of every element against every function whether or
    not the functions have minimal support.  O(nnz log n) time and
    memory, with nnz the incidences and the few candidates dropped.
    """
    keys = space.sorted_keys()
    mesh = space.mesh
    x0, x1, y0, y1 = bounds = _element_bounds(mesh)
    xpos = np.array(mesh.positions(1), dtype=float)
    ypos = np.array(mesh.positions(2), dtype=float)
    corners = np.searchsorted(xpos, x0) * len(ypos) + np.searchsorted(ypos, y0)
    order = np.argsort(corners, kind="stable")
    corners = corners[order]
    a, b, c, d = _support_bounds(keys).T
    column_lo, column_hi = np.searchsorted(xpos, a), np.searchsorted(xpos, b)
    f, column = _expand_ranges(column_lo, column_hi)
    base = column * len(ypos)
    lo = np.searchsorted(corners, base + np.searchsorted(ypos, c)[f])
    hi = np.searchsorted(corners, base + np.searchsorted(ypos, d)[f])
    probe, at = _expand_ranges(lo, hi)
    f, e = f[probe], order[at]
    del probe, at  # the largest temporaries: free them before the filter's
    keep = (x1[e] <= b[f]) & (y1[e] <= d[f])
    f, e = f[keep], e[keep]
    by_element = np.argsort(e, kind="stable")
    counts = np.bincount(e, minlength=len(x0))
    return keys, counts, f[by_element], bounds


def element_support_table(space: LRSpace):
    """Per element, the indices (into ``space.sorted_keys()``) of the
    functions supported on it, ascending.

    The rows are read from the element--function incidence, a range query
    over the elements' sorted lower-left corners per function: O(nnz log
    n) time and memory, with nnz the sum of the row lengths."""
    keys, counts, indices, _ = _incidence(space)
    return keys, np.split(indices, np.cumsum(counts)[:-1])


class _ElementArrays(NamedTuple):
    """What element-batched code reads of a space, as arrays.

    ``xknots`` and ``yknots`` are the keys' knot vectors, ``(functions,
    p1+2)`` and ``(functions, p2+2)``; ``bounds`` holds the element
    bounds ``x0, x1, y0, y1``.  Per direction, ``rule_x`` and ``rule_y``
    are the (p+1)-point Gauss--Legendre nodes and weights on [-1, 1],
    and ``xs``, ``wx`` and ``ys``, ``wy`` that rule's points and weights
    on every element, ``(elements, p+1)``.
    """

    xknots: np.ndarray
    yknots: np.ndarray
    bounds: np.ndarray
    rule_x: tuple
    rule_y: tuple
    xs: np.ndarray
    wx: np.ndarray
    ys: np.ndarray
    wy: np.ndarray


def _element_arrays(space: LRSpace, keys, bounds) -> _ElementArrays:
    """The element arrays of the space, with the functions in the order
    of ``keys`` and the element bounds ``bounds`` that
    :func:`_incidence` returns."""
    p1, p2 = space.mesh.bidegree
    x0, x1, y0, y1 = bounds
    rule_x, rule_y = leggauss(p1 + 1), leggauss(p2 + 1)
    hx, hy = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
    return _ElementArrays(
        xknots=np.array([xv for xv, _ in keys], dtype=float),
        yknots=np.array([yv for _, yv in keys], dtype=float),
        bounds=bounds,
        rule_x=rule_x,
        rule_y=rule_y,
        xs=x0[:, None] + hx[:, None] * (rule_x[0] + 1.0),
        wx=rule_x[1] * hx[:, None],
        ys=y0[:, None] + hy[:, None] * (rule_y[0] + 1.0),
        wy=rule_y[1] * hy[:, None],
    )


def _outer(a, b):
    """Row-wise outer products of ``(..., m)`` and ``(..., n)`` stacks,
    flattened to ``(..., m * n)`` as ``np.outer(...).ravel()`` is."""
    return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (-1,))


def _elementwise_full_rank(space: LRSpace, keys, T, bounds) -> bool:
    """Certificate of linear independence, one element at a time.

    ``keys`` is ``space.sorted_keys()``, and every element carries
    (p1+1)(p2+1) functions: ``T`` is :func:`_incidence`'s ``indices``
    reshaped to ``(elements, (p1+1)(p2+1))``, and ``bounds`` its element
    bounds.  True when, on every
    element, the matrix of those (unweighted) functions' values at the
    element's tensor Gauss--Legendre points has full numerical rank:
    singular values below ``1e-9 * sigma_max`` of that element count as
    zero, the rule of :func:`collocation_rank`.  The points are
    unisolvent for the element's tensor polynomials, so a full rank on
    every element is local linear independence, which implies that the
    functions are linearly independent on the whole domain.  The points
    are interior to their element, so no closure coordinate is needed.
    Works in chunks of elements; O(elements) time.
    """
    p1, p2 = space.mesh.bidegree
    n_loc = (p1 + 1) * (p2 + 1)
    arrays = _element_arrays(space, keys, bounds)
    size = max(1, _CHUNK_ENTRIES // (n_loc * n_loc))
    for start in range(0, len(T), size):
        c = slice(start, start + size)
        vx = _stacked_values(arrays.xknots[T[c]], arrays.xs[c, None, :])
        vy = _stacked_values(arrays.yknots[T[c]], arrays.ys[c, None, :])
        s = np.linalg.svd(_outer(vx, vy), compute_uv=False)
        if not np.all(s[:, -1] > 1e-9 * s[:, 0]):
            return False
    return True


def is_locally_linearly_independent(space: LRSpace) -> bool:
    """True when every element carries exactly (p1+1)(p2+1) functions.

    On open LR meshes this characterizes local linear independence of
    the generated functions.  The per-element support counts are read
    from the element--function incidence (:func:`_incidence`), a range
    query over the elements' sorted corners: O(nnz log n) time and
    memory, with nnz the sum of the counts.
    """
    p1, p2 = space.mesh.bidegree
    _, counts, _, _ = _incidence(space)
    return bool(np.all(counts == (p1 + 1) * (p2 + 1)))


def evaluate_space(space: LRSpace, coefficients: dict, xs, ys) -> np.ndarray:
    """Evaluate ``sum_k c_k B_k`` (unweighted basis) on a grid.

    ``xs`` and ``ys`` are sorted 1-D arrays; the result has shape
    ``(len(xs), len(ys))`` with entry [i, j] at point (xs[i], ys[j]).
    Evaluation is half-open with closure on the domain's top edges.
    Functions share knot windows, so each distinct window's grid range
    and values are computed once per call.
    """
    return _evaluate_sums(space, [coefficients], xs, ys)[0]


def _window_values(vectors, pts, top) -> dict:
    """Per distinct knot window among ``vectors``: ``(i0, i1, values)``,
    the points ``pts[i0:i1]`` in the window's support and its values
    there.

    The windows are evaluated in stacked calls of at most
    ``_CHUNK_ENTRIES`` entries, each on as many points from its first
    one in the support as the widest support holds, and closed at
    ``top``, the domain's top edge: only windows that end there have a
    knot there, so the closure touches no other window.
    """
    windows = list(dict.fromkeys(vectors))
    v = np.array(windows, dtype=float)
    i0 = np.searchsorted(pts, v[:, 0], side="left")
    i1 = np.searchsorted(pts, v[:, -1], side="right")
    width = int(np.max(i1 - i0))
    at = np.minimum(i0[:, None] + np.arange(width), pts.size - 1)
    size = max(1, _CHUNK_ENTRIES // max(width, 1))
    out = {}
    for start in range(0, len(windows), size):
        c = slice(start, start + size)
        values = _stacked_values(v[c], pts[at[c]], close_at=top)
        for vec, a, b, row in zip(windows[c], i0[c].tolist(), i1[c].tolist(), values):
            out[vec] = (a, b, row[: b - a])
    return out


def _evaluate_sums(space: LRSpace, coefficient_sets, xs, ys) -> list:
    """:func:`evaluate_space` for each of the coefficient dictionaries,
    from one pass over the functions: each function's grid values are
    computed once and added to every sum, in the same order and with the
    same operations as a separate call makes."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    outs = [np.zeros((xs.size, ys.size)) for _ in coefficient_sets]
    dom = space.mesh.domain
    keys = space.sorted_keys()
    x_windows = _window_values([xv for xv, _ in keys], xs, dom.x_max)
    y_windows = _window_values([yv for _, yv in keys], ys, dom.y_max)
    for key in keys:
        cs = [coefficients[key] for coefficients in coefficient_sets]
        if not any(cs):
            continue
        i0, i1, vx = x_windows[key[0]]
        j0, j1, vy = y_windows[key[1]]
        if i0 == i1 or j0 == j1:
            continue
        values = np.outer(vx, vy)
        for out, c in zip(outs, cs):
            if c != 0.0:
                out[i0:i1, j0:j1] += c * values
    return outs


def partition_of_unity_defect(space: LRSpace, samples: int = 64, use_weights: bool = True) -> float:
    """``max |1 - sum_k c_k B_k|`` on a uniform grid, with ``c_k`` the
    stored weights or all ones."""
    return _unity_defects(space, samples, (use_weights,))[0]


def _unity_defects(space: LRSpace, samples: int, use_weights) -> list[float]:
    """:func:`partition_of_unity_defect` for each flag of ``use_weights``,
    from one evaluation pass."""
    dom = space.mesh.domain
    xs = np.linspace(dom.x_min, dom.x_max, samples)
    ys = np.linspace(dom.y_min, dom.y_max, samples)
    coefficient_sets = [
        {k: float(b.weight) for k, b in space.functions.items()}
        if weighted
        else dict.fromkeys(space.functions, 1.0)
        for weighted in use_weights
    ]
    totals = _evaluate_sums(space, coefficient_sets, xs, ys)
    return [float(np.max(np.abs(total - 1.0))) for total in totals]


def collocation_points(space: LRSpace, seed: int = 0) -> np.ndarray:
    """Default collocation points: per element, the midpoint plus four
    jittered interior points, topped up until the count exceeds the
    function count with margin.  Deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    elems = space.mesh.elements()
    need = max(space.n_functions, math.ceil(1.2 * space.n_functions))
    per_element = 5
    if per_element * len(elems) < need:
        per_element = math.ceil(need / len(elems))
    pts = []
    for e in elems:
        r = e.rect
        x0, x1, y0, y1 = r.x_min, r.x_max, r.y_min, r.y_max
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        wx, wy = x1 - x0, y1 - y0
        pts.append((cx, cy))
        for _ in range(per_element - 1):
            u, v = rng.uniform(-0.4, 0.4, size=2)
            pts.append((cx + u * wx * 0.8, cy + v * wy * 0.8))
    return np.array(pts)


def collocation_rank(space: LRSpace, points=None, seed: int = 0) -> int:
    """Numerical rank of the collocation matrix of the (unweighted)
    functions at the points; singular values below ``1e-9 * sigma_max``
    count as zero.  Positive weights only rescale columns, so the rank
    matches the weighted basis."""
    if points is None:
        points = collocation_points(space, seed=seed)
    points = np.asarray(points, dtype=float)
    if points.shape[0] < space.n_functions:
        raise SpaceError(
            f"{points.shape[0]} collocation points cannot resolve "
            f"{space.n_functions} functions"
        )
    a = np.empty((points.shape[0], space.n_functions))
    for j, (xv, yv) in enumerate(space.sorted_keys()):
        vx = univariate_values(xv, points[:, 0], close_at=xv[-1])
        vy = univariate_values(yv, points[:, 1], close_at=yv[-1])
        a[:, j] = vx * vy
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > 1e-9 * s[0]))
