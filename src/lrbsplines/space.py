"""LR B-spline spaces: generation by knot insertion and diagnostics.

A space couples a mesh with the set of B-splines of minimal support on
it.  A function is its key, the pair of its local knot vectors, and the
space maps each key to the function's exact ``Fraction`` weight; no
object is built per function.  Whenever meshlines are added, functions
that lose minimal support are replaced by their knot-insertion children
until the set is stable; the resulting set is independent of the order
in which lines are added or functions are processed, and the weights
accumulate exactly.  Each split inserts all of one direction's missing
knots in one step, and only the functions the new lines cross are
checked, at the new lines' positions, because every function of a
space has minimal support.

A refinement call never modifies the space it is given.  It builds one
private working state from it (:class:`_Refinement`: copies of the mesh
and of the function dict, and the support rows), inserts meshlines and
runs generation fixpoints on that state in place, and returns one new
space.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, partial
from itertools import chain, count, product
from operator import itemgetter

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bspline import (
    KnotVectorError,
    _boehm,
    _deficits,
    _expand_ranges,
    _knot_windows,
    _lacking_minimal_support,
    _stacked_values,
    local_knot_vector,
)
from .dyadic import DyadicCoord, midpoint
from .mesh import Mesh, MeshError, Split, _int_pair, is_tensorized

__all__ = [
    "SpaceError",
    "LRSpace",
    "initial_space",
    "apply_split",
    "structured_refine",
    "is_locally_linearly_independent",
    "partition_of_unity_defect",
    "evaluate_space",
    "collocation_rank",
    "collocation_points",
]

#: A function key: the pair of knot vectors.
Key = tuple[tuple[DyadicCoord, ...], tuple[DyadicCoord, ...]]

#: The unit weight, one object shared by every function that has it.
ONE = Fraction(1)


class SpaceError(ValueError):
    """A space-level operation violates its contract."""


class LRSpace:
    """A mesh plus its minimal-support B-splines.

    ``functions`` maps each function's key, its pair of local knot
    vectors ``(xknots, yknots)``, to its positive ``Fraction`` weight.
    The per-function calls of :mod:`lrbsplines.bspline` take the key
    and work on the unweighted function.

    Every function has minimal support on the mesh (:meth:`validate`
    checks it).  Refinement relies on this: after new lines are added,
    a function they cross can lack minimal support only at their
    positions, so the generation fixpoint probes only those.  Treat
    instances as immutable; operations return new spaces.  The first
    :func:`_incidence` of a space is kept on it.
    """

    __slots__ = ("mesh", "functions", "_cached_incidence")

    def __init__(self, mesh: Mesh, functions: dict):
        self.mesh = mesh
        self.functions = functions
        self._cached_incidence = None

    @property
    def n_functions(self) -> int:
        return len(self.functions)

    def sorted_keys(self) -> list[Key]:
        return sorted(self.functions)

    def validate(self) -> None:
        """Check the space invariants; raises SpaceError on violation.

        Every weight is a positive ``Fraction``, every key is two local
        knot vectors of the mesh's bidegree, and every function has
        minimal support on the mesh.  Each function is checked once:
        weights once per distinct weight object, knot vectors once per
        distinct vector, and minimal support for all functions by one
        array pass (:func:`_first_fault`).  The error names the first
        failing function in the order of ``functions``."""
        fault = _first_fault(self)
        if fault is not None:
            raise SpaceError(fault[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LRSpace):
            return NotImplemented
        return self.mesh == other.mesh and self.functions == other.functions

    def __repr__(self) -> str:
        return f"<LRSpace {self.mesh.domain} bidegree {self.mesh.bidegree}: {self.n_functions} functions>"


def _vector_fault(vec, degree: int):
    """Why ``vec`` is not a local knot vector of ``degree`` made of
    coordinates: ``"type"``, a ``KnotVectorError`` or ``"degree"``, in
    the order checked; None when it is one."""
    if type(vec) is not tuple or any(type(c) is not DyadicCoord for c in vec):
        return "type"
    try:
        local_knot_vector(vec)
    except KnotVectorError as exc:
        return exc
    return "degree" if len(vec) != degree + 2 else None


def _function_fault(key, weight, bidegree):
    """The message of the first rule the function breaks, other than
    minimal support, or None: its weight must be a positive
    ``Fraction``, its key a pair of tuples of coordinates, and each
    vector, x first, a valid local knot vector of its degree."""
    if type(weight) is not Fraction or weight <= 0:
        return f"function {key} has weight {weight!r}, expected a positive Fraction"
    if type(key) is not tuple or len(key) != 2:
        return f"function key {key!r} is not a pair of knot vectors"
    for vec, p in zip(key, bidegree):
        fault = _vector_fault(vec, p)
        if fault == "type":
            return f"function key {key!r} is not a pair of knot vectors"
        if fault == "degree":
            degrees = tuple(len(v) - 2 for v in key)
            return f"function {key} has degrees {degrees}, mesh {bidegree}"
        if fault is not None:
            return f"function {key}: {fault}"
    return None


def _first_fault(space: LRSpace):
    """``(i, message)`` for the first function, in the order of
    ``space.functions``, that breaks an invariant of
    :meth:`LRSpace.validate`, or None when none does.

    The keys' shapes and the weights are checked by a few set
    comprehensions, the weights once per distinct object, and the knot
    vectors once per distinct vector of each direction, as arrays
    (:func:`_checked_windows`); minimal support is decided for all
    functions by :func:`_lacking_minimal_support`.  Only when one of the
    first checks fails are the functions scanned one by one, to find the
    first that breaks a rule (:func:`_function_fault`); minimal support
    is then decided for the functions before it, which are well formed.
    """
    functions = space.functions
    mesh = space.mesh
    keys = list(functions)
    stop = len(keys)
    windows = None
    if set(map(type, keys)) <= {tuple} and set(map(len, keys)) <= {2}:
        weights = dict(zip(map(id, functions.values()), functions.values())).values()
        if all(type(w) is Fraction and w > 0 for w in weights):
            windows = [_checked_windows(keys, d, p) for d, p in zip((1, 2), mesh.bidegree)]
    if windows is None or None in windows:
        stop = next(
            i for i, (key, w) in enumerate(functions.items()) if _function_fault(key, w, mesh.bidegree)
        )
        windows = [_windows(keys[:stop], d, p) for d, p in zip((1, 2), mesh.bidegree)]
    if stop:
        lacking = np.flatnonzero(_lacking_minimal_support(windows, mesh))
        if lacking.size:
            i = int(lacking[0])
            return i, f"function {keys[i]} lacks minimal support"
    if stop < len(keys):
        return stop, _function_fault(keys[stop], functions[keys[stop]], mesh.bidegree)
    return None


# -- construction -----------------------------------------------------------


def initial_space(mesh: Mesh) -> LRSpace:
    """All tensor-product B-splines of an open tensor mesh, weight one.

    The functions are the products of the consecutive windows of the two
    global knot vectors.  Each window is validated once, through
    ``local_knot_vector``, and each key, a pair of validated windows,
    maps to the shared weight :data:`ONE`.  The mesh's elements are not
    read.
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
    return LRSpace(mesh, dict.fromkeys(product(x_windows, y_windows), ONE))


# -- the refinement state ---------------------------------------------------

#: Element-batched array code works in chunks of elements small enough
#: that no per-chunk temporary of shape (elements, functions[, points])
#: holds more than this many entries (2 MiB of floats), which keeps its
#: peak memory below that of the sparse solve that follows assembly.
_CHUNK_ENTRIES = 1 << 18


def _chunks(n: int, per_item: int) -> list[slice]:
    """The consecutive slices of ``range(n)`` that each hold as many
    items as fit ``_CHUNK_ENTRIES`` entries at ``per_item`` entries an
    item, and at least one."""
    size = max(1, _CHUNK_ENTRIES // max(per_item, 1))
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


def _support_bounds(keys) -> np.ndarray:
    """Support rectangles ``(x_min, x_max, y_min, y_max)`` of the functions
    with the given keys, one row per key, read from the knot vectors."""
    rows = chain.from_iterable((xv[0], xv[-1], yv[0], yv[-1]) for xv, yv in keys)
    return np.fromiter(rows, dtype=float).reshape(-1, 4)


class _Refinement:
    """The working state of one refinement call: private copies of the
    mesh and of the function dict, and the functions' support rows for
    crossing and containment queries.

    Row ``i`` holds the key ``keys[i]`` and its support bounds
    ``bounds[i] = (x_min, x_max, y_min, y_max)``; ``rows`` maps every
    live key to its row.  :meth:`insert` and :meth:`regenerate` refine
    the functions in place and follow the generation fixpoint's diff in
    the rows: a removed key's row is blanked to NaN bounds, which fail
    every comparison, and an added key gets a new row.  Dead rows are
    dropped once they outnumber the live ones.  Bounds are the doubles of
    dyadic coordinates, hence exact, and so is every comparison.  The
    rows are this class's own format: every query answers in keys.  The
    space the state starts from is never modified.
    """

    __slots__ = ("mesh", "functions", "keys", "bounds", "rows")

    def __init__(self, space: LRSpace):
        self.mesh = space.mesh._copy()
        self.functions = dict(space.functions)
        self.keys = list(self.functions)
        self.bounds = _support_bounds(self.keys)
        self.rows = {key: i for i, key in enumerate(self.keys)}

    def space(self) -> LRSpace:
        """The refined space.  It shares the state's mesh and function
        dict, so this is the state's last use."""
        return LRSpace(self.mesh, self.functions)

    def insert(self, pieces):
        """Insert meshline pieces by :func:`_insert_pieces` and
        regenerate.  ``pieces`` are :class:`Split` segments at
        multiplicity one.  Returns the fixpoint's diff as
        :meth:`regenerate` does, or None, changing nothing, when every
        piece is already covered."""
        inserted = _insert_pieces(self.mesh, pieces)
        return self.regenerate(inserted) if inserted else None

    def regenerate(self, segments):
        """Restore minimal support once the :class:`Split` ``segments``
        are in the state's mesh.

        Only the functions whose support a segment crosses can lose
        minimal support, and only at the segments' positions, so the
        fixpoint starts from those functions and probes those positions
        for them.  Returns its diff, ``(removed, added)``.
        """
        dirty = self.crossing(segments)
        removed, added = _fixpoint(self.mesh, self.functions, dirty, segments)
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

    def _meeting(self, lo, hi) -> np.ndarray:
        """The ascending rows whose support meets ``[lo[0], hi[1]] x
        [lo[2], hi[3]]``, the closed bounding box of boxes ``(x0, x1, y0,
        y1)`` with least bounds ``lo`` and greatest ``hi``: the only rows
        a query on those boxes can return.  Dead rows never meet it."""
        b = self.bounds.T
        return np.flatnonzero((b[0] <= hi[1]) & (lo[0] <= b[1]) & (b[2] <= hi[3]) & (lo[2] <= b[3]))

    def crossing(self, segments) -> list:
        """Keys of the functions whose support one of the :class:`Split`
        segments crosses.  A segment is the closed box ``(pos, pos, lo,
        hi)`` in direction 1 or ``(lo, hi, pos, pos)`` in direction 2,
        and it crosses a support when that box meets the support's open
        box.  Only the rows that meet the segments' bounding box are
        tested."""
        segments = np.array(segments, dtype=float).reshape(-1, 5)[:, :4]
        # each segment as the box (x0, x1, y0, y1)
        boxes = np.where(segments[:, :1] == 1, segments[:, [1, 1, 2, 3]], segments[:, [2, 3, 1, 1]])
        near = self._meeting(boxes.min(axis=0), boxes.max(axis=0))
        b = self.bounds[near].T
        hit = np.zeros(len(near), dtype=bool)
        for c in _chunks(len(boxes), len(near)):
            x0, x1, y0, y1 = boxes[c, :, None].transpose(1, 0, 2)
            hit |= ((b[0] < x1) & (x0 < b[1]) & (b[2] < y1) & (y0 < b[3])).any(axis=0)
        return [self.keys[i] for i in near[hit].tolist()]

    def containment(self, added) -> list:
        """Pairs ``(inner, outer)`` of distinct live keys whose supports
        nest, one of them in ``added``: first each added key inside the
        keys around it, then the keys inside each added key.  A row that
        holds an added support or lies in one meets their bounding box,
        so only those rows are tested, in ascending order as all would
        be."""
        added = list(added)
        own = [self.rows[key] for key in added]
        boxes = self.bounds[own]
        near = self._meeting(boxes.min(axis=0), boxes.max(axis=0))
        b = self.bounds[near].T
        keys = self.keys
        inside, around = [], []
        for c in _chunks(len(boxes), len(near)):
            x0, x1, y0, y1 = boxes[c, :, None].transpose(1, 0, 2)
            i, r = np.nonzero((b[0] >= x0) & (b[1] <= x1) & (b[2] >= y0) & (b[3] <= y1))
            found = zip((i + c.start).tolist(), near[r].tolist())
            inside += [(keys[j], added[a]) for a, j in found if j != own[a]]
            i, r = np.nonzero((b[0] <= x0) & (b[1] >= x1) & (b[2] <= y0) & (b[3] >= y1))
            found = zip((i + c.start).tolist(), near[r].tolist())
            around += [(added[a], keys[j]) for a, j in found if j != own[a]]
        return around + inside

    def nested_pairs(self) -> list:
        """All pairs ``(inner, outer)`` of distinct live keys whose
        supports nest, by :func:`_nested_supports` on the live rows."""
        live = np.flatnonzero(~np.isnan(self.bounds[:, 0]))
        inner, outer = _nested_supports(self.mesh, self.bounds[live].T)
        return [(self.keys[i], self.keys[o]) for i, o in zip(live[inner].tolist(), live[outer].tolist())]


# -- the generation fixpoint ------------------------------------------------


def _fixpoint(mesh: Mesh, functions: dict, dirty, segments) -> tuple[set, set]:
    """Replace functions lacking minimal support by their knot-insertion
    children until stable, starting from the distinct keys ``dirty``.
    Mutates ``functions``, a dict from key to ``Fraction`` weight;
    returns the keys it removed and the keys it added, disjoint: a key
    split here that comes back as a child lacks minimal support on the
    same mesh, so it is split again.

    The keys wait on a plain first-in, first-out worklist, and the order
    they are taken in cannot change the result.  The mesh is fixed for
    the whole call, so whether a key is split, and into which children
    with which coefficients, depends on the key alone (the scan's
    shortcuts below find what a scan of every position would).  Each
    weight is a sum of exact integer contributions, one per path from a
    dirty key, and a sum does not depend on the order of its terms;
    coinciding children merge by adding theirs.  The removed and added
    sets are therefore the same in any order, and so are the weights.
    First in, first out takes the children of one generation before
    their own children, so a key reached from several parents of a
    generation usually has all their weight merged before it is split,
    and is split once.

    A taken function's deficits are found one direction at a time,
    direction 1 first, and all of a direction's deficits are inserted in
    one multi-knot step.  The scan relies on two facts:

    - ``mesh`` is the mesh the functions had minimal support on plus the
      :class:`Split` ``segments``, so a dirty key that has
      not been split can lack minimal support only at the segments'
      positions, and only those are probed for it;
    - a direction-d insertion keeps the cross extent, so every
      direction-d line inside a child's support already matches the
      child's knots, and the child skips the direction-d scan.

    The loop works on keys and integer weights.  A step's children are
    those of ``_children``, whose coefficients the memoized kernel
    ``_boehm`` keeps as integers, and every key added or merged into
    here keeps its weight as a (numerator, denominator) pair, reduced at
    each merge.  Many children are split again at once, so only on
    return does each such key that survives get its ``Fraction`` weight:
    the shared :data:`ONE` when the pair is one.
    """
    probes = {d: sorted({s.fixed for s in segments if s.direction == d}) for d in (1, 2)}
    # (key, the direction whose scan it skips, or 0 to probe only the
    # segments' positions in both directions); a key waits at most once.
    # Queued sorted, the dirty keys fix the order new keys enter
    # ``functions`` by their set alone, whatever order the caller's rows
    # list them in.
    work = [(key, 0) for key in sorted(dirty)]
    # per key added or merged into here: its weight; its entry in
    # ``functions``, if any, is stale until the end
    weights: dict = {}
    removed: set = set()
    taken = 0
    while taken < len(work):
        key, skipped = work[taken]
        taken += 1
        xv, yv = key
        for direction in (1, 2):
            if direction != skipped:
                hits = _deficits(xv, yv, mesh, direction, probes[direction] if skipped == 0 else None)
                if hits:
                    break
        else:
            continue
        stored = functions.pop(key, None)
        w = weights.pop(key, None)
        if stored is not None:
            removed.add(key)
            if w is None:
                w = stored.as_integer_ratio()
        elif w is None:  # not a live key
            continue
        wn, wd = w
        knots = ()
        for pos, deficit in hits:
            knots += (pos,) * deficit
        # ``_children``, inlined: this loop makes most of its calls
        window = xv if direction == 1 else yv
        coefficients = _boehm(window, knots)
        augmented = tuple(sorted(window + knots))
        q = len(window)
        for j in range(len(coefficients) // 2):
            cn, cd, vec = coefficients[2 * j], coefficients[2 * j + 1], augmented[j : j + q]
            k = (vec, yv) if direction == 1 else (xv, vec)
            num, den = wn * cn, wd * cd
            old = weights.get(k)
            if old is None:
                existing = functions.get(k)
                if existing is None:
                    weights[k] = (num, den)
                    work.append((k, direction))
                    continue
                old = existing.as_integer_ratio()
            on, od = old
            num, den = on * den + num * od, od * den
            g = math.gcd(num, den)
            weights[k] = (num // g, den // g)
    # ``functions`` has only lost keys here, so the keys it lacks are new
    added = {k for k in weights if k not in functions}
    for key, (num, den) in weights.items():
        # a key merged into keeps the tuples it is stored under
        functions[key] = ONE if num == den else Fraction(num, den)
    return removed, added


def _insert_pieces(mesh: Mesh, pieces) -> list:
    """Insert the uncovered gaps of the :class:`Split` ``pieces`` into
    ``mesh`` in place, at multiplicity one, and return the inserted
    splits.

    The distinct pieces are taken in ascending order and each is
    gap-decomposed against the lines its predecessors left, so
    overlapping pieces insert each gap once.  Every gap goes in by
    :meth:`~lrbsplines.mesh.Mesh._insert`, in the same order as a
    :func:`~lrbsplines.mesh.insert_split` per gap would take them."""
    inserted = []
    for direction, pos, lo, hi, _ in sorted(set(pieces)):
        for g_lo, g_hi in _uncovered_gaps(mesh, direction, pos, lo, hi):
            split = Split(direction, pos, g_lo, g_hi)
            mesh._insert(split)
            inserted.append(split)
    return inserted


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
    state = _Refinement(space)
    state.mesh._insert(split)
    removed, _ = state.regenerate([split])
    if not removed:
        raise SpaceError(
            f"split at direction-{split.direction} position {split.fixed} "
            f"refines no function in the space"
        )
    return state.space()


def structured_refine(space: LRSpace, marked) -> LRSpace:
    """Halve every knot span of the marked functions across their supports.

    ``marked`` holds keys of the space's functions.  For each marked
    function and each direction, meshlines are inserted at the midpoints
    of consecutive distinct knots, spanning the full support
    cross-extent, at multiplicity one.  Only the uncovered gaps are
    added; one generation fixpoint then restores minimal support.
    """
    marked_keys = list(marked)
    if not marked_keys:
        raise SpaceError("no functions marked for refinement")
    state = _Refinement(space)
    _refine_marked(state, marked_keys)
    return state.space()


def _refine_marked(state: _Refinement, marked) -> None:
    """:func:`structured_refine` of the marked keys on ``state``."""
    pieces = []
    for key in marked:
        if key not in state.functions:
            raise SpaceError(f"marked function {key} is not in the space")
        xv, yv = key
        for direction, vec, cross in ((1, xv, yv), (2, yv, xv)):
            distinct = sorted(set(vec))
            for a, c in zip(distinct, distinct[1:]):
                pieces.append(Split(direction, midpoint(a, c), cross[0], cross[-1]))
    if state.insert(pieces) is None:
        raise SpaceError("marked functions are already refined (no new meshlines)")


# -- diagnostics ------------------------------------------------------------


def _incidence(space: LRSpace):
    """The element--function incidence in compressed rows, built once per
    space by :func:`_build_incidence` and kept on it, read-only.

    Returns ``(keys, counts, indices, bounds, windows)``: ``keys`` is
    ``space.sorted_keys()`` as a tuple, and element ``e`` of
    ``mesh.elements()`` carries the functions ``indices[s:s +
    counts[e]]``, ascending, with ``s`` the sum of the earlier counts;
    ``bounds`` holds the elements' bounds ``x0, x1, y0, y1`` as a ``(4,
    elements)`` float array; ``windows`` holds per direction the
    :func:`_windows` ``(v, which)`` of ``keys``, so each distinct knot
    vector is hashed and converted once per space.  A function is
    supported on an element when its support contains the element's
    closure.

    The functions' support bounds are the first and last columns of the
    windows, and the elements' are read from the mesh's index boxes
    (``Mesh.element_boxes``), whose order sorts their corners.  The corner
    search :func:`_boxes_within` finds the elements in each support: the
    dense containment test, whether or not the functions have minimal
    support.  O(nnz log n) time and memory for the nnz incidences.
    """
    incidence = space._cached_incidence
    if incidence is None:
        incidence = space._cached_incidence = _build_incidence(space)
    return incidence


def _build_incidence(space: LRSpace):
    """:func:`_incidence`, computed."""
    keys = tuple(space.sorted_keys())
    mesh = space.mesh
    windows = tuple(_windows(keys, d, p) for d, p in zip((1, 2), mesh.bidegree))
    i0, i1, j0, j1 = mesh.element_boxes().T
    xpos = np.array(mesh.positions(1), dtype=float)
    ypos = np.array(mesh.positions(2), dtype=float)
    x0, x1, y0, y1 = bounds = np.stack([xpos[i0], xpos[i1], ypos[j0], ypos[j1]])
    (vx, wx), (vy, wy) = windows
    supports = (vx[wx, 0], vx[wx, -1], vy[wy, 0], vy[wy, -1])
    e, f = _boxes_within(xpos, ypos, i0 * len(ypos) + j0, (x1, y1), supports)
    by_element = np.argsort(e, kind="stable")
    counts = np.bincount(e, minlength=len(x0))
    indices = f[by_element]
    for array in (counts, indices, bounds, vx, wx, vy, wy):
        array.flags.writeable = False
    return keys, counts, indices, bounds, windows


def _boxes_within(xpos, ypos, corners, far, outer):
    """``(inner, outer)`` index arrays of every inner box inside a closed
    outer box, ordered by outer, then inner.  Inner box ``k`` spans from
    the mesh positions with the ascending key ``corners[k] = i0 *
    len(ypos) + j0`` to the floats ``(far[0][k], far[1][k])``; ``outer``
    holds the bounds ``(a, b, c, d)``.  Precondition, unchecked: the inner
    corners lie on mesh positions, as elements' do and those of functions
    with minimal support.  Per column in ``[a, b)``, two searches of
    ``corners`` find the corners in ``[c, d)``, and candidates with the
    far corner outside are dropped: O(m log n) time for the m pairs."""
    x1, y1 = far
    a, b, c, d = outer
    o, column = _expand_ranges(np.searchsorted(xpos, a), np.searchsorted(xpos, b))
    base = column * len(ypos)
    lo = np.searchsorted(corners, base + np.searchsorted(ypos, c)[o])
    hi = np.searchsorted(corners, base + np.searchsorted(ypos, d)[o])
    probe, inner = _expand_ranges(lo, hi)
    o = o[probe]
    del probe  # the largest temporary: free it before the filter's
    keep = (x1[inner] <= b[o]) & (y1[inner] <= d[o])
    return inner[keep], o[keep]


def _nested_supports(mesh: Mesh, supports):
    """``(inner, outer)`` index arrays: every pair of distinct functions
    of minimal support on ``mesh`` whose supports, the float arrays ``(a,
    b, c, d)``, nest; :func:`_boxes_within` with the corners sorted."""
    xpos, ypos = (np.array(mesh.positions(d), dtype=float) for d in (1, 2))
    a, b, c, d = supports
    corners = np.searchsorted(xpos, a) * len(ypos) + np.searchsorted(ypos, c)
    order = np.argsort(corners, kind="stable")
    inner, outer = _boxes_within(xpos, ypos, corners[order], (b[order], d[order]), supports)
    inner = order[inner]
    return inner[inner != outer], outer[inner != outer]


def _gauss_rule(lo, hi, nodes, weights):
    """Points and weights of the Gauss--Legendre ``nodes`` and ``weights``
    on [-1, 1], moved to the intervals ``[lo, hi]``, one row each."""
    h = 0.5 * (hi - lo)
    return lo[:, None] + h[:, None] * (nodes + 1.0), weights * h[:, None]


def _distinct(keys, direction: int):
    """``(vectors, which)``: the distinct direction-``direction`` knot
    vectors of ``keys``, in order of first use, and per key the index of
    its vector; each vector is hashed once, by one ``setdefault`` that
    maps a new vector to the position of its first use, and the vectors'
    ranks among those positions are their indices."""
    ids: dict = {}
    vectors = map(itemgetter(direction - 1), keys)
    first = np.fromiter(map(ids.setdefault, vectors, count()), np.intp, len(keys))
    rank = np.empty(len(keys), np.intp)
    rank[np.fromiter(ids.values(), np.intp, len(ids))] = np.arange(len(ids))
    return list(ids), rank[first]


def _rows(vectors, length: int) -> np.ndarray:
    """Knot vectors of one length as the rows of a float array."""
    return np.fromiter(chain.from_iterable(vectors), float).reshape(len(vectors), length)


def _windows(keys, direction: int, degree: int):
    """``(v, which)``: :func:`_distinct`'s vectors, local knot vectors of
    ``degree``, as float rows."""
    vectors, which = _distinct(keys, direction)
    return _rows(vectors, degree + 2), which


def _checked_windows(keys, direction: int, degree: int):
    """:func:`_windows`, or None unless each distinct vector is a local
    knot vector of ``degree`` made of coordinates, as
    :func:`_vector_fault` rules: the types and lengths are read by set
    comprehensions and the order of the values by array comparisons."""
    vectors, which = _distinct(keys, direction)
    if not (
        set(map(type, vectors)) <= {tuple}
        and set(map(len, vectors)) <= {degree + 2}
        and set(map(type, chain.from_iterable(vectors))) <= {DyadicCoord}
    ):
        return None
    v = _rows(vectors, degree + 2)
    if not (np.all(v[:, 1:] >= v[:, :-1]) and np.all(v[:, 0] < v[:, -1])):
        return None
    return v, which


def _pair_values(windows, T, index, bounds, rule, derivatives: bool = False):
    """One direction's B-spline values on the rectangular incidence ``T``,
    computed once per distinct (knot window, element interval) pair.

    ``windows`` is one direction's ``(v, which)`` of :func:`_incidence`;
    ``index`` and ``bounds`` hold the ``(lo, hi)`` bounds of ``T``'s
    elements in the direction, as mesh position indices (exact interval
    names) and as floats; ``rule(lo, hi)`` gives points and weights per
    interval.  The rule runs once per distinct interval and
    :func:`_stacked_values` once per distinct pair, in the chunks of
    :func:`_chunks`.  Returns ``gather(c)``: the elements ``c``'s points
    and weights, and their ``(len(c), slots, q)`` values (and first
    derivatives), gathered by pair.  The kernel is
    elementwise, so these are bit for bit those of one stacked pass over
    every (element, slot).
    """
    v, which = windows
    lo, hi = index
    _, first, interval = np.unique(lo * (hi.max() + 1) + hi, return_index=True, return_inverse=True)
    pts, wts = rule(bounds[0][first], bounds[1][first])
    pairs, inverse = np.unique(which[T] * len(first) + interval.reshape(-1, 1), return_inverse=True)
    inverse = inverse.reshape(T.shape)
    w, i = np.divmod(pairs, len(first))
    tables = np.empty((1 + derivatives, len(pairs), pts.shape[1]))
    for at in _chunks(len(pairs), v.shape[1] * pts.shape[1]):
        tables[:, at] = _stacked_values(v[w[at]], pts[i[at]], derivatives=derivatives)

    def gather(c):
        e = interval[c]
        return (pts[e], wts[e], *tables[:, inverse[c]])

    return gather


#: ``leggauss(n)``, computed once per ``n``: its arrays are shared, never written.
_gauss_legendre = cache(leggauss)


def _element_pairs(space: LRSpace, rule, rows=slice(None), derivatives=False):
    """Per direction, :func:`_pair_values` on the elements ``rows`` of the
    space's :func:`_incidence`, at ``rule(lo, hi, nodes=..., weights=...)``
    for the direction's (p+1)-point Gauss--Legendre nodes and weights.
    Every element must carry (p1+1)(p2+1) functions, so that the incidence
    is the rectangular index array ``T`` of :func:`_pair_values`."""
    _, counts, indices, bounds, windows = _incidence(space)
    T = indices.reshape(len(counts), -1)
    index = space.mesh.element_boxes()[rows].T
    gatherers = []
    for w, k, p in zip(windows, (0, 2), space.mesh.bidegree):
        nodes, weights = _gauss_legendre(p + 1)
        at = partial(rule, nodes=nodes, weights=weights)
        gatherers.append(
            _pair_values(w, T[rows], index[k : k + 2], bounds[k : k + 2, rows], at, derivatives)
        )
    return gatherers


def _outer(a, b):
    """Row-wise outer products of ``(..., m)`` and ``(..., n)`` stacks,
    flattened to ``(..., m * n)`` as ``np.outer(...).ravel()`` is."""
    return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (-1,))


def _elementwise_full_rank(space: LRSpace) -> bool:
    """Certificate of linear independence, one element at a time.

    Every element must carry (p1+1)(p2+1) functions, as
    :func:`is_locally_linearly_independent` checks.  True when, on every
    element, the matrix of those (unweighted) functions' values at the
    element's tensor Gauss--Legendre points has full numerical rank:
    singular values below ``1e-9 * sigma_max`` of that element count as
    zero, the rule of :func:`collocation_rank`.  The points are
    unisolvent for the element's tensor polynomials, so a full rank on
    every element is local linear independence, which implies that the
    functions are linearly independent on the whole domain.  The points
    are interior to their element, so no closure coordinate is needed.
    Each direction's values are computed once per distinct (knot window,
    element interval) pair (:func:`_pair_values`) and gathered per chunk
    of elements; O(nnz log nnz) time for the nnz incidences.
    """
    p1, p2 = space.mesh.bidegree
    n_loc = (p1 + 1) * (p2 + 1)
    n_elements = len(space.mesh.element_boxes())
    x_at, y_at = _element_pairs(space, _gauss_rule)
    for c in _chunks(n_elements, n_loc * n_loc):
        s = np.linalg.svd(_outer(x_at(c)[2], y_at(c)[2]), compute_uv=False)
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
    counts = _incidence(space)[1]
    return bool(np.all(counts == (p1 + 1) * (p2 + 1)))


def evaluate_space(space: LRSpace, coefficients: dict, xs, ys) -> np.ndarray:
    """Evaluate ``sum_k c_k B_k`` (unweighted basis) on a grid.

    ``xs`` and ``ys`` are 1-D, finite, nondecreasing arrays; anything
    else raises :class:`SpaceError`.  The result has shape ``(len(xs),
    len(ys))`` with entry [i, j] at point (xs[i], ys[j]), and is zero
    outside the domain.  Evaluation is half-open with closure on the
    domain's top edges, so each grid point of the domain lies in one
    element, and its value is the sum over that element's functions in
    sorted-key order (:func:`_evaluate_sums`): for finite coefficients,
    bit for bit the sum over every function in that order.
    """
    return _evaluate_sums(space, [_coefficient_array(space, coefficients)], xs, ys)[0]


def _coefficient_array(space: LRSpace, coefficients: dict) -> np.ndarray:
    """The values of ``coefficients``, a dict from every key of the
    space, as floats in the key order of :func:`_incidence`, the order
    :func:`_evaluate_sums` reads, or :class:`SpaceError` if it lacks any."""
    keys = _incidence(space)[0]
    try:
        return np.fromiter(map(coefficients.__getitem__, keys), dtype=float, count=len(keys))
    except KeyError:
        missing = sum(key not in coefficients for key in keys)
        raise SpaceError(f"coefficients lack {missing} of the space's {len(keys)} functions") from None


#: Largest sampling grid, ``nx * ny`` points, that :func:`_grid_axes`
#: accepts, and the peak bytes per grid point of sampling a target and
#: measuring a space's error against it: the peak RSS of ``qi-peaks
#: --levels 2`` and ``poisson --levels 3`` grew by 24--25 bytes a point
#: from 1,000 to 2,000 and 3,000 points a side.  The cap of 2**24 points,
#: 4,096 a side, bounds one error grid near 0.4 GiB.
MAX_GRID_POINTS = 1 << 24
GRID_POINT_BYTES = 25


def _grid_axes(domain, grid, name: str = "grid"):
    """``(xs, ys)``: the axes of the uniform ``grid`` on the rectangle
    ``domain``, an int for a square grid or a pair of ints ``(nx, ny)``,
    bools excluded.  Any other ``grid``, a grid with no point, or one
    with more than :data:`MAX_GRID_POINTS`, raises :class:`SpaceError`
    naming the argument ``name`` before anything is allocated."""
    try:
        nx, ny = _int_pair(grid, name, scalar=True)
    except MeshError as exc:
        raise SpaceError(str(exc)) from None
    if min(nx, ny) < 1:
        raise SpaceError(f"{name} must have at least 1 point per side, got {grid}")
    if nx * ny > MAX_GRID_POINTS:
        raise SpaceError(
            f"{name} {grid}: a grid of {nx} x {ny} = {nx * ny} points exceeds the cap of "
            f"{MAX_GRID_POINTS} points"
        )
    return np.linspace(domain.x_min, domain.x_max, nx), np.linspace(domain.y_min, domain.y_max, ny)


def _sampled(domain, f, grid):
    """``(xs, ys, values)``: the :func:`_grid_axes` of ``grid`` and ``f``
    at its points, ``(len(xs), len(ys))``.  ``f`` gets the two axes
    broadcast against each other, read-only views of one shape that hold
    no copy of the grid, and must be vectorised as
    :func:`lrbsplines.quasi.lr_qi` asks."""
    xs, ys = _grid_axes(domain, grid)
    return xs, ys, np.asarray(f(*np.broadcast_arrays(xs[:, None], ys)), dtype=float)


def _grid_axis(values, name: str) -> np.ndarray:
    """``values`` as a float array, checked to be a 1-D, finite,
    nondecreasing grid axis: the searches that place the grid points in
    windows and elements return wrong ranges on anything else."""
    pts = np.asarray(values, dtype=float)
    if pts.ndim != 1 or not np.all(np.isfinite(pts)) or np.any(pts[1:] < pts[:-1]):
        raise SpaceError(f"{name} must be a 1-D, finite, nondecreasing array")
    return pts


def _window_table(windows, pts, top):
    """One direction's B-spline values on the grid axis ``pts``: one flat
    table for that direction's ``windows``, the ``(v, which)`` of
    :func:`_incidence`.

    Returns ``(table, base)``: the window of the ``k``-th key has the
    value ``table[base[k] + i]`` at every ``pts[i]`` of its closed support.
    Each distinct window is evaluated once, on its point range, in
    stacked calls over the chunks of :func:`_chunks`, each on as many
    points from its first one in the support as the widest support
    holds, and closed at ``top``, the domain's top edge: only windows
    that end there have a knot there, so the closure touches no other
    window.  A value depends only on its window and point, not on the
    call it is computed in.
    """
    v, which = windows
    i0 = np.searchsorted(pts, v[:, 0], side="left")
    sizes = np.searchsorted(pts, v[:, -1], side="right") - i0
    width = int(sizes.max())
    at = np.minimum(i0[:, None] + np.arange(width), pts.size - 1)
    inside = np.arange(width) < sizes[:, None]
    pieces = [
        _stacked_values(v[c], pts[at[c]], close_at=top)[inside[c]] for c in _chunks(len(v), width)
    ]
    base = np.cumsum(sizes) - sizes - i0
    return np.concatenate(pieces), base[which]


def _runs(table, n: int) -> np.ndarray:
    """The ``(len(table) - n + 1, n)`` view of the contiguous 1-D
    ``table`` whose row ``i`` holds ``table[i:i + n]``."""
    return np.ndarray((table.size - n + 1, n), table.dtype, table, strides=(table.itemsize,) * 2)


def _element_points(pts, lo, hi, top):
    """``(first, count)`` per element: the points ``pts[first:first +
    count]`` in the half-open element ranges ``[lo, hi)``, closed where
    ``hi`` is the domain's top edge ``top``."""
    first = np.searchsorted(pts, lo, side="left")
    last = np.where(
        hi == float(top),
        np.searchsorted(pts, hi, side="right"),
        np.searchsorted(pts, hi, side="left"),
    )
    return first, last - first


def _evaluate_sums(space: LRSpace, coefficient_sets, xs, ys) -> list:
    """:func:`evaluate_space` for each of the coefficient arrays, each
    holding one float per function in the key order of the
    element--function incidence (:func:`_incidence`), summed element by
    element from that incidence.

    Every grid point of the domain lies in one element, and only the
    functions of that element's incidence row can be nonzero there.  The
    elements are grouped by (row length, points in x, points in y); per
    chunk of a group, each row function's x and y values on the element's
    points are gathered from one flat table per direction
    (:func:`_window_table`), the row's terms ``c * (vx * vy)`` are added
    into a zero-started block one slot at a time, in ascending key
    order, and the block is written into the grid.  The values are
    computed once and serve every coefficient set.

    The per-function sum adds, at each point, every function's term in
    ascending key order.  The terms it adds beyond the row's are those
    of functions that vanish at the point, exact zeros, and adding a
    zero to a sum started at +0.0 changes nothing: the sum is never
    -0.0, since ``x + (-x)`` is +0.0.  So for finite coefficients the
    results are bit-identical to it.
    """
    xs = _grid_axis(xs, "xs")
    ys = _grid_axis(ys, "ys")
    outs = [np.zeros((xs.size, ys.size)) for _ in coefficient_sets]
    _, counts, indices, bounds, windows = _incidence(space)
    dom = space.mesh.domain
    ix, nx = _element_points(xs, bounds[0], bounds[1], dom.x_max)
    iy, ny = _element_points(ys, bounds[2], bounds[3], dom.y_max)
    hit = np.flatnonzero((nx > 0) & (ny > 0))
    if not hit.size:
        return outs
    x_table, x_base = _window_table(windows[0], xs, dom.x_max)
    y_table, y_base = _window_table(windows[1], ys, dom.y_max)
    starts = np.cumsum(counts) - counts
    corner = ix * ys.size + iy
    hit = hit[np.lexsort((ny[hit], nx[hit], counts[hit]))]
    group = np.stack([counts[hit], nx[hit], ny[hit]])
    cuts = np.flatnonzero(np.any(group[:, 1:] != group[:, :-1], axis=0)) + 1
    for first, stop in zip(np.r_[0, cuts], np.r_[cuts, hit.size]):
        n_row, n_x, n_y = group[:, first].tolist()
        at = (np.arange(n_x)[:, None] * ys.size + np.arange(n_y)).ravel()
        # a quarter of the usual chunk: a slot's working set (values,
        # term and blocks) then fits a 2 MiB L2 cache, which made coarse
        # grids a third faster on a host with one
        for c in _chunks(stop - first, 4 * (n_row * (n_x + n_y) + n_x * n_y)):
            e = hit[first:stop][c]
            f = indices[starts[e, None] + np.arange(n_row)]
            vx = _runs(x_table, n_x)[x_base[f] + ix[e, None]]
            vy = _runs(y_table, n_y)[y_base[f] + iy[e, None]]
            cs = [c[f] for c in coefficient_sets]
            values = np.empty((len(e), n_x, n_y))
            term = np.empty_like(values)
            blocks = [np.zeros_like(values) for _ in coefficient_sets]
            for slot in range(n_row):
                np.multiply(vx[:, slot, :, None], vy[:, slot, None, :], out=values)
                for block, c in zip(blocks, cs):
                    np.multiply(c[:, slot, None, None], values, out=term)
                    block += term
            cells = (corner[e, None] + at).ravel()
            for out, block in zip(outs, blocks):
                out.reshape(-1)[cells] = block.reshape(-1)
    return outs


def partition_of_unity_defect(space: LRSpace, samples: int = 64, use_weights: bool = True) -> float:
    """``max |1 - sum_k c_k B_k|`` on a uniform ``samples`` x ``samples``
    grid (``samples`` an int of at least 1, ``samples**2`` at most
    :data:`MAX_GRID_POINTS`), with ``c_k`` the stored weights or
    all ones.  The sums are element-ordered (:func:`evaluate_space`)."""
    return _unity_defects(space, samples, (use_weights,))[0]


def _unity_defects(space: LRSpace, samples: int, use_weights) -> list[float]:
    """:func:`partition_of_unity_defect` for each flag of ``use_weights``,
    from one evaluation pass."""
    xs, ys = _grid_axes(space.mesh.domain, samples, "samples")
    coefficient_sets = [
        _coefficient_array(space, space.functions) if weighted else np.ones(space.n_functions)
        for weighted in use_weights
    ]
    totals = _evaluate_sums(space, coefficient_sets, xs, ys)
    return [float(np.max(np.abs(total - 1.0))) for total in totals]


def collocation_points(space: LRSpace, seed: int = 0) -> np.ndarray:
    """Default collocation points: per element, the midpoint plus four
    jittered interior points, topped up until the count exceeds the
    function count with margin.  Deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    mesh = space.mesh
    boxes = mesh.element_boxes()
    need = max(space.n_functions, math.ceil(1.2 * space.n_functions))
    per_element = 5
    if per_element * len(boxes) < need:
        per_element = math.ceil(need / len(boxes))
    xs, ys = np.array(mesh.positions(1)), np.array(mesh.positions(2))
    lo = np.stack([xs[boxes[:, 0]], ys[boxes[:, 2]]], axis=-1)
    hi = np.stack([xs[boxes[:, 1]], ys[boxes[:, 3]]], axis=-1)
    center, width = 0.5 * (lo + hi), hi - lo
    # drawn element by element, (u, v) per point, as one call per point would
    jitter = rng.uniform(-0.4, 0.4, size=(len(boxes), per_element - 1, 2))
    pts = np.empty((len(boxes), per_element, 2))
    pts[:, 0] = center
    pts[:, 1:] = center[:, None] + jitter * width[:, None] * 0.8
    return pts.reshape(-1, 2)


def collocation_rank(space: LRSpace, seed: int = 0) -> int:
    """Numerical rank of the collocation matrix of the (unweighted)
    functions at ``collocation_points(space, seed)``, at least one point
    per function; singular values below ``1e-9 * sigma_max`` count as
    zero.  Positive weights only rescale columns, so the rank matches the
    weighted basis.  The matrix is :func:`_collocation_matrix`'s."""
    a = _collocation_matrix(space, collocation_points(space, seed=seed))
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > 1e-9 * s[0]))


def _collocation_matrix(space: LRSpace, points) -> np.ndarray:
    """The ``(len(points), functions)`` values of the unweighted
    functions, in sorted-key order, at the ``(x, y)`` rows of ``points``,
    each function closed at its own last knots.  Per direction, stacked
    kernel calls in the chunks of :func:`_chunks` evaluate each distinct
    window of the space's :func:`_incidence` at every point, and each
    function's column is the product of its two windows' rows."""
    _, _, _, _, windows = _incidence(space)
    tables = []
    for (v, _), t in zip(windows, points.T):
        table = np.empty((len(v), len(t)))
        for c in _chunks(len(v), v.shape[1] * len(t)):
            table[c] = _stacked_values(v[c], t, close_at=v[c, -1])
        tables.append(table)
    (_, wx), (_, wy) = windows
    out = np.empty((len(points), len(wx)))
    for c in _chunks(len(wx), 3 * len(points)):
        out[:, c] = (tables[0][wx[c]] * tables[1][wy[c]]).T
    return out
