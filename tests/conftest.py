"""Shared fixtures: hand-checked reference meshes and spaces, and the
reference evaluators the package's batched code is checked against.

The geometric fixtures are small meshes whose element counts, function
counts, minimal-support verdicts, nesting relations and collocation ranks
were worked out by hand; the tests pin those numbers.  Coordinates are
integers or dyadic fractions so every constructor is exact.

The oracles are independent of the package's evaluation kernel: a scalar
Cox--de Boor recursion, one window at a time, and the full local tensor
space of one function with its mesh and basis.  The generation fixpoint
has its own: one knot per split, found by a scan of every mesh position;
so has its memoized Boehm kernel: the same integer loop, uncached.  The
array minimal-support check is checked against a per-function scan of
the mesh positions.  The element--function incidence is checked against
an exact-coordinate scan of every function per element, the batched
derivatives against a pointwise gradient, the quasi-interpolant against
a pointwise spline evaluator and against each local problem solved
alone, the stacked Greville collocations against each basis built
alone, the collocation matrix against one kernel call per function and
direction, the document writer against a JSON-ready dictionary that
``json.dumps`` encodes, and pipeline results against the nested map
that the knotwise test gives on every pair of nesting supports.  A
refinement's batched meshline insertion, in place on one copy of the
mesh, is checked against a fresh ``insert_split`` per split, and
the closed-form tensor mesh against one ``Split`` per line through
``_build_mesh``.
"""
from __future__ import annotations

import bisect
import heapq
import random
from dataclasses import dataclass

import numpy as np
import pytest

from lrbsplines import bspline as bspline_module
from lrbsplines import space as space_module
from lrbsplines.bspline import (
    _checked,
    _deficits,
    _knot_windows,
    _minimal_support,
    insert_knot,
    univariate_values,
)
from lrbsplines.dyadic import dyadic, midpoint
from lrbsplines.formats import _encode_key
from lrbsplines.mesh import (
    Mesh,
    MeshError,
    Rect,
    Split,
    _build_mesh,
    _int_pair,
    _knot_multiplicities,
    insert_split,
    make_initial_mesh,
)
from lrbsplines.quasi import _raised_vector, _solve_local
from lrbsplines.space import (
    LRSpace,
    _nested_supports,
    _uncovered_gaps,
    apply_split,
    initial_space,
    structured_refine,
)
from lrbsplines.refine import is_nested_knotwise, n2s_pipeline


def build_mesh(bounds, bidegree, lines, *, require_open=True, boundary=True):
    """Assemble a mesh from (direction, fixed, lo, hi[, mult]) tuples.

    Coerces plain numbers to dyadic coordinates and, when ``boundary``
    is set, adds the four domain edges at full multiplicity so fixtures
    only have to list their interior lines.
    """
    domain = Rect.from_bounds(bounds)
    p1, p2 = bidegree
    items = []
    for line in lines:
        direction, fixed, lo, hi = line[:4]
        mult = line[4] if len(line) > 4 else 1
        items.append((direction, dyadic(fixed), dyadic(lo), dyadic(hi), mult))
    if boundary:
        x0, x1, y0, y1 = bounds
        items.append((1, dyadic(x0), dyadic(y0), dyadic(y1), p1 + 1))
        items.append((1, dyadic(x1), dyadic(y0), dyadic(y1), p1 + 1))
        items.append((2, dyadic(y0), dyadic(x0), dyadic(x1), p2 + 1))
        items.append((2, dyadic(y1), dyadic(x0), dyadic(x1), p2 + 1))
    return _build_mesh(domain, bidegree, items, require_open=require_open)


def reference_initial_mesh(bounds, bidegree, n_cells) -> Mesh:
    """``make_initial_mesh`` by the general path: one :class:`Split` per
    line, each position a ``Fraction`` multiple of the cell width read
    back by ``dyadic``, and the whole checked by ``_build_mesh``.  A
    position outside the coordinate range raises ``dyadic``'s bare
    ``ValueError``."""
    if isinstance(bounds, Rect):
        domain = bounds
    else:
        try:
            domain = Rect.from_bounds(bounds)
        except MeshError:
            raise
        except (TypeError, ValueError) as exc:
            raise MeshError(
                f"bounds must be four coordinates (x_min, x_max, y_min, y_max), "
                f"got {bounds!r}: {exc}"
            ) from None
    p1, p2 = _int_pair(bidegree, "bidegree", scalar=False)
    n1, n2 = _int_pair(n_cells, "n_cells", scalar=True)
    if n1 < 1 or n2 < 1:
        raise MeshError(f"cell counts must be positive, got {n_cells}")

    def grid(lo, hi, n):
        step = (hi - lo).fraction / n
        if step.denominator & (step.denominator - 1):
            raise MeshError(
                f"cell width {step} is not dyadic; choose a power-of-two-"
                f"compatible cell count"
            )
        return [lo + dyadic(step * i) for i in range(1, n)]

    x0, x1, y0, y1 = domain.x_min, domain.x_max, domain.y_min, domain.y_max
    items = [Split(1, x, y0, y1, p1 + 1) for x in (x0, x1)]
    items += [Split(2, y, x0, x1, p2 + 1) for y in (y0, y1)]
    items += [Split(1, x, y0, y1) for x in grid(x0, x1, n1)]
    items += [Split(2, y, x0, x1) for y in grid(y0, y1, n2)]
    return _build_mesh(domain, (p1, p2), items)


def reference_values(knots, t, close_at=None):
    """Cox--de Boor values of the B-spline on ``knots`` at points ``t``,
    one window at a time.

    Spans are half-open; where ``t`` equals ``close_at`` the span ending
    there at its first occurrence in ``knots`` also holds the point, so
    the left-limit value is returned.  Terms with a zero denominator are
    skipped.
    """
    v = np.asarray(knots, dtype=float)
    t = np.asarray(t, dtype=float)
    if close_at is not None:
        close_at = float(close_at)
    p = v.size - 2
    layers = [((v[i] <= t) & (t < v[i + 1])).astype(float) for i in range(p + 1)]
    if close_at is not None and v[0] < close_at <= v[-1]:
        i = int(np.searchsorted(v, close_at, side="left"))
        if i >= 1 and v[i] == close_at:
            layers[i - 1] = layers[i - 1] + (t == close_at)
    for d in range(1, p + 1):
        for i in range(p + 1 - d):
            acc = np.zeros_like(t)
            den1 = v[i + d] - v[i]
            if den1 > 0.0:
                acc = (t - v[i]) / den1 * layers[i]
            den2 = v[i + d + 1] - v[i + 1]
            if den2 > 0.0:
                acc = acc + (v[i + d + 1] - t) / den2 * layers[i + 1]
            layers[i] = acc
    return layers[0]


def reference_derivatives(knots, t, close_at=None):
    """First derivative of the B-spline on ``knots`` at points ``t``,
    from the two degree-(p-1) :func:`reference_values`."""
    v = np.asarray(knots, dtype=float)
    t = np.asarray(t, dtype=float)
    p = v.size - 2
    out = np.zeros_like(t)
    den1 = v[p] - v[0]
    if den1 > 0.0:
        out = reference_values(v[:-1], t, close_at) / den1
    den2 = v[p + 1] - v[1]
    if den2 > 0.0:
        out = out - reference_values(v[1:], t, close_at) / den2
    return p * out


def evaluate_gradient(key, point) -> tuple[float, float]:
    """Unweighted gradient of the function ``key`` at one point, closed at
    its own last knots: one kernel call per direction gives the values
    and derivatives.  The pointwise reference of assembly's batched
    derivatives."""
    xv, yv = _checked(key)
    x, y = float(point[0]), float(point[1])
    kernel = bspline_module._stacked_values
    vx, dx = kernel(np.array(xv, dtype=float), np.array([x]), xv[-1], derivatives=True)
    vy, dy = kernel(np.array(yv, dtype=float), np.array([y]), yv[-1], derivatives=True)
    return (float(dx[0]) * float(vy[0]), float(vx[0]) * float(dy[0]))


def evaluate_spline(space, coefficients, x, y):
    """``sum_k c_k B_k`` of the unweighted basis at the points ``(x, y)``,
    arrays of one shape (any shape), closed at the domain's top edges:
    per chunk of points, one kernel call per direction evaluates every
    function.  A pointwise spline for targets; dense in the functions,
    so meant for spaces of at most about a thousand of them."""
    keys = space.sorted_keys()
    vx, vy = (np.array([key[d] for key in keys], dtype=float) for d in (0, 1))
    c = np.array([coefficients[key] for key in keys])
    dom = space.mesh.domain
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    px, py = x.ravel(), y.ravel()
    out = np.empty(px.size)
    step = max(1, (1 << 18) // len(keys))
    kernel = bspline_module._stacked_values
    for s in range(0, px.size, step):
        bx = kernel(vx, px[None, s : s + step], close_at=dom.x_max)
        by = kernel(vy, py[None, s : s + step], close_at=dom.y_max)
        out[s : s + step] = c @ (bx * by)
    return out.reshape(x.shape)


def element_support_count(space, element: Rect) -> int:
    """Number of functions whose support contains the element (a closed
    rectangle of ``mesh.elements()``), by an exact-coordinate scan of
    every function: O(n) per element."""
    return sum(
        1
        for xv, yv in space.functions
        if xv[0] <= element.x_min and element.x_max <= xv[-1]
        and yv[0] <= element.y_min and element.y_max <= yv[-1]
    )


def element_support_table(space):
    """Per element of ``mesh.elements()``, the indices (into
    ``space.sorted_keys()``) of the functions supported on it, ascending:
    the rows of the space's incidence."""
    keys, counts, indices, _, _ = space_module._incidence(space)
    return list(keys), np.split(indices, np.cumsum(counts)[:-1])


def has_minimal_support(key, mesh) -> bool:
    """``bspline._minimal_support`` of the function ``key``, checked:
    the per-function scan the array check is compared with."""
    return _minimal_support(*_checked(key), mesh)


def find_refining_split(key, mesh):
    """First mesh line that crosses the support of the function ``key``
    above its knot multiplicity, scanning direction 1 then 2, positions
    ascending: ``(direction, position, deficit)`` for the first hit of
    ``bspline._deficits``, or ``None`` when the function has minimal
    support.  Assumes ``has_support_on(key, mesh)``."""
    xv, yv = _checked(key)
    for direction in (1, 2):
        hits = _deficits(xv, yv, mesh, direction)
        if hits:
            return (direction, *hits[0])
    return None


def greville_collocation(windows, close_at):
    """Greville nodes and collocation matrix of one univariate basis,
    given as the list of its local knot vectors: the per-basis oracle of
    ``bspline._stacked_greville``.  Each node is the ``sum`` of a
    window's interior knots over the degree, and column j holds window
    j's values at the nodes, closed at ``close_at``, from one kernel
    call."""
    degree = len(windows[0]) - 2
    nodes = np.array([sum(vec[1 : degree + 1]) / degree for vec in windows])
    values = bspline_module._stacked_values(np.array(windows, dtype=float), nodes, close_at)
    return nodes, values.T


def local_collocation(vec):
    """Greville nodes, collocation matrix and origin index of the local
    univariate basis of one local knot vector, computed alone: the oracle
    of ``quasi._collocations``.  The basis is the windows of ``vec`` with
    its boundary knots raised to full multiplicity; the origin index is
    the position of ``vec`` itself among them."""
    degree = len(vec) - 2
    raised = _raised_vector(vec, degree)
    windows = _knot_windows(raised, degree)
    nodes, matrix = greville_collocation(windows, raised[-1])
    return nodes, matrix, windows.index(vec)


def collocation_matrix(space, points):
    """Values of the unweighted functions, in sorted-key order, at the
    ``(x, y)`` rows of ``points``, each closed at its own last knots: one
    one-window ``univariate_values`` call per function and direction, the
    oracle of ``space._collocation_matrix``."""
    a = np.empty((points.shape[0], space.n_functions))
    for j, (xv, yv) in enumerate(space.sorted_keys()):
        vx = univariate_values(xv, points[:, 0], close_at=xv[-1])
        vy = univariate_values(yv, points[:, 1], close_at=yv[-1])
        a[:, j] = vx * vy
    return a


def tensor_qi_coefficient(key, f) -> float:
    """Coefficient of the function ``key`` for interpolating ``f`` at the
    Greville points of its local tensor space: the one-function form of
    ``lr_qi``, which must give the same bits.  The local space is read
    from the raised knot vectors alone; its collocation matrix factors
    into two univariate ones, solved back to back."""
    xv, yv = _checked(key)
    xs, mx, ix = local_collocation(xv)
    ys, my, iy = local_collocation(yv)
    return float(_solve_local(f, xs, mx, ys, my)[ix, iy])


def to_json(obj) -> dict:
    """A mesh or a space as a JSON-ready dictionary: the document that
    ``save`` writes as ``json.dumps(to_json(obj), indent=1)``."""
    if isinstance(obj, LRSpace):
        doc = to_json(obj.mesh)
        doc["functions"] = [
            {**_encode_key(key), "w": float(obj.functions[key])}
            for key in obj.sorted_keys()
        ]
        return doc
    dom = obj.domain
    return {
        "domain": [c.pair() for c in (dom.x_min, dom.x_max, dom.y_min, dom.y_max)],
        "bidegree": list(obj.bidegree),
        "lines": [
            {
                "dir": line.direction,
                "fixed": line.fixed.pair(),
                "span": [line.lo.pair(), line.hi.pair()],
                "mult": line.multiplicity,
            }
            for line in obj.lines()
        ],
    }


@dataclass(frozen=True)
class LocalTensorSpace:
    """The tensor space spanned by one function's knots, boundary raised
    to full multiplicity.  ``basis`` holds its functions' keys, and
    ``origin`` the key it was built for, which is always among them."""

    origin: tuple
    mesh: Mesh
    basis: tuple


def local_tensor_space(key) -> LocalTensorSpace:
    """Tensor space on the support of the function ``key`` containing it:
    the reference space of the quasi-interpolant's local problems."""
    xknots, yknots = key
    p1, p2 = len(xknots) - 2, len(yknots) - 2
    gx = _raised_vector(xknots, p1)
    gy = _raised_vector(yknots, p2)
    domain = Rect(xknots[0], xknots[-1], yknots[0], yknots[-1])
    items = [(1, x, domain.y_min, domain.y_max, m) for x, m in _knot_multiplicities(gx)]
    items += [(2, y, domain.x_min, domain.x_max, m) for y, m in _knot_multiplicities(gy)]
    mesh = _build_mesh(domain, (p1, p2), items)
    basis = tuple((xv, yv) for xv in _knot_windows(gx, p1) for yv in _knot_windows(gy, p2))
    assert key in basis, f"local tensor space misses {key}"
    return LocalTensorSpace(key, mesh, basis)


def reference_boehm(window, knots) -> tuple:
    """Boehm's algorithm in integer arithmetic, uncached: the reference
    of ``bspline._children`` and so of the memoized kernel ``_boehm``.

    Inserts ``knots`` into the local knot vector ``window`` one at a
    time; every window a knot lies strictly inside splits into its two
    knot-insertion children, and children on the same window merge.
    Returns ``(num, den, child_window)`` per window of the augmented
    vector, in order, with the unreduced coefficient ``num / den``.
    """
    p = len(window) - 2
    ratios = [c.as_integer_ratio() for c in window]
    inserted = [z.as_integer_ratio() for z in knots]
    m = max(den for _, den in ratios + inserted)
    t = [num * (m // den) for num, den in ratios]
    nums, dens = [1], [1]
    for num, den in inserted:
        z = num * (m // den)
        new_nums, new_dens = [], []
        rn, rd = 0, 1
        for j, cn in enumerate(nums):
            cd = dens[j]
            lo, hi = t[j], t[j + p + 1]
            if hi <= z:
                ln, ld, next_n, next_d = cn, cd, 0, 1
            elif lo >= z:
                ln, ld, next_n, next_d = 0, 1, cn, cd
            else:
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
    augmented = tuple(sorted(tuple(window) + tuple(knots)))
    return tuple((cn, cd, augmented[j : j + p + 2]) for j, (cn, cd) in enumerate(zip(nums, dens)))


def reference_fixpoint(mesh, functions, dirty):
    """The generation fixpoint one knot at a time: pop the smallest key,
    split it by :func:`insert_knot` at the first hit of
    :func:`find_refining_split`, and push the new children, until no
    function lacks minimal support.  Mutates ``functions``, a dict from
    key to weight, and returns ``(removed, added)`` as ``space._fixpoint``
    does, for any ``dirty`` set that holds every function lacking
    minimal support."""
    heap = sorted(dirty)
    removed, added = set(), set()
    while heap:
        key = heapq.heappop(heap)
        w = functions.get(key)
        if w is None:
            continue
        hit = find_refining_split(key, mesh)
        if hit is None:
            continue
        direction, pos, _deficit = hit
        children = insert_knot(key, direction, pos)
        del functions[key]
        if key in added:
            added.remove(key)
        else:
            removed.add(key)
        for alpha, k in children:
            old = functions.get(k)
            if old is None:
                functions[k] = w * alpha
                heapq.heappush(heap, k)
                added.add(k)
            else:
                functions[k] = old + w * alpha
    return removed, added


def insert_pieces_per_split(mesh, pieces):
    """``space._insert_pieces`` one split at a time: each uncovered gap
    of the distinct pieces, ascending, goes through its own
    :func:`insert_split`, which copies the lines again.  Returns the
    mesh and the inserted splits."""
    inserted = []
    for direction, pos, lo, hi, _ in sorted(set(pieces)):
        for g_lo, g_hi in _uncovered_gaps(mesh, direction, pos, lo, hi):
            split = Split(direction, pos, g_lo, g_hi)
            mesh = insert_split(mesh, split)
            inserted.append(split)
    return mesh, inserted


def nested_map(space) -> dict:
    """Map each function with nested functions to their sorted keys, by
    the knotwise test on every pair of nesting supports; a space with
    pairwise non-nested supports maps to ``{}``.  The pairs come from the
    corner search that ``verify`` runs on the space's incidence."""
    keys, _, _, _, ((vx, wx), (vy, wy)) = space_module._incidence(space)
    inner, outer = _nested_supports(space.mesh, (vx[wx, 0], vx[wx, -1], vy[wy, 0], vy[wy, -1]))
    by_outer: dict = {}
    for i, o in zip(inner.tolist(), outer.tolist()):
        if is_nested_knotwise(keys[i], keys[o]):
            by_outer.setdefault(keys[o], set()).add(keys[i])
    return {key: tuple(sorted(by_outer[key])) for key in sorted(by_outer)}


def random_split(rng, space):
    """A multiplicity-1 split at a knot-span midpoint of a random
    function, over the first uncovered gap across its support; None when
    that line is already complete."""
    key = rng.choice(space.sorted_keys())
    direction = rng.choice((1, 2))
    vec = sorted(set(key[direction - 1]))
    cross = key[2 - direction]
    i = rng.randrange(len(vec) - 1)
    pos = midpoint(vec[i], vec[i + 1])
    gaps = _uncovered_gaps(space.mesh, direction, pos, cross[0], cross[-1])
    if not gaps:
        return None
    return Split.make(direction, pos, *gaps[0])


def random_marked(rng, space) -> set:
    keys = space.sorted_keys()
    return set(rng.sample(keys, rng.randint(1, max(1, len(keys) // 4))))


def key_of(xvals, yvals):
    """A function key from plain numeric knot tuples."""
    return (
        tuple(dyadic(v) for v in xvals),
        tuple(dyadic(v) for v in yvals),
    )


def apply_splits(space, quads):
    """Fold ``apply_split`` over (direction, fixed, lo, hi) tuples."""
    for direction, fixed, lo, hi in quads:
        space = apply_split(space, Split.make(direction, fixed, lo, hi))
    return space


def count_incidence_calls(monkeypatch) -> list:
    """Count the incidences built, by ``space._build_incidence``, which
    only ``space._incidence`` calls; the returned list grows by one per
    build."""
    real = space_module._build_incidence
    calls = []

    def counting(space):
        calls.append(1)
        return real(space)

    monkeypatch.setattr(space_module, "_build_incidence", counting)
    return calls


def flood_fill_tiles(xs, ys, lines):
    """Brute-force tiling of a raw line set, used as an oracle.

    ``lines`` are (direction, fixed, lo, hi) segments on the sorted grid
    values ``xs`` and ``ys``, which hold every line position and end.
    Merges neighbouring grid cells whose shared edge no segment covers
    and returns the set of corner tuples (x0, x1, y0, y1) of the
    connected components.  Returns None when the lines do not tile the
    domain: a component is not a rectangle, or a segment covers an edge
    between two cells of one component (a dangling line).
    """
    nx, ny = len(xs) - 1, len(ys) - 1

    segments = {}
    for direction, fixed, lo, hi in lines:
        segments.setdefault((direction, fixed), []).append((lo, hi))

    def covered(direction, pos, lo, hi):
        return any(a <= lo and hi <= b for a, b in segments.get((direction, pos), ()))

    parent = list(range(nx * ny))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    walls = []
    for i in range(nx):
        for j in range(ny):
            here = i * ny + j
            neighbours = []
            if i + 1 < nx:
                neighbours.append((here + ny, covered(1, xs[i + 1], ys[j], ys[j + 1])))
            if j + 1 < ny:
                neighbours.append((here + 1, covered(2, ys[j + 1], xs[i], xs[i + 1])))
            for there, wall in neighbours:
                if wall:
                    walls.append((here, there))
                else:
                    parent[find(here)] = find(there)
    if any(find(a) == find(b) for a, b in walls):
        return None

    groups = {}
    for i in range(nx):
        for j in range(ny):
            groups.setdefault(find(i * ny + j), []).append((i, j))
    rects = set()
    for cells in groups.values():
        i_lo = min(c[0] for c in cells)
        i_hi = max(c[0] for c in cells)
        j_lo = min(c[1] for c in cells)
        j_hi = max(c[1] for c in cells)
        if len(cells) != (i_hi - i_lo + 1) * (j_hi - j_lo + 1):
            return None
        rects.add((xs[i_lo], xs[i_hi + 1], ys[j_lo], ys[j_hi + 1]))
    return rects


def flood_fill_elements(mesh: Mesh):
    """:func:`flood_fill_tiles` of the mesh's lines on the grid of its
    line positions: the set of element corner tuples, or None when the
    lines do not tile the domain."""
    lines = [(line.direction, line.fixed, line.lo, line.hi) for line in mesh.lines()]
    return flood_fill_tiles(mesh.positions(1), mesh.positions(2), lines)


def random_subset_marker(rng, fraction=0.25):
    """A marker selecting a random nonempty subset of the space.

    The subset is drawn per space via a shared ``random.Random``; the
    pipeline calls the marker once per function, so the draw happens on
    first use per space (functions are visited in sorted-key order).
    """
    chosen = {}

    def marker(key):
        if key not in chosen:
            chosen[key] = rng.random() < fraction
        return chosen[key]

    return marker


def random_pipeline_space(seed, iterations=2, n_cells=2, bidegree=(2, 2)):
    """A small space produced by a randomized refinement pipeline run."""
    rng = random.Random(seed)
    space = initial_space(make_initial_mesh((0, 1, 0, 1), bidegree, n_cells))
    for i in range(1, iterations + 1):
        keys = space.sorted_keys()
        n_mark = rng.randint(1, max(1, len(keys) // 6))
        marked = set(rng.sample(keys, n_mark))
        [space], _ = n2s_pipeline(
            space, lambda key: key in marked, 1, start_index=i
        )
    return space


# -- illustrative fixtures ---------------------------------------------------


@pytest.fixture(scope="session")
def mixed_mesh():
    """A (2,2) mesh on [0,10]^2 with several partial lines; used for
    support and minimal-support checks."""
    return build_mesh(
        (0, 10, 0, 10),
        (2, 2),
        [
            (2, 2, 0, 10),
            (2, 8, 0, 10),
            (1, 6, 0, 10),
            (1, 8, 0, 10),
            (2, 6, 0, 8),
            (1, 2, 2, 10),
            (2, 7, 0, 6),
            (1, 4, 0, 8),
            (1, 5, 2, 10),
        ],
    )


@pytest.fixture(scope="session")
def rank_deficient_space():
    """A (2,2) space on [1,9]x[1,7] whose collocation matrix has rank
    n - 1: locally linearly *dependent* despite spanning checks passing
    elementwise.  Lines are inserted full-width first so every partial
    span decomposes into whole element traversals."""
    space = initial_space(
        _build_mesh(
            Rect.from_bounds((1, 9, 1, 7)),
            (2, 2),
            [
                (1, dyadic(1), dyadic(1), dyadic(7), 3),
                (1, dyadic(9), dyadic(1), dyadic(7), 3),
                (2, dyadic(1), dyadic(1), dyadic(9), 3),
                (2, dyadic(7), dyadic(1), dyadic(9), 3),
            ],
        )
    )
    return apply_splits(
        space,
        [
            (1, 2, 1, 7),
            (1, 3, 1, 7),
            (1, 6, 1, 7),
            (1, 8, 1, 7),
            (2, 2, 1, 9),
            (2, 4, 1, 9),
            (2, 6, 1, 9),
            (2, 3, 3, 9),
            (1, 7, 2, 6),
            (2, 5, 1, 7),
            (1, 4, 1, 5),
            (1, 5, 2, 7),
        ],
    )


@pytest.fixture(scope="session")
def two_stage_dependent_space():
    """A (4,4) space on [0,9]^2 that loses local linear independence
    after two structured refinements: the first stage splits a mirrored
    pair of coarse functions, the second splits two of their fine
    children whose supports overlap near the centre, and the resulting
    400 functions have collocation rank 398."""
    space = initial_space(make_initial_mesh((0, 9, 0, 9), (4, 4), 9))
    stage_one = [
        key_of((0, 1, 2, 3, 4, 5), (4, 5, 6, 7, 8, 9)),
        key_of((4, 5, 6, 7, 8, 9), (0, 1, 2, 3, 4, 5)),
    ]
    space = structured_refine(space, stage_one)
    stage_two = [
        key_of((2.5, 3, 3.5, 4, 4.5, 5), (4, 4.5, 5, 5.5, 6, 6.5)),
        key_of((4, 4.5, 5, 5.5, 6, 6.5), (2.5, 3, 3.5, 4, 4.5, 5)),
    ]
    for key in stage_two:
        assert key in space.functions
    return structured_refine(space, stage_two)


@pytest.fixture(scope="session")
def boundary_mult_mesh():
    """A non-open (2,2) mesh on [0,6]^2 (left edge multiplicity 2) used
    for the nestedness definitions."""
    return build_mesh(
        (0, 6, 0, 6),
        (2, 2),
        [
            (1, 0, 0, 6, 2),
            (1, 6, 0, 6, 3),
            (2, 0, 0, 6, 3),
            (2, 6, 0, 6, 3),
            (1, 2, 0, 6),
            (1, 4, 0, 6),
            (2, 2, 0, 6),
            (2, 4, 0, 6),
            (1, 3, 0, 4),
            (2, 3, 0, 4),
        ],
        require_open=False,
        boundary=False,
    )


@pytest.fixture(scope="session")
def expansion_fixture():
    """Space on [0,6]^2 with one wide function nested over four finer
    ones; one-directional expansion must insert exactly x=1 and x=3 over
    the full height."""
    space = initial_space(make_initial_mesh((0, 6, 0, 6), (2, 2), 3))
    return apply_splits(
        space,
        [(1, 1, 2, 6), (1, 3, 2, 6), (2, 3, 0, 4), (2, 5, 0, 4)],
    )


@pytest.fixture(scope="session")
def running_example():
    """The two-stage refinement of the 4x4 (2,2) space on [0,1]^2:
    structured-only stages (dependent at stage two) and the pipeline
    stages (independent).  Returns a dict of the four spaces."""
    base = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    key1 = key_of((0, 0.25, 0.5, 0.75), (0.25, 0.5, 0.75, 1))
    key2 = key_of((0.25, 0.375, 0.5, 0.625), (0.375, 0.5, 0.625, 0.75))

    stage_b = structured_refine(base, [key1])
    stage_d = structured_refine(stage_b, [key2])

    [pipe_1], trace_1 = n2s_pipeline(
        base, lambda key: key == key1, 1, start_index=1
    )
    [pipe_2], trace_2 = n2s_pipeline(
        pipe_1, lambda key: key == key2, 1, start_index=2
    )
    return {
        "base": base,
        "key1": key1,
        "key2": key2,
        "structured_1": stage_b,
        "structured_2": stage_d,
        "pipeline_1": pipe_1,
        "pipeline_2": pipe_2,
        "trace_1": trace_1,
        "trace_2": trace_2,
    }
