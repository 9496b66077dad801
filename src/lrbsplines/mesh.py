"""Box-partition meshes carrying multiplicity-weighted meshlines.

A mesh is a rectangular domain together with axis-parallel meshlines,
each a segment with an integer multiplicity, such that the complement of
the lines tiles the domain into open rectangles (the *elements*).
Meshes here satisfy the *constant splits* property -- collinear touching
lines of different multiplicity are rejected -- so the runs stored at one
position are pairwise disjoint and non-abutting, and any contiguous
covered segment lies inside a single run.

Directions follow the convention: direction 1 is a vertical line
(constant x, span in y), direction 2 a horizontal line (constant y,
span in x).

All coordinates are exact dyadics; multiplicities are capped by
``bidegree[k-1] + 1`` in direction ``k``, and on *open* meshes the four
boundary edges carry exactly that full multiplicity.

A segment, stored or inserted, is a :class:`Split`, and construction
and insertion check it by the same rules (:func:`_check_segment`,
:func:`_canonical_runs`); the open tensor mesh of
:func:`make_initial_mesh`, which passes them by construction, is
written in closed form instead.  :func:`insert_split` returns a new
mesh; a refinement copies its input mesh once (:meth:`Mesh._copy`) and
edits that copy in place (:meth:`Mesh._insert`), split by split.

A mesh stores its lines.  The elements are tiled from them, on the
first read, into one integer array of index boxes: row ``(i0, i1, j0,
j1)`` is the element ``[xs[i0], xs[i1]] x [ys[j0], ys[j1]]``, with ``xs``
and ``ys`` the line positions of directions 1 and 2.  Every mesh, tensor
or not, is tiled the same way (:func:`_tile`); :meth:`Mesh.elements`
builds the elements' closures, as :class:`Rect` objects, from the boxes
only when it is called.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable, NamedTuple

import numpy as np

from .dyadic import _MAX_EXPONENT, _NUMERATOR_BITS, DyadicCoord, _integer, dyadic

__all__ = [
    "MeshError",
    "Rect",
    "Split",
    "Mesh",
    "make_initial_mesh",
    "insert_split",
    "is_tensorized",
]


class MeshError(ValueError):
    """A mesh construction or insertion violates the mesh invariants."""


@dataclass(frozen=True, slots=True)
class Rect:
    """Closed axis-parallel rectangle with dyadic corners."""

    x_min: DyadicCoord
    x_max: DyadicCoord
    y_min: DyadicCoord
    y_max: DyadicCoord

    def __post_init__(self) -> None:
        fields = [(name, getattr(self, name), DyadicCoord) for name in self.__slots__]
        _check_types("Rect", "Rect.from_bounds", fields)
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise MeshError(f"degenerate rectangle {self}")

    @classmethod
    def from_bounds(cls, bounds) -> "Rect":
        x0, x1, y0, y1 = (dyadic(b) for b in bounds)
        return cls(x0, x1, y0, y1)

    def interval(self, direction: int) -> tuple[DyadicCoord, DyadicCoord]:
        """Extent along ``direction`` (1 = x, 2 = y)."""
        if direction == 1:
            return (self.x_min, self.x_max)
        return (self.y_min, self.y_max)

    def __str__(self) -> str:
        return f"[{self.x_min}, {self.x_max}] x [{self.y_min}, {self.y_max}]"


class Split(NamedTuple):
    """A meshline segment: ``multiplicity`` lines at position ``fixed``
    of ``direction``, spanning ``[lo, hi]`` across it.

    The one segment type: :meth:`Mesh.lines` returns the canonical runs
    as splits, and insertion and refinement take them.  To be inserted, a
    split must either be entirely new -- with both ends on perpendicular
    lines that cross its position, so that it cuts every element it meets
    from edge to edge -- or coincide exactly with one existing run, in
    which case the run's multiplicity is raised.
    """

    direction: int
    fixed: DyadicCoord
    lo: DyadicCoord
    hi: DyadicCoord
    multiplicity: int = 1

    @classmethod
    def make(cls, direction, fixed, lo, hi, multiplicity=1) -> "Split":
        """A split from plain numbers: the coordinates by :func:`dyadic`,
        and the direction and multiplicity as integers, which an integral
        float also is and a bool is not."""
        try:
            direction = _integer(direction, "Split.direction")
            multiplicity = _integer(multiplicity, "Split.multiplicity")
        except (TypeError, ValueError) as exc:
            raise MeshError(str(exc)) from None
        return cls(direction, dyadic(fixed), dyadic(lo), dyadic(hi), multiplicity)


# A run is a (lo, hi, mult) triple; runs at one position are kept sorted
# by lo and are pairwise disjoint and non-abutting.
_Runs = tuple[tuple[DyadicCoord, DyadicCoord, int], ...]


def _covering_runs(at: dict, positions, lo, hi) -> list:
    """Per position of ``positions``: the run of ``at``, one direction's
    dict from position to runs, that contains ``[lo, hi]``, or None.

    By the constant-splits invariant a contiguous covered segment lies
    in exactly one run, so a single containment test suffices.  The
    runs ``(lo, hi, mult)`` at a position are sorted with finite ends,
    so those before ``(lo, inf)`` are exactly the runs starting at or
    below ``lo``: the search, built once per scan, compares tuples and
    calls no key function, and a position with one run needs none.
    """
    key = (lo, math.inf)
    out = []
    for pos in positions:
        runs = at.get(pos, ())
        if len(runs) == 1:
            r = runs[0]
        else:
            i = bisect.bisect_right(runs, key) - 1
            r = runs[i] if i >= 0 else None
        out.append(r if r is not None and r[0] <= lo and hi <= r[1] else None)
    return out


class Mesh:
    """LR mesh: domain, bidegree, canonical lines, elements; immutable
    but for :meth:`_insert` on a private copy from :meth:`_copy`.

    The tiling is the index-box array of :meth:`element_boxes`, derived
    from the lines on its first read and cached, so a mesh read only for
    its lines never builds it.  :func:`_build_mesh` reads it at once for
    non-tensor meshes, which checks their box-partition property when
    they are constructed.
    """

    __slots__ = ("domain", "bidegree", "_runs", "_positions", "_elements")

    def __init__(self, domain: Rect, bidegree: tuple[int, int], runs, positions, elems):
        self.domain = domain
        self.bidegree = bidegree
        self._runs = runs  # {1: {pos: _Runs}, 2: {pos: _Runs}}
        self._positions = positions  # {1: sorted tuple, 2: sorted tuple}
        # read-only (elements, 4) index-box array sorted by lower-left
        # corner, or None until the tiling is first read
        self._elements = elems

    def _copy(self) -> "Mesh":
        """An equal mesh with its own run dicts, for :meth:`_insert` to
        edit; it shares the tuples and the read-only tiling."""
        runs = {d: dict(self._runs[d]) for d in (1, 2)}
        return Mesh(self.domain, self.bidegree, runs, dict(self._positions), self._elements)

    def _insert(self, split: Split) -> None:
        """Insert one split in place by the rules of :func:`insert_split`,
        or raise :class:`MeshError`, leaving the mesh unchanged."""
        d, pos, lo, hi, mult = split
        _check_segment(self.domain, self.bidegree, d, pos, lo, hi, mult)
        runs = self.runs_at(d, pos)
        overlapping = [r for r in runs if r[0] < hi and lo < r[1]]
        if overlapping:
            old = overlapping[0]
            if len(overlapping) > 1 or old[0] != lo or old[1] != hi:
                raise MeshError(
                    f"split span [{lo}, {hi}] partially overlaps existing meshlines "
                    f"at direction-{d} position {pos}; spans must be entirely new or "
                    f"coincide with one existing run"
                )
            cap = self.bidegree[d - 1] + 1
            new_mult = mult + old[2]
            if new_mult > cap:
                raise MeshError(
                    f"multiplicity {new_mult} exceeds the cap {cap} "
                    f"at direction-{d} position {pos}"
                )
            self._runs[d][pos] = tuple((lo, hi, new_mult) if r is old else r for r in runs)
            return

        # Entirely new.  No line ends inside an element, so with both ends on
        # runs crossing pos, every element straddling pos between them is cut
        # edge to edge.
        other = 2 if d == 1 else 1
        for end in (lo, hi):
            [run] = _covering_runs(self._runs[other], (end,), pos, pos)
            if run is None or not run[0] < pos < run[1]:
                raise MeshError(
                    f"split at direction-{d} position {pos} is not anchored: its "
                    f"end {end} does not lie on a meshline crossing the position"
                )
        new_runs = _canonical_runs(d, pos, runs + ((lo, hi, mult),))
        if not runs:
            self._positions[d] = tuple(sorted(self._positions[d] + (pos,)))
        self._runs[d][pos] = new_runs
        self._elements = None

    # -- queries ---------------------------------------------------------

    def positions(self, direction: int) -> tuple[DyadicCoord, ...]:
        """Sorted positions that carry at least one line, boundary included."""
        return self._positions[direction]

    def runs_at(self, direction: int, pos: DyadicCoord) -> _Runs:
        return self._runs[direction].get(pos, ())

    def covering_run(self, direction, pos, lo, hi):
        """The run at ``pos`` containing ``[lo, hi]``, or None."""
        return _covering_runs(self._runs[direction], (pos,), lo, hi)[0]

    def covering_runs(self, direction, positions, lo, hi) -> list:
        """:meth:`covering_run` at each of ``positions`` in one scan."""
        return _covering_runs(self._runs[direction], positions, lo, hi)

    def lines(self) -> tuple[Split, ...]:
        """The canonical runs as :class:`Split` segments, sorted by
        (direction, fixed, lo)."""
        return tuple(
            Split(d, pos, lo, hi, mult)
            for d in (1, 2)
            for pos in self._positions[d]
            for lo, hi, mult in self._runs[d][pos]
        )

    def element_boxes(self) -> np.ndarray:
        """The tiling as a read-only ``(elements, 4)`` integer array.

        Row ``(i0, i1, j0, j1)`` is the element ``[xs[i0], xs[i1]] x
        [ys[j0], ys[j1]]``, with ``xs, ys = positions(1), positions(2)``;
        the rows are sorted by lower-left corner ``(i0, j0)``.  The first
        call tiles the domain by :func:`_tile`, and later calls return the
        same array.
        """
        if self._elements is None:
            self._elements = _tile(self._positions, self._runs)
        return self._elements

    def elements(self) -> tuple[Rect, ...]:
        """The elements' closures, sorted by lower-left corner ``(x_min,
        y_min)``: built from :meth:`element_boxes` on each call."""
        xs, ys = self._positions[1], self._positions[2]
        return tuple(
            Rect(xs[i0], xs[i1], ys[j0], ys[j1])
            for i0, i1, j0, j1 in self.element_boxes().tolist()
        )

    def _canonical(self):
        return (
            self.domain,
            self.bidegree,
            tuple(
                (d, pos, self._runs[d][pos])
                for d in (1, 2)
                for pos in self._positions[d]
            ),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mesh):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:
        """The domain, bidegree and line count, and the element count once
        the mesh is tiled: a repr never builds the tiling."""
        n_lines = sum(len(rs) for d in (1, 2) for rs in self._runs[d].values())
        tiled = "" if self._elements is None else f", {len(self._elements)} elements"
        return f"<Mesh {self.domain} bidegree {self.bidegree}: {n_lines} lines{tiled}>"


# -- construction ---------------------------------------------------------


def _check_types(cls: str, coercer: str, fields) -> None:
    """Reject the first ``(name, value, type)`` of ``fields`` whose value
    is not of its type (a bool is no ``int``), naming the field of the
    class ``cls`` and ``coercer``, which converts plain numbers."""
    for name, value, kind in fields:
        if not isinstance(value, kind) or isinstance(value, bool):
            raise MeshError(
                f"{cls}.{name} must be {kind.__name__}, got {type(value).__name__} "
                f"{value!r}; {coercer} converts plain numbers"
            )


def _check_segment(domain: Rect, bidegree, direction, fixed, lo, hi, mult) -> None:
    """The rules a segment must meet on its own: an ``int`` direction of
    1 or 2, an ``int`` multiplicity between 1 and the direction's cap
    ``bidegree[d-1] + 1``, :class:`DyadicCoord` position and ends, a
    nonempty span, and a position and span inside the domain."""
    types = (int, DyadicCoord, DyadicCoord, DyadicCoord, int)
    values = (direction, fixed, lo, hi, mult)
    _check_types("Split", "Split.make", zip(Split._fields, values, types))
    if direction not in (1, 2):
        raise MeshError(f"direction must be 1 or 2, got {direction}")
    if mult < 1:
        raise MeshError(f"multiplicity must be positive, got {mult}")
    cap = bidegree[direction - 1] + 1
    if mult > cap:
        raise MeshError(
            f"multiplicity {mult} exceeds the cap {cap} "
            f"at direction-{direction} position {fixed}"
        )
    if not lo < hi:
        raise MeshError(f"empty meshline span [{lo}, {hi}]")
    f_lo, f_hi = domain.interval(direction)
    c_lo, c_hi = domain.interval(2 if direction == 1 else 1)
    if not (f_lo <= fixed <= f_hi):
        raise MeshError(f"line position {fixed} outside domain {domain}")
    if not (c_lo <= lo and hi <= c_hi):
        raise MeshError(f"line span [{lo}, {hi}] outside domain {domain}")


def _canonical_runs(direction, pos, segments) -> _Runs:
    """Merge the (lo, hi, mult) segments at one position into canonical
    runs, each segment having passed :func:`_check_segment`.

    Overlapping segments or abutting segments of different multiplicity
    violate the constant-splits invariant and raise.
    """
    segs = sorted(segments, key=lambda s: (s[0], s[1]))
    out: list[list] = []
    for lo, hi, mult in segs:
        if out:
            plo, phi, pmult = out[-1]
            if lo < phi:
                raise MeshError(
                    f"overlapping collinear meshlines near [{lo}, {min(hi, phi)}] "
                    f"at direction-{direction} position {pos}"
                )
            if lo == phi:
                if mult != pmult:
                    raise MeshError(
                        f"abutting collinear meshlines of multiplicities "
                        f"{pmult} and {mult} at {lo} on direction-{direction} "
                        f"position {pos} (constant splits)"
                    )
                out[-1][1] = hi
                continue
        out.append([lo, hi, mult])
    return tuple((lo, hi, mult) for lo, hi, mult in out)


def _cover(runs, fixed, cross, what) -> np.ndarray:
    """Which edges of the arrangement grid the lines of one direction cover.

    Entry ``[f, c]`` is true when a run at ``fixed[f]`` covers the span
    ``[cross[c], cross[c + 1]]``; every run end must be one of ``cross``.
    """
    index = {v: c for c, v in enumerate(cross)}
    at, lo, hi = [], [], []
    for f, pos in enumerate(fixed):
        for a, b, _ in runs[pos]:
            try:
                lo.append(index[a])
                hi.append(index[b])
            except KeyError as exc:
                raise MeshError(
                    f"{what} at {pos}: endpoint {exc.args[0]} is not a mesh vertex"
                ) from None
            at.append(f)
    steps = np.zeros((len(fixed), len(cross)), dtype=np.intp)
    np.add.at(steps, (at, lo), 1)
    np.add.at(steps, (at, hi), -1)
    return np.cumsum(steps, axis=1)[:, :-1] > 0


def _next_covered(covered, k, c) -> np.ndarray:
    """Per query ``(k[q], c[q])``: the first ``k' >= k`` with
    ``covered[k', c]``, or the last row index when there is none.  The
    covered entries, sorted by column and then row, are searched once
    per query, so no array of the grid's size is built besides their
    list."""
    n = len(covered)
    columns, rows = np.nonzero(covered.T)
    flat = columns * n + rows
    at = np.minimum(np.searchsorted(flat, c * n + k), len(flat) - 1)
    return np.where((flat[at] >= c * n + k) & (columns[at] == c), rows[at], n - 1)


#: Largest position grid, ``len(positions(1)) * len(positions(2))``
#: cells, that :func:`_tile` accepts.  Its dense masks and prefix sums
#: take about 28 bytes per cell (27.8 MiB at 1,025 x 1,025 positions), so
#: the cap of 2**25 cells bounds one tiling near 0.9 GiB.  The 2,049 x
#: 2,049 grid of an 11-iteration ``mesh-demo`` holds 4.2 million cells.
MAX_TILING_CELLS = 1 << 25


def _tile(positions, runs) -> np.ndarray:
    """Tile the domain by the lines, validating the box-partition property.

    Returns the elements as an ``(elements, 4)`` array of position
    indices ``(i0, i1, j0, j1)``, the element being ``[xs[i0], xs[i1]] x
    [ys[j0], ys[j1]]`` with ``xs`` and ``ys`` the positions of directions
    1 and 2, sorted by lower-left corner ``(i0, j0)``.

    The cells of the arrangement grid whose left and bottom edges are
    both covered are the corners; each corner's box runs to the next
    covered edge to its right in its row and above it in its column.
    The lines tile the domain when every cell lies in exactly one box,
    as a 2-D prefix sum of the box corners shows, and an interior edge is
    covered exactly where its two cells lie in different boxes.
    """
    xs, ys = positions[1], positions[2]
    if len(xs) * len(ys) > MAX_TILING_CELLS:
        raise MeshError(
            f"cannot tile a grid of {len(xs)} x {len(ys)} positions: it exceeds "
            f"the tiling cap of {MAX_TILING_CELLS} cells"
        )
    nx, ny = len(xs) - 1, len(ys) - 1
    vertical = _cover(runs[1], xs, ys, "vertical meshline")  # (nx + 1, ny)
    horizontal = _cover(runs[2], ys, xs, "horizontal meshline").T  # (nx, ny + 1)

    i0, j0 = np.nonzero(vertical[:-1] & horizontal[:, :-1])
    i1 = _next_covered(vertical, i0 + 1, j0)
    j1 = _next_covered(horizontal.T, j0 + 1, i0)

    def paint(weights):
        # the sum of the weights of the boxes holding each cell
        grid = np.zeros((nx + 1, ny + 1), dtype=np.intp)
        for i, j, sign in ((i0, j0, 1), (i1, j0, -1), (i0, j1, -1), (i1, j1, 1)):
            np.add.at(grid, (i, j), sign * weights)
        return grid.cumsum(axis=0).cumsum(axis=1)[:-1, :-1]

    bad = paint(1) != 1
    if not bad.any():
        box = paint(np.arange(len(i0)))
        bad[1:] = vertical[1:-1] != (box[1:] != box[:-1])
        bad[:, 1:] |= horizontal[:, 1:-1] != (box[:, 1:] != box[:, :-1])
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        raise MeshError(
            f"meshlines do not tile the domain into rectangles near "
            f"[{xs[i]}, {xs[i + 1]}] x [{ys[j]}, {ys[j + 1]}]"
        )
    boxes = np.stack([i0, i1, j0, j1], axis=1)
    boxes.flags.writeable = False
    return boxes


def _build_mesh(
    domain: Rect,
    bidegree: tuple[int, int],
    items: Iterable[Split],
    *,
    require_open: bool = True,
) -> Mesh:
    """Assemble and validate a mesh from :class:`Split` segments (or
    tuples of the same five fields); collinear segments that abut at one
    multiplicity merge into one run.

    Every segment gets :func:`_check_segment`, every position's segments
    :func:`_canonical_runs`, and the mesh the boundary checks.  The
    tiling is read, and so checked by :func:`_tile`, here only when some
    line stops short of the domain edges.  When every line spans the
    full cross-extent, each line cuts the domain from edge to edge, so
    the complement of the lines is exactly the grid of consecutive
    positions (the boundary check has put the domain edges among them):
    the box-partition check cannot fail, and the tiling waits for its
    first read.
    """
    p1, p2 = bidegree
    if p1 < 1 or p2 < 1:
        raise MeshError(f"bidegree components must be >= 1, got {bidegree}")
    raw: dict[int, dict[DyadicCoord, list]] = {1: {}, 2: {}}
    for direction, fixed, lo, hi, mult in items:
        _check_segment(domain, bidegree, direction, fixed, lo, hi, mult)
        raw[direction].setdefault(fixed, []).append((lo, hi, mult))

    runs = {
        d: {pos: _canonical_runs(d, pos, segs) for pos, segs in raw[d].items()}
        for d in (1, 2)
    }

    # Boundary edges must be fully covered; on open meshes at exactly the
    # full multiplicity.
    for d, cap in ((1, p1 + 1), (2, p2 + 1)):
        f_lo, f_hi = domain.interval(d)
        c_lo, c_hi = domain.interval(2 if d == 1 else 1)
        for pos in (f_lo, f_hi):
            rs = runs[d].get(pos, ())
            if len(rs) != 1 or rs[0][0] != c_lo or rs[0][1] != c_hi:
                raise MeshError(
                    f"domain boundary at direction-{d} position {pos} "
                    f"is not covered by a single meshline"
                )
            if require_open and rs[0][2] != cap:
                raise MeshError(
                    f"open mesh requires multiplicity {cap} on the boundary "
                    f"at direction-{d} position {pos}, got {rs[0][2]}"
                )

    positions = {d: tuple(sorted(runs[d])) for d in (1, 2)}
    mesh = Mesh(domain, bidegree, runs, positions, None)
    if not (is_tensorized(mesh, 1) and is_tensorized(mesh, 2)):
        mesh.element_boxes()
    return mesh


def _int_pair(value, name: str, *, scalar: bool) -> tuple[int, int]:
    """``value`` as a pair of ``int``s: a pair of integers, bools
    excluded, or with ``scalar`` one integer for both.  Anything else
    raises :class:`MeshError` naming ``name``."""
    try:
        pair = tuple(value)
    except TypeError:
        pair = (value, value) if scalar else ()
    if len(pair) != 2 or any(isinstance(n, bool) or not isinstance(n, numbers.Integral) for n in pair):
        shape = "an int or a pair of ints" if scalar else "a pair of ints"
        raise MeshError(f"{name} must be {shape}, got {value!r}")
    return int(pair[0]), int(pair[1])


def make_initial_mesh(bounds, bidegree, n_cells) -> Mesh:
    """Open tensor mesh with ``n_cells`` uniform cells per direction.

    ``bounds`` is a rectangle or four coordinates ``(x_min, x_max,
    y_min, y_max)``, each one :func:`dyadic` accepts (a bool is none),
    ``bidegree`` a pair of integers and ``n_cells`` an integer or a pair
    of integers, bools excluded; anything else raises :class:`MeshError`
    naming the argument.  The cell widths must come out dyadic, and
    every line position an exact coordinate, or the construction is
    rejected, naming ``n_cells``, or ``bounds`` when a domain width is
    no coordinate.

    The lines are written in closed form (:func:`_uniform_positions`):
    every line spans the domain, so they pass the rules of
    :func:`_build_mesh` by construction and the tiling waits for its
    first read.
    """
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
    x0, x1, y0, y1 = domain.x_min, domain.x_max, domain.y_min, domain.y_max
    xs = _uniform_positions(x0, x1, n1, n_cells)
    ys = _uniform_positions(y0, y1, n2, n_cells)
    if p1 < 1 or p2 < 1:
        raise MeshError(f"bidegree components must be >= 1, got {(p1, p2)}")
    positions = {1: (x0, *xs, x1), 2: (y0, *ys, y1)}
    runs = {}
    for d, (lo, hi), cap in ((1, (y0, y1), p1 + 1), (2, (x0, x1), p2 + 1)):
        runs[d] = dict.fromkeys(positions[d], ((lo, hi, 1),))
        boundary = ((lo, hi, cap),)
        runs[d][positions[d][0]] = runs[d][positions[d][-1]] = boundary
    return Mesh(domain, (p1, p2), runs, positions, None)


def _uniform_positions(lo: DyadicCoord, hi: DyadicCoord, n: int, n_cells) -> tuple:
    """The ``n - 1`` interior positions ``lo + i * (hi - lo) / n``,
    ``0 < i < n``, of a uniform axis: ``DyadicCoord(first + i * width,
    e)``, in integers over one power-of-two denominator ``2**e``.

    A domain width that is no coordinate, a cell width that is not
    dyadic and positions outside the coordinate range raise
    :class:`MeshError` before any position is built.  In lowest terms
    ``e`` is the larger exponent of ``lo`` and of the cell width, and
    the numerators ``first + i * width`` are monotone in ``i``, so the
    two outermost bound them all.  The bound is exact: where an
    outermost numerator is even, and shrinks in lowest terms, it lies
    between a bound's numerator and an odd one.
    """
    try:
        hi - lo
    except ValueError as exc:
        raise MeshError(f"bounds: the width of [{lo}, {hi}] is not a coordinate: {exc}") from None
    (a, da), (b, db) = lo.as_integer_ratio(), hi.as_integer_ratio()
    den = max(da, db)
    first = a * (den // da)
    span = b * (den // db) - first
    two = n & -n  # n = odd * two, with two a power of two
    odd = n // two
    if span % odd:
        raise MeshError(
            f"cell width {Fraction(span, den * n)} is not dyadic; choose a "
            f"power-of-two-compatible cell count"
        )
    if n == 1:
        return ()
    first, width, e = first * two, span // odd, (den * two).bit_length() - 1
    low = first | width  # its lowest set bit is the common power of two
    shift = min((low & -low).bit_length() - 1, e)
    first, width, e = first >> shift, width >> shift, e - shift
    outer = max(abs(first + width), abs(first + (n - 1) * width))
    if e > _MAX_EXPONENT or outer.bit_length() > _NUMERATOR_BITS:
        raise MeshError(
            f"n_cells {n_cells!r}: cells of width {Fraction(width, 1 << e)} on [{lo}, {hi}] "
            f"put line positions outside the coordinate range (numerators below "
            f"2**{_NUMERATOR_BITS} over 2**e, e <= {_MAX_EXPONENT}); choose fewer cells"
        )
    return tuple(DyadicCoord(first + i * width, e) for i in range(1, n))


def _knot_multiplicities(vec) -> list[tuple[DyadicCoord, int]]:
    """Run-length encoding of a sorted knot vector: (value, multiplicity)."""
    return [(v, len(list(run))) for v, run in groupby(vec)]


# -- insertion -------------------------------------------------------------


def insert_split(mesh: Mesh, split: Split) -> Mesh:
    """Insert one :class:`Split` segment, returning a new mesh: the edit
    of :meth:`Mesh._insert` on a copy, so ``mesh`` is never modified.

    Only lines are read and written.  The split must pass the rules of
    construction, :func:`_check_segment` and :func:`_canonical_runs`, and
    insertion's own: a split whose span is entirely uncovered must have
    each end on a perpendicular run with the split position strictly
    inside it; it is inserted at its own multiplicity and the new mesh is
    tiled when first read.  A split whose span coincides exactly with an
    existing run raises that run's multiplicity, up to the cap, and keeps
    the parent's tiling.  A span that partially overlaps the runs is
    rejected.
    """
    new = mesh._copy()
    new._insert(split)
    return new


# -- module-level queries ---------------------------------------------------


def is_tensorized(mesh: Mesh, direction: int) -> bool:
    """True when every line of ``direction`` spans the full cross-extent."""
    c_lo, c_hi = mesh.domain.interval(2 if direction == 1 else 1)
    for pos in mesh.positions(direction):
        runs = mesh.runs_at(direction, pos)
        if len(runs) != 1 or runs[0][0] != c_lo or runs[0][1] != c_hi:
            return False
    return True
