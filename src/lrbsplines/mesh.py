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
A mesh stores only its lines; the elements are tiled from them on the
first :meth:`Mesh.elements` call.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .dyadic import DyadicCoord, dyadic

__all__ = [
    "MeshError",
    "Rect",
    "Meshline",
    "Split",
    "Element",
    "Mesh",
    "make_initial_mesh",
    "mesh_from_knots",
    "insert_split",
    "elements",
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

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.x_min <= other.x_min
            and other.x_max <= self.x_max
            and self.y_min <= other.y_min
            and other.y_max <= self.y_max
        )

    def corner_key(self):
        """Sort key: lower-left corner first, then upper-right."""
        return (self.x_min, self.y_min, self.x_max, self.y_max)

    def float_bounds(self) -> tuple[float, float, float, float]:
        return (
            float(self.x_min),
            float(self.x_max),
            float(self.y_min),
            float(self.y_max),
        )

    @property
    def area(self) -> Fraction:
        return (self.x_max - self.x_min).fraction * (self.y_max - self.y_min).fraction

    def __str__(self) -> str:
        return f"[{self.x_min}, {self.x_max}] x [{self.y_min}, {self.y_max}]"


@dataclass(frozen=True, slots=True)
class Meshline:
    """A canonical stored line segment: maximal run of one multiplicity."""

    direction: int
    fixed: DyadicCoord
    lo: DyadicCoord
    hi: DyadicCoord
    multiplicity: int


@dataclass(frozen=True, slots=True)
class Split:
    """An insertion request: one contiguous segment at one position.

    The segment must either be entirely new -- with both ends on
    perpendicular lines that cross its position, so that it cuts every
    element it meets from edge to edge -- or coincide exactly with one
    existing run, in which case the run's multiplicity is raised.
    """

    direction: int
    fixed: DyadicCoord
    lo: DyadicCoord
    hi: DyadicCoord
    multiplicity: int = 1

    @classmethod
    def make(cls, direction, fixed, lo, hi, multiplicity=1) -> "Split":
        return cls(int(direction), dyadic(fixed), dyadic(lo), dyadic(hi), int(multiplicity))


@dataclass(frozen=True, slots=True)
class Element:
    """An open rectangle of the tiling; no meshline meets its interior."""

    rect: Rect


# A run is a (lo, hi, mult) triple; runs at one position are kept sorted
# by lo and are pairwise disjoint and non-abutting.
_Runs = tuple[tuple[DyadicCoord, DyadicCoord, int], ...]


class Mesh:
    """Immutable LR mesh: domain, bidegree, canonical lines, elements.

    The tiling is derived from the lines on the first :meth:`elements`
    call, so a mesh read only for its lines never builds it.
    :func:`_build_mesh` reads it at once for non-tensor meshes, which
    checks their box-partition property when they are constructed.
    """

    __slots__ = ("domain", "bidegree", "_runs", "_positions", "_elements")

    def __init__(self, domain: Rect, bidegree: tuple[int, int], runs, positions, elems):
        self.domain = domain
        self.bidegree = bidegree
        self._runs = runs  # {1: {pos: _Runs}, 2: {pos: _Runs}}
        self._positions = positions  # {1: sorted tuple, 2: sorted tuple}
        # tuple[Element] sorted by lower-left corner, or None until the
        # tiling is first read
        self._elements = elems

    # -- queries ---------------------------------------------------------

    def positions(self, direction: int) -> tuple[DyadicCoord, ...]:
        """Sorted positions that carry at least one line, boundary included."""
        return self._positions[direction]

    def runs_at(self, direction: int, pos: DyadicCoord) -> _Runs:
        return self._runs[direction].get(pos, ())

    def covering_run(self, direction, pos, lo, hi):
        """The run at ``pos`` containing ``[lo, hi]``, or None.

        By the constant-splits invariant a contiguous covered segment
        lies in exactly one run, so a single containment test suffices.
        The runs ``(lo, hi, mult)`` are sorted with finite ends, so the
        runs before ``(lo, inf)`` are exactly those starting at or below
        ``lo``: the search compares tuples and calls no key function.
        """
        runs = self._runs[direction].get(pos)
        if not runs:
            return None
        i = bisect.bisect_right(runs, (lo, math.inf)) - 1
        if i < 0:
            return None
        r = runs[i]
        if r[0] <= lo and hi <= r[1]:
            return r
        return None

    def lines(self) -> tuple[Meshline, ...]:
        """All canonical meshlines, sorted by (direction, fixed, lo)."""
        out = []
        for d in (1, 2):
            for pos in self._positions[d]:
                for lo, hi, mult in self._runs[d][pos]:
                    out.append(Meshline(d, pos, lo, hi, mult))
        return tuple(out)

    def elements(self) -> tuple[Element, ...]:
        """The tiling, sorted by ``Rect.corner_key``.

        The first call tiles the domain -- a tensor mesh by the grid of
        its line positions, any other by :func:`_extract_elements` -- and
        later calls return the same tuple.
        """
        if self._elements is None:
            if is_tensorized(self, 1) and is_tensorized(self, 2):
                self._elements = _grid_elements(self._positions[1], self._positions[2])
            else:
                self._elements = _extract_elements(self.domain, self._runs[1], self._runs[2])
        return self._elements

    def cross_interval(self, direction: int) -> tuple[DyadicCoord, DyadicCoord]:
        """Domain extent orthogonal to lines of ``direction``."""
        return self.domain.interval(2 if direction == 1 else 1)

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
        n_lines = sum(len(rs) for d in (1, 2) for rs in self._runs[d].values())
        return (
            f"<Mesh {self.domain} bidegree {self.bidegree}: "
            f"{n_lines} lines, {len(self.elements())} elements>"
        )


# -- construction ---------------------------------------------------------


def _grid_elements(xs, ys) -> tuple[Element, ...]:
    """The cells of the grid with lines at the sorted positions ``xs`` and
    ``ys``, in ``Rect.corner_key`` order: column by column, each column
    bottom to top."""
    rows = tuple(zip(ys, ys[1:]))
    return tuple(
        Element(Rect(x0, x1, y0, y1))
        for x0, x1 in zip(xs, xs[1:])
        for y0, y1 in rows
    )


def _canonical_runs(segments) -> _Runs:
    """Merge raw (lo, hi, mult) segments at one position into canonical runs.

    Overlapping segments or abutting segments of different multiplicity
    violate the constant-splits invariant and raise.
    """
    segs = sorted(segments, key=lambda s: (s[0], s[1]))
    out: list[list] = []
    for lo, hi, mult in segs:
        if not lo < hi:
            raise MeshError(f"empty meshline span [{lo}, {hi}]")
        if mult < 1:
            raise MeshError(f"multiplicity must be positive, got {mult}")
        if out:
            plo, phi, pmult = out[-1]
            if lo < phi:
                raise MeshError(
                    f"overlapping collinear meshlines near [{lo}, {min(hi, phi)}]"
                )
            if lo == phi:
                if mult != pmult:
                    raise MeshError(
                        f"abutting collinear meshlines of multiplicities "
                        f"{pmult} and {mult} at {lo} (constant splits)"
                    )
                out[-1][1] = hi
                continue
        out.append([lo, hi, mult])
    return tuple((lo, hi, mult) for lo, hi, mult in out)


def _extract_elements(domain: Rect, runs1, runs2) -> tuple[Element, ...]:
    """Tile the domain by the lines, validating the box-partition property.

    Builds the arrangement grid of all line positions, computes the
    connected components of the complement of the lines row by row, and
    checks every component is a rectangle with lines only on element
    edges.
    """
    xs = sorted(set(runs1) | {domain.x_min, domain.x_max})
    ys = sorted(set(runs2) | {domain.y_min, domain.y_max})
    x_index = {v: i for i, v in enumerate(xs)}
    y_index = {v: j for j, v in enumerate(ys)}
    n_cols = len(xs) - 1
    n_rows = len(ys) - 1

    def cover(values, index, runs, what):
        covered = {}
        for pos, segs in runs.items():
            mask = bytearray(len(values) - 1)
            for lo, hi, _ in segs:
                try:
                    a, b = index[lo], index[hi]
                except KeyError as exc:
                    raise MeshError(
                        f"{what} at {pos}: endpoint {exc.args[0]} is not a mesh vertex"
                    ) from None
                for c in range(a, b):
                    mask[c] = 1
            covered[pos] = mask
        return covered

    vcov = cover(ys, y_index, runs1, "vertical meshline")
    hcov = cover(xs, x_index, runs2, "horizontal meshline")
    empty_v = bytearray(n_rows)
    empty_h = bytearray(n_cols)

    # Strips per row: maximal cell runs between covered vertical edges.
    def row_strips(j: int) -> list[tuple[int, int]]:
        strips = []
        start = 0
        for i in range(1, n_cols):
            if vcov.get(xs[i], empty_v)[j]:
                strips.append((start, i))
                start = i
        strips.append((start, n_cols))
        return strips

    boxes: list[tuple[int, int, int, int]] = []  # (i0, i1, j0, j1)
    # open strips: {(i0, i1): start_row}
    open_strips: dict[tuple[int, int], int] = {}
    for j in range(n_rows):
        strips = row_strips(j)
        if j == 0:
            open_strips = {s: 0 for s in strips}
            continue
        edge = hcov.get(ys[j], empty_h)
        still_open: dict[tuple[int, int], int] = {}
        closed = set()
        for s in strips:
            i0, i1 = s
            edge_cells = edge[i0:i1]
            fully_covered = all(edge_cells)
            if s in open_strips and not any(edge_cells):
                # continues the strip below through an entirely open edge
                still_open[s] = open_strips[s]
                closed.add(s)
                continue
            if not fully_covered:
                # connects downward through a gap: only legal when the
                # strip below is identical and the edge is entirely open,
                # which the branch above already handled
                raise MeshError(
                    f"meshlines do not tile the domain into rectangles "
                    f"near y = {ys[j]}, x in [{xs[i0]}, {xs[i1]}]"
                )
            still_open[s] = j
        for s, j0 in open_strips.items():
            if s in closed:
                continue
            # strip ends here; its top edge must be fully covered
            i0, i1 = s
            if not all(edge[i0:i1]):
                raise MeshError(
                    f"meshlines do not tile the domain into rectangles "
                    f"near y = {ys[j]}, x in [{xs[i0]}, {xs[i1]}]"
                )
            boxes.append((i0, i1, j0, j))
        open_strips = still_open
    for (i0, i1), j0 in open_strips.items():
        boxes.append((i0, i1, j0, n_rows))

    # the grid indices are order-isomorphic to the coordinates, so sorting
    # and the area checksum can stay in plain integer arithmetic
    boxes.sort(key=lambda b: (b[0], b[2], b[1], b[3]))
    ex = max(v.exponent for v in xs)
    ey = max(v.exponent for v in ys)
    sx = [v.numerator << (ex - v.exponent) for v in xs]
    sy = [v.numerator << (ey - v.exponent) for v in ys]
    total = sum((sx[i1] - sx[i0]) * (sy[j1] - sy[j0]) for i0, i1, j0, j1 in boxes)
    if total != (sx[-1] - sx[0]) * (sy[-1] - sy[0]):
        raise MeshError(
            f"element areas sum to {Fraction(total, 1 << (ex + ey))}, "
            f"expected {domain.area}"
        )
    return tuple(
        Element(Rect(xs[i0], xs[i1], ys[j0], ys[j1])) for i0, i1, j0, j1 in boxes
    )


def _build_mesh(
    domain: Rect,
    bidegree: tuple[int, int],
    items: Iterable[tuple[int, DyadicCoord, DyadicCoord, DyadicCoord, int]],
    *,
    require_open: bool = True,
) -> Mesh:
    """Assemble and validate a mesh from raw (dir, fixed, lo, hi, mult) items.

    Every mesh gets the canonical-run, multiplicity-cap and boundary
    checks.  The tiling is read, and so checked, here only when some line
    stops short of the domain edges.  When every line spans the full
    cross-extent, each line cuts the domain from edge to edge, so the
    complement of the lines is exactly the grid of consecutive positions
    (the boundary check has put the domain edges among them): the
    box-partition check cannot fail, and the grid is left unbuilt.
    """
    p1, p2 = bidegree
    if p1 < 1 or p2 < 1:
        raise MeshError(f"bidegree components must be >= 1, got {bidegree}")
    raw: dict[int, dict[DyadicCoord, list]] = {1: {}, 2: {}}
    for direction, fixed, lo, hi, mult in items:
        if direction not in (1, 2):
            raise MeshError(f"direction must be 1 or 2, got {direction}")
        f_lo, f_hi = domain.interval(direction)
        c_lo, c_hi = domain.interval(2 if direction == 1 else 1)
        if not (f_lo <= fixed <= f_hi):
            raise MeshError(f"line position {fixed} outside domain {domain}")
        if not (c_lo <= lo and hi <= c_hi):
            raise MeshError(f"line span [{lo}, {hi}] outside domain {domain}")
        raw[direction].setdefault(fixed, []).append((lo, hi, mult))

    runs = {
        d: {pos: _canonical_runs(segs) for pos, segs in raw[d].items()}
        for d in (1, 2)
    }

    for d, cap in ((1, p1 + 1), (2, p2 + 1)):
        for pos, rs in runs[d].items():
            for lo, hi, mult in rs:
                if mult > cap:
                    raise MeshError(
                        f"multiplicity {mult} exceeds {cap} for direction-{d} "
                        f"line at {pos}"
                    )

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
        mesh.elements()
    return mesh


def make_initial_mesh(bounds, bidegree, n_cells) -> Mesh:
    """Open tensor mesh with ``n_cells`` uniform cells per direction.

    ``bounds`` is a rectangle or ``(x_min, x_max, y_min, y_max)``; the
    cell widths must come out dyadic or the construction is rejected.
    """
    domain = bounds if isinstance(bounds, Rect) else Rect.from_bounds(bounds)
    p1, p2 = bidegree
    try:
        n1, n2 = n_cells
    except TypeError:
        n1 = n2 = int(n_cells)
    if n1 < 1 or n2 < 1:
        raise MeshError(f"cell counts must be positive, got {n_cells}")

    def grid(lo: DyadicCoord, hi: DyadicCoord, n: int) -> list[DyadicCoord]:
        step = (hi - lo).fraction / n
        if step.denominator & (step.denominator - 1):
            raise MeshError(
                f"cell width {step} is not dyadic; choose a power-of-two-"
                f"compatible cell count"
            )
        return [lo + dyadic(step * i) for i in range(1, n)]

    items = []
    items.append((1, domain.x_min, domain.y_min, domain.y_max, p1 + 1))
    items.append((1, domain.x_max, domain.y_min, domain.y_max, p1 + 1))
    items.append((2, domain.y_min, domain.x_min, domain.x_max, p2 + 1))
    items.append((2, domain.y_max, domain.x_min, domain.x_max, p2 + 1))
    for x in grid(domain.x_min, domain.x_max, n1):
        items.append((1, x, domain.y_min, domain.y_max, 1))
    for y in grid(domain.y_min, domain.y_max, n2):
        items.append((2, y, domain.x_min, domain.x_max, 1))
    return _build_mesh(domain, (p1, p2), items)


def _knot_multiplicities(vec) -> list[tuple[DyadicCoord, int]]:
    """Run-length encoding of a sorted knot vector: (value, multiplicity)."""
    out: list[tuple[DyadicCoord, int]] = []
    for v in vec:
        if out and out[-1][0] == v:
            out[-1] = (v, out[-1][1] + 1)
        else:
            out.append((v, 1))
    return out


def mesh_from_knots(xknots, yknots) -> Mesh:
    """Tensor knot mesh of one function: its knot lines at knot multiplicity.

    The bidegree is inferred from the vector lengths.  The result is in
    general not open (the boundary carries the knot multiplicities as
    given), which is what support testing wants.
    """
    xs = [dyadic(v) for v in xknots]
    ys = [dyadic(v) for v in yknots]
    p1, p2 = len(xs) - 2, len(ys) - 2
    domain = Rect(xs[0], xs[-1], ys[0], ys[-1])
    items = []
    for x, mult in _knot_multiplicities(xs):
        items.append((1, x, domain.y_min, domain.y_max, mult))
    for y, mult in _knot_multiplicities(ys):
        items.append((2, y, domain.x_min, domain.x_max, mult))
    return _build_mesh(domain, (p1, p2), items, require_open=False)


# -- insertion -------------------------------------------------------------


def insert_split(mesh: Mesh, split: Split) -> Mesh:
    """Insert one split, returning a new mesh.

    Only lines are read and written.  A split whose span is entirely
    uncovered must have each end on a perpendicular run with the split
    position strictly inside it; it is inserted at its own multiplicity
    and the new mesh is tiled when first read.  A split whose span
    coincides exactly with an existing run raises that run's
    multiplicity and keeps the parent's tiling.  Partial overlaps,
    dangling endpoints, multiplicity overflow, and constant-splits
    violations are all rejected.
    """
    d = split.direction
    if d not in (1, 2):
        raise MeshError(f"direction must be 1 or 2, got {d}")
    pos, lo, hi, mult = split.fixed, split.lo, split.hi, split.multiplicity
    if mult < 1:
        raise MeshError(f"multiplicity must be positive, got {mult}")
    if not lo < hi:
        raise MeshError(f"empty split span [{lo}, {hi}]")
    f_lo, f_hi = mesh.domain.interval(d)
    c_lo, c_hi = mesh.cross_interval(d)
    if not (f_lo <= pos <= f_hi):
        raise MeshError(f"split position {pos} outside domain {mesh.domain}")
    if not (c_lo <= lo and hi <= c_hi):
        raise MeshError(f"split span [{lo}, {hi}] outside domain {mesh.domain}")

    cap = mesh.bidegree[d - 1] + 1
    runs = mesh.runs_at(d, pos)
    overlapping = [r for r in runs if r[0] < hi and lo < r[1]]

    if overlapping:
        if len(overlapping) == 1 and overlapping[0][0] == lo and overlapping[0][1] == hi:
            old = overlapping[0]
            new_mult = old[2] + mult
            if new_mult > cap:
                raise MeshError(
                    f"raising multiplicity to {new_mult} exceeds the cap {cap} "
                    f"at direction-{d} position {pos}"
                )
            new_runs = tuple(
                (r[0], r[1], new_mult) if r is old else r for r in runs
            )
            return _with_runs(mesh, d, pos, new_runs, mesh._elements)
        raise MeshError(
            f"split span [{lo}, {hi}] partially overlaps existing meshlines "
            f"at direction-{d} position {pos}; spans must be entirely new or "
            f"coincide with one existing run"
        )

    # Entirely new.  No line ends inside an element, so with both ends on
    # runs crossing pos, every element straddling pos between them is cut
    # edge to edge.
    other = 2 if d == 1 else 1
    for end in (lo, hi):
        run = mesh.covering_run(other, end, pos, pos)
        if run is None or not run[0] < pos < run[1]:
            raise MeshError(
                f"split at direction-{d} position {pos} is not anchored: its "
                f"end {end} does not lie on a meshline crossing the position"
            )

    # Constant splits: merging with abutting neighbours requires equal mult.
    pieces = list(runs)
    for r in pieces:
        if (r[1] == lo or r[0] == hi) and r[2] != mult:
            raise MeshError(
                f"new split of multiplicity {mult} abuts a run of multiplicity "
                f"{r[2]} at direction-{d} position {pos} (constant splits)"
            )
    merged_lo, merged_hi = lo, hi
    keep = []
    for r in pieces:
        if r[1] == lo and r[2] == mult:
            merged_lo = r[0]
        elif r[0] == hi and r[2] == mult:
            merged_hi = r[1]
        else:
            keep.append(r)
    keep.append((merged_lo, merged_hi, mult))
    keep.sort(key=lambda r: r[0])

    return _with_runs(mesh, d, pos, tuple(keep), None)


def _with_runs(mesh: Mesh, d: int, pos, new_runs: _Runs, elems) -> Mesh:
    runs = {1: dict(mesh._runs[1]), 2: dict(mesh._runs[2])}
    runs[d][pos] = new_runs
    positions = dict(mesh._positions)
    if pos not in mesh._runs[d]:
        positions[d] = tuple(sorted(mesh._runs[d].keys() | {pos}))
    return Mesh(mesh.domain, mesh.bidegree, runs, positions, elems)


# -- module-level queries ---------------------------------------------------


def elements(mesh: Mesh) -> tuple[Element, ...]:
    """The tiling of the domain, sorted by lower-left corner."""
    return mesh.elements()


def is_tensorized(mesh: Mesh, direction: int) -> bool:
    """True when every line of ``direction`` spans the full cross-extent."""
    c_lo, c_hi = mesh.cross_interval(direction)
    for pos in mesh.positions(direction):
        runs = mesh.runs_at(direction, pos)
        if len(runs) != 1 or runs[0][0] != c_lo or runs[0][1] != c_hi:
            return False
    return True
