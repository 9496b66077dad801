"""File formats: JSON meshes and spaces, SVG rendering, CSV tables.

Dyadic coordinates serialize as ``[numerator, exponent]`` pairs, so
files round-trip exactly.  A mesh document holds ``domain``,
``bidegree`` and ``lines``; a space document adds a nonempty
``functions`` list with each weight as a finite JSON real.  Decoding
errors name the offending field.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

from .dyadic import DyadicCoord, dyadic
from .mesh import Mesh, MeshError, Rect, _build_mesh
from .bspline import TensorBSpline
from .space import LRSpace
from .refine import RefinementTrace

__all__ = [
    "FormatError",
    "to_json",
    "from_json",
    "save",
    "load",
    "render_svg",
    "write_trace",
    "write_qi_csv",
    "write_poisson_csv",
    "write_element_csv",
]


class FormatError(ValueError):
    """A document does not match the mesh/space JSON schema."""


# -- JSON -------------------------------------------------------------------


def _encode_coord(c: DyadicCoord) -> list[int]:
    return c.pair()


def _decode_coord(obj, path: str, memo: dict) -> DyadicCoord:
    """Decode a ``[numerator, exponent]`` pair.  ``memo`` maps the pairs
    decoded so far to their coordinates; only successful decodes enter
    it, so a bad pair raises wherever it occurs."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise FormatError(f"{path}: expected [numerator, exponent], got {obj!r}")
    pair = numerator, exponent = obj[0], obj[1]
    if (
        not isinstance(numerator, int)
        or isinstance(numerator, bool)
        or not isinstance(exponent, int)
        or isinstance(exponent, bool)
    ):
        raise FormatError(f"{path}: expected [numerator, exponent], got {obj!r}")
    coord = memo.get(pair)
    if coord is not None:
        return coord
    if exponent < 0:
        raise FormatError(f"{path}: exponent must be >= 0, got {exponent}")
    try:
        coord = memo[pair] = DyadicCoord(numerator, exponent)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return coord


def to_json(obj) -> dict:
    """Encode a mesh or a space as a JSON-ready dictionary."""
    if isinstance(obj, LRSpace):
        doc = to_json(obj.mesh)
        doc["functions"] = [
            {**_encode_key(key), "w": float(obj.functions[key].weight)}
            for key in obj.sorted_keys()
        ]
        return doc
    if isinstance(obj, Mesh):
        dom = obj.domain
        return {
            "domain": [
                _encode_coord(dom.x_min),
                _encode_coord(dom.x_max),
                _encode_coord(dom.y_min),
                _encode_coord(dom.y_max),
            ],
            "bidegree": list(obj.bidegree),
            "lines": [
                {
                    "dir": line.direction,
                    "fixed": _encode_coord(line.fixed),
                    "span": [_encode_coord(line.lo), _encode_coord(line.hi)],
                    "mult": line.multiplicity,
                }
                for line in obj.lines()
            ],
        }
    raise TypeError(f"cannot encode {type(obj).__name__}")


def _decode_mesh(doc: dict, memo: dict) -> Mesh:
    domain_raw = doc.get("domain")
    if not isinstance(domain_raw, list) or len(domain_raw) != 4:
        raise FormatError("domain: expected four dyadic coordinates")
    corners = [_decode_coord(v, f"domain[{i}]", memo) for i, v in enumerate(domain_raw)]
    try:
        domain = Rect(*corners)
    except MeshError as exc:
        raise FormatError(f"domain: {exc}") from None

    bidegree_raw = doc.get("bidegree")
    if (
        not isinstance(bidegree_raw, list)
        or len(bidegree_raw) != 2
        or not all(isinstance(p, int) and not isinstance(p, bool) for p in bidegree_raw)
    ):
        raise FormatError("bidegree: expected two integers")

    lines_raw = doc.get("lines")
    if not isinstance(lines_raw, list):
        raise FormatError("lines: expected a list")
    items = []
    for i, entry in enumerate(lines_raw):
        where = f"lines[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: expected an object")
        direction = entry.get("dir")
        if direction not in (1, 2):
            raise FormatError(f"{where}.dir: expected 1 or 2, got {direction!r}")
        fixed = _decode_coord(entry.get("fixed"), f"{where}.fixed", memo)
        span = entry.get("span")
        if not isinstance(span, list) or len(span) != 2:
            raise FormatError(f"{where}.span: expected [lo, hi]")
        lo = _decode_coord(span[0], f"{where}.span[0]", memo)
        hi = _decode_coord(span[1], f"{where}.span[1]", memo)
        mult = entry.get("mult")
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise FormatError(f"{where}.mult: expected a positive integer")
        items.append((direction, fixed, lo, hi, mult))
    try:
        return _build_mesh(domain, tuple(bidegree_raw), items)
    except MeshError as exc:
        raise FormatError(str(exc)) from None


def from_json(doc: dict):
    """Decode a mesh or (when ``functions`` is present) a space."""
    if not isinstance(doc, dict):
        raise FormatError(f"expected an object at the top level, got {type(doc).__name__}")
    memo: dict = {}
    mesh = _decode_mesh(doc, memo)
    if "functions" not in doc:
        return mesh
    raw = doc["functions"]
    if not isinstance(raw, list):
        raise FormatError("functions: expected a list")
    if not raw:
        raise FormatError("functions: expected at least one function")
    functions = {}
    for i, entry in enumerate(raw):
        where = f"functions[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: expected an object")
        for field in ("x", "y"):
            if not isinstance(entry.get(field), list):
                raise FormatError(f"{where}.{field}: expected a knot vector")
        xv = tuple(
            _decode_coord(v, f"{where}.x[{j}]", memo) for j, v in enumerate(entry["x"])
        )
        yv = tuple(
            _decode_coord(v, f"{where}.y[{j}]", memo) for j, v in enumerate(entry["y"])
        )
        weight = entry.get("w", 1)
        if not isinstance(weight, (int, float)) or isinstance(weight, bool):
            raise FormatError(f"{where}.w: expected a number")
        try:
            finite = math.isfinite(weight)
        except OverflowError:  # an integer beyond the double range
            finite = False
        if not finite:
            raise FormatError(f"{where}.w: expected a finite double")
        try:
            b = TensorBSpline(xv, yv, Fraction(weight))
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from None
        if b.key in functions:
            raise FormatError(f"{where}: duplicate knot vectors")
        functions[b.key] = b
    return LRSpace(mesh, functions)


def save(obj, path) -> None:
    """Write a mesh or space document; deterministic formatting."""
    Path(path).write_text(json.dumps(to_json(obj), indent=1) + "\n")


def load(path):
    """Read a mesh or space document."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return from_json(doc)


# -- SVG --------------------------------------------------------------------


def render_svg(mesh: Mesh, path=None, *, size: int = 560, margin: float = 20.0) -> str:
    """Render the meshlines as SVG, one stroke per canonical line.

    Stroke width is proportional to multiplicity.  Output is a pure
    function of the mesh, so re-rendering an unchanged mesh reproduces
    the file byte for byte.
    """
    dom = mesh.domain
    width = float(dom.x_max) - float(dom.x_min)
    height = float(dom.y_max) - float(dom.y_min)
    scale = (size - 2 * margin) / max(width, height)
    pix_w = 2 * margin + width * scale
    pix_h = 2 * margin + height * scale

    def x_pix(v) -> float:
        return margin + (float(v) - float(dom.x_min)) * scale

    def y_pix(v) -> float:
        return margin + (float(dom.y_max) - float(v)) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{pix_w:.1f}" '
        f'height="{pix_h:.1f}" viewBox="0 0 {pix_w:.1f} {pix_h:.1f}">',
        f'<rect width="{pix_w:.1f}" height="{pix_h:.1f}" fill="white"/>',
    ]
    for line in mesh.lines():
        stroke = 1.2 * line.multiplicity
        if line.direction == 1:
            x = x_pix(line.fixed)
            parts.append(
                f'<line x1="{x:.3f}" y1="{y_pix(line.hi):.3f}" '
                f'x2="{x:.3f}" y2="{y_pix(line.lo):.3f}" '
                f'stroke="#1a1a1a" stroke-width="{stroke:.2f}" stroke-linecap="square"/>'
            )
        else:
            y = y_pix(line.fixed)
            parts.append(
                f'<line x1="{x_pix(line.lo):.3f}" y1="{y:.3f}" '
                f'x2="{x_pix(line.hi):.3f}" y2="{y:.3f}" '
                f'stroke="#1a1a1a" stroke-width="{stroke:.2f}" stroke-linecap="square"/>'
            )
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


# -- traces and CSV tables ---------------------------------------------------


def _encode_key(key) -> dict:
    return {
        "x": [_encode_coord(v) for v in key[0]],
        "y": [_encode_coord(v) for v in key[1]],
    }


def write_trace(trace: RefinementTrace, path) -> None:
    """One JSON object per line, one line per expansion."""
    with open(path, "w") as fh:
        for record in trace.records:
            doc = dict(record)
            doc["outer"] = _encode_key(doc["outer"])
            fh.write(json.dumps(doc) + "\n")


def write_qi_csv(rows, path) -> None:
    """Level table of the peaks benchmark."""
    fields = ["level", "n_tensor", "n_n2s2", "max_error_tensor", "max_error_n2s2"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def write_poisson_csv(rows, path) -> None:
    """Error-decay table of the layer benchmark."""
    fields = ["strategy", "level", "n_functions", "linf", "l2"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def write_element_csv(space: LRSpace, path) -> None:
    """Per-element support counts, one row per element."""
    from .space import _incidence

    _, counts, _, _ = _incidence(space)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_min", "x_max", "y_min", "y_max", "n_supported"])
        for element, count in zip(space.mesh.elements(), counts.tolist()):
            x0, x1, y0, y1 = element.rect.float_bounds()
            writer.writerow([repr(x0), repr(x1), repr(y0), repr(y1), count])
