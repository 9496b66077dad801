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

from .dyadic import DyadicCoord
from .mesh import Mesh, MeshError, Rect, _build_mesh
from .bspline import _validated, local_knot_vector
from .space import ONE, LRSpace

__all__ = [
    "FormatError",
    "from_json",
    "save",
    "load",
    "render_svg",
    "write_trace",
    "write_qi_csv",
    "write_poisson_csv",
]


class FormatError(ValueError):
    """A document does not match the mesh/space JSON schema."""


# -- JSON -------------------------------------------------------------------


def _coord_error(where: str, index, msg: str) -> FormatError:
    path = where if index is None else f"{where}[{index}]"
    return FormatError(f"{path}: {msg}")


def _decode_coord(obj, memo: dict, where: str, index=None) -> DyadicCoord:
    """Decode a ``[numerator, exponent]`` pair.  ``memo`` maps the pairs
    decoded so far to their coordinates; only successful decodes enter
    it, so a bad pair raises wherever it occurs.  An error names the pair
    ``where``, or ``where[index]`` when an index is given; the name is
    built only when one is raised."""
    # The common case first: a JSON list of two plain ints seen before.
    # ``type() is int`` keeps out bools and floats, which equal ints as
    # dictionary keys; every other pair takes the full checks below.
    if type(obj) is list and len(obj) == 2:
        numerator, exponent = obj
        if type(numerator) is int and type(exponent) is int:
            coord = memo.get((numerator, exponent))
            if coord is not None:
                return coord
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise _coord_error(where, index, f"expected [numerator, exponent], got {obj!r}")
    pair = numerator, exponent = obj[0], obj[1]
    if (
        not isinstance(numerator, int)
        or isinstance(numerator, bool)
        or not isinstance(exponent, int)
        or isinstance(exponent, bool)
    ):
        raise _coord_error(where, index, f"expected [numerator, exponent], got {obj!r}")
    coord = memo.get(pair)
    if coord is not None:
        return coord
    if exponent < 0:
        raise _coord_error(where, index, f"exponent must be >= 0, got {exponent}")
    try:
        coord = memo[pair] = DyadicCoord(numerator, exponent)
    except ValueError as exc:
        raise _coord_error(where, index, str(exc)) from None
    return coord


def _decode_mesh(doc: dict, memo: dict) -> Mesh:
    domain_raw = doc.get("domain")
    if not isinstance(domain_raw, list) or len(domain_raw) != 4:
        raise FormatError("domain: expected four dyadic coordinates")
    corners = [_decode_coord(v, memo, "domain", i) for i, v in enumerate(domain_raw)]
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
        if not isinstance(direction, int) or isinstance(direction, bool) or direction not in (1, 2):
            raise FormatError(f"{where}.dir: expected 1 or 2, got {direction!r}")
        fixed = _decode_coord(entry.get("fixed"), memo, f"{where}.fixed")
        span = entry.get("span")
        if not isinstance(span, list) or len(span) != 2:
            raise FormatError(f"{where}.span: expected [lo, hi]")
        lo = _decode_coord(span[0], memo, f"{where}.span", 0)
        hi = _decode_coord(span[1], memo, f"{where}.span", 1)
        mult = entry.get("mult")
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise FormatError(f"{where}.mult: expected a positive integer")
        items.append((direction, fixed, lo, hi, mult))
    try:
        return _build_mesh(domain, tuple(bidegree_raw), items)
    except MeshError as exc:
        raise FormatError(str(exc)) from None


def _known_vector(raw, memo: dict):
    """The coordinates of ``raw`` when it is a list of ``[numerator,
    exponent]`` pairs of plain ints that ``memo`` already holds, else
    None: the lookups of :func:`_decode_coord`'s common case, for a
    whole knot vector."""
    if type(raw) is not list:
        return None
    out = []
    for obj in raw:
        if type(obj) is list and len(obj) == 2:
            numerator, exponent = obj
            if type(numerator) is int and type(exponent) is int:
                coord = memo.get((numerator, exponent))
                if coord is not None:
                    out.append(coord)
                    continue
        return None
    return tuple(out)


def _decode_function(entry, memo: dict, fractions: dict):
    """One ``functions`` entry, fully checked: ``(key, weight)``.

    An error's message starts with the path below the entry, such as
    ``.x[1]: `` or ``: ``, so that the caller builds the entry's own
    path only when one is raised.  A weight that passes enters
    ``fractions``, the JSON weights decoded so far.
    """
    if not isinstance(entry, dict):
        raise FormatError(": expected an object")
    for field in ("x", "y"):
        if not isinstance(entry.get(field), list):
            raise FormatError(f".{field}: expected a knot vector")
    xv = tuple(_decode_coord(v, memo, ".x", j) for j, v in enumerate(entry["x"]))
    yv = tuple(_decode_coord(v, memo, ".y", j) for j, v in enumerate(entry["y"]))
    raw = entry.get("w", 1)
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise FormatError(".w: expected a number")
    try:
        finite = math.isfinite(raw)
    except OverflowError:  # an integer beyond the double range
        finite = False
    if not finite:
        raise FormatError(".w: expected a finite double")
    weight = Fraction(raw)
    try:
        key = (local_knot_vector(xv), local_knot_vector(yv))
    except ValueError as exc:
        raise FormatError(f": {exc}") from None
    if weight <= 0:
        raise FormatError(f": weight must be positive, got {weight}")
    weight = fractions[raw] = ONE if weight == 1 else weight
    return key, weight


def from_json(doc: dict):
    """Decode a mesh or (when ``functions`` is present) a space.

    Each function entry is decoded and checked once: its coordinates,
    its two knot vectors (:func:`local_knot_vector`), its weight, a
    finite positive double, and that no earlier entry has its key.  An
    entry whose coordinate pairs and weight all occurred in earlier
    entries takes a path of lookups; any other takes the full checks of
    :func:`_decode_function`.  An error names the field, and its path is
    built only then.  Whether the functions suit the mesh, their degrees
    and minimal support, is :meth:`LRSpace.validate`'s question, which
    ``verify`` asks once.
    """
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
    fractions: dict = {}
    for i, entry in enumerate(raw):
        weight = None
        if type(entry) is dict:
            xv = _known_vector(entry.get("x"), memo)
            yv = _known_vector(entry.get("y"), memo)
            w = entry.get("w", 1)
            # ``type() is`` keeps out bools, which equal ints as keys
            if xv is not None and yv is not None and (type(w) is float or type(w) is int):
                weight = fractions.get(w)
            if weight is not None:
                try:
                    key = (_validated(xv), _validated(yv))
                except ValueError:
                    weight = None
        if weight is None:
            try:
                key, weight = _decode_function(entry, memo, fractions)
            except FormatError as exc:
                raise FormatError(f"functions[{i}]{exc}") from None
        if key in functions:
            raise FormatError(f"functions[{i}]: duplicate knot vectors")
        functions[key] = weight
    return LRSpace(mesh, functions)


def _document_text(obj) -> str:
    """The document of the mesh or space ``obj``, as ``json.dumps(doc,
    indent=1)`` writes it, from per-entry templates.

    ``indent`` forces ``json``'s pure-Python encoder, so the same text is
    written here directly: a list or object at nesting level L puts its
    entries on lines indented L + 1 spaces and its closing bracket on a
    line indented L.  Each coordinate's text is memoised per level and
    each knot vector's per document; integers are written as ``json``
    writes them, by ``int.__repr__``, and weights by ``float.__repr__``.
    """
    if isinstance(obj, LRSpace):
        mesh = obj.mesh
    elif isinstance(obj, Mesh):
        mesh = obj
    else:
        raise TypeError(f"cannot encode {type(obj).__name__}")
    pairs: dict = {}

    def coord(c, level: int) -> str:
        text = pairs.get((c, level))
        if text is None:
            num, exp = c.pair()
            pad = " " * (level + 1)
            text = pairs[(c, level)] = f"[\n{pad}{num},\n{pad}{exp}\n{' ' * level}]"
        return text

    def items(texts, level: int) -> str:
        if not texts:
            return "[]"
        pad = " " * (level + 1)
        return f"[\n{pad}" + f",\n{pad}".join(texts) + f"\n{' ' * level}]"

    dom = mesh.domain
    fields = [
        '"domain": ' + items([coord(c, 2) for c in (dom.x_min, dom.x_max, dom.y_min, dom.y_max)], 1),
        '"bidegree": ' + items([int.__repr__(p) for p in mesh.bidegree], 1),
        '"lines": '
        + items(
            [
                f'{{\n   "dir": {line.direction},\n   "fixed": {coord(line.fixed, 3)},\n'
                f'   "span": {items([coord(line.lo, 4), coord(line.hi, 4)], 3)},\n'
                f'   "mult": {int.__repr__(line.multiplicity)}\n  }}'
                for line in mesh.lines()
            ],
            1,
        ),
    ]
    if obj is not mesh:
        vectors: dict = {}

        def vector(vec) -> str:
            text = vectors.get(vec)
            if text is None:
                text = vectors[vec] = items([coord(c, 4) for c in vec], 3)
            return text

        entries = [
            f'{{\n   "x": {vector(xv)},\n   "y": {vector(yv)},\n'
            f'   "w": {float.__repr__(float(obj.functions[(xv, yv)]))}\n  }}'
            for xv, yv in obj.sorted_keys()
        ]
        fields.append('"functions": ' + items(entries, 1))
    return "{\n " + ",\n ".join(fields) + "\n}"


def save(obj, path) -> None:
    """Write a mesh or space document; deterministic formatting, the
    text ``json.dumps(doc, indent=1)`` gives (:func:`_document_text`)."""
    Path(path).write_text(_document_text(obj) + "\n")


def load(path):
    """Read a mesh or space document, UTF-8 encoded JSON."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: byte {exc.start}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return from_json(doc)


# -- SVG --------------------------------------------------------------------


def render_svg(mesh: Mesh, path=None) -> str:
    """Render the meshlines as SVG, one stroke per canonical line.

    Stroke width is proportional to multiplicity.  Output is a pure
    function of the mesh, so re-rendering an unchanged mesh reproduces
    the file byte for byte.
    """
    size, margin = 560, 20.0  # pixels: the longer side, margins included
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
        if line.direction == 1:
            x1 = x2 = x_pix(line.fixed)
            y1, y2 = y_pix(line.hi), y_pix(line.lo)
        else:
            x1, x2 = x_pix(line.lo), x_pix(line.hi)
            y1 = y2 = y_pix(line.fixed)
        parts.append(
            f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            f'stroke="#1a1a1a" stroke-width="{1.2 * line.multiplicity:.2f}" stroke-linecap="square"/>'
        )
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


# -- traces and CSV tables ---------------------------------------------------


def _encode_key(key) -> dict:
    return {
        "x": [v.pair() for v in key[0]],
        "y": [v.pair() for v in key[1]],
    }


def write_trace(records, path) -> None:
    """The trace records of :func:`n2s_pipeline` as JSON lines, one line
    per expansion."""
    with open(path, "w") as fh:
        for record in records:
            doc = dict(record)
            doc["outer"] = _encode_key(doc["outer"])
            fh.write(json.dumps(doc) + "\n")


def _write_table(rows, path, fields) -> None:
    """A CSV table: the header ``fields``, then one line per row dict."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def write_qi_csv(rows, path) -> None:
    """Level table of the peaks benchmark."""
    _write_table(rows, path, ["level", "n_tensor", "n_n2s2", "max_error_tensor", "max_error_n2s2"])


def write_poisson_csv(rows, path) -> None:
    """Error-decay table of the layer benchmark."""
    _write_table(rows, path, ["strategy", "level", "n_functions", "linf", "l2"])
