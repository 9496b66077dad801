"""Fuzzed documents: ``verify`` on a space or mesh document with one or
two fields replaced by arbitrary JSON values either reports (exit 0 or
2) or rejects it with an ``error:`` line (exit 2), and never raises.
And the writer: ``save`` writes the text of ``json``'s indented encoder
for every mesh and space document."""
import json
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import to_json
from lrbsplines import initial_space, make_initial_mesh, structured_refine
from lrbsplines.cli import main
from lrbsplines.dyadic import DyadicCoord, dyadic
from lrbsplines.formats import _document_text, save
from lrbsplines.refine import n2s_pipeline
from lrbsplines.space import LRSpace

# The 2x2 biquadratic space: 16 functions on 6 meshlines.
_TENSOR = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2))
VALID = to_json(_TENSOR)
# The same space with a corner function refined: an LR mesh whose lines
# end inside the domain, and functions of unequal supports.
_REFINED = structured_refine(_TENSOR, _TENSOR.sorted_keys()[:1])
REFINED = to_json(_REFINED)
MESH = to_json(_REFINED.mesh)


def _fields(value, path=()):
    """Paths to every value below the document root."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _fields(child, path + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _shapes(doc) -> dict[tuple, list[tuple]]:
    """The paths below ``doc``'s root, grouped by shape (list indices
    blanked), so that each kind of field -- a weight, a knot's exponent,
    a line's span -- is drawn about as often as any other, however many
    copies the document holds."""
    shapes: dict[tuple, list[tuple]] = {}
    for path in _fields(doc):
        shapes.setdefault(tuple("*" if type(k) is int else k for k in path), []).append(path)
    return shapes


SHAPES = _shapes(VALID)
fields = st.sampled_from(sorted(SHAPES)).flatmap(lambda shape: st.sampled_from(SHAPES[shape]))

scalars = st.one_of(
    st.sampled_from(
        [10**400, -(10**400), 1e400, -1e400, float("nan"), 0, 1, -1, 2, 3, 48, 49, 2**53, 0.5]
    ),
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.none(),
    st.booleans(),
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


def _verify_exit(doc, edits) -> int:
    """``verify``'s exit status on ``doc`` with each ``(path, value)``
    of ``edits`` replaced."""
    doc = json.loads(json.dumps(doc))
    for path, value in edits:
        _get(doc, path[:-1])[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        document = Path(tmp) / "space.json"
        document.write_text(json.dumps(doc))
        return main(["verify", str(document)])


@settings(deadline=None, max_examples=300)
@given(path=fields, value=json_values)
@example(path=("functions",), value=[])
@example(path=("functions", 0, "w"), value=1e400)
@example(path=("functions", 0, "w"), value=10**400)
@example(path=("lines", 0, "dir"), value=1.0)
def test_verify_never_raises_on_a_replaced_field(path, value):
    assert _verify_exit(VALID, [(path, value)]) in (0, 2)


def _edits(doc, count):
    """Strategy for ``count`` edits ``(path, value)`` of ``doc`` at paths
    none of which lies below another.  A value is arbitrary JSON or the
    value of a field of the same shape, which often keeps the document
    loadable."""
    shapes = _shapes(doc)

    def edit(shape):
        paths = shapes[shape]
        same = [_get(doc, path) for path in paths]
        return st.tuples(st.sampled_from(paths), json_values | st.sampled_from(same))

    edits = st.sampled_from(sorted(shapes)).flatmap(edit)
    return st.lists(edits, min_size=count, max_size=count).filter(
        lambda drawn: not any(
            a[: len(b)] == b
            for i, (a, _) in enumerate(drawn)
            for j, (b, _) in enumerate(drawn)
            if i != j
        )
    )


@settings(deadline=None, max_examples=100)
@given(edits=st.integers(1, 2).flatmap(lambda count: _edits(MESH, count)))
def test_verify_never_raises_on_an_edited_mesh(edits):
    assert _verify_exit(MESH, edits) in (0, 2)


@settings(deadline=None, max_examples=100)
@given(edits=_edits(REFINED, 2))
@example(edits=[(("functions", 0, "w"), 0.5), (("functions", 1, "w"), 1.5)])
def test_verify_never_raises_on_two_replaced_fields(edits):
    assert _verify_exit(REFINED, edits) in (0, 2)


#: Coordinates over the whole range a document can hold, negative ones
#: included.
coords = st.builds(DyadicCoord, st.integers(-(2**52) + 1, 2**52 - 1), st.integers(0, 48))


@st.composite
def meshes(draw):
    """An open tensor mesh on a drawn domain, refined by structured
    refinement of a few functions (lines inside the domain, fractional
    weights), or by a pipeline run."""
    bidegree = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    corners = st.builds(DyadicCoord, st.integers(-(2**20), 2**20), st.integers(0, 20))
    x0, y0 = draw(corners), draw(corners)
    wx, wy = (dyadic(2 ** draw(st.integers(-8, 8))) for _ in range(2))
    space = initial_space(make_initial_mesh((x0, x0 + wx, y0, y0 + wy), bidegree, 2))
    keys = space.sorted_keys()
    marked = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        return structured_refine(space, marked)
    return n2s_pipeline(space, lambda key: key in marked, 1)[0][-1]


@st.composite
def knot_vectors(draw, degree):
    values = sorted(draw(st.lists(coords, min_size=degree + 2, max_size=degree + 2)))
    assume(values[0] < values[-1] and max(Counter(values).values()) <= degree + 1)
    return tuple(values)


@st.composite
def spaces(draw):
    """A refined space, or its mesh with arbitrary functions: drawn knot
    vectors, some repeated, and positive weights, none at all included."""
    space = draw(meshes())
    if draw(st.booleans()):
        return space
    p1, p2 = space.mesh.bidegree
    xs = draw(st.lists(knot_vectors(p1), min_size=1, max_size=3))
    ys = draw(st.lists(knot_vectors(p2), min_size=1, max_size=3))
    weights = st.fractions(min_value=Fraction(1, 10**12), max_value=10**12).filter(lambda w: w > 0)
    functions = {}
    for _ in range(draw(st.integers(0, 6))):
        xv, yv = draw(st.sampled_from(xs)), draw(st.sampled_from(ys))
        functions[(xv, yv)] = draw(weights)
    return LRSpace(space.mesh, functions)


@settings(deadline=None, max_examples=100)
@given(space=spaces())
def test_saved_text_equals_the_json_encoder(tmp_path_factory, space):
    for obj in (space, space.mesh):
        assert _document_text(obj) == json.dumps(to_json(obj), indent=1)
    path = tmp_path_factory.mktemp("saved") / "space.json"
    save(space, path)
    assert path.read_text() == json.dumps(to_json(space), indent=1) + "\n"
