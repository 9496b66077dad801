"""Fuzzed space documents: ``verify`` on a document with one field
replaced by an arbitrary JSON value either reports (exit 0 or 2) or
rejects it with an ``error:`` line (exit 2), and never raises."""
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrbsplines import initial_space, make_initial_mesh, to_json
from lrbsplines.cli import main

# The 2x2 biquadratic space: 16 functions on 6 meshlines.
VALID = to_json(initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2)))


def _fields(value, path=()):
    """Paths to every value below the document root."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _fields(child, path + (key,))


# Fields grouped by shape (list indices blanked), so that each kind of
# field -- a weight, a knot's exponent, a line's span -- is drawn about
# as often as any other, however many copies the document holds.
SHAPES: dict[tuple, list[tuple]] = {}
for _path in _fields(VALID):
    SHAPES.setdefault(tuple("*" if type(k) is int else k for k in _path), []).append(_path)

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


@settings(deadline=None, max_examples=300)
@given(path=fields, value=json_values)
@example(path=("functions",), value=[])
@example(path=("functions", 0, "w"), value=1e400)
@example(path=("functions", 0, "w"), value=10**400)
def test_verify_never_raises_on_a_replaced_field(path, value):
    doc = json.loads(json.dumps(VALID))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        document = Path(tmp) / "space.json"
        document.write_text(json.dumps(doc))
        assert main(["verify", str(document)]) in (0, 2)
