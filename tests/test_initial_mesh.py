"""The closed-form open tensor mesh against the general construction.

``make_initial_mesh`` writes its positions and runs directly; the
reference, ``conftest.reference_initial_mesh``, makes one ``Split`` per
line and checks them all through ``_build_mesh``.  Both must give equal
meshes, the same ``MeshError`` for a cell width that is not dyadic, and
a ``MeshError`` naming the argument where positions leave the
coordinate range (the reference's is ``dyadic``'s bare ``ValueError``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_initial_mesh
from lrbsplines import mesh as mesh_module
from lrbsplines.dyadic import dyadic
from lrbsplines.mesh import MeshError, Rect, make_initial_mesh
from lrbsplines.space import initial_space


@st.composite
def coordinates(draw):
    """A dyadic: mostly small, sometimes near the edges of the
    coordinate range (numerators near 2**53, exponents near 48)."""
    if draw(st.booleans()):
        return dyadic(draw(st.integers(-64, 64)), draw(st.integers(0, 4)))
    bits = draw(st.integers(1, 53))
    numerator = draw(st.integers(-(2**bits) + 1, 2**bits - 1))
    return dyadic(numerator, draw(st.integers(max(0, bits - 53), 48)))


@st.composite
def intervals(draw):
    lo, hi = draw(coordinates()), draw(coordinates())
    if lo == hi:
        hi = lo + dyadic(draw(st.integers(1, 3)))
    return (lo, hi) if lo < hi else (hi, lo)


def cell_counts():
    # odd parts 1 to 7 (widths that are often not dyadic) times powers of two
    return st.builds(lambda odd, k: odd << k, st.integers(1, 7), st.integers(0, 6))


@st.composite
def inputs(draw):
    (x0, x1), (y0, y1) = draw(intervals()), draw(intervals())
    bounds = draw(st.sampled_from(["tuple", "rect"]))
    bounds = (x0, x1, y0, y1) if bounds == "tuple" else Rect(x0, x1, y0, y1)
    bidegree = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    n_cells = draw(st.one_of(cell_counts(), st.tuples(cell_counts(), cell_counts())))
    return bounds, bidegree, n_cells


def assert_same_mesh(got, expected):
    assert got == expected
    assert repr(got) == repr(expected)
    for d in (1, 2):
        assert got.positions(d) == expected.positions(d)
        assert [p.pair() for p in got.positions(d)] == [p.pair() for p in expected.positions(d)]
        for pos in expected.positions(d):
            assert got.runs_at(d, pos) == expected.runs_at(d, pos)
    assert got.lines() == expected.lines()
    assert got._elements is None  # the tiling waits for its first read
    assert (got.element_boxes() == expected.element_boxes()).all()


@settings(max_examples=300, deadline=None)
@given(inputs())
def test_closed_form_equals_the_split_construction(args):
    try:
        expected = reference_initial_mesh(*args)
    except MeshError as exc:  # a cell width that is not dyadic
        with pytest.raises(MeshError) as got:
            make_initial_mesh(*args)
        assert str(got.value) == str(exc)
        return
    except ValueError:  # a position or domain width outside the range
        with pytest.raises(MeshError, match=r"^(n_cells|bounds)"):
            make_initial_mesh(*args)
        return
    assert_same_mesh(make_initial_mesh(*args), expected)


@pytest.mark.parametrize(
    "bounds, n_cells",
    [
        ((0, 1, 0, 1), (2, 2)),
        ((0, 3, 0, 3), 3),
        ((-3, 0, 0, 3), (3, 6)),
        ((dyadic(-5, 2), dyadic(7, 3), -2, 6), (4, 8)),
        ((0, 600, 0, 600), 600),
        ((0, 1, 0, 1), 1),
        ((0, 2**52, 0, 1), (4, 2)),  # numerators up to 3 * 2**50, below 2**53
    ],
)
def test_closed_form_equals_the_split_construction_on_fixed_cases(bounds, n_cells):
    assert_same_mesh(
        make_initial_mesh(bounds, (2, 1), n_cells), reference_initial_mesh(bounds, (2, 1), n_cells)
    )


@pytest.mark.parametrize(
    "bounds, n_cells, field",
    [
        ((0, 1, 0, 1), 2**49, "n_cells"),  # a position of exponent 49
        ((0, 1, 0, 1), (2, 2**50), "n_cells"),
        ((0, 2**52 + 1, 0, 1), (4, 2), "n_cells"),  # a numerator of 2**54 + 1 over 4
        ((-(2**52), 2**52, 0, 1), 2, "bounds"),  # the width 2**53 is no coordinate
    ],
)
def test_positions_outside_the_coordinate_range_raise_a_mesh_error(bounds, n_cells, field):
    with pytest.raises(ValueError) as reference:
        reference_initial_mesh(bounds, (2, 2), n_cells)
    assert not isinstance(reference.value, MeshError)  # dyadic's bare error
    with pytest.raises(MeshError, match=rf"^{field}\b"):
        make_initial_mesh(bounds, (2, 2), n_cells)


def test_the_closed_form_takes_no_general_path(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the tensor mesh went through the general construction")

    for name in ("Split", "_check_segment", "_canonical_runs", "_build_mesh"):
        monkeypatch.setattr(mesh_module, name, unreachable)
    mesh = make_initial_mesh((0, 1, 0, 1), (2, 2), 256)
    assert mesh._elements is None
    assert initial_space(mesh).n_functions == 258 * 258
