"""Nestedness, expansions, markers, and the refinement pipeline."""
import random
from fractions import Fraction

import pytest

from conftest import key_of, random_pipeline_space
from lrbsplines.bspline import TensorBSpline
from lrbsplines.dyadic import dyadic
from lrbsplines.mesh import make_initial_mesh
from lrbsplines.refine import (
    central_span,
    diagonal_marker,
    is_nested_knotwise,
    is_nested_meshwise,
    n2s_pipeline,
    nested_map,
    one_directional_expansion,
    point_marker,
    tensor_expansion,
    _NestedTracker,
)
from lrbsplines.space import (
    LRSpace,
    SpaceError,
    _Refinement,
    initial_space,
    is_locally_linearly_independent,
)


def bsp(xvals, yvals):
    return TensorBSpline(*key_of(xvals, yvals), Fraction(1))


# -- nestedness (two definitions) --------------------------------------------


def test_knotwise_nesting_on_boundary_multiplicity_mesh(boundary_mult_mesh):
    b1 = bsp((0, 2, 4, 6), (0, 2, 4, 6))
    b2 = bsp((0, 2, 3, 4), (0, 2, 3, 4))
    b3 = bsp((0, 0, 2, 3), (0, 2, 3, 4))
    assert is_nested_knotwise(b2, b1)
    assert not is_nested_knotwise(b3, b2)
    assert not is_nested_knotwise(b1, b2)


def test_meshwise_nesting_matches_knotwise_on_fixture(boundary_mult_mesh):
    mesh = boundary_mult_mesh
    b1 = bsp((0, 2, 4, 6), (0, 2, 4, 6))
    b2 = bsp((0, 2, 3, 4), (0, 2, 3, 4))
    b3 = bsp((0, 0, 2, 3), (0, 2, 3, 4))
    assert is_nested_meshwise(b2, b1, mesh)
    assert not is_nested_meshwise(b3, b2, mesh)


def test_nesting_is_irreflexive_and_needs_containment():
    b = bsp((0, 1, 2, 3), (0, 1, 2, 3))
    assert not is_nested_knotwise(b, b)
    wide = bsp((0, 2, 4, 6), (0, 2, 4, 6))
    shifted = bsp((1, 2, 3, 4), (0, 2, 4, 6))
    assert not is_nested_knotwise(wide, shifted)


def test_meshwise_requires_minimal_support(mixed_mesh):
    loose = bsp((0, 2, 5, 6), (2, 6, 8, 10))
    other = bsp((0, 4, 6, 8), (0, 2, 6, 8))
    with pytest.raises(SpaceError):
        is_nested_meshwise(loose, other, mixed_mesh)


def test_definitions_agree_across_randomized_spaces():
    for seed in range(10):
        space = random_pipeline_space(seed, iterations=2)
        keys = space.sorted_keys()
        functions = space.functions
        for ka in keys:
            for kb in keys:
                if ka == kb:
                    continue
                knot = is_nested_knotwise(functions[ka], functions[kb])
                mesh = is_nested_meshwise(functions[ka], functions[kb], space.mesh)
                assert knot == mesh


def test_tensor_space_has_empty_nested_map():
    for seed, cells in ((0, 1), (1, 2), (2, 4)):
        space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), cells))
        assert nested_map(space) == {}


def test_pipeline_results_have_empty_nested_map():
    for seed in range(4):
        space = random_pipeline_space(seed, iterations=2)
        assert nested_map(space) == {}


# -- expansions ---------------------------------------------------------------


def test_vertical_expansion_inserts_exactly_the_gap_lines(expansion_fixture):
    space = expansion_fixture
    assert space.n_functions == 37
    assert len(space.mesh.elements()) == 21
    outer = key_of((0, 2, 4, 6), (0, 2, 4, 6))
    inners = set(nested_map(space)[outer])
    supports = {
        tuple(map(float, space.functions[k].support.float_bounds()))
        for k in inners
    }
    assert supports == {
        (0.0, 3.0, 3.0, 6.0),
        (1.0, 4.0, 3.0, 6.0),
        (0.0, 3.0, 2.0, 5.0),
        (1.0, 4.0, 2.0, 5.0),
    }

    expanded = one_directional_expansion(space, outer, 1)
    assert expanded.n_functions == 43
    # the horizontal lines are untouched; x=1 and x=3 now span the full height
    for x in (1, 3):
        assert expanded.mesh.runs_at(1, dyadic(x)) == ((dyadic(0), dyadic(6), 1),)
    new_supports = {
        tuple(map(float, b.support.float_bounds()))
        for b in expanded.functions.values()
    }
    for expected in ((0.0, 3.0, 0.0, 4.0), (1.0, 4.0, 0.0, 4.0), (2.0, 6.0, 0.0, 6.0)):
        assert expected in new_supports


def test_expansion_without_nested_functions_raises():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2))
    some = space.sorted_keys()[0]
    with pytest.raises(SpaceError):
        one_directional_expansion(space, some, 1)


def test_expansions_that_insert_nothing_return_their_input():
    # Every knot line of the nested pair already spans the outer support.
    mesh = make_initial_mesh((0, 6, 0, 6), (2, 2), 6)
    outer, inner = bsp((0, 2, 4, 6), (0, 2, 4, 6)), bsp((1, 2, 3, 4), (1, 2, 3, 4))
    space = LRSpace(mesh, {outer.key: outer, inner.key: inner})
    assert nested_map(space) == {outer.key: (inner.key,)}
    for direction in (1, 2):
        assert one_directional_expansion(space, outer.key, direction) is space
    assert tensor_expansion(space, outer.key) is space


def test_tensor_expansion_covers_both_directions(expansion_fixture):
    space = expansion_fixture
    outer = key_of((0, 2, 4, 6), (0, 2, 4, 6))
    both = tensor_expansion(space, outer)
    vertical = one_directional_expansion(space, outer, 1)
    assert both.n_functions >= vertical.n_functions
    assert outer not in nested_map(both)


# -- markers ------------------------------------------------------------------


def test_central_span_is_the_middle_knot_interval():
    b = bsp((0, 1, 2, 3), (0, 2, 4, 8))
    assert central_span(b) == (1.0, 2.0, 2.0, 4.0)
    flat = bsp((0, 0, 0, 1), (0, 1, 2, 3))
    x0, x1, _, _ = central_span(flat)
    assert x0 == x1  # degenerate: repeated boundary knots


def test_diagonal_marker_requires_open_overlap():
    assert diagonal_marker(bsp((0, 1, 2, 3), (0, 1, 2, 3)))
    # central spans [1,2) x [3,4): no diagonal point
    assert not diagonal_marker(bsp((0, 1, 2, 3), (2, 3, 4, 5)))
    # touching at one corner only is not an open overlap
    assert not diagonal_marker(bsp((0, 1, 2, 3), (1, 2, 3, 4)))
    assert not diagonal_marker(bsp((0, 1, 2, 3), (-1, 0, 1, 2)))


def test_point_marker_uses_half_open_spans():
    marker = point_marker([(0.5, 0.5)])
    # central span [0.5, 1) x [0.5, 1): contains the point
    assert marker(bsp((0.25, 0.5, 1, 1), (0.25, 0.5, 1, 1)))
    # central span [0, 0.5) x [0, 0.5): half-open, excludes it
    assert not marker(bsp((0, 0, 0.5, 1), (0, 0, 0.5, 1)))


# -- pipeline ------------------------------------------------------------------


def test_pipeline_trace_records_expansions(running_example):
    trace = running_example["trace_2"]
    assert len(trace) == 11
    for record in trace.records:
        assert set(record) >= {"iter", "outer", "dir", "n_functions_after"}
        assert record["iter"] == 2
    assert running_example["trace_1"].records[0]["dir"] == 1  # odd => vertical


def test_pipeline_parity_controls_directions():
    base = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    key1 = key_of((0, 0.25, 0.5, 0.75), (0.25, 0.5, 0.75, 1))
    _, trace_v = n2s_pipeline(base, lambda b: b.key == key1, 1, parity="odd-vertical")
    _, trace_h = n2s_pipeline(base, lambda b: b.key == key1, 1, parity="odd-horizontal")
    assert {r["dir"] for r in trace_v.records} == {1}
    assert {r["dir"] for r in trace_h.records} == {2}


def test_pipeline_empty_marker_raises():
    base = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2))
    with pytest.raises(SpaceError):
        n2s_pipeline(base, lambda b: False, 1)


def test_pipeline_full_expansion_also_clears_nesting():
    base = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    key1 = key_of((0, 0.25, 0.5, 0.75), (0.25, 0.5, 0.75, 1))
    space, _ = n2s_pipeline(
        base, lambda b: b.key == key1, 1, expansion="full"
    )
    assert nested_map(space) == {}
    assert is_locally_linearly_independent(space)


def test_pipeline_spaces_are_locally_independent_randomized():
    for seed in range(6):
        space = random_pipeline_space(seed, iterations=2)
        assert is_locally_linearly_independent(space)
        assert all(b.weight == Fraction(1) for b in space.functions.values())


def test_select_outer_takes_the_largest_exact_area():
    # The integer rank must order outers as their exact Fraction areas
    # do, ties broken by the smallest key, down to exponent 48.
    rng = random.Random(11)
    exponents = (0, 1, 3, 7, 30, 47, 48)

    def interval():
        lo = dyadic(rng.randrange(2**4), rng.choice(exponents))
        return (lo, lo + dyadic(rng.randrange(1, 2**4), rng.choice(exponents)))

    def fraction_rank(key):
        xv, yv = key
        area = (xv[-1].fraction - xv[0].fraction) * (yv[-1].fraction - yv[0].fraction)
        return (-area, key)

    pool = [interval() for _ in range(12)]
    tensor = initial_space(make_initial_mesh((0, 1, 0, 1), (1, 1), 1))
    for _ in range(300):
        keys = {(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(1, 20))}
        tracker = _NestedTracker(_Refinement(tensor))
        for key in keys:
            tracker._add("inner", key)
        assert tracker.select_outer() == min(keys, key=fraction_rank)
