"""Nestedness, expansions, markers, and the refinement pipeline."""
import random
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import key_of, nested_map, random_marked, random_pipeline_space, to_json
from lrbsplines import refine as refine_module
from lrbsplines import space as space_module
from lrbsplines.dyadic import dyadic
from lrbsplines.mesh import make_initial_mesh
from lrbsplines.refine import (
    EXPANSIONS,
    central_span,
    diagonal_marker,
    is_nested_knotwise,
    is_nested_meshwise,
    n2s_pipeline,
    one_directional_expansion,
    point_marker,
    tensor_expansion,
    _one_directional_pieces,
    _rank,
    _vector_nested,
)
from lrbsplines.space import (
    LRSpace,
    SpaceError,
    _Refinement,
    initial_space,
    is_locally_linearly_independent,
    structured_refine,
)


def support(key) -> tuple[float, float, float, float]:
    """The bounds ``(x0, x1, y0, y1)`` of the function ``key``'s support."""
    xv, yv = key
    return (float(xv[0]), float(xv[-1]), float(yv[0]), float(yv[-1]))


# -- nestedness (two definitions) --------------------------------------------


def test_knotwise_nesting_on_boundary_multiplicity_mesh(boundary_mult_mesh):
    b1 = key_of((0, 2, 4, 6), (0, 2, 4, 6))
    b2 = key_of((0, 2, 3, 4), (0, 2, 3, 4))
    b3 = key_of((0, 0, 2, 3), (0, 2, 3, 4))
    assert is_nested_knotwise(b2, b1)
    assert not is_nested_knotwise(b3, b2)
    assert not is_nested_knotwise(b1, b2)


def test_meshwise_nesting_matches_knotwise_on_fixture(boundary_mult_mesh):
    mesh = boundary_mult_mesh
    b1 = key_of((0, 2, 4, 6), (0, 2, 4, 6))
    b2 = key_of((0, 2, 3, 4), (0, 2, 3, 4))
    b3 = key_of((0, 0, 2, 3), (0, 2, 3, 4))
    assert is_nested_meshwise(b2, b1, mesh)
    assert not is_nested_meshwise(b3, b2, mesh)


def test_nesting_is_irreflexive_and_needs_containment():
    b = key_of((0, 1, 2, 3), (0, 1, 2, 3))
    assert not is_nested_knotwise(b, b)
    wide = key_of((0, 2, 4, 6), (0, 2, 4, 6))
    shifted = key_of((1, 2, 3, 4), (0, 2, 4, 6))
    assert not is_nested_knotwise(wide, shifted)


def counted_vector_nested(vi, vo) -> bool:
    """``_vector_nested`` as a multiplicity table: both rules checked at
    every value of either vector, with ``Counter``s."""
    ci, co = Counter(vi), Counter(vo)
    for z in ci.keys() | co.keys():
        if vi[0] < z < vi[-1] and ci[z] < co[z]:
            return False
        if not (vo[0] < z < vo[-1]) and ci[z] > co[z]:
            return False
    return True


@st.composite
def knot_vector_pairs(draw):
    """Two sorted knot vectors of one degree 1-3 on the halves of [0, 3.5],
    each spanning a nonempty interval: a small lattice, so knots repeat
    and one vector often nests in the other."""
    p = draw(st.integers(1, 3))

    def vector():
        values = sorted(draw(st.lists(st.integers(0, 6), min_size=p + 2, max_size=p + 2)))
        if values[0] == values[-1]:
            values[-1] += 1
        return tuple(dyadic(v / 2) for v in values)

    return vector(), vector()


@settings(deadline=None, max_examples=300)
@given(knot_vector_pairs())
def test_vector_nesting_equals_the_multiplicity_table(pair):
    vi, vo = pair
    assert _vector_nested(vi, vo) == counted_vector_nested(vi, vo)
    assert _vector_nested(vo, vi) == counted_vector_nested(vo, vi)


def test_meshwise_requires_minimal_support(mixed_mesh):
    loose = key_of((0, 2, 5, 6), (2, 6, 8, 10))
    other = key_of((0, 4, 6, 8), (0, 2, 6, 8))
    with pytest.raises(SpaceError):
        is_nested_meshwise(loose, other, mixed_mesh)


def test_definitions_agree_across_randomized_spaces():
    for seed in range(10):
        space = random_pipeline_space(seed, iterations=2)
        keys = space.sorted_keys()
        for ka in keys:
            for kb in keys:
                if ka == kb:
                    continue
                knot = is_nested_knotwise(ka, kb)
                mesh = is_nested_meshwise(ka, kb, space.mesh)
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
    supports = {support(k) for k in inners}
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
    new_supports = {support(key) for key in expanded.functions}
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
    outer, inner = key_of((0, 2, 4, 6), (0, 2, 4, 6)), key_of((1, 2, 3, 4), (1, 2, 3, 4))
    space = LRSpace(mesh, {outer: Fraction(1), inner: Fraction(1)})
    assert nested_map(space) == {outer: (inner,)}
    for direction in (1, 2):
        assert one_directional_expansion(space, outer, direction) is space
    assert tensor_expansion(space, outer) is space


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32),
    iterations=st.integers(1, 2),
    bidegree=st.sampled_from([(1, 1), (2, 2), (3, 2)]),
    direction=st.sampled_from((1, 2)),
)
def test_one_directional_expansion_reads_its_outer_alone(seed, iterations, bidegree, direction):
    # The expansion finds its outer's inner functions by one containment
    # query and builds no tracker of the whole space's nested pairs.  The
    # oracle reads the outer's entry of the whole-space nested map.
    rng = random.Random(seed)
    space = random_pipeline_space(seed, iterations=iterations, bidegree=bidegree)
    # a structured refinement leaves nested pairs for the expansion
    space = structured_refine(space, random_marked(rng, space))
    nested = nested_map(space)
    outers = rng.sample(sorted(nested), min(3, len(nested))) or [rng.choice(space.sorted_keys())]
    trackers = []

    class CountedTracker(refine_module._NestedTracker):
        def __init__(self, state):
            trackers.append(state)
            super().__init__(state)

    for outer in outers:
        if outer not in nested:
            with patch.object(refine_module, "_NestedTracker", CountedTracker), pytest.raises(SpaceError):
                one_directional_expansion(space, outer, direction)
            continue
        state = _Refinement(space)
        pieces = _one_directional_pieces(outer, nested[outer], direction)
        want = space if state.insert(pieces) is None else state.space()
        with patch.object(refine_module, "_NestedTracker", CountedTracker):
            got = one_directional_expansion(space, outer, direction)
        assert (got is space) == (want is space)
        assert to_json(got) == to_json(want) and list(got.functions) == list(want.functions)
    assert trackers == []


def test_tensor_expansion_covers_both_directions(expansion_fixture):
    space = expansion_fixture
    outer = key_of((0, 2, 4, 6), (0, 2, 4, 6))
    both = tensor_expansion(space, outer)
    vertical = one_directional_expansion(space, outer, 1)
    assert both.n_functions >= vertical.n_functions
    assert outer not in nested_map(both)


# -- markers ------------------------------------------------------------------


def test_central_span_is_the_middle_knot_interval():
    b = key_of((0, 1, 2, 3), (0, 2, 4, 8))
    assert central_span(b) == (1.0, 2.0, 2.0, 4.0)
    flat = key_of((0, 0, 0, 1), (0, 1, 2, 3))
    x0, x1, _, _ = central_span(flat)
    assert x0 == x1  # degenerate: repeated boundary knots


def test_diagonal_marker_requires_open_overlap():
    assert diagonal_marker(key_of((0, 1, 2, 3), (0, 1, 2, 3)))
    # central spans [1,2) x [3,4): no diagonal point
    assert not diagonal_marker(key_of((0, 1, 2, 3), (2, 3, 4, 5)))
    # touching at one corner only is not an open overlap
    assert not diagonal_marker(key_of((0, 1, 2, 3), (1, 2, 3, 4)))
    assert not diagonal_marker(key_of((0, 1, 2, 3), (-1, 0, 1, 2)))


def test_point_marker_uses_half_open_spans():
    marker = point_marker([(0.5, 0.5)])
    # central span [0.5, 1) x [0.5, 1): contains the point
    assert marker(key_of((0.25, 0.5, 1, 1), (0.25, 0.5, 1, 1)))
    # central span [0, 0.5) x [0, 0.5): half-open, excludes it
    assert not marker(key_of((0, 0, 0.5, 1), (0, 0, 0.5, 1)))


# -- pipeline ------------------------------------------------------------------


def test_pipeline_trace_records_expansions(running_example):
    trace = running_example["trace_2"]
    assert len(trace) == 11
    for record in trace:
        assert set(record) >= {"iter", "outer", "dir", "n_functions_after"}
        assert record["iter"] == 2
    assert running_example["trace_1"][0]["dir"] == 1  # odd => vertical


def test_pipeline_parity_controls_directions():
    base = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    key1 = key_of((0, 0.25, 0.5, 0.75), (0.25, 0.5, 0.75, 1))
    _, trace_v = n2s_pipeline(base, lambda key: key == key1, 1, expansion="odd-vertical")
    _, trace_h = n2s_pipeline(base, lambda key: key == key1, 1, expansion="odd-horizontal")
    assert {r["dir"] for r in trace_v} == {1}
    assert {r["dir"] for r in trace_h} == {2}


def test_pipeline_empty_marker_raises():
    base = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2))
    with pytest.raises(SpaceError):
        n2s_pipeline(base, lambda key: False, 1)


def test_pipeline_full_expansion_also_clears_nesting():
    base = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    key1 = key_of((0, 0.25, 0.5, 0.75), (0.25, 0.5, 0.75, 1))
    [space], _ = n2s_pipeline(
        base, lambda key: key == key1, 1, expansion="full"
    )
    assert nested_map(space) == {}
    assert is_locally_linearly_independent(space)


@pytest.mark.parametrize("expansion", EXPANSIONS)
def test_pipeline_spaces_are_the_chained_one_step_runs(expansion):
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 1))
    spaces, trace = n2s_pipeline(space, diagonal_marker, 5, expansion=expansion)
    chained, chained_trace = [], []
    for i in range(1, 6):
        [space], step_trace = n2s_pipeline(
            space, diagonal_marker, 1, start_index=i, expansion=expansion
        )
        chained.append(space)
        chained_trace += step_trace
    assert spaces == chained
    assert [list(s.functions) for s in spaces] == [list(s.functions) for s in chained]
    assert trace == chained_trace


def test_refinement_queries_across_chunks_match_one_chunk(monkeypatch):
    # A cap of 64 entries splits the refinement queries that slice
    # through ``_chunks``: crossing and containment.
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 1))
    spaces, trace = n2s_pipeline(space, diagonal_marker, 4)
    monkeypatch.setattr(space_module, "_CHUNK_ENTRIES", 64)
    pieces, split = [], Counter()
    chunks = space_module._chunks

    def counting_chunks(n, per_item):
        found = chunks(n, per_item)
        pieces[-1] = max(pieces[-1], len(found))
        return found

    def counted(name):
        query = getattr(space_module._Refinement, name)

        def run(self, *args):
            pieces.append(0)
            result = query(self, *args)
            split[name] += pieces.pop() > 1
            return result

        monkeypatch.setattr(space_module._Refinement, name, run)

    monkeypatch.setattr(space_module, "_chunks", counting_chunks)
    queries = ("crossing", "containment")
    for name in queries:
        counted(name)
    chunked, chunked_trace = n2s_pipeline(space, diagonal_marker, 4)
    assert chunked == spaces
    assert [list(s.functions) for s in chunked] == [list(s.functions) for s in spaces]
    assert chunked_trace == trace
    assert all(split[name] > 0 for name in queries), split


def test_pipeline_spaces_are_locally_independent_randomized():
    for seed in range(6):
        space = random_pipeline_space(seed, iterations=2)
        assert is_locally_linearly_independent(space)
        assert all(w == Fraction(1) for w in space.functions.values())


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
    for _ in range(300):
        keys = {(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(1, 20))}
        assert sorted(keys, key=_rank) == sorted(keys, key=fraction_rank)


def test_pipeline_sweep_with_unequal_bidegree_completes():
    # Iteration 7 of the (1, 2) sweep needs 304 expansions, more than the
    # mesh's 258 runs at the start of the sweep.
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (1, 2), 1))
    refined = n2s_pipeline(space, diagonal_marker, 7)[0][-1]
    assert nested_map(refined) == {}
    assert is_locally_linearly_independent(refined)
