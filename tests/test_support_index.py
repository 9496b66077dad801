"""The refinement state: one per public refinement call, whose support
rows follow the generation fixpoint's diff in place, are never rebuilt
per refinement step, and are never built for a space that no refinement
reads; and no refinement call modifies the space it is given.

The brute-force scans below are the oracles: a crossing scan over every
live key, a dense containment mask, a freshly built state and a freshly
built tracker.
"""
import random
from contextlib import ExitStack
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    element_support_count,
    nested_map,
    random_marked,
    random_pipeline_space,
    random_split,
    to_json,
)
from lrbsplines import space as space_module
from lrbsplines.cli import run_mesh_demo
from lrbsplines.mesh import make_initial_mesh
from lrbsplines.quasi import tensor_space_for_level
from lrbsplines.refine import (
    _NestedTracker,
    _nested_verdicts,
    _rank,
    diagonal_marker,
    n2s_pipeline,
    one_directional_expansion,
    tensor_expansion,
)
from lrbsplines.space import (
    SpaceError,
    _refine_marked,
    _Refinement,
    _support_bounds,
    apply_split,
    initial_space,
    structured_refine,
)


def overlapping_keys(keys, direction, pos, lo, hi) -> set:
    """Keys whose support the segment (direction, pos, [lo, hi]) crosses,
    by a scan of every key."""
    out = set()
    for xv, yv in keys:
        vec, cross = (xv, yv) if direction == 1 else (yv, xv)
        if vec[0] < pos < vec[-1] and cross[0] < hi and lo < cross[-1]:
            out.add((xv, yv))
    return out


def dense_nested_pairs(state) -> set:
    """Pairs (inner, outer) of distinct live keys with nested supports,
    from the full rows x rows containment mask."""
    live = np.array(sorted(state.rows.values()), dtype=int)
    b = state.bounds[live]
    mask = (
        (b[:, None, 0] >= b[None, :, 0])
        & (b[:, None, 1] <= b[None, :, 1])
        & (b[:, None, 2] >= b[None, :, 2])
        & (b[:, None, 3] <= b[None, :, 3])
    )
    np.fill_diagonal(mask, False)
    keys = [state.keys[i] for i in live]
    inner, outer = np.nonzero(mask)
    return {(keys[i], keys[o]) for i, o in zip(inner.tolist(), outer.tolist())}


def dense_containment(state, added) -> list:
    """:meth:`_Refinement.containment` by the two masks over every row,
    dead ones included, in the query's pair order."""
    added = list(added)
    own = [state.rows[key] for key in added]
    x0, x1, y0, y1 = state.bounds[own][:, :, None].transpose(1, 0, 2)
    b = state.bounds.T
    pairs = []
    for mask, pair in (
        ((b[0] <= x0) & (b[1] >= x1) & (b[2] <= y0) & (b[3] >= y1), lambda a, j: (added[a], state.keys[j])),
        ((b[0] >= x0) & (b[1] <= x1) & (b[2] >= y0) & (b[3] <= y1), lambda a, j: (state.keys[j], added[a])),
    ):
        a, j = np.nonzero(mask)
        pairs += [pair(a, j) for a, j in zip(a.tolist(), j.tolist()) if j != own[a]]
    return pairs


def dense_incidence_rows(space) -> list:
    """Per element of ``mesh.elements()``, the indices into
    ``space.sorted_keys()`` of the functions whose closed support holds
    it, from the full elements x functions mask."""
    boxes = np.array([(e.x_min, e.x_max, e.y_min, e.y_max) for e in space.mesh.elements()], float)
    b = _support_bounds(space.sorted_keys()).T
    e = boxes.T[:, :, None]
    mask = (b[0] <= e[0]) & (e[1] <= b[1]) & (b[2] <= e[2]) & (e[3] <= b[3])
    return [np.flatnonzero(row).tolist() for row in mask]


def assert_rows_are_fresh(state):
    """The state's live rows are exactly the bounds freshly built from
    its functions, and dead rows are NaN and at most half."""
    keys = list(state.functions)
    fresh = _support_bounds(keys)
    assert state.rows.keys() == state.functions.keys()
    for i, key in enumerate(keys):
        assert state.keys[state.rows[key]] == key
        assert np.array_equal(state.bounds[state.rows[key]], fresh[i])
    dead = [i for i, key in enumerate(state.keys) if key is None]
    assert len(dead) + len(state.rows) == len(state.keys) == len(state.bounds)
    assert len(state.keys) <= 2 * len(state.rows)
    assert np.isnan(state.bounds[dead]).all()


def assert_compaction_keeps_the_survivors(state):
    """Removing half the live keys and adding none compacts the rows of
    a copy of the state, which then holds exactly the survivors."""
    twin = object.__new__(_Refinement)
    twin.mesh, twin.functions = state.mesh, dict(state.functions)
    twin.keys, twin.bounds, twin.rows = list(state.keys), state.bounds.copy(), dict(state.rows)
    live = sorted(state.rows)
    removed = live[: len(live) // 2 + 1]
    twin._follow(removed, [])
    survivors = live[len(removed) :]
    assert sorted(twin.rows) == survivors
    assert len(twin.keys) == len(twin.bounds) <= 2 * len(twin.rows)
    for key in survivors:
        assert twin.keys[twin.rows[key]] == key
        assert np.array_equal(twin.bounds[twin.rows[key]], state.bounds[state.rows[key]])


def live_relation(by_outer, live) -> dict:
    """The pairs of ``by_outer`` between live keys, without empty sets."""
    relation = {
        outer: {inner for inner in inners if inner in live}
        for outer, inners in by_outer.items()
        if outer in live
    }
    return {outer: inners for outer, inners in relation.items() if inners}


def checked_refinement(built: list) -> ExitStack:
    """Patch every support-row query and tracker step to check itself
    against its brute-force oracle, check the rows after every
    regeneration, and count the states built in ``built``.

    A regeneration must never add back a key its state removed earlier:
    the tracker drops removed keys lazily and relies on that."""
    init = _Refinement.__init__
    regenerate = _Refinement.regenerate
    crossing = _Refinement.crossing
    containment = _Refinement.containment
    nested_pairs = _Refinement.nested_pairs
    update = _NestedTracker.update
    select = _NestedTracker.select
    removed_by = {}  # id(state) -> (state, keys it removed)

    def counted_init(self, space):
        init(self, space)
        built.append(self)

    def checked_regenerate(self, mesh, segments):
        removed, added = diff = regenerate(self, mesh, segments)
        gone = removed_by.setdefault(id(self), (self, set()))[1]
        assert gone.isdisjoint(added)
        gone |= removed
        assert_rows_are_fresh(self)
        assert_compaction_keeps_the_survivors(self)
        return diff

    def checked_crossing(self, segments):
        got = crossing(self, segments)
        want = set()
        for segment in segments:
            want |= overlapping_keys(self.rows, *segment[:4])
        assert len(got) == len(want) and set(got) == want
        return got

    def checked_containment(self, added):
        pairs = containment(self, added)
        assert pairs == dense_containment(self, added)
        return pairs

    def checked_nested_pairs(self):
        pairs = nested_pairs(self)
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == dense_nested_pairs(self)
        return pairs

    def checked_update(self, added):
        update(self, added)
        fresh = _NestedTracker(self.state).by_outer
        assert live_relation(self.by_outer, self.state.functions) == fresh

    def checked_select(self):
        fresh = _NestedTracker(self.state).by_outer
        got = select(self)
        if not fresh:
            assert got is None
        else:
            outer = min(fresh, key=_rank)
            assert got == (outer, sorted(fresh[outer]))
        return got

    stack = ExitStack()
    for cls, name, method in (
        (_Refinement, "__init__", counted_init),
        (_Refinement, "regenerate", checked_regenerate),
        (_Refinement, "crossing", checked_crossing),
        (_Refinement, "containment", checked_containment),
        (_Refinement, "nested_pairs", checked_nested_pairs),
        (_NestedTracker, "update", checked_update),
        (_NestedTracker, "select", checked_select),
    ):
        stack.enter_context(patch.object(cls, name, method))
    return stack


@settings(deadline=None, max_examples=60)
@given(
    bidegree=st.sampled_from([(1, 1), (2, 2), (3, 2)]),
    steps=st.lists(
        st.tuples(st.sampled_from(["structured", "pipeline", "split"]), st.integers(0, 2**32)),
        min_size=1,
        max_size=4,
    ),
)
def test_index_follows_every_refinement(bidegree, steps):
    space = initial_space(make_initial_mesh((0, 1, 0, 1), bidegree, 2))
    built = []
    with checked_refinement(built):
        for i, (kind, seed) in enumerate(steps, start=1):
            rng = random.Random(seed)
            marked = random_marked(rng, space)
            built.clear()
            try:
                if kind == "structured":
                    space = structured_refine(space, marked)
                elif kind == "pipeline":
                    [space], _ = n2s_pipeline(space, lambda key: key in marked, 1, start_index=i)
                else:
                    split = random_split(rng, space)
                    if split is None:
                        continue
                    space = apply_split(space, split)
            except SpaceError:
                # nothing new to insert, or a split that refines no function
                continue
            assert len(built) == 1
            assert space.functions is built[0].functions


def some_space(kind, seed, bidegree, iterations):
    """A random pipeline space, or a space of ``iterations`` structured
    refinements of random functions, which keeps nested supports."""
    if kind == "pipeline":
        return random_pipeline_space(seed, iterations=iterations, bidegree=bidegree)
    rng = random.Random(seed)
    space = initial_space(make_initial_mesh((0, 1, 0, 1), bidegree, 2))
    for _ in range(iterations):
        space = structured_refine(space, random_marked(rng, space))
    return space


@settings(deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(["pipeline", "structured"]),
    seed=st.integers(0, 2**32),
    bidegree=st.sampled_from([(1, 1), (2, 2), (3, 2), (2, 3)]),
    iterations=st.integers(1, 2),
    marks=st.integers(0, 2),
    share=st.floats(0.01, 1.0),
)
def test_pre_filtered_containment_equals_the_dense_masks(
    kind, seed, bidegree, iterations, marks, share
):
    # States with dead rows after a few structured steps; the added keys
    # are a random share of the live ones.
    rng = random.Random(seed)
    state = _Refinement(some_space(kind, seed, bidegree, iterations))
    for _ in range(marks):
        try:
            _refine_marked(state, random_marked(rng, state.space()))
        except SpaceError:
            break
    live = sorted(state.rows)
    added = rng.sample(live, max(1, int(share * len(live))))
    assert state.containment(added) == dense_containment(state, added)


def assert_one_search_matches_the_dense_oracles(space):
    """The incidence rows and both callers' nested pairs, all from
    ``space._boxes_within``, against the dense containment oracles."""
    keys, counts, indices, _, _ = space_module._incidence(space)
    rows = np.split(indices, np.cumsum(counts)[:-1])
    assert [row.tolist() for row in rows] == dense_incidence_rows(space)
    assert counts.tolist() == [element_support_count(space, e) for e in space.mesh.elements()]
    state = _Refinement(space)
    want = dense_nested_pairs(state)
    from_state = state.nested_pairs()
    assert len(from_state) == len(want) and set(from_state) == want
    knotwise, _ = _nested_verdicts(space)
    found = {(inner, outer) for inner, outers in nested_map(space).items() for outer in outers}
    assert len(knotwise) == len(want)
    assert sum(knotwise) == len(found)
    return want


@settings(deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(["pipeline", "structured"]),
    seed=st.integers(0, 2**32),
    bidegree=st.sampled_from([(1, 1), (2, 2), (3, 2), (2, 3)]),
    iterations=st.integers(1, 3),
)
def test_one_corner_search_equals_the_dense_oracles(kind, seed, bidegree, iterations):
    assert_one_search_matches_the_dense_oracles(some_space(kind, seed, bidegree, iterations))


@pytest.mark.parametrize(
    "fixture, pairs", [("rank_deficient_space", 140), ("two_stage_dependent_space", 1740)]
)
def test_one_corner_search_on_the_dependent_fixtures(request, fixture, pairs):
    space = request.getfixturevalue(fixture)
    assert len(assert_one_search_matches_the_dense_oracles(space)) == pairs


def refinement_calls(rng, space):
    """One of each public refinement call on ``space``, with random
    arguments."""
    keys = space.sorted_keys()
    nested = sorted(nested_map(space))
    marked = random_marked(rng, space)
    split = random_split(rng, space)
    return {
        "apply_split": lambda: apply_split(space, split) if split else space,
        "structured_refine": lambda: structured_refine(space, marked),
        "one_directional_expansion": lambda: one_directional_expansion(
            space, rng.choice(nested or keys), rng.choice((1, 2))
        ),
        "tensor_expansion": lambda: tensor_expansion(space, rng.choice(keys)),
        "n2s_pipeline": lambda: n2s_pipeline(space, lambda key: key in marked, 1)[0][-1],
    }


@settings(deadline=None, max_examples=60)
@given(
    bidegree=st.sampled_from([(1, 1), (2, 2), (3, 2)]),
    seed=st.integers(0, 2**32),
    call=st.sampled_from(
        ["apply_split", "structured_refine", "one_directional_expansion", "tensor_expansion", "n2s_pipeline"]
    ),
)
def test_no_refinement_call_modifies_its_input(bidegree, seed, call):
    rng = random.Random(seed)
    space = initial_space(make_initial_mesh((0, 1, 0, 1), bidegree, 2))
    # a structured refinement leaves nested pairs for the expansions
    space = structured_refine(space, random_marked(rng, space))
    mesh, functions = space.mesh, space.functions
    snapshot = to_json(mesh), list(functions), dict(functions)
    try:
        refined = refinement_calls(rng, space)[call]()
    except SpaceError:
        refined = None
    assert space.mesh is mesh and space.functions is functions
    assert (to_json(mesh), list(functions), dict(functions)) == snapshot
    if refined is not None and refined.mesh == mesh:
        # only an expansion that inserts nothing keeps the mesh
        assert refined is space


def test_tensor_spaces_build_no_index(monkeypatch):
    # The tensor path never refines, so it must never pay for an index.
    calls = []

    def counting(keys):
        calls.append(len(keys))
        return _support_bounds(keys)

    monkeypatch.setattr(space_module, "_support_bounds", counting)
    for level in range(1, 8):
        initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2**level))
        tensor_space_for_level(level)
    assert calls == []


def test_pipeline_builds_full_bounds_once(monkeypatch):
    # One state serves every iteration: after its first build, bounds are
    # built only for the keys each fixpoint adds.
    built, added = [], []
    fixpoint = space_module._fixpoint

    def counting_bounds(keys):
        built.append(set(keys))
        return _support_bounds(keys)

    def counting_fixpoint(mesh, functions, dirty, segments):
        removed, new = fixpoint(mesh, functions, dirty, segments)
        added.append(set(new))
        return removed, new

    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    monkeypatch.setattr(space_module, "_support_bounds", counting_bounds)
    monkeypatch.setattr(space_module, "_fixpoint", counting_fixpoint)
    spaces, trace = n2s_pipeline(space, diagonal_marker, 3)
    assert len(trace) > 0 and spaces[-1].n_functions > space.n_functions
    assert built[0] == set(space.functions)
    assert built[1:] == added


def test_refinement_builds_bounds_in_proportion_to_added_functions(monkeypatch, tmp_path):
    # A work count in place of a timing gate: rebuilding every bound per
    # expansion makes the rows built grow with expansions x functions.
    rows, added = [], []
    fixpoint = space_module._fixpoint

    def counting_bounds(keys):
        out = _support_bounds(keys)
        rows.append(len(out))
        return out

    def counting_fixpoint(mesh, functions, dirty, segments):
        removed, new = fixpoint(mesh, functions, dirty, segments)
        added.append(len(new))
        return removed, new

    monkeypatch.setattr(space_module, "_support_bounds", counting_bounds)
    monkeypatch.setattr(space_module, "_fixpoint", counting_fixpoint)
    summary = run_mesh_demo(tmp_path, iterations=6)
    assert summary["n_functions"] == 932
    ever_added = summary["counts"][0]["n_functions"] + sum(added)
    assert sum(rows) <= 3 * ever_added
