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
from hypothesis import given, settings
from hypothesis import strategies as st

from lrbsplines import space as space_module
from lrbsplines.cli import run_mesh_demo
from lrbsplines.dyadic import midpoint
from lrbsplines.formats import to_json
from lrbsplines.mesh import Split, make_initial_mesh
from lrbsplines.quasi import tensor_space_for_level
from lrbsplines.refine import (
    _NestedTracker,
    _rank,
    diagonal_marker,
    n2s_pipeline,
    nested_map,
    one_directional_expansion,
    tensor_expansion,
)
from lrbsplines.space import (
    SpaceError,
    _Refinement,
    _support_bounds,
    _uncovered_gaps,
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


def dense_nested_rows(state) -> set:
    """Pairs (inner, outer) of distinct live rows with nested supports,
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
    inner, outer = np.nonzero(mask)
    return set(zip(live[inner].tolist(), live[outer].tolist()))


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


def checked_refinement(built: list) -> ExitStack:
    """Patch every support-row query and tracker step to check itself
    against its brute-force oracle, check the rows after every
    regeneration, and count the states built in ``built``."""
    init = _Refinement.__init__
    regenerate = _Refinement.regenerate
    crossing = _Refinement.crossing
    nested_pairs = _Refinement.nested_pairs
    update = _NestedTracker.update
    select_outer = _NestedTracker.select_outer

    def counted_init(self, space):
        init(self, space)
        built.append(self)

    def checked_regenerate(self, mesh, segments):
        diff = regenerate(self, mesh, segments)
        assert_rows_are_fresh(self)
        assert_compaction_keeps_the_survivors(self)
        return diff

    def checked_crossing(self, segments):
        got = crossing(self, segments)
        want = set()
        for segment in segments:
            want |= overlapping_keys(self.rows, *segment)
        assert len(got) == len(want) and set(got) == want
        return got

    def checked_nested_pairs(self):
        inner, outer = nested_pairs(self)
        assert len(inner) == len(set(zip(inner.tolist(), outer.tolist())))
        assert set(zip(inner.tolist(), outer.tolist())) == dense_nested_rows(self)
        return inner, outer

    def checked_update(self, removed, added):
        update(self, removed, added)
        assert self.by_outer == _NestedTracker(self.state).by_outer

    def checked_select_outer(self):
        got = select_outer(self)
        assert got == min(self.by_outer, key=_rank)
        return got

    stack = ExitStack()
    for cls, name, method in (
        (_Refinement, "__init__", counted_init),
        (_Refinement, "regenerate", checked_regenerate),
        (_Refinement, "crossing", checked_crossing),
        (_Refinement, "nested_pairs", checked_nested_pairs),
        (_NestedTracker, "update", checked_update),
        (_NestedTracker, "select_outer", checked_select_outer),
    ):
        stack.enter_context(patch.object(cls, name, method))
    return stack


def random_split(rng, space):
    """A multiplicity-1 split at a knot-span midpoint of a random
    function, over the first uncovered gap across its support; None when
    that line is already complete."""
    b = space.functions[rng.choice(space.sorted_keys())]
    direction = rng.choice((1, 2))
    vec = sorted(set(b.knots(direction)))
    cross = b.knots(2 if direction == 1 else 1)
    i = rng.randrange(len(vec) - 1)
    pos = midpoint(vec[i], vec[i + 1])
    gaps = _uncovered_gaps(space.mesh, direction, pos, cross[0], cross[-1])
    if not gaps:
        return None
    return Split.make(direction, pos, *gaps[0])


def random_marked(rng, space) -> set:
    keys = space.sorted_keys()
    return set(rng.sample(keys, rng.randint(1, max(1, len(keys) // 4))))


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
                    space, _ = n2s_pipeline(space, lambda b: b.key in marked, 1, start_index=i)
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
        "n2s_pipeline": lambda: n2s_pipeline(space, lambda b: b.key in marked, 1)[0],
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
    snapshot = to_json(mesh), list(functions), {k: b.weight for k, b in functions.items()}
    try:
        refined = refinement_calls(rng, space)[call]()
    except SpaceError:
        refined = None
    assert space.mesh is mesh and space.functions is functions
    assert (to_json(mesh), list(functions), {k: b.weight for k, b in functions.items()}) == snapshot
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

    def counting_fixpoint(mesh, functions, dirty):
        removed, new = fixpoint(mesh, functions, dirty)
        added.append(set(new))
        return removed, new

    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    monkeypatch.setattr(space_module, "_support_bounds", counting_bounds)
    monkeypatch.setattr(space_module, "_fixpoint", counting_fixpoint)
    refined, trace = n2s_pipeline(space, diagonal_marker, 3)
    assert len(trace) > 0 and refined.n_functions > space.n_functions
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

    def counting_fixpoint(mesh, functions, dirty):
        removed, new = fixpoint(mesh, functions, dirty)
        added.append(len(new))
        return removed, new

    monkeypatch.setattr(space_module, "_support_bounds", counting_bounds)
    monkeypatch.setattr(space_module, "_fixpoint", counting_fixpoint)
    summary = run_mesh_demo(tmp_path, iterations=6)
    assert summary["n_functions"] == 932
    ever_added = summary["counts"][0]["n_functions"] + sum(added)
    assert sum(rows) <= 3 * ever_added
