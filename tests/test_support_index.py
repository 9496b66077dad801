"""The support index of a space: derived from the parent's by the
generation fixpoint's diff, never rebuilt per refinement step, and never
built for a space that no refinement reads.

The brute-force scans below are the oracles: a crossing scan over every
live key, a dense containment mask, and a freshly built tracker.
"""
import random
from contextlib import ExitStack
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lrbsplines import space as space_module
from lrbsplines.dyadic import midpoint
from lrbsplines.cli import run_mesh_demo
from lrbsplines.mesh import Split, make_initial_mesh
from lrbsplines.quasi import tensor_space_for_level
from lrbsplines.refine import _NestedTracker, _rank, n2s_pipeline
from lrbsplines.space import (
    SpaceError,
    _support_bounds,
    _SupportIndex,
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


def dense_nested_rows(index) -> set:
    """Pairs (inner, outer) of distinct live rows with nested supports,
    from the full rows x rows containment mask."""
    live = np.array(sorted(index.rows.values()), dtype=int)
    b = index.bounds[live]
    mask = (
        (b[:, None, 0] >= b[None, :, 0])
        & (b[:, None, 1] <= b[None, :, 1])
        & (b[:, None, 2] >= b[None, :, 2])
        & (b[:, None, 3] <= b[None, :, 3])
    )
    np.fill_diagonal(mask, False)
    inner, outer = np.nonzero(mask)
    return set(zip(live[inner].tolist(), live[outer].tolist()))


def assert_index_is_fresh(space):
    """The space's index was derived (not built on demand), and its live
    rows are exactly those of an index built from its functions."""
    index = space._index
    assert index is not None
    keys = list(space.functions)
    fresh = _SupportIndex(keys, _support_bounds(keys))
    assert index.rows.keys() == fresh.rows.keys()
    for key, row in index.rows.items():
        assert index.keys[row] == key
        assert np.array_equal(index.bounds[row], fresh.bounds[fresh.rows[key]])
    dead = [i for i, key in enumerate(index.keys) if key is None]
    assert len(dead) + len(index.rows) == len(index.keys) <= 2 * len(index.rows)
    assert np.isnan(index.bounds[dead]).all()


def assert_index_is_fresh_after_compaction(space):
    """Removing half the live keys and adding none compacts the index,
    which then holds exactly the survivors."""
    index = space._index
    live = sorted(index.rows)
    removed = live[: len(live) // 2 + 1]
    child = index.derive(removed, [])
    survivors = live[len(removed) :]
    assert sorted(child.rows) == survivors
    assert len(child.keys) <= 2 * len(child.rows)
    for key in survivors:
        assert np.array_equal(child.bounds[child.rows[key]], index.bounds[index.rows[key]])


def checked_queries() -> ExitStack:
    """Patch every index query and tracker step to check itself against
    its brute-force oracle."""
    crossing = _SupportIndex.crossing
    nested_pairs = _SupportIndex.nested_pairs
    update = _NestedTracker.update
    select_outer = _NestedTracker.select_outer

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

    def checked_update(self, removed, added, space):
        update(self, removed, added, space)
        assert self.by_outer == _NestedTracker(space).by_outer

    def checked_select_outer(self):
        got = select_outer(self)
        assert got == min(self.by_outer, key=_rank)
        return got

    stack = ExitStack()
    stack.enter_context(patch.object(_SupportIndex, "crossing", checked_crossing))
    stack.enter_context(patch.object(_SupportIndex, "nested_pairs", checked_nested_pairs))
    stack.enter_context(patch.object(_NestedTracker, "update", checked_update))
    stack.enter_context(patch.object(_NestedTracker, "select_outer", checked_select_outer))
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
    with checked_queries():
        for i, (kind, seed) in enumerate(steps, start=1):
            rng = random.Random(seed)
            keys = space.sorted_keys()
            marked = set(rng.sample(keys, rng.randint(1, max(1, len(keys) // 4))))
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
            assert_index_is_fresh(space)
            assert_index_is_fresh_after_compaction(space)


def test_tensor_spaces_build_no_index(monkeypatch):
    # The tensor path never refines, so it must never pay for an index.
    calls = []

    def counting(keys):
        calls.append(len(keys))
        return _support_bounds(keys)

    monkeypatch.setattr(space_module, "_support_bounds", counting)
    for level in range(1, 8):
        space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2**level))
        assert space._index is None
        space = tensor_space_for_level(level)
        assert space._index is None
    assert calls == []


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
