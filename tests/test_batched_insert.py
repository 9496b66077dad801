"""A refinement's meshline insertion edits one working copy of the lines.

``space._insert_pieces`` gap-decomposes a call's pieces and inserts every
gap into one ``mesh._LineEdit``, building one new mesh at the end.  On
random pipeline states and random piece lists -- pieces that overlap
each other, coincide with an existing run, raise a multiplicity, stop
off the lines or leave the domain -- it must give what a fresh
``insert_split`` per split gives (``conftest.insert_pieces_per_split``):
the same lines, tiling and inserted splits, or the same ``MeshError``,
and the tiling must be the one the lines give afresh.
The working copy fed splits directly, raises included, must agree with
an ``insert_split`` loop the same way.  Neither may touch the mesh it
starts from.
"""
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import insert_pieces_per_split, random_pipeline_space
from lrbsplines import space as space_module
from lrbsplines.dyadic import dyadic, midpoint
from lrbsplines.mesh import MeshError, Split, _build_mesh, _LineEdit, insert_split

# the kinds of piece drawn; one bad piece fails a whole list, so the
# kinds that fail are drawn less often
KINDS = ("support",) * 4 + ("overlap",) * 2 + ("run", "raise", "unanchored", "outside")


def random_pieces(rng, space, kind):
    """Pieces of the given kind on the space's mesh: one, or for
    ``overlap`` a support's piece and a sub-span of it."""
    mesh = space.mesh
    if kind in ("run", "raise"):
        run = rng.choice(mesh.lines())
        mult = rng.randint(1, mesh.bidegree[run.direction - 1] + 1) if kind == "raise" else 1
        return [run._replace(multiplicity=mult)]
    key = rng.choice(space.sorted_keys())
    direction = rng.choice((1, 2))
    vec, cross = key[direction - 1], key[2 - direction]
    distinct = sorted(set(vec))
    i = rng.randrange(len(distinct) - 1)
    piece = Split(direction, midpoint(distinct[i], distinct[i + 1]), cross[0], cross[-1])
    ends = sorted(set(cross))
    j = rng.randrange(len(ends) - 1)
    if kind == "overlap":
        return [piece, piece._replace(lo=ends[j], hi=ends[rng.randrange(j + 1, len(ends))])]
    if kind == "unanchored":
        return [piece._replace(lo=midpoint(ends[j], ends[j + 1]))]
    if kind == "outside":
        return [piece._replace(hi=dyadic(2))]
    return [piece]


def random_state(seed, iterations, picks):
    """A pipeline space's mesh, tiled or not, and a piece list on it."""
    rng = random.Random(seed)
    space = random_pipeline_space(seed % 40, iterations=iterations)
    if rng.random() < 0.5:
        space.mesh.element_boxes()
    pieces = [p for kind, s in picks for p in random_pieces(random.Random(s), space, kind)]
    return space.mesh, pieces


def outcome(insert, mesh):
    """The lines, tiling and inserted splits of ``insert(mesh)``, and
    whether the result shares the parent's tiling, or the text of the
    error it raises.  The input mesh must come through untouched."""
    lines, positions, elements = mesh.lines(), (mesh.positions(1), mesh.positions(2)), mesh._elements
    try:
        result, inserted = insert(mesh)
    except MeshError as exc:
        result, found = None, str(exc)
    assert (mesh.lines(), (mesh.positions(1), mesh.positions(2))) == (lines, positions)
    assert mesh._elements is elements
    if result is None:
        return found
    # the tiling, kept or new, is the one its lines give afresh
    fresh = _build_mesh(result.domain, result.bidegree, result.lines())
    assert np.array_equal(result.element_boxes(), fresh.element_boxes())
    return result.lines(), result.element_boxes().tolist(), inserted, result._elements is elements


picks_strategy = st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 2**32)), min_size=1, max_size=8)


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**32), iterations=st.integers(1, 2), picks=picks_strategy)
def test_batched_insert_equals_a_fresh_insert_split_per_split(seed, iterations, picks):
    mesh, pieces = random_state(seed, iterations, picks)
    got = outcome(lambda m: space_module._insert_pieces(m, pieces), mesh)
    assert got == outcome(lambda m: insert_pieces_per_split(m, pieces), mesh)


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**32), iterations=st.integers(1, 2), picks=picks_strategy)
def test_one_working_copy_equals_an_insert_split_loop(seed, iterations, picks):
    # The splits go in as they are, so a run's copy raises its
    # multiplicity, up to the cap or past it, and a raise-only batch
    # keeps the parent's tiling.
    mesh, splits = random_state(seed, iterations, picks)

    def batched(m):
        edit = _LineEdit(m)
        for split in splits:
            edit.insert_split(split)
        return edit.mesh(), splits

    def looped(m):
        for split in splits:
            m = insert_split(m, split)
        return m, splits

    assert outcome(batched, mesh) == outcome(looped, mesh)

