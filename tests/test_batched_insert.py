"""A refinement's meshline insertion edits one private mesh in place.

``space._insert_pieces`` gap-decomposes a call's pieces and inserts every
gap into a mesh by ``Mesh._insert``; a refinement state does so on its
own ``Mesh._copy()`` of the mesh it starts from.  On random pipeline
states and random piece lists -- pieces that overlap
each other, coincide with an existing run, raise a multiplicity, stop
off the lines or leave the domain -- it must give what a fresh
``insert_split`` per split gives (``conftest.insert_pieces_per_split``):
the same lines, tiling and inserted splits, or the same ``MeshError``,
and the tiling must be the one the lines give afresh.
A copy fed splits directly, raises included, must agree with an
``insert_split`` loop the same way.  Neither may touch the mesh the
copy is made from.

The edits never leak: ``insert_split`` and ``apply_split`` leave their
input mesh's run dicts, positions and tiling as they were, and each
space ``n2s_pipeline`` returns keeps the lines it had when its
iteration ended, while later iterations edit the state's mesh.
"""
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import insert_pieces_per_split, random_pipeline_space, random_split
from lrbsplines import space as space_module
from lrbsplines.dyadic import dyadic, midpoint
from lrbsplines.mesh import MeshError, Split, _build_mesh, insert_split, make_initial_mesh
from lrbsplines.refine import EXPANSIONS, diagonal_marker, n2s_pipeline, point_marker
from lrbsplines.space import SpaceError, apply_split, initial_space

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
    def batched(m):
        copy = m._copy()
        return copy, space_module._insert_pieces(copy, pieces)

    got = outcome(batched, mesh)
    assert got == outcome(lambda m: insert_pieces_per_split(m, pieces), mesh)


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**32), iterations=st.integers(1, 2), picks=picks_strategy)
def test_one_working_copy_equals_an_insert_split_loop(seed, iterations, picks):
    # The splits go in as they are, so a run's copy raises its
    # multiplicity, up to the cap or past it, and a raise-only batch
    # keeps the parent's tiling.
    mesh, splits = random_state(seed, iterations, picks)

    def batched(m):
        copy = m._copy()
        for split in splits:
            copy._insert(split)
        return copy, splits

    def looped(m):
        for split in splits:
            m = insert_split(m, split)
        return m, splits

    assert outcome(batched, mesh) == outcome(looped, mesh)



def internals(mesh):
    """The mesh's run dicts, position dict and tiling, and copies of the
    first two, to tell an edit in place from a replaced field."""
    runs, positions = mesh._runs, mesh._positions
    return (runs, {d: dict(runs[d]) for d in (1, 2)}), (positions, dict(positions)), mesh._elements


def assert_untouched(mesh, before):
    (runs, runs_copy), (positions, positions_copy), elements = before
    assert mesh._runs is runs and all(mesh._runs[d] == runs_copy[d] for d in (1, 2))
    assert mesh._positions is positions and mesh._positions == positions_copy
    assert mesh._elements is elements


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32), iterations=st.integers(1, 2), tile=st.booleans(), picks=picks_strategy)
def test_insert_split_and_apply_split_leave_their_input_mesh_alone(seed, iterations, tile, picks):
    rng = random.Random(seed)
    space = random_pipeline_space(seed % 40, iterations=iterations)
    if tile:
        space.mesh.element_boxes()
    mesh = space.mesh
    before = internals(mesh)
    splits = [p for kind, s in picks for p in random_pieces(random.Random(s), space, kind)]
    splits.append(random_split(rng, space))
    for split in filter(None, splits):
        for call in (lambda: insert_split(mesh, split), lambda: apply_split(space, split)):
            try:
                refined = call()
            except (MeshError, SpaceError):
                refined = None
            assert_untouched(mesh, before)
            if refined is not None:
                refined = getattr(refined, "mesh", refined)
                assert refined._runs[1] is not mesh._runs[1] and refined._runs[2] is not mesh._runs[2]


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**32),
    iterations=st.integers(2, 4),
    expansion=st.sampled_from(EXPANSIONS),
    bidegree=st.sampled_from([(1, 1), (2, 2), (3, 2)]),
    n_cells=st.integers(1, 2),
    tile=st.booleans(),
)
def test_pipeline_spaces_keep_their_lines_as_later_iterations_run(
    seed, iterations, expansion, bidegree, n_cells, tile
):
    # Every space equals the last of a separate run that stops at its
    # iteration: lines, positions, tiling and functions.  The diagonal
    # keeps every iteration's marking nonempty; the points vary it.
    rng = random.Random(seed)
    points = point_marker([(rng.random(), rng.random()) for _ in range(rng.randint(0, 3))])
    marker = lambda key: diagonal_marker(key) or points(key)  # noqa: E731
    space = initial_space(make_initial_mesh((0, 1, 0, 1), bidegree, n_cells))
    if tile:
        space.mesh.element_boxes()
    before = internals(space.mesh)
    spaces, _ = n2s_pipeline(space, marker, iterations, expansion=expansion)
    assert_untouched(space.mesh, before)
    tilings = [s.mesh._elements for s in spaces]
    for j, got in enumerate(spaces, start=1):
        want = n2s_pipeline(space, marker, j, expansion=expansion)[0][-1]
        assert got.mesh.lines() == want.mesh.lines()
        assert all(got.mesh.positions(d) == want.mesh.positions(d) for d in (1, 2))
        assert got.functions == want.functions
        fresh = _build_mesh(got.mesh.domain, got.mesh.bidegree, got.mesh.lines()).element_boxes()
        assert np.array_equal(got.mesh.element_boxes(), fresh)
        assert np.array_equal(got.mesh.element_boxes(), want.mesh.element_boxes())
        assert tilings[j - 1] is None or tilings[j - 1] is got.mesh._elements
        for other in spaces[j:]:
            assert all(got.mesh._runs[d] is not other.mesh._runs[d] for d in (1, 2))
            assert got.mesh._positions is not other.mesh._positions
