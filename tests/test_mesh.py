"""Mesh model: tiling, line insertion, invariants.

The tiler is checked against an independent flood-fill reconstruction
(see conftest) before anything else relies on it.
"""
import functools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    build_mesh,
    flood_fill_elements,
    flood_fill_tiles,
    key_of,
    local_tensor_space,
    random_pipeline_space,
)
from lrbsplines.dyadic import dyadic, midpoint
from lrbsplines.mesh import (
    MeshError,
    Rect,
    Split,
    _build_mesh,
    insert_split,
    is_tensorized,
    make_initial_mesh,
)
from lrbsplines.space import apply_split, initial_space, structured_refine


def corner_key(rect):
    """Sort key of an element: lower-left corner first, then upper-right."""
    return (rect.x_min, rect.y_min, rect.x_max, rect.y_max)


def assert_elements_match_oracle(mesh):
    got = {
        (r.x_min, r.x_max, r.y_min, r.y_max)
        for r in mesh.elements()
    }
    assert got == flood_fill_elements(mesh)


def assert_grid_elements_match_oracle(mesh):
    """A tensor mesh defers its tiling to the first ``elements()`` call;
    the grid it builds then must be the oracle's tiling, in corner-key
    order (that order feeds support tables and collocation points)."""
    assert mesh._elements is None, "tensor mesh tiled before it was read"
    elems = mesh.elements()
    boxes = mesh._elements
    assert_elements_match_oracle(mesh)
    keys = [corner_key(e) for e in elems]
    assert keys == sorted(keys)
    assert mesh.elements() == elems
    assert mesh._elements is boxes


# -- oracle agreement first --------------------------------------------------


def test_elements_match_flood_fill_on_tensor_meshes():
    for bidegree in ((2, 2), (1, 1), (3, 2)):
        for cells in ((1, 1), (2, 2), (4, 4), (2, 8), (8, 2), (8, 8)):
            mesh = make_initial_mesh((0, 1, 0, 2), bidegree, cells)
            assert_grid_elements_match_oracle(mesh)
            assert len(mesh.elements()) == cells[0] * cells[1]
    # the knot lines of one bidegree (3, 3) function, [0, 1, 1, 2, 3] x
    # [0, 0.25, 0.25, 0.25, 1]: interior double knot in x, triple knot in
    # y; boundary not open
    knot_lines = [(1, x, 0, 1, m) for x, m in ((0, 1), (1, 2), (2, 1), (3, 1))]
    knot_lines += [(2, y, 0, 3, m) for y, m in ((0, 1), (0.25, 3), (1, 1))]
    knot_mesh = build_mesh((0, 3, 0, 1), (3, 3), knot_lines, require_open=False, boundary=False)
    assert knot_mesh.runs_at(1, dyadic(1))[0][2] == 2
    assert_grid_elements_match_oracle(knot_mesh)
    assert len(knot_mesh.elements()) == 3 * 2
    # the QI's local tensor space of a function with a double knot
    local = local_tensor_space(key_of((0, 0.5, 0.5, 1), (0.25, 0.5, 0.75, 1))).mesh
    assert_grid_elements_match_oracle(local)
    assert len(local.elements()) == 2 * 3


def test_partial_line_meshes_are_tiled_and_checked_when_built(mixed_mesh):
    assert mixed_mesh._elements is not None
    # two half lines cut out the lower-left quarter and leave an L shape
    with pytest.raises(MeshError, match="tile"):
        build_mesh((0, 2, 0, 2), (2, 2), [(1, 1, 0, 1), (2, 1, 0, 1)])


def _true_runs(mask):
    """The maximal runs ``(lo, hi)`` of true entries of ``mask``: entry
    ``c`` stands for the unit span ``[c, c + 1]``."""
    runs, start = [], None
    for c, on in enumerate(list(mask) + [False]):
        if on and start is None:
            start = c
        elif not on and start is not None:
            runs.append((start, c))
            start = None
    return runs


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_tiling_accepts_exactly_the_line_sets_the_flood_fill_accepts(data):
    """Random interior segments on a small integer grid, with the open
    boundary: the mesh is refused exactly when the lines do not tile the
    domain, a dangling segment included, and otherwise its elements are
    the flood fill's components."""
    nx, ny = data.draw(st.integers(2, 6)), data.draw(st.integers(2, 6))
    xs, ys = range(nx), range(ny)
    lines = []
    for direction, fixed, cross in ((1, xs, ys), (2, ys, xs)):
        for pos in fixed[1:-1]:
            n = len(cross) - 1
            mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            lines += [(direction, pos, lo, hi) for lo, hi in _true_runs(mask)]
    boundary = [(1, 0, 0, ny - 1), (1, nx - 1, 0, ny - 1), (2, 0, 0, nx - 1), (2, ny - 1, 0, nx - 1)]
    expected = flood_fill_tiles(xs, ys, lines + boundary)
    try:
        mesh = build_mesh((0, nx - 1, 0, ny - 1), (2, 2), lines)
        got = {corner_key(e) for e in mesh.elements()}
    except MeshError as exc:
        assert expected is None, exc
        assert "is not a mesh vertex" in str(exc) or "do not tile the domain into rectangles near" in str(exc)
        return
    assert expected is not None
    assert got == {(x0, y0, x1, y1) for x0, x1, y0, y1 in expected}


def test_elements_match_flood_fill_on_partial_line_mesh(mixed_mesh):
    assert_elements_match_oracle(mixed_mesh)


def test_elements_match_flood_fill_on_randomized_meshes():
    for seed in range(12):
        mesh = random_pipeline_space(seed, iterations=2).mesh
        assert_elements_match_oracle(mesh)


def test_elements_match_flood_fill_under_incremental_insertion():
    space = initial_space(make_initial_mesh((0, 8, 0, 8), (2, 2), 2))
    mesh = space.mesh
    rng = random.Random(3)
    for _ in range(12):
        elements = mesh.elements()
        target = rng.choice(elements)
        x0, x1, y0, y1 = target.x_min, target.x_max, target.y_min, target.y_max
        if rng.random() < 0.5:
            mid = dyadic((x0 + x1) / 2)
            split = Split.make(1, mid, target.y_min, target.y_max)
        else:
            mid = dyadic((y0 + y1) / 2)
            split = Split.make(2, mid, target.x_min, target.x_max)
        mesh = insert_split(mesh, split)
        assert_elements_match_oracle(mesh)


# -- constructors ------------------------------------------------------------


def test_initial_mesh_counts_and_openness():
    mesh = make_initial_mesh((0, 1, 0, 1), (2, 3), 4)
    assert len(mesh.elements()) == 16
    assert mesh.bidegree == (2, 3)
    for direction, degree in ((1, 2), (2, 3)):
        lo, hi = mesh.domain.interval(direction)
        for pos in (lo, hi):
            runs = mesh.runs_at(direction, pos)
            assert len(runs) == 1
            assert runs[0][2] == degree + 1


def test_initial_mesh_rectangular_cell_counts():
    mesh = make_initial_mesh((0, 1, 0, 2), (2, 2), (2, 4))
    assert len(mesh.elements()) == 8


def test_initial_mesh_rejects_non_dyadic_widths():
    with pytest.raises(MeshError):
        make_initial_mesh((0, 1, 0, 1), (2, 2), 3)


def test_build_mesh_rejects_multiplicity_above_cap():
    with pytest.raises(MeshError):
        build_mesh((0, 2, 0, 2), (2, 2), [(1, 1, 0, 2, 4)])


def test_build_mesh_requires_open_boundary_by_default():
    with pytest.raises(MeshError):
        build_mesh(
            (0, 2, 0, 2),
            (2, 2),
            [
                (1, 0, 0, 2, 2),
                (1, 2, 0, 2, 3),
                (2, 0, 0, 2, 3),
                (2, 2, 0, 2, 3),
            ],
            boundary=False,
        )


# -- insert_split ------------------------------------------------------------


def test_insert_into_tensor_mesh_never_read():
    cases = [
        (Split.make(1, 0.5, 0, 2), 18),  # partial: bisects two cells
        (Split.make(2, 3.5, 0, 4), 20),  # full width: bisects a row
        (Split.make(1, 2, 0, 4, multiplicity=2), 16),  # raises a multiplicity
    ]
    for split, n_elements in cases:
        fresh = make_initial_mesh((0, 4, 0, 4), (2, 2), 4)
        read = make_initial_mesh((0, 4, 0, 4), (2, 2), 4)
        read.elements()
        assert fresh._elements is None
        refined = insert_split(fresh, split)
        expected = insert_split(read, split)
        assert refined == expected
        assert refined.elements() == expected.elements()
        assert len(refined.elements()) == n_elements
        assert_elements_match_oracle(refined)
        keys = [corner_key(e) for e in refined.elements()]
        assert keys == sorted(keys)


def _with_midpoints(values):
    return sorted(set(values) | {midpoint(a, b) for a, b in zip(values, values[1:])})


def _oracle_accepts(tiles, runs, d, pos, lo, hi):
    """The pre-insertion tiles straddling ``pos`` that meet (lo, hi) chain
    from lo to hi, and the span abuts no run of another multiplicity."""
    pos_ax, cross_ax = (0, 2) if d == 1 else (2, 0)
    chain = sorted(
        (t[cross_ax], t[cross_ax + 1])
        for t in tiles
        if t[pos_ax] < pos < t[pos_ax + 1] and t[cross_ax] < hi and lo < t[cross_ax + 1]
    )
    if not chain or chain[0][0] != lo or chain[-1][1] != hi:
        return False
    if any(a[1] != b[0] for a, b in zip(chain, chain[1:])):
        return False
    return all(r[2] == 1 for r in runs if r[1] == lo or r[0] == hi)


def test_insert_accepts_exactly_the_spans_that_chain_across_elements(mixed_mesh):
    """Insertion decides anchoring from the lines alone; the decision must
    be the one the tiling gives, on every uncovered candidate span.  It
    must also be construction's: the mesh built from the lines plus the
    split is the inserted one, and is refused when insertion refuses."""
    meshes = [random_pipeline_space(seed, iterations=2).mesh for seed in range(6)]
    n_accepted = n_rejected = 0
    for mesh in meshes + [mixed_mesh]:
        tiles = flood_fill_elements(mesh)
        lines = mesh.lines()

        def built(split):
            return _build_mesh(mesh.domain, mesh.bidegree, lines + (split,), require_open=False)

        for d in (1, 2):
            crosses = _with_midpoints(mesh.positions(2 if d == 1 else 1))
            for pos in _with_midpoints(mesh.positions(d)):
                runs = mesh.runs_at(d, pos)
                for i, lo in enumerate(crosses):
                    for hi in crosses[i + 1 :]:
                        if any(r[0] < hi and lo < r[1] for r in runs):
                            continue
                        split = Split(d, pos, lo, hi, 1)
                        if not _oracle_accepts(tiles, runs, d, pos, lo, hi):
                            with pytest.raises(MeshError):
                                insert_split(mesh, split)
                            with pytest.raises(MeshError):
                                built(split)
                            n_rejected += 1
                            continue
                        refined = insert_split(mesh, split)
                        assert refined._elements is None
                        assert_elements_match_oracle(refined)
                        assert refined == built(split)
                        n_accepted += 1
    assert n_accepted > 1000 and n_rejected > 4000


def test_refined_meshes_are_tiled_when_first_read():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    candidates = [
        structured_refine(space, space.sorted_keys()[:1]).mesh,
        random_pipeline_space(1, iterations=2).mesh,
    ]
    for mesh in candidates:
        assert not (is_tensorized(mesh, 1) and is_tensorized(mesh, 2))
        assert mesh._elements is None, "refined mesh tiled before it was read"
        # a multiplicity raise before the first read leaves both untiled
        pos = next(p for p in mesh.positions(1) if mesh.runs_at(1, p)[0][2] == 1)
        lo, hi, _ = mesh.runs_at(1, pos)[0]
        raise_split = Split(1, pos, lo, hi, 1)
        assert insert_split(mesh, raise_split)._elements is None
        elems = mesh.elements()
        boxes = mesh._elements
        assert_elements_match_oracle(mesh)
        keys = [corner_key(e) for e in elems]
        assert keys == sorted(keys)
        assert mesh._elements is boxes
        # a multiplicity raise after it keeps the parent's tiling
        assert insert_split(mesh, raise_split)._elements is boxes


def test_insert_bisects_only_traversed_elements():
    mesh = make_initial_mesh((0, 4, 0, 4), (2, 2), 2)
    refined = insert_split(mesh, Split.make(1, 1, 0, 2))
    assert len(refined.elements()) == 5
    assert_elements_match_oracle(refined)


def test_insert_full_line_bisects_a_row_of_elements():
    mesh = make_initial_mesh((0, 4, 0, 4), (2, 2), 2)
    refined = insert_split(mesh, Split.make(2, 1, 0, 4))
    assert len(refined.elements()) == 6


def test_insert_rejects_dangling_span():
    mesh = make_initial_mesh((0, 4, 0, 4), (2, 2), 2)
    # stops in the middle of an element
    with pytest.raises(MeshError):
        insert_split(mesh, Split.make(1, 1, 0, 1))


def test_insert_rejects_span_not_anchored_on_corners():
    mesh = make_initial_mesh((0, 4, 0, 4), (2, 2), 2)
    with pytest.raises(MeshError):
        insert_split(mesh, Split.make(1, 1, 1, 3))


def test_insert_extends_existing_line():
    mesh = make_initial_mesh((0, 4, 0, 4), (2, 2), 2)
    mesh = insert_split(mesh, Split.make(1, 1, 0, 2))
    mesh = insert_split(mesh, Split.make(1, 1, 2, 4))
    runs = mesh.runs_at(1, dyadic(1))
    assert runs == ((dyadic(0), dyadic(4), 1),)


def test_insert_raises_multiplicity_on_exact_run():
    mesh = make_initial_mesh((0, 4, 0, 4), (2, 2), 2)
    raised = insert_split(mesh, Split.make(1, 2, 0, 4, multiplicity=2))
    runs = raised.runs_at(1, dyadic(2))
    assert runs == ((dyadic(0), dyadic(4), 3),)
    assert len(raised.elements()) == len(mesh.elements())


def test_insert_rejects_partial_multiplicity_raise():
    mesh = make_initial_mesh((0, 4, 0, 4), (2, 2), 2)
    with pytest.raises(MeshError):
        insert_split(mesh, Split.make(1, 2, 0, 2, multiplicity=2))


def test_insert_rejects_multiplicity_beyond_cap():
    mesh = make_initial_mesh((0, 4, 0, 4), (2, 2), 2)
    raised = insert_split(mesh, Split.make(1, 2, 0, 4, multiplicity=2))
    with pytest.raises(MeshError, match="exceeds the cap 3"):
        insert_split(raised, Split.make(1, 2, 0, 4, multiplicity=1))


def test_insert_rejects_a_new_split_beyond_the_cap():
    # an entirely new line is capped as a raised one is; at the cap it
    # is accepted
    mesh = make_initial_mesh((0, 4, 0, 4), (2, 2), 4)
    too_many = Split.make(1, 0.5, 0, 4, multiplicity=7)
    with pytest.raises(MeshError, match="multiplicity 7 exceeds the cap 3"):
        insert_split(mesh, too_many)
    with pytest.raises(MeshError, match="exceeds the cap"):
        apply_split(initial_space(mesh), too_many)
    with pytest.raises(MeshError, match="multiplicity 4 exceeds the cap 3"):
        insert_split(mesh, Split.make(2, 0.5, 0, 4, multiplicity=4))
    full = insert_split(mesh, Split.make(1, 0.5, 0, 4, multiplicity=3))
    assert full.runs_at(1, dyadic(0.5)) == ((dyadic(0), dyadic(4), 3),)


# -- only coordinates enter a mesh ------------------------------------------


def test_apply_split_rejects_a_raw_float_split():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2))
    with pytest.raises(MeshError, match=r"Split\.fixed must be DyadicCoord.*Split\.make"):
        apply_split(space, Split(1, 0.25, 0.0, 1.0))
    # the coerced split is accepted
    assert apply_split(space, Split.make(1, 0.25, 0.0, 1.0)).n_functions > space.n_functions


def test_insert_rejects_a_non_dyadic_float_split():
    mesh = make_initial_mesh((0, 1, 0, 1), (2, 2), 2)
    with pytest.raises(MeshError, match=r"Split\.fixed must be DyadicCoord"):
        insert_split(mesh, Split(1, 0.1, dyadic(0), dyadic(1)))
    with pytest.raises(ValueError):
        Split.make(1, 0.1, 0, 1)


@pytest.mark.parametrize(
    "split, field",
    [
        (Split(True, dyadic(0.25), dyadic(0), dyadic(1)), "direction"),
        (Split(1.0, dyadic(0.25), dyadic(0), dyadic(1)), "direction"),
        (Split(1, dyadic(0.25), dyadic(0), dyadic(1), 1.0), "multiplicity"),
        (Split(1, dyadic(0.25), dyadic(0), dyadic(1), True), "multiplicity"),
        (Split(1, dyadic(0.25), 0.0, dyadic(1)), "lo"),
        (Split(1, dyadic(0.25), dyadic(0), 1), "hi"),
    ],
)
def test_insert_names_the_field_that_is_not_a_coordinate_or_int(split, field):
    mesh = make_initial_mesh((0, 1, 0, 1), (2, 2), 2)
    with pytest.raises(MeshError, match=rf"Split\.{field} must be"):
        insert_split(mesh, split)


@pytest.mark.parametrize(
    "args, field",
    [
        ((1.7, 0.5, 0, 1), "direction"),
        ((True, 0.5, 0, 1), "direction"),
        (("1", 0.5, 0, 1), "direction"),
        ((1, 0.5, 0, 1, 2.9), "multiplicity"),
        ((1, 0.5, 0, 1, False), "multiplicity"),
    ],
)
def test_split_make_refuses_a_non_integral_direction_or_multiplicity(args, field):
    # int() would truncate 1.7 to direction 1 and 2.9 to multiplicity 2
    with pytest.raises(MeshError, match=rf"Split\.{field} must be an integer"):
        Split.make(*args)


def test_split_make_converts_integral_numbers():
    split = Split.make(2.0, 0.5, 0, 1, 2.0)
    assert split == Split(2, dyadic(1, 1), dyadic(0), dyadic(1), 2)
    assert type(split.direction) is int and type(split.multiplicity) is int


@pytest.mark.parametrize("n_cells", [2.5, True, (2.0, 2), (2, True), (2, 2, 2), (2,), "22", None])
def test_make_initial_mesh_refuses_cell_counts_that_are_not_integers(n_cells):
    with pytest.raises(MeshError, match=r"n_cells must be an int or a pair of ints"):
        make_initial_mesh((0, 1, 0, 1), (2, 2), n_cells)


@pytest.mark.parametrize(
    "bounds, bidegree, field",
    [
        ((0, 1, 0, 1), (True, 2), "bidegree"),  # built a 12-function space
        ((0, 1, 0, 1), (2.5, 2), "bidegree"),  # named Split.multiplicity
        ((0, 1, 0, 1), 2, "bidegree"),  # a bare unpacking TypeError
        ((0, True, 0, 1), (2, 2), "bounds"),  # a bare TypeError from dyadic
        ((0, 1, 0), (2, 2), "bounds"),
        ((0, 0.1, 0, 1), (2, 2), "bounds"),
    ],
)
def test_make_initial_mesh_refuses_bidegrees_and_bounds_of_the_wrong_type(bounds, bidegree, field):
    with pytest.raises(MeshError, match=rf"^{field} must be"):
        make_initial_mesh(bounds, bidegree, 2)


def test_repr_of_an_untiled_mesh_leaves_it_untiled():
    # A 6000 x 6000 tensor mesh builds because its tiling waits for the
    # first read; that tiling is above the cap, so a repr that counted
    # the elements would raise.
    mesh = make_initial_mesh((0, 6000, 0, 6000), (1, 1), 6000)
    start = time.perf_counter()
    text = repr(mesh)
    assert time.perf_counter() - start < 1.0
    assert mesh._elements is None
    assert text == "<Mesh [0, 6000] x [0, 6000] bidegree (1, 1): 12002 lines>"
    small = make_initial_mesh((0, 1, 0, 1), (2, 2), 2)
    assert "elements" not in repr(small)
    small.element_boxes()
    assert repr(small) == "<Mesh [0, 1] x [0, 1] bidegree (2, 2): 6 lines, 4 elements>"


def test_make_initial_mesh_rejects_a_raw_float_rect():
    with pytest.raises(MeshError, match=r"Rect\.x_min must be DyadicCoord.*Rect\.from_bounds"):
        make_initial_mesh(Rect(0.0, 1.0, 0.0, 1.0), (2, 2), 2)
    with pytest.raises(MeshError, match=r"Rect\.y_max"):
        Rect(dyadic(0), dyadic(1), dyadic(0), 1)
    mesh = make_initial_mesh(Rect.from_bounds((0.0, 1.0, 0.0, 1.0)), (2, 2), 2)
    assert mesh == make_initial_mesh((0, 1, 0, 1), (2, 2), 2)


def test_constant_splits_runs_disjoint_and_non_abutting():
    for seed in range(8):
        mesh = random_pipeline_space(seed, iterations=2).mesh
        for direction in (1, 2):
            for pos in mesh.positions(direction):
                runs = mesh.runs_at(direction, pos)
                for (lo1, hi1, m1), (lo2, hi2, m2) in zip(runs, runs[1:]):
                    assert hi1 < lo2, "runs abut or overlap"


# -- queries -----------------------------------------------------------------


def test_is_tensorized():
    mesh = make_initial_mesh((0, 1, 0, 1), (2, 2), 4)
    assert is_tensorized(mesh, 1) and is_tensorized(mesh, 2)
    partial = insert_split(mesh, Split.make(1, dyadic(1, 3), 0, dyadic(1, 1)))
    assert not is_tensorized(partial, 1)
    assert is_tensorized(partial, 2)


def test_covering_run_lookup(mixed_mesh):
    run = mixed_mesh.covering_run(1, dyadic(2), dyadic(4), dyadic(6))
    assert run is not None and run[2] == 1
    assert mixed_mesh.covering_run(1, dyadic(2), dyadic(0), dyadic(2)) is None


def scanned_run(mesh, direction, pos, lo, hi):
    """The run at ``pos`` containing ``[lo, hi]``, by a linear scan."""
    for run in mesh.runs_at(direction, pos):
        if run[0] <= lo and hi <= run[1]:
            return run
    return None


@functools.lru_cache(maxsize=None)
def lookup_meshes():
    """Refined meshes with partial lines, and one with interior lines of
    multiplicity above one."""
    meshes = [random_pipeline_space(seed, iterations=2, bidegree=(2, 3)).mesh for seed in range(3)]
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (3, 2), 2))
    meshes.append(structured_refine(space, space.sorted_keys()[:3]).mesh)
    meshes.append(build_mesh((0, 8, 0, 8), (2, 2), [(1, 4, 0, 8, 2), (2, 4, 0, 4, 3), (1, 2, 0, 4)]))
    return meshes


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_covering_run_equals_a_linear_scan(data):
    meshes = lookup_meshes()
    mesh = meshes[data.draw(st.integers(0, len(meshes) - 1))]
    direction = data.draw(st.sampled_from((1, 2)))
    positions = mesh.positions(direction)
    cross = mesh.positions(2 if direction == 1 else 1)
    between = [midpoint(a, b) for a, b in zip(cross, cross[1:])]
    # positions that carry lines, and one that carries none
    pos = data.draw(st.sampled_from(positions + (midpoint(positions[0], positions[1]),)))
    lo, hi = sorted(data.draw(st.lists(st.sampled_from(cross + tuple(between)), min_size=2, max_size=2)))
    assert mesh.covering_run(direction, pos, lo, hi) == scanned_run(mesh, direction, pos, lo, hi)


def test_mesh_equality_ignores_insertion_history():
    a = make_initial_mesh((0, 4, 0, 4), (2, 2), 2)
    a = insert_split(a, Split.make(1, 1, 0, 2))
    a = insert_split(a, Split.make(1, 1, 2, 4))
    b = make_initial_mesh((0, 4, 0, 4), (2, 2), 2)
    b = insert_split(b, Split.make(1, 1, 0, 4))
    assert a == b
    assert hash(a) == hash(b)
