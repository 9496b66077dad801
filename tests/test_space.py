"""LR spaces: generation, order independence, partition of unity, rank."""
import functools
import gc
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    collocation_matrix,
    element_support_count,
    element_support_table,
    key_of,
    random_pipeline_space,
    reference_values,
)
from lrbsplines.bspline import local_knot_vector
from lrbsplines.cli import run_mesh_demo
from lrbsplines.dyadic import dyadic
from lrbsplines.formats import load
from lrbsplines import space as space_module
from lrbsplines.mesh import Split, make_initial_mesh
from lrbsplines.poisson import error_norms
from lrbsplines.quasi import qi_max_error, tensor_space_for_level
from lrbsplines.refine import diagonal_marker, n2s_pipeline
from lrbsplines.space import (
    LRSpace,
    SpaceError,
    _elementwise_full_rank,
    apply_split,
    collocation_points,
    collocation_rank,
    evaluate_space,
    initial_space,
    is_locally_linearly_independent,
    partition_of_unity_defect,
    structured_refine,
)


def test_initial_space_is_the_tensor_basis():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    assert space.n_functions == 36
    assert all(w == Fraction(1) for w in space.functions.values())
    single = initial_space(make_initial_mesh((0, 1, 0, 1), (3, 2), 1))
    assert single.n_functions == (3 + 1) * (2 + 1)


def test_initial_space_matches_the_validating_constructor():
    for bidegree in ((1, 1), (2, 2), (3, 2)):
        mesh = make_initial_mesh((0, 1, 0, 2), bidegree, (4, 8))
        space = initial_space(mesh)
        space.validate()
        p1, p2 = bidegree
        assert space.n_functions == (4 + p1) * (8 + p2)
        for key, w in space.functions.items():
            reference = (local_knot_vector(key[0]), local_knot_vector(key[1]))
            assert reference == key and w == Fraction(1)
            assert w is space_module.ONE
        assert mesh._elements is None, "initial_space read the elements"


def test_initial_space_requires_tensor_mesh(running_example):
    with pytest.raises(SpaceError):
        initial_space(running_example["structured_1"].mesh)


def test_initial_space_footprint():
    # 130 x 130 = 16,900 functions, each a key tuple in one dict with the
    # shared weight ONE: about one GC-tracked object and 92 bytes each,
    # where a function object per key took two and 147.
    mesh = make_initial_mesh((0, 1, 0, 1), (2, 2), 128)
    gc.collect()
    before = len(gc.get_objects())
    space = initial_space(mesh)
    gc.collect()
    n = space.n_functions
    assert n == 16_900
    assert len(gc.get_objects()) - before <= 1.1 * n
    assert {id(w) for w in space.functions.values()} == {id(space_module.ONE)}
    del space
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        space = initial_space(mesh)
        assert tracemalloc.get_traced_memory()[0] - base <= 110 * n
    finally:
        if started:
            tracemalloc.stop()


def _with_function(space, key, weight) -> LRSpace:
    return LRSpace(space.mesh, {**space.functions, key: weight})


@pytest.mark.parametrize("weight", [Fraction(0), Fraction(-1), 1.0], ids=["zero", "negative", "float"])
def test_validate_rejects_a_weight_that_is_not_a_positive_fraction(weight):
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2))
    key = space.sorted_keys()[3]
    with pytest.raises(SpaceError, match="expected a positive Fraction") as info:
        _with_function(space, key, weight).validate()
    assert str(key) in str(info.value)


@pytest.mark.parametrize(
    "key, message",
    [
        (key_of((0, 0.5, 1), (0, 0.5, 1, 1)), "has degrees"),
        (key_of((0, 0.5, 0.25, 1), (0, 0.5, 1, 1)), "not nondecreasing"),
        (key_of((0, 0, 0, 0), (0, 0.5, 1, 1)), "nonempty interval"),
        (((0.0, 0.25, 0.5, 1.0), key_of((), (0, 0.5, 1, 1))[1]), "not a pair of knot vectors"),
        (key_of((0, 0.5, 1, 1), (0, 0.5, 1, 1)) + ((),), "not a pair of knot vectors"),
    ],
    ids=["degree", "decreasing", "empty-span", "floats", "triple"],
)
def test_validate_rejects_a_malformed_key(key, message):
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2))
    with pytest.raises(SpaceError, match=message) as info:
        _with_function(space, key, space_module.ONE).validate()
    assert repr(key) in str(info.value)


def test_apply_split_refines_crossed_functions():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2))
    refined = apply_split(space, Split.make(1, 0.25, 0, 0.5))
    assert refined.n_functions == space.n_functions + 1
    assert refined.mesh != space.mesh


def test_apply_split_rejects_line_that_refines_nothing():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    # this quarter-height piece is a legal mesh insertion but covers no
    # crossing function's full height
    with pytest.raises(SpaceError):
        apply_split(space, Split.make(1, dyadic(1, 3), 0.25, 0.5))


def test_structured_refinement_of_one_function(running_example):
    space = running_example["structured_1"]
    assert space.n_functions == 63
    assert len(space.mesh.elements()) == 43
    mesh = space.mesh
    # the inserted net: midlines of the marked function's knot spans,
    # spanning its full support
    for x in (0.125, 0.375, 0.625):
        runs = mesh.runs_at(1, dyadic(x))
        assert runs == ((dyadic(0.25), dyadic(1), 1),)
    for y in (0.375, 0.625, 0.875):
        runs = mesh.runs_at(2, dyadic(y))
        assert runs == ((dyadic(0), dyadic(0.75), 1),)


def test_second_structured_stage_loses_local_independence(running_example):
    space = running_example["structured_2"]
    assert space.n_functions == 78
    assert len(space.mesh.elements()) == 70
    assert not is_locally_linearly_independent(space)
    counts = [
        element_support_count(space, e) for e in space.mesh.elements()
    ]
    assert max(counts) == 14


def test_structured_refine_empty_marker_raises():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2))
    with pytest.raises((SpaceError, ValueError)):
        structured_refine(space, [])


def test_generation_is_insertion_order_independent():
    rng = random.Random(23)
    for _ in range(12):
        base = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2))
        # a compatible batch: dyadic quarters across distinct rows/columns
        splits = []
        for pos, lo, hi in (
            (0.25, 0, 0.5),
            (0.25, 0.5, 1),
            (0.75, 0, 1),
            (0.125, 0, 0.5),
        ):
            splits.append(Split.make(1, pos, lo, hi))
            splits.append(Split.make(2, pos, lo, hi))
        order_a = splits[:]
        order_b = splits[:]
        rng.shuffle(order_a)
        rng.shuffle(order_b)

        def fold(order):
            space = base
            pending = list(order)
            # apply in any feasible order: skip lines whose span is not
            # yet anchored and retry after others create the corners
            for _ in range(len(pending) ** 2 + 1):
                if not pending:
                    break
                nxt = []
                for s in pending:
                    try:
                        space = apply_split(space, s)
                    except Exception:
                        nxt.append(s)
                pending = nxt
            assert not pending, "some splits never became applicable"
            return space

        sa = fold(order_a)
        sb = fold(order_b)
        assert sa.mesh == sb.mesh
        assert sa.functions.keys() == sb.functions.keys()
        for key in sa.functions:
            assert sa.functions[key] == sb.functions[key]


def test_pipeline_spaces_have_nine_functions_per_element(running_example):
    for name in ("pipeline_1", "pipeline_2"):
        space = running_example[name]
        for element in space.mesh.elements():
            assert element_support_count(space, element) == 9
        assert is_locally_linearly_independent(space)
        assert all(w == Fraction(1) for w in space.functions.values())


def _dense_support_table(space):
    """``element_support_table`` as every element against every function:
    the chunked dense containment mask that the incidence replaced, kept
    as its oracle."""
    keys = space.sorted_keys()
    fb = space_module._support_bounds(keys)
    elems = space.mesh.elements()
    eb = np.array([(e.x_min, e.x_max, e.y_min, e.y_max) for e in elems], dtype=float)
    table = []
    chunk = max(1, space_module._CHUNK_ENTRIES // max(len(keys), 1))
    for start in range(0, len(elems), chunk):
        sub = eb[start : start + chunk]
        mask = (
            (fb[None, :, 0] <= sub[:, None, 0])
            & (fb[None, :, 1] >= sub[:, None, 1])
            & (fb[None, :, 2] <= sub[:, None, 2])
            & (fb[None, :, 3] >= sub[:, None, 3])
        )
        for row in mask:
            table.append(np.flatnonzero(row))
    return keys, table


def _assert_table_is_the_dense_mask(space):
    keys, table = element_support_table(space)
    dense_keys, dense = _dense_support_table(space)
    assert keys == dense_keys
    assert [row.tolist() for row in table] == [row.tolist() for row in dense]
    sizes = [len(row) for row in dense]
    p1, p2 = space.mesh.bidegree
    assert is_locally_linearly_independent(space) == (set(sizes) == {(p1 + 1) * (p2 + 1)})
    # The exact-coordinate count scans every function per element: on the
    # larger spaces, a stride of the elements keeps it to ~100k tests.
    stride = max(1, len(sizes) * space.n_functions // 100_000)
    elements = space.mesh.elements()[::stride]
    assert [element_support_count(space, e) for e in elements] == sizes[::stride]
    return sizes


@pytest.mark.parametrize("bidegree", [(1, 1), (2, 2), (3, 2)])
def test_support_table_is_the_dense_mask_on_tensor_spaces(bidegree):
    for level in range(1, 5):
        _assert_table_is_the_dense_mask(tensor_space_for_level(level, bidegree))
    # a non-unit domain with unequal cell widths, refined to a non-tensor mesh
    space = initial_space(make_initial_mesh((-1, 3, 0.5, 2), bidegree, (8, 4)))
    space = structured_refine(space, space.sorted_keys()[::7])
    _assert_table_is_the_dense_mask(space)


def test_support_table_is_the_dense_mask_on_refined_spaces(running_example, tmp_path):
    for seed, bidegree in ((0, (2, 2)), (1, (1, 1)), (2, (3, 2)), (3, (2, 2))):
        _assert_table_is_the_dense_mask(random_pipeline_space(seed, 3, bidegree=bidegree))
    assert max(_assert_table_is_the_dense_mask(running_example["structured_2"])) == 14
    run_mesh_demo(tmp_path, iterations=6)
    _assert_table_is_the_dense_mask(load(tmp_path / "space.json"))


def test_support_table_is_the_dense_mask_for_straddling_supports():
    # Supports whose edges cross elements: on the 4x4 mesh, knots at odd
    # eighths put every support edge inside an element, so the corner
    # probe meets elements that stick out of the support.
    mesh = make_initial_mesh((0, 1, 0, 1), (2, 2), 4)
    knots = [
        (0.125, 0.375, 0.625, 0.875),
        (0, 0.125, 0.5, 0.75),
        (0.25, 0.5, 0.75, 1),
        (0, 0, 0, 0.25),
    ]
    functions = {}
    for xv in knots:
        for yv in knots[::-1]:
            functions[key_of(xv, yv)] = Fraction(1)
    sizes = _assert_table_is_the_dense_mask(LRSpace(mesh, functions))
    assert min(sizes) < max(sizes)


def test_support_table_does_not_depend_on_the_chunk_size(monkeypatch, running_example):
    spaces = [
        running_example["pipeline_2"],
        initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 16)),
        random_pipeline_space(5, 2),
    ]
    for space in spaces:
        _assert_table_is_the_dense_mask(space)
    # 50 to 324 functions: chunks of 3 to 20 elements
    monkeypatch.setattr(space_module, "_CHUNK_ENTRIES", 1000)
    for space in spaces:
        _assert_table_is_the_dense_mask(space)


def test_local_independence_at_scale():
    # 66,564 functions: the incidence is O(nnz log n); the dense mask
    # needed one comparison per element and function.
    assert is_locally_linearly_independent(tensor_space_for_level(7))


def test_pipeline_stage_function_counts(running_example):
    assert running_example["pipeline_1"].n_functions == 69
    assert running_example["pipeline_2"].n_functions == 114


def test_weighted_partition_of_unity_everywhere():
    for seed in (0, 1, 2):
        space = random_pipeline_space(seed, iterations=2)
        assert partition_of_unity_defect(space, samples=40, use_weights=True) <= 1e-12


def test_unweighted_partition_only_after_expansion(running_example):
    dependent = running_example["structured_2"]
    independent = running_example["pipeline_2"]
    assert partition_of_unity_defect(dependent, use_weights=True) <= 1e-12
    assert partition_of_unity_defect(dependent, use_weights=False) > 0.1
    assert partition_of_unity_defect(independent, use_weights=False) <= 1e-12


def test_unity_defects_come_from_one_evaluation_pass(monkeypatch, running_example):
    space = running_example["structured_2"]  # weights are not all one
    separate = [partition_of_unity_defect(space, use_weights=w) for w in (True, False)]
    calls = []
    real = space_module._stacked_values

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(space_module, "_stacked_values", counting)
    both = space_module._unity_defects(space, 64, (True, False))
    one_pass = len(calls)
    calls.clear()
    partition_of_unity_defect(space, use_weights=True)
    assert one_pass == len(calls) > 0
    assert both == separate


def test_collocation_rank_full_on_independent_space(running_example):
    space = running_example["pipeline_1"]
    assert collocation_rank(space) == space.n_functions


def test_rank_deficient_fixture_has_defect_one(rank_deficient_space):
    space = rank_deficient_space
    assert space.n_functions == 60
    assert len(space.mesh.elements()) == 39
    assert collocation_rank(space) == space.n_functions - 1


def test_collocation_matrix_equals_one_kernel_call_per_function(
    running_example, rank_deficient_space, two_stage_dependent_space
):
    # Bit for bit, on the structured diagonal spaces of 1-4 iterations,
    # the structured running example and both dependent fixtures.
    spaces = [running_example["structured_2"], rank_deficient_space, two_stage_dependent_space]
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 1))
    for _ in range(4):
        space = structured_refine(space, [k for k in space.sorted_keys() if diagonal_marker(k)])
        spaces.append(space)
    for space in spaces:
        for seed in (0, 5):
            points = collocation_points(space, seed=seed)
            got = space_module._collocation_matrix(space, points)
            want = collocation_matrix(space, points)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _certified(space):
    """``verify``'s first two tiers: the support count, then the
    element-wise rank."""
    return is_locally_linearly_independent(space) and _elementwise_full_rank(space)


def test_elementwise_certificate_on_fixtures(running_example, rank_deficient_space):
    for name in ("base", "pipeline_1", "pipeline_2"):
        assert _certified(running_example[name])
    # Overloaded elements fail the support count before any rank is taken.
    assert not _certified(running_example["structured_2"])
    assert not _certified(rank_deficient_space)


def test_elementwise_certificate_sees_a_singular_element(monkeypatch, running_example):
    space = running_example["pipeline_2"]
    keys, counts, indices, bounds, windows = space_module._incidence(space)
    # The last element's matrix gets two equal columns, in the incidence
    # of a copy of the space, so the fixture's stays as it is.
    T = indices.reshape(-1, 9).copy()
    T[-1, 1] = T[-1, 0]
    singular = LRSpace(space.mesh, space.functions)
    singular._cached_incidence = keys, counts, T.ravel(), bounds, windows
    assert not _certified(singular)
    # 86 elements of 81 entries each: chunks of 12 elements
    monkeypatch.setattr(space_module, "_CHUNK_ENTRIES", 1000)
    assert not _certified(singular)
    assert _certified(space)


@st.composite
def refined_spaces(draw):
    """Small random spaces from structured refinement alone (often not
    locally independent) or from the n2s2 pipeline."""
    bidegree = draw(st.sampled_from([(1, 1), (2, 2), (3, 2)]))
    n_cells = draw(st.sampled_from([1, 2, 4]))
    strategy = draw(st.sampled_from(["structured", "n2s2"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    space = initial_space(make_initial_mesh((0, 1, 0, 1), bidegree, n_cells))
    for i in range(1, draw(st.integers(1, 3)) + 1):
        keys = space.sorted_keys()
        marked = set(rng.sample(keys, rng.randint(1, max(1, len(keys) // 4))))
        if strategy == "structured":
            space = structured_refine(space, marked)
        else:
            [space], _ = n2s_pipeline(space, lambda key: key in marked, 1, start_index=i)
    return strategy, space


@settings(max_examples=60, deadline=None)
@given(refined_spaces())
def test_elementwise_certificate_implies_full_collocation_rank(drawn):
    strategy, space = drawn
    certified = _certified(space)
    if certified:
        assert collocation_rank(space) == space.n_functions
    # Locally independent spaces, which the pipeline guarantees, pass.
    assert certified == is_locally_linearly_independent(space)
    if strategy == "n2s2":
        assert certified


def test_evaluate_space_reproduces_polynomials_on_tensor_space():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4))
    # Greville interpolation of a biquadratic is exact; sample agreement
    from lrbsplines.quasi import lr_qi

    def g(x, y):
        return (1 + 2 * x - y) ** 2 * 0.125 + x * y

    coeffs = lr_qi(space, g)
    xs = np.linspace(0, 1, 33)
    ys = np.linspace(0, 1, 29)
    vals = evaluate_space(space, coeffs, xs, ys)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    assert np.max(np.abs(vals - g(gx, gy))) <= 1e-12


def test_evaluate_space_matches_the_per_function_sum(monkeypatch):
    # Each distinct knot window is evaluated once per call, in stacked
    # chunks; the result must equal the plain per-function sum bit for
    # bit, including grid points outside the domain and a zero
    # coefficient, whether the windows share a chunk or not.
    space = random_pipeline_space(3, 2)
    keys = space.sorted_keys()
    rng = np.random.default_rng(0)
    coeffs = dict(zip(keys, rng.normal(size=len(keys))))
    coeffs[keys[0]] = 0.0
    xs = np.linspace(-0.1, 1.0, 57)
    ys = np.linspace(0.0, 1.1, 43)
    got = evaluate_space(space, coeffs, xs, ys)
    monkeypatch.setattr(space_module, "_CHUNK_ENTRIES", 100)
    assert np.array_equal(evaluate_space(space, coeffs, xs, ys), got)
    reference = np.zeros_like(got)
    for xv, yv in keys:
        c = coeffs[(xv, yv)]
        if c == 0.0:
            continue
        i = (xs >= xv[0]) & (xs <= xv[-1])
        j = (ys >= yv[0]) & (ys <= yv[-1])
        if not (i.any() and j.any()):
            continue
        vx = reference_values(xv, xs[i], close_at=xv[-1] if xv[-1] == 1 else None)
        vy = reference_values(yv, ys[j], close_at=yv[-1] if yv[-1] == 1 else None)
        reference[np.ix_(i, j)] += c * np.outer(vx, vy)
    assert np.array_equal(got, reference)


def _per_function_sums(space, coefficient_sets, xs, ys):
    """Every function's grid values added to each sum in sorted-key
    order, one window at a time: the sum element-ordered evaluation must
    reproduce bit for bit."""
    dom = space.mesh.domain
    sums = [np.zeros((xs.size, ys.size)) for _ in coefficient_sets]
    for xv, yv in space.sorted_keys():
        i = (xs >= xv[0]) & (xs <= xv[-1])
        j = (ys >= yv[0]) & (ys <= yv[-1])
        if not (i.any() and j.any()):
            continue
        vx = reference_values(xv, xs[i], close_at=dom.x_max)
        vy = reference_values(yv, ys[j], close_at=dom.y_max)
        for total, coefficients in zip(sums, coefficient_sets):
            c = coefficients[(xv, yv)]
            if c != 0.0:
                total[np.ix_(i, j)] += c * np.outer(vx, vy)
    return sums


_oracle_spaces = functools.lru_cache(maxsize=None)(random_pipeline_space)


@st.composite
def grid_points(draw, positions):
    """A sorted grid axis holding every mesh position, random points in
    and around the domain, and one point beyond each end."""
    lo, hi = float(positions[0]), float(positions[-1])
    pad = 0.25 * (hi - lo)
    extra = draw(st.lists(st.floats(lo - pad, hi + pad), min_size=1, max_size=60))
    return np.sort(np.concatenate([np.array(positions, dtype=float), extra, [lo - pad, hi + pad]]))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_element_ordered_sums_equal_the_per_function_sums(running_example, data):
    source = data.draw(st.sampled_from(["structured_2", (2, 2), (2, 1), (1, 3), (3, 2)]))
    if source == "structured_2":
        # ragged rows (elements carry 9 to 14 functions), weights not all one
        space = running_example["structured_2"]
    else:
        seed = data.draw(st.integers(0, 5))
        space = _oracle_spaces(seed, data.draw(st.integers(1, 3)), bidegree=source)
    xs = data.draw(grid_points(space.mesh.positions(1)))
    ys = data.draw(grid_points(space.mesh.positions(2)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    keys = space.sorted_keys()
    arrays, coefficient_sets = [], []
    for _ in range(2):
        values = np.where(rng.random(len(keys)) < 0.2, 0.0, rng.normal(size=len(keys)))
        arrays.append(values)  # in sorted-key order, the incidence's
        coefficient_sets.append(dict(zip(keys, values.tolist())))
    with pytest.MonkeyPatch.context() as patch:
        # groups and windows then span several chunks
        patch.setattr(space_module, "_CHUNK_ENTRIES", data.draw(st.sampled_from([100, 1000])))
        got = space_module._evaluate_sums(space, arrays, xs, ys)
    for total, reference in zip(got, _per_function_sums(space, coefficient_sets, xs, ys)):
        assert np.array_equal(total.view(np.int64), reference.view(np.int64))


@pytest.mark.parametrize(
    "xs",
    [[0.5, -0.5, 0.0], [[0.0, 0.5]], [0.0, np.nan, 1.0], [-np.inf, 0.0]],
    ids=["unsorted", "2-D", "nan", "infinite"],
)
def test_evaluate_space_rejects_a_bad_xs(xs):
    space = tensor_space_for_level(1)
    ones = dict.fromkeys(space.functions, 1.0)
    with pytest.raises(SpaceError, match="xs"):
        evaluate_space(space, ones, xs, [0.0, 0.5])


@pytest.mark.parametrize(
    "ys",
    [[0.5, -0.5, 0.0], [[0.0, 0.5]], [0.0, np.nan, 1.0], [-np.inf, 0.0]],
    ids=["unsorted", "2-D", "nan", "infinite"],
)
def test_evaluate_space_rejects_a_bad_ys(ys):
    space = tensor_space_for_level(1)
    ones = dict.fromkeys(space.functions, 1.0)
    with pytest.raises(SpaceError, match="ys"):
        evaluate_space(space, ones, [0.0, 0.5], ys)


@pytest.mark.parametrize("samples", [0, -3])
def test_partition_of_unity_defect_needs_a_sample(samples):
    with pytest.raises(SpaceError, match="samples"):
        partition_of_unity_defect(tensor_space_for_level(1), samples=samples)


def test_partition_of_unity_defect_refuses_a_grid_above_the_cap(monkeypatch):
    # refused before any evaluation: the sums must never run
    def unreachable(*args):
        raise AssertionError("evaluated a grid above the cap")

    monkeypatch.setattr(space_module, "_evaluate_sums", unreachable)
    side = math.isqrt(space_module.MAX_GRID_POINTS) + 1
    with pytest.raises(SpaceError, match=r"samples .* exceeds the cap"):
        partition_of_unity_defect(tensor_space_for_level(1), samples=side)


@pytest.mark.parametrize(
    "grid",
    [True, (2, True), 2.5, (3.0, 3), "3", (2, 2, 2), None],
    ids=["bool", "bool-in-pair", "float", "float-in-pair", "str", "triple", "none"],
)
def test_grids_that_are_not_ints_are_refused_before_sampling(monkeypatch, grid):
    # grid=True used to sample one point and report l2=6.0 on this space
    def unreachable(*args):
        raise AssertionError("sampled or evaluated a refused grid")

    monkeypatch.setattr(space_module, "_evaluate_sums", unreachable)
    space = tensor_space_for_level(1)
    ones = dict.fromkeys(space.functions, 1.0)
    with pytest.raises(SpaceError, match=r"^grid must be an int or a pair of ints"):
        error_norms(space, ones, unreachable, grid=grid)
    with pytest.raises(SpaceError, match=r"^grid must be an int or a pair of ints"):
        qi_max_error(space, ones, unreachable, grid=grid)
    with pytest.raises(SpaceError, match=r"^samples must be an int or a pair of ints"):
        partition_of_unity_defect(space, samples=grid)


def test_grids_of_ints_are_still_taken():
    space = tensor_space_for_level(1)
    ones = dict.fromkeys(space.functions, 1.0)
    constant = lambda x, y: np.ones_like(x)  # noqa: E731
    assert error_norms(space, ones, constant, grid=(3, np.int64(4))).l2 == 0.0
    assert partition_of_unity_defect(space, samples=np.int32(5), use_weights=False) <= 1e-15
