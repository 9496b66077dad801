"""End-to-end acceptance checks for the refinement/interpolation/solver stack.

Each test exercises one acceptance criterion against pinned reference
values: exact tensor cardinalities, adaptive function
counts, local linear independence verdicts, polynomial reproduction,
interpolation error ladders, knot-insertion and ordering invariants,
nestedness agreement, collocation ranks, Poisson convergence, and
partition of unity.  Every test prints a single line

    criterion N: PASS/FAIL - detail

(run with ``pytest -s`` to see them) and asserts the same condition, so
the module doubles as a scorecard.
"""
from __future__ import annotations

import random
import time

import numpy as np
import pytest

from lrbsplines import (
    Split,
    adaptive_solve,
    apply_split,
    assemble,
    collocation_rank,
    diagonal_marker,
    error_norms,
    impose_dirichlet,
    initial_space,
    is_locally_linearly_independent,
    is_nested_knotwise,
    is_nested_meshwise,
    lr_qi,
    make_initial_mesh,
    n2s_pipeline,
    partition_of_unity_defect,
    qi_max_error,
    solve,
    structured_refine,
    tensor_space_for_level,
    three_peaks,
    three_peaks_spaces,
)

from conftest import nested_map, random_pipeline_space
from test_bspline import insertion_defect, random_insertion_triple

# Reference values: cardinalities of the uniform tensor spaces, function
# counts of the adaptive peak and diagonal refinements, and the peak
# benchmark's interpolation errors at the first and last level checked.
TENSOR_COUNTS = (36, 100, 324, 1156, 4356, 16900, 66564)
PEAK_COUNTS = (36, 86, 161, 254, 363, 450, 537)
DIAGONAL_STRUCTURED = 1430
DIAGONAL_PIPELINE = 1894
PEAK_ERROR_LEVEL_3 = 2.575e-1
PEAK_ERROR_LEVEL_7 = 1.415e-2


def _criterion(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {verdict} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def peaks7():
    """Adaptive spaces for peak-benchmark levels 1..7, with build time."""
    start = time.perf_counter()
    spaces = three_peaks_spaces(7)
    return spaces, time.perf_counter() - start


@pytest.fixture(scope="module")
def diagonal_runs():
    """Seven diagonal refinement iterations, structured-only and full
    pipeline, keeping every intermediate space."""
    start = time.perf_counter()
    structured = [initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 1))]
    for _ in range(7):
        space = structured[-1]
        marked = [
            k for k in space.sorted_keys() if diagonal_marker(k)
        ]
        structured.append(structured_refine(space, marked))
    pipeline = [structured[0]] + n2s_pipeline(structured[0], diagonal_marker, 7)[0]
    return {
        "structured": structured,
        "pipeline": pipeline,
        "elapsed": time.perf_counter() - start,
    }


@pytest.fixture(scope="module")
def layer_rows():
    """Poisson error table for the internal-layer problem, levels 2..6."""
    start = time.perf_counter()
    rows = adaptive_solve(6, grid=(500, 500))
    return rows, time.perf_counter() - start


def test_criterion_1_tensor_cardinalities():
    start = time.perf_counter()
    counts = tuple(
        tensor_space_for_level(level).n_functions for level in range(1, 8)
    )
    elapsed = time.perf_counter() - start
    ok = counts == TENSOR_COUNTS and elapsed < 1.0
    _criterion(
        1,
        ok,
        f"tensor counts {list(counts)} == {list(TENSOR_COUNTS)} "
        f"in {elapsed:.2f} s (limit 1 s)",
    )


def test_criterion_2_peak_counts_and_independence(peaks7):
    spaces, build_time = peaks7
    start = time.perf_counter()
    counts = [s.n_functions for s in spaces]
    independent = all(is_locally_linearly_independent(s) for s in spaces)
    elapsed = build_time + time.perf_counter() - start
    within = all(
        abs(count - ref) <= 0.15 * ref
        for count, ref in zip(counts, PEAK_COUNTS)
    )
    ok = within and independent and elapsed < 120.0
    _criterion(
        2,
        ok,
        f"peak counts {counts} vs {list(PEAK_COUNTS)} (+/-15%), "
        f"all locally independent: {independent}, "
        f"{elapsed:.1f} s (limit 120 s)",
    )


def test_criterion_3_diagonal_counts_and_verdicts(diagonal_runs):
    structured = diagonal_runs["structured"][-1]
    pipeline = diagonal_runs["pipeline"][-1]
    start = time.perf_counter()
    structured_dependent = not is_locally_linearly_independent(structured)
    pipeline_independent = is_locally_linearly_independent(pipeline)
    elapsed = diagonal_runs["elapsed"] + time.perf_counter() - start
    ok = (
        abs(structured.n_functions - DIAGONAL_STRUCTURED)
        <= 0.10 * DIAGONAL_STRUCTURED
        and abs(pipeline.n_functions - DIAGONAL_PIPELINE)
        <= 0.10 * DIAGONAL_PIPELINE
        and structured_dependent
        and pipeline_independent
        and elapsed < 120.0
    )
    _criterion(
        3,
        ok,
        f"structured {structured.n_functions} vs {DIAGONAL_STRUCTURED} (+/-10%, "
        f"dependent: {structured_dependent}), pipeline {pipeline.n_functions} "
        f"vs {DIAGONAL_PIPELINE} (+/-10%, independent: {pipeline_independent}), "
        f"{elapsed:.1f} s (limit 120 s)",
    )


def _random_biquadratic(rng):
    coeffs = [[rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(3)]

    def g(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        total = np.zeros(np.broadcast(x, y).shape)
        for i in range(3):
            for j in range(3):
                total = total + coeffs[i][j] * x**i * y**j
        return total

    return g


def test_criterion_4_polynomial_reproduction(peaks7):
    spaces, _ = peaks7
    rng = random.Random(2026)
    polynomials = [_random_biquadratic(rng) for _ in range(20)]
    start = time.perf_counter()
    worst = 0.0
    for space in spaces[:5]:
        for g in polynomials:
            coefficients = lr_qi(space, g)
            worst = max(worst, qi_max_error(space, coefficients, g, grid=150))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 300.0
    _criterion(
        4,
        ok,
        f"max biquadratic reproduction error {worst:.2e} (limit 1e-10) over "
        f"20 polynomials x levels 1-5, {elapsed:.0f} s (limit 300 s)",
    )


def test_criterion_5_peak_error_ladder(peaks7):
    spaces, _ = peaks7

    def interpolation_error(space):
        coefficients = lr_qi(space, three_peaks)
        return qi_max_error(space, coefficients, three_peaks, grid=201)

    error_3 = interpolation_error(spaces[2])
    error_7 = interpolation_error(spaces[6])
    band_3 = PEAK_ERROR_LEVEL_3 / 2 <= error_3 <= PEAK_ERROR_LEVEL_3 * 2
    band_7 = PEAK_ERROR_LEVEL_7 / 2 <= error_7 <= PEAK_ERROR_LEVEL_7 * 2
    deviations = []
    for level in (3, 4, 5):
        tensor_error = interpolation_error(tensor_space_for_level(level))
        adaptive_error = interpolation_error(spaces[level - 1])
        deviations.append(abs(adaptive_error - tensor_error) / tensor_error)
    comparable = all(dev <= 0.05 for dev in deviations)
    ok = band_3 and band_7 and comparable
    _criterion(
        5,
        ok,
        f"level-3 error {error_3:.3e} vs {PEAK_ERROR_LEVEL_3:.3e} (factor 2), "
        f"level-7 error {error_7:.3e} vs {PEAK_ERROR_LEVEL_7:.3e} (factor 2), "
        f"tensor deviations at levels 3-5: "
        f"{['%.2f%%' % (100 * d) for d in deviations]} (limit 5%)",
    )


def test_criterion_6_insertion_identity():
    rng = random.Random(606)
    worst = 0.0
    for _ in range(1000):
        vec, z = random_insertion_triple(rng)
        samples = np.linspace(vec[0], vec[-1], 200, endpoint=False)
        worst = max(worst, insertion_defect(vec, z, samples))
    ok = worst <= 1e-12
    _criterion(
        6,
        ok,
        f"max two-scale identity defect {worst:.2e} over 1000 random "
        f"insertions at 200 samples (limit 1e-12)",
    )


def _random_compatible_splits(rng):
    """A base space and a batch of splits applicable in at least one order."""
    base = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2))
    space = base
    accepted = []
    grid = [k / 8 for k in range(9)]
    attempts = 0
    while len(accepted) < 8 and attempts < 300:
        attempts += 1
        direction = rng.choice((1, 2))
        pos = rng.choice(grid[1:-1])
        lo = rng.choice(grid[:-1])
        hi = rng.choice(grid[1:])
        if not lo < hi:
            continue
        split = Split.make(direction, pos, lo, hi)
        try:
            space = apply_split(space, split)
        except Exception:
            continue
        accepted.append(split)
    return base, accepted


def _fold_in_order(base, splits):
    """Apply the splits, deferring any not yet applicable; None on failure."""
    space = base
    pending = list(splits)
    for _ in range(len(pending) ** 2 + 1):
        if not pending:
            return space
        remaining = []
        for split in pending:
            try:
                space = apply_split(space, split)
            except Exception:
                remaining.append(split)
        pending = remaining
    return space if not pending else None


def test_criterion_7_insertion_order_independence():
    rng = random.Random(707)
    agreements = 0
    for _ in range(50):
        base, splits = _random_compatible_splits(rng)
        order_a = splits[:]
        order_b = splits[:]
        rng.shuffle(order_a)
        rng.shuffle(order_b)
        space_a = _fold_in_order(base, order_a)
        space_b = _fold_in_order(base, order_b)
        if space_a is None or space_b is None:
            continue
        if (
            space_a.mesh == space_b.mesh
            and space_a.functions.keys() == space_b.functions.keys()
            and all(
                space_a.functions[key] == space_b.functions[key]
                for key in space_a.functions
            )
        ):
            agreements += 1
    ok = agreements == 50
    _criterion(
        7,
        ok,
        f"{agreements}/50 randomized split batches give identical spaces "
        f"under two shuffled insertion orders",
    )


def test_criterion_8_nestedness_definitions_agree():
    mismatches = 0
    pairs = 0
    for seed in range(30):
        space = random_pipeline_space(seed)
        functions = list(space.functions)
        for a in functions:
            for b in functions:
                if a is b:
                    continue
                pairs += 1
                if is_nested_knotwise(a, b) != is_nested_meshwise(
                    a, b, space.mesh
                ):
                    mismatches += 1
    ok = mismatches == 0
    _criterion(
        8,
        ok,
        f"knot and mesh nestedness agree on {pairs} ordered pairs across "
        f"30 randomized spaces ({mismatches} disagreements)",
    )


def _random_one_direction_refined_space(rng):
    """A space whose mesh stays tensorized in direction 1: random partial
    lines are inserted in direction 2 only."""
    n = rng.choice((4, 5, 6))
    space = initial_space(make_initial_mesh((0, n, 0, n), (2, 2), n))
    accepted = 0
    attempts = 0
    while accepted < 6 and attempts < 300:
        attempts += 1
        pos = rng.randrange(0, n) + 0.5
        lo = rng.randrange(0, n)
        hi = rng.randrange(lo + 1, n + 1)
        try:
            space = apply_split(space, Split.make(2, pos, lo, hi))
        except Exception:
            continue
        accepted += 1
    return space, accepted


def test_criterion_9_one_direction_meshes_have_no_nesting():
    rng = random.Random(909)
    nonempty = 0
    total_splits = 0
    for _ in range(20):
        space, accepted = _random_one_direction_refined_space(rng)
        assert accepted >= 3, "split generation starved"
        total_splits += accepted
        if nested_map(space):
            nonempty += 1
    ok = nonempty == 0
    _criterion(
        9,
        ok,
        f"nested map empty on all 20 one-direction-refined meshes "
        f"({total_splits} partial lines inserted; {nonempty} nonempty maps)",
    )


def test_criterion_10_collocation_ranks(
    rank_deficient_space, two_stage_dependent_space
):
    n_quadratic = rank_deficient_space.n_functions
    rank_quadratic = collocation_rank(rank_deficient_space)
    n_quartic = two_stage_dependent_space.n_functions
    rank_quartic = collocation_rank(two_stage_dependent_space)
    ok = rank_quadratic == n_quadratic - 1 and rank_quartic < n_quartic
    _criterion(
        10,
        ok,
        f"biquadratic fixture rank {rank_quadratic} of {n_quadratic} "
        f"(expected n-1), biquartic fixture rank {rank_quartic} of "
        f"{n_quartic} (expected < n)",
    )


def _patch_solution(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x**2 + y**2 - x * y + 2 * x + 3


def _patch_load(x, y):
    return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, -4.0)


def _loglog_curve(counts, errors, n):
    """Tensor accuracy-per-dof curve, interpolated at ``n`` functions."""
    return float(
        np.exp(
            np.interp(
                np.log(float(n)),
                np.log(np.array(counts, dtype=float)),
                np.log(np.array(errors, dtype=float)),
            )
        )
    )


def test_criterion_11_poisson_convergence(layer_rows):
    rows, solve_time = layer_rows
    start = time.perf_counter()
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 8))
    system = assemble(space, _patch_load)
    system = impose_dirichlet(system, space, _patch_solution)
    coefficients = solve(system)
    patch = error_norms(space, coefficients, _patch_solution, grid=(500, 500))
    patch_ok = patch.linf <= 1e-9

    tensor = [row for row in rows if row["strategy"] == "tensor"]
    adaptive = [row for row in rows if row["strategy"] == "n2s2"]
    tensor_l2 = [row["l2"] for row in tensor]
    decreasing = all(a > b for a, b in zip(tensor_l2, tensor_l2[1:]))

    tensor_counts = [row["n_functions"] for row in tensor]
    below = True
    for row in adaptive[1:]:  # level 2 is the tensor space itself
        curve_l2 = _loglog_curve(tensor_counts, tensor_l2, row["n_functions"])
        curve_linf = _loglog_curve(
            tensor_counts, [r["linf"] for r in tensor], row["n_functions"]
        )
        below = below and row["l2"] < curve_l2 and row["linf"] < curve_linf
    elapsed = solve_time + time.perf_counter() - start
    ok = patch_ok and decreasing and below and elapsed < 600.0
    _criterion(
        11,
        ok,
        f"patch-test max error {patch.linf:.2e} (limit 1e-9), tensor L2 "
        f"ladder {['%.2e' % e for e in tensor_l2]} decreasing: {decreasing}, "
        f"adaptive below tensor curve in both norms: {below}, "
        f"{elapsed:.0f} s (limit 600 s)",
    )


def test_criterion_12_partition_of_unity(peaks7, diagonal_runs):
    spaces, _ = peaks7
    adaptive_spaces = list(spaces) + diagonal_runs["pipeline"][1:]
    worst_unweighted = max(
        partition_of_unity_defect(space, use_weights=False)
        for space in adaptive_spaces
    )
    worst_weighted = max(
        partition_of_unity_defect(space, use_weights=True)
        for space in diagonal_runs["structured"][1:]
    )
    ok = worst_unweighted <= 1e-12 and worst_weighted <= 1e-12
    _criterion(
        12,
        ok,
        f"unweighted defect {worst_unweighted:.2e} on "
        f"{len(adaptive_spaces)} adaptive spaces, weighted defect "
        f"{worst_weighted:.2e} on 7 structured spaces (limit 1e-12)",
    )
