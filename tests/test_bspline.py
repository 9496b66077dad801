"""Tensor B-splines on keys: evaluation against scipy, insertion, minimal
support, and the per-function calls' checks of the key they are given."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import BSpline

from conftest import (
    evaluate_gradient,
    find_refining_split,
    has_minimal_support,
    key_of,
    random_pipeline_space,
    tensor_qi_coefficient,
)
from lrbsplines.bspline import (
    KnotVectorError,
    evaluate,
    has_support_on,
    insert_knot,
    local_knot_vector,
    univariate_derivatives,
    univariate_values,
)
from lrbsplines import bspline as bspline_module
from lrbsplines.dyadic import dyadic, midpoint


def random_vector(rng, degree, span=8):
    """A random nondecreasing dyadic knot vector of length degree+2 with
    nondegenerate overall support."""
    while True:
        vals = sorted(
            rng.randint(0, 2 * span) / 2 for _ in range(degree + 2)
        )
        if vals[0] < vals[-1]:
            return vals


def scipy_values(knots, t):
    spline = BSpline.basis_element(np.asarray(knots, float), extrapolate=False)
    out = np.nan_to_num(spline(np.asarray(t, float)), nan=0.0)
    return out


# -- evaluation oracle -------------------------------------------------------


def test_univariate_values_match_scipy():
    rng = random.Random(11)
    for degree in (1, 2, 3, 4):
        for _ in range(25):
            knots = random_vector(rng, degree)
            # sample strictly inside the support, away from the knots,
            # where every convention agrees
            t = []
            while len(t) < 40:
                v = rng.uniform(knots[0], knots[-1])
                if all(abs(v - k) > 1e-9 for k in knots):
                    t.append(v)
            mine = univariate_values(tuple(dyadic(k) for k in knots), np.array(t))
            ref = scipy_values(knots, t)
            assert np.allclose(mine, ref, atol=1e-12)


def test_bivariate_evaluation_matches_scipy_product():
    rng = random.Random(12)
    for _ in range(20):
        xk = random_vector(rng, 2)
        yk = random_vector(rng, 3)
        key = key_of(xk, yk)
        for _ in range(10):
            x = rng.uniform(xk[0], xk[-1])
            y = rng.uniform(yk[0], yk[-1])
            if any(abs(x - k) < 1e-9 for k in xk) or any(
                abs(y - k) < 1e-9 for k in yk
            ):
                continue
            ref = scipy_values(xk, [x])[0] * scipy_values(yk, [y])[0]
            assert math.isclose(evaluate(key, (x, y)), ref, rel_tol=1e-11, abs_tol=1e-12)


def test_gradient_matches_finite_differences():
    rng = random.Random(13)
    h = 1e-6
    for _ in range(15):
        xk = random_vector(rng, 2)
        yk = random_vector(rng, 2)
        key = key_of(xk, yk)
        for _ in range(6):
            x = rng.uniform(xk[0] + 0.01, xk[-1] - 0.01)
            y = rng.uniform(yk[0] + 0.01, yk[-1] - 0.01)
            if any(abs(x - k) < 1e-3 for k in xk) or any(
                abs(y - k) < 1e-3 for k in yk
            ):
                continue
            gx, gy = evaluate_gradient(key, (x, y))
            fd_x = (evaluate(key, (x + h, y)) - evaluate(key, (x - h, y))) / (2 * h)
            fd_y = (evaluate(key, (x, y + h)) - evaluate(key, (x, y - h))) / (2 * h)
            assert math.isclose(gx, fd_x, rel_tol=5e-5, abs_tol=5e-6)
            assert math.isclose(gy, fd_y, rel_tol=5e-5, abs_tol=5e-6)


def test_gradient_is_two_kernel_calls_of_the_one_window_products(monkeypatch):
    # One kernel call per direction returns values and derivatives, with
    # the bits of the separate one-window calls.
    rng = random.Random(17)
    calls = []
    kernel = bspline_module._stacked_values

    def counting(*args, **kwargs):
        calls.append(kwargs.get("derivatives", False))
        return kernel(*args, **kwargs)

    for _ in range(200):
        degrees = rng.randint(1, 4), rng.randint(1, 4)
        xk, yk = (random_vector(rng, p) for p in degrees)
        xv, yv = key = key_of(xk, yk)
        # interior points, a knot or a support's top corner
        x = rng.choice([rng.uniform(xk[0], xk[-1]), rng.choice(xk)])
        y = rng.choice([rng.uniform(yk[0], yk[-1]), rng.choice(yk)])
        vx = float(univariate_values(xv, [x], close_at=xv[-1])[0])
        vy = float(univariate_values(yv, [y], close_at=yv[-1])[0])
        dx = float(univariate_derivatives(xv, [x], close_at=xv[-1])[0])
        dy = float(univariate_derivatives(yv, [y], close_at=yv[-1])[0])
        calls.clear()
        with monkeypatch.context() as patched:
            patched.setattr(bspline_module, "_stacked_values", counting)
            got = evaluate_gradient(key, (x, y))
        assert calls == [True, True]
        want = (dx * vy, vx * dy)
        assert [g.hex() for g in got] == [v.hex() for v in want]


def test_value_at_own_top_knot_is_left_limit():
    # an interior function vanishes at its last knot; close_at makes the
    # standalone evaluation report the left limit instead of zero jump
    v = evaluate(key_of((0, 1, 2, 3), (0, 1, 2, 3)), (3.0, 3.0))
    assert v == 0.0


# -- local knot vectors ------------------------------------------------------


def test_local_knot_vector_validation():
    with pytest.raises(KnotVectorError):
        local_knot_vector([dyadic(1), dyadic(0), dyadic(2), dyadic(3)])
    with pytest.raises(KnotVectorError):
        local_knot_vector([dyadic(1), dyadic(1), dyadic(1), dyadic(1)])


# -- knot insertion ----------------------------------------------------------


def test_insertion_coefficients_worked_example():
    key = key_of((0, 1, 2, 3), (0, 1, 2, 3))
    (a1, k1), (a2, k2) = insert_knot(key, 1, dyadic(3, 1))
    assert a1 == Fraction(3, 4) and a2 == Fraction(3, 4)
    assert [float(v) for v in k1[0]] == [0.0, 1.0, 1.5, 2.0]
    assert [float(v) for v in k2[0]] == [1.0, 1.5, 2.0, 3.0]
    assert k1[1] == key[1] and k2[1] == key[1]


def random_insertion_triple(rng, degrees=(1, 2, 3), span=8):
    """A random (vector, direction, z) with z a new knot strictly inside."""
    degree = rng.choice(degrees)
    while True:
        vec = random_vector(rng, degree, span)
        lo, hi = vec[0], vec[-1]
        candidates = [
            k / 4
            for k in range(int(4 * lo) + 1, int(4 * hi))
            if k / 4 not in vec
        ]
        if candidates:
            return vec, rng.choice(candidates)


def insertion_defect(vec, z, samples):
    """max |N_v - a1*N_v1 - a2*N_v2| over the samples (univariate form;
    the second tensor direction contributes a common factor)."""
    key = key_of(vec, (0, 1, 2, 3))
    (a1, k1), (a2, k2) = insert_knot(key, 1, dyadic(z))
    parent = univariate_values(key[0], samples)
    child1 = univariate_values(k1[0], samples)
    child2 = univariate_values(k2[0], samples)
    return float(np.max(np.abs(parent - float(a1) * child1 - float(a2) * child2)))


def test_insertion_is_a_pointwise_identity():
    rng = random.Random(17)
    for _ in range(100):
        vec, z = random_insertion_triple(rng)
        samples = np.linspace(vec[0], vec[-1], 200, endpoint=False)
        assert insertion_defect(vec, z, samples) <= 1e-12


def test_insertion_identity_holds_bivariately():
    rng = random.Random(18)
    for _ in range(20):
        xk = random_vector(rng, 2)
        yk = random_vector(rng, 2)
        key = key_of(xk, yk)
        vec, z = xk, None
        candidates = [
            k / 4 for k in range(int(4 * xk[0]) + 1, int(4 * xk[-1])) if k / 4 not in xk
        ]
        if not candidates:
            continue
        z = rng.choice(candidates)
        (a1, k1), (a2, k2) = insert_knot(key, 1, dyadic(z))
        for _ in range(25):
            x = rng.uniform(xk[0], xk[-1])
            y = rng.uniform(yk[0], yk[-1])
            if any(abs(x - k) < 1e-9 for k in list(xk) + [z]) or any(
                abs(y - k) < 1e-9 for k in yk
            ):
                continue
            # B = alpha1 * B1 + alpha2 * B2 for the unweighted functions
            lhs = evaluate(key, (x, y))
            rhs = float(a1) * evaluate(k1, (x, y)) + float(a2) * evaluate(k2, (x, y))
            assert abs(lhs - rhs) <= 1e-12


def test_insertion_weights_are_exact_fractions():
    # a function of weight w splits into children of weights w * alpha
    w = Fraction(2, 3)
    (a1, _), (a2, _) = insert_knot(key_of((0, 1, 4, 8), (0, 1, 2, 3)), 1, dyadic(2))
    assert isinstance(a1, Fraction) and isinstance(a2, Fraction)
    assert a1 == Fraction(1, 2)  # (2-0)/(4-0)
    assert a2 == Fraction(6, 7)  # (8-2)/(8-1)
    assert w * a1 == Fraction(1, 3)
    assert w * a2 == Fraction(4, 7)


# -- support on a mesh -------------------------------------------------------


def test_minimal_support_verdicts_on_mixed_mesh(mixed_mesh):
    minimal_a = key_of((0, 4, 6, 8), (0, 2, 6, 8))
    minimal_b = key_of((0, 6, 8, 10), (0, 2, 8, 10))
    loose = key_of((0, 2, 5, 6), (2, 6, 8, 10))
    assert has_support_on(minimal_a, mixed_mesh)
    assert has_minimal_support(minimal_a, mixed_mesh)
    assert has_minimal_support(minimal_b, mixed_mesh)
    assert has_support_on(loose, mixed_mesh)
    assert not has_minimal_support(loose, mixed_mesh)
    assert find_refining_split(loose, mixed_mesh) == (2, dyadic(7), 1)


def test_one_scan_minimal_support_equals_its_two_rules():
    # has_minimal_support scans each direction once; it must agree with
    # support containment plus the absence of a refining split.  The
    # candidates: a refined space's functions, the same with one knot
    # raised to its neighbour's value, those of the space it was refined
    # from, and random knot vectors on the mesh's positions or also
    # between them, so that every verdict occurs.
    outcomes = set()
    for seed in range(12):
        rng = random.Random(seed)
        bidegree = (rng.randint(1, 3), rng.randint(1, 3))
        before = random_pipeline_space(seed, iterations=1, bidegree=bidegree)
        after = random_pipeline_space(seed, iterations=2, bidegree=bidegree)
        mesh = after.mesh
        candidates = [key for space in (after, before) for key in space.functions]
        vectors = []
        for xknots, yknots in after.functions:
            xv = list(xknots)
            xv[1] = xv[2]
            vectors.append((xv, yknots))
        for _ in range(40):
            pair = []
            for direction, p in zip((1, 2), bidegree):
                values = mesh.positions(direction)
                if rng.random() < 0.5:
                    values += tuple(midpoint(a, b) for a, b in zip(values, values[1:]))
                pair.append(sorted(rng.choices(values, k=p + 2)))
            vectors.append(pair)
        for xv, yv in vectors:
            try:
                candidates.append((local_knot_vector(xv), local_knot_vector(yv)))
            except KnotVectorError:
                continue
        for key in candidates:
            supported = has_support_on(key, mesh)
            split = find_refining_split(key, mesh) if supported else None
            assert has_minimal_support(key, mesh) == (supported and split is None)
            outcomes.add((supported, split is None))
    assert outcomes == {(True, True), (True, False), (False, True)}


def test_function_without_mesh_lines_has_no_support(mixed_mesh):
    assert not has_support_on(key_of((0, 1, 3, 9), (0, 1, 3, 9)), mixed_mesh)


# -- the per-function calls take a key ----------------------------------------


def centre(key) -> tuple[float, float]:
    return tuple((float(v[0]) + float(v[-1])) / 2 for v in key)


def split_is_exact(key) -> bool:
    """Splitting at the support's x-centre gives B = alpha1*B1 + alpha2*B2
    at the centre."""
    xv = key[0]
    (a1, k1), (a2, k2) = insert_knot(key, 1, midpoint(xv[0], xv[-1]))
    p = centre(key)
    both = float(a1) * evaluate(k1, p) + float(a2) * evaluate(k2, p)
    return math.isclose(evaluate(key, p), both, rel_tol=1e-12)


def gradient_is_the_product_rule(key) -> bool:
    (xv, yv), (x, y) = key, centre(key)
    got = evaluate_gradient(key, (x, y))
    vx, vy = univariate_values(xv, [x], xv[-1])[0], univariate_values(yv, [y], yv[-1])[0]
    dx, dy = univariate_derivatives(xv, [x], xv[-1])[0], univariate_derivatives(yv, [y], yv[-1])[0]
    return got == (dx * vy, vx * dy)


#: Each per-function call, of the package or a test oracle, as a verdict
#: on one function of a space that holds for every one of its keys.
PER_FUNCTION_CALLS = {
    "evaluate": lambda key, mesh: evaluate(key, centre(key)) > 0.0,
    "evaluate_gradient": lambda key, mesh: gradient_is_the_product_rule(key),
    "insert_knot": lambda key, mesh: split_is_exact(key),
    "has_support_on": has_support_on,
    "has_minimal_support": has_minimal_support,
    "find_refining_split": lambda key, mesh: find_refining_split(key, mesh) is None,
    # the local interpolant reproduces constants, so every coefficient is 1
    "tensor_qi_coefficient": lambda key, mesh: math.isclose(
        tensor_qi_coefficient(key, lambda x, y: np.ones_like(x)), 1.0, rel_tol=1e-12
    ),
}

#: Vectors no local knot vector may be: decreasing, two entries, and a
#: knot above multiplicity p + 1, which leaves the vector no span.
BAD_VECTORS = {"decreasing": (0, 2, 1, 3), "two entries": (0, 1), "multiplicity": (1, 1, 1, 1)}


@pytest.mark.parametrize("name", sorted(PER_FUNCTION_CALLS))
def test_per_function_calls_take_a_space_key_as_is(name, running_example):
    # the calls read no weight, and this space holds weights other than 1
    call = PER_FUNCTION_CALLS[name]
    space = running_example["structured_2"]
    assert any(w != 1 for w in space.functions.values())
    for key in space.functions:
        assert call(key, space.mesh), key


@pytest.mark.parametrize("bad", sorted(BAD_VECTORS))
@pytest.mark.parametrize("name", sorted(PER_FUNCTION_CALLS))
def test_per_function_calls_reject_a_bad_key(name, bad, mixed_mesh):
    good, vec = (0, 2, 4, 6), BAD_VECTORS[bad]
    for key in (key_of(vec, good), key_of(good, vec)):
        with pytest.raises(KnotVectorError):
            PER_FUNCTION_CALLS[name](key, mixed_mesh)
