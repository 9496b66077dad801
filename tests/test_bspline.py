"""Tensor B-splines: evaluation against scipy, insertion, minimal support."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import BSpline

from conftest import key_of
from lrbsplines.bspline import (
    KnotVectorError,
    TensorBSpline,
    evaluate,
    evaluate_gradient,
    find_refining_split,
    has_minimal_support,
    has_support_on,
    insert_knot,
    local_knot_vector,
    univariate_derivatives,
    univariate_values,
)
from lrbsplines import bspline as bspline_module
from lrbsplines.dyadic import dyadic


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
        b = TensorBSpline(
            tuple(dyadic(v) for v in xk), tuple(dyadic(v) for v in yk), Fraction(1)
        )
        for _ in range(10):
            x = rng.uniform(xk[0], xk[-1])
            y = rng.uniform(yk[0], yk[-1])
            if any(abs(x - k) < 1e-9 for k in xk) or any(
                abs(y - k) < 1e-9 for k in yk
            ):
                continue
            ref = scipy_values(xk, [x])[0] * scipy_values(yk, [y])[0]
            assert math.isclose(evaluate(b, (x, y)), ref, rel_tol=1e-11, abs_tol=1e-12)


def test_gradient_matches_finite_differences():
    rng = random.Random(13)
    h = 1e-6
    for _ in range(15):
        xk = random_vector(rng, 2)
        yk = random_vector(rng, 2)
        b = TensorBSpline(
            tuple(dyadic(v) for v in xk), tuple(dyadic(v) for v in yk), Fraction(1)
        )
        for _ in range(6):
            x = rng.uniform(xk[0] + 0.01, xk[-1] - 0.01)
            y = rng.uniform(yk[0] + 0.01, yk[-1] - 0.01)
            if any(abs(x - k) < 1e-3 for k in xk) or any(
                abs(y - k) < 1e-3 for k in yk
            ):
                continue
            gx, gy = evaluate_gradient(b, (x, y))
            fd_x = (evaluate(b, (x + h, y)) - evaluate(b, (x - h, y))) / (2 * h)
            fd_y = (evaluate(b, (x, y + h)) - evaluate(b, (x, y - h))) / (2 * h)
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
        b = TensorBSpline(
            tuple(dyadic(v) for v in xk), tuple(dyadic(v) for v in yk), Fraction(3, 7)
        )
        # interior points, a knot or a support's top corner
        x = rng.choice([rng.uniform(xk[0], xk[-1]), rng.choice(xk)])
        y = rng.choice([rng.uniform(yk[0], yk[-1]), rng.choice(yk)])
        w = float(b.weight)
        vx = float(univariate_values(b.xknots, [x], close_at=b.xknots[-1])[0])
        vy = float(univariate_values(b.yknots, [y], close_at=b.yknots[-1])[0])
        dx = float(univariate_derivatives(b.xknots, [x], close_at=b.xknots[-1])[0])
        dy = float(univariate_derivatives(b.yknots, [y], close_at=b.yknots[-1])[0])
        calls.clear()
        with monkeypatch.context() as patched:
            patched.setattr(bspline_module, "_stacked_values", counting)
            got = evaluate_gradient(b, (x, y))
        assert calls == [True, True]
        want = (w * dx * vy, w * vx * dy)
        assert [g.hex() for g in got] == [v.hex() for v in want]


def test_value_at_own_top_knot_is_left_limit():
    # an interior function vanishes at its last knot; close_at makes the
    # standalone evaluation report the left limit instead of zero jump
    b = TensorBSpline(
        tuple(dyadic(v) for v in (0, 1, 2, 3)),
        tuple(dyadic(v) for v in (0, 1, 2, 3)),
        Fraction(1),
    )
    v = evaluate(b, (3.0, 3.0))
    assert v == 0.0


# -- local knot vectors ------------------------------------------------------


def test_local_knot_vector_validation():
    with pytest.raises(KnotVectorError):
        local_knot_vector([dyadic(1), dyadic(0), dyadic(2), dyadic(3)])
    with pytest.raises(KnotVectorError):
        local_knot_vector([dyadic(1), dyadic(1), dyadic(1), dyadic(1)])


# -- knot insertion ----------------------------------------------------------


def test_insertion_coefficients_worked_example():
    b = TensorBSpline(
        tuple(dyadic(v) for v in (0, 1, 2, 3)),
        tuple(dyadic(v) for v in (0, 1, 2, 3)),
        Fraction(1),
    )
    (a1, b1), (a2, b2) = insert_knot(b, 1, dyadic(3, 1))
    assert a1 == Fraction(3, 4) and a2 == Fraction(3, 4)
    assert [float(v) for v in b1.xknots] == [0.0, 1.0, 1.5, 2.0]
    assert [float(v) for v in b2.xknots] == [1.0, 1.5, 2.0, 3.0]


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
    b = TensorBSpline(
        tuple(dyadic(v) for v in vec),
        tuple(dyadic(v) for v in (0, 1, 2, 3)),
        Fraction(1),
    )
    (a1, b1), (a2, b2) = insert_knot(b, 1, dyadic(z))
    parent = univariate_values(b.xknots, samples)
    child1 = univariate_values(b1.xknots, samples)
    child2 = univariate_values(b2.xknots, samples)
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
        b = TensorBSpline(
            tuple(dyadic(v) for v in xk), tuple(dyadic(v) for v in yk), Fraction(1)
        )
        vec, z = xk, None
        candidates = [
            k / 4 for k in range(int(4 * xk[0]) + 1, int(4 * xk[-1])) if k / 4 not in xk
        ]
        if not candidates:
            continue
        z = rng.choice(candidates)
        (a1, b1), (a2, b2) = insert_knot(b, 1, dyadic(z))
        for _ in range(25):
            x = rng.uniform(xk[0], xk[-1])
            y = rng.uniform(yk[0], yk[-1])
            if any(abs(x - k) < 1e-9 for k in list(xk) + [z]) or any(
                abs(y - k) < 1e-9 for k in yk
            ):
                continue
            # children carry the parent weight times the coefficient, so
            # their weighted values sum to the parent directly
            lhs = evaluate(b, (x, y))
            rhs = evaluate(b1, (x, y)) + evaluate(b2, (x, y))
            assert abs(lhs - rhs) <= 1e-12


def test_insertion_weights_are_exact_fractions():
    b = TensorBSpline(
        tuple(dyadic(v) for v in (0, 1, 4, 8)),
        tuple(dyadic(v) for v in (0, 1, 2, 3)),
        Fraction(2, 3),
    )
    (a1, b1), (a2, b2) = insert_knot(b, 1, dyadic(2))
    assert isinstance(a1, Fraction) and isinstance(a2, Fraction)
    assert a1 == Fraction(1, 2)  # (2-0)/(4-0)
    assert a2 == Fraction(6, 7)  # (8-2)/(8-1)
    assert b1.weight == Fraction(2, 3) * a1
    assert b2.weight == Fraction(2, 3) * a2


# -- support on a mesh -------------------------------------------------------


def test_minimal_support_verdicts_on_mixed_mesh(mixed_mesh):
    minimal_a = TensorBSpline(*key_of((0, 4, 6, 8), (0, 2, 6, 8)), Fraction(1))
    minimal_b = TensorBSpline(*key_of((0, 6, 8, 10), (0, 2, 8, 10)), Fraction(1))
    loose = TensorBSpline(*key_of((0, 2, 5, 6), (2, 6, 8, 10)), Fraction(1))
    assert has_support_on(minimal_a, mixed_mesh)
    assert has_minimal_support(minimal_a, mixed_mesh)
    assert has_minimal_support(minimal_b, mixed_mesh)
    assert has_support_on(loose, mixed_mesh)
    assert not has_minimal_support(loose, mixed_mesh)
    assert find_refining_split(loose, mixed_mesh) == (2, dyadic(7), 1)


def test_function_without_mesh_lines_has_no_support(mixed_mesh):
    ghost = TensorBSpline(*key_of((0, 1, 3, 9), (0, 1, 3, 9)), Fraction(1))
    assert not has_support_on(ghost, mixed_mesh)
