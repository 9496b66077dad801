"""Element-batched B-spline evaluation through (knot window, element
interval) pair tables.

Assembly and the element-wise rank certificate evaluate each distinct
pair of a function's knot window and an element's interval once, per
direction, and gather the values per element.  The oracle is the
evaluation they replaced: one stacked kernel pass over every (element,
slot) of the incidence, at the points of every element.
"""

from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pipeline_space
from lrbsplines import assemble, initial_space, layer_rhs, make_initial_mesh
from lrbsplines import space as space_module
from lrbsplines.bspline import _stacked_values
from lrbsplines.poisson import _cell_counts, _composite_rule
from lrbsplines.space import _element_pairs, _gauss_legendre, _gauss_rule, _incidence


def same_bits(a, b):
    """Equal as stored doubles, so ``-0.0`` differs from ``0.0``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _per_slot(space, T, rule, rows, derivatives):
    """Per direction: ``rule``'s points and weights on every element of
    ``rows``, and one kernel pass over all its (element, slot) pairs."""
    keys, _, _, bounds, _ = _incidence(space)
    expected = []
    for d, p in enumerate(space.mesh.bidegree):
        knots = np.array([key[d] for key in keys], dtype=float)
        nodes, weights = _gauss_legendre(p + 1)
        lo, hi = bounds[2 * d][rows], bounds[2 * d + 1][rows]
        pts, wts = rule(lo, hi, nodes=nodes, weights=weights)
        values = _stacked_values(knots[T[rows]], pts[:, None, :], derivatives=derivatives)
        expected.append((pts, wts) + (values if derivatives else (values,)))
    return expected


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    iterations=st.integers(0, 2),
    n_cells=st.sampled_from([1, 2, 4]),
    bidegree=st.sampled_from([(1, 1), (2, 2), (3, 2), (2, 3)]),
    resolution=st.sampled_from([1.0 / 3.0, 0.15, 2.0**-3, 2.0**-4]),
)
def test_pair_tables_equal_the_per_slot_kernel(seed, iterations, n_cells, bidegree, resolution):
    space = random_pipeline_space(seed, iterations, n_cells, bidegree)
    _, counts, indices, bounds, _ = _incidence(space)
    assert np.all(counts == counts[0])  # the pipeline's spaces are locally independent
    T = indices.reshape(len(counts), -1)
    every = np.arange(len(T))
    cases = [
        (_gauss_rule, every, True),  # the stiffness and unrefined load points
        (_gauss_rule, every, False),  # the rank certificate's
        (partial(_composite_rule, resolution=None), every, False),
    ]
    x0, x1, y0, y1 = bounds
    cells = np.stack([_cell_counts(x0, x1, resolution), _cell_counts(y0, y1, resolution)], axis=1)
    for group_cells in np.unique(cells, axis=0):
        group = np.flatnonzero(np.all(cells == group_cells, axis=1))
        cases.append((partial(_composite_rule, resolution=resolution), group, False))
    for rule, rows, derivatives in cases:
        gatherers = _element_pairs(space, rule, rows, derivatives)
        for gather, expected in zip(gatherers, _per_slot(space, T, rule, rows, derivatives)):
            for c in (np.arange(len(rows)), slice(1, None, 2)):
                got = gather(c)
                assert len(got) == len(expected)
                assert all(same_bits(a, b[c]) for a, b in zip(got, expected))


def test_assembly_evaluates_each_pair_once(monkeypatch):
    # The level-5 tensor space: 1,024 elements of 9 slots, but per
    # direction only 32 intervals of 3 windows each.
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 32))
    stacks = []
    real = space_module._stacked_values

    def counting(v, t, *args, **kwargs):
        stacks.append(v.shape[:-1])
        return real(v, t, *args, **kwargs)

    monkeypatch.setattr(space_module, "_stacked_values", counting)
    assemble(space, layer_rhs)
    assert stacks == [(96,), (96,)]
    stacks.clear()
    assemble(space, layer_rhs, load_resolution=2.0**-5)
    assert stacks == [(96,)] * 4


def test_pair_tables_split_into_chunks(monkeypatch):
    # A cap of a few pairs per kernel call splits every table into
    # several stacked calls; the system stays the same bit for bit.
    space = random_pipeline_space(3, iterations=2, n_cells=4)
    whole = assemble(space, layer_rhs, load_resolution=1.0 / 3.0)
    stacks = []
    real = space_module._stacked_values

    def counting(v, t, *args, **kwargs):
        stacks.append(len(v))
        return real(v, t, *args, **kwargs)

    monkeypatch.setattr(space_module, "_stacked_values", counting)
    monkeypatch.setattr(space_module, "_CHUNK_ENTRIES", 120)
    parts = assemble(space, layer_rhs, load_resolution=1.0 / 3.0)
    assert max(stacks) <= 10 and len(stacks) > 20
    assert same_bits(parts.stiffness.toarray(), whole.stiffness.toarray())
    assert same_bits(parts.load, whole.load)
