"""The generation fixpoint against its single-knot reference.

``space._fixpoint`` inserts a direction's deficits in one multi-knot
step, probes only the new lines for the keys it starts from, and skips
a child's scan in the direction it was split in.  Each of its calls is
replayed here by ``reference_fixpoint`` of ``conftest``, which inserts
one knot per split and scans every mesh position: both must leave the
same functions with the same exact weights and return the same diff.
A work count bounds the mesh lookups, insertions and run-dict copies
of the diagonal demo, in place of a timing gate, and the unit weights of pipeline
spaces are one shared object.
"""
import random
from fractions import Fraction
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_marked, random_pipeline_space, random_split, reference_fixpoint
from lrbsplines import space as space_module
from lrbsplines.cli import run_mesh_demo
from lrbsplines.mesh import Mesh, make_initial_mesh
from lrbsplines.refine import n2s_pipeline
from lrbsplines.space import SpaceError, apply_split, initial_space, structured_refine


@settings(deadline=None, max_examples=60)
@given(
    bidegree=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    steps=st.lists(
        st.tuples(st.sampled_from(["structured", "split", "pipeline"]), st.integers(0, 2**32)),
        min_size=1,
        max_size=4,
    ),
)
def test_fixpoint_equals_the_single_knot_reference(bidegree, steps):
    fixpoint = space_module._fixpoint
    calls = []

    def checked_fixpoint(mesh, functions, dirty, segments):
        twin = dict(functions)
        want = reference_fixpoint(mesh, twin, list(dirty))
        got = fixpoint(mesh, functions, dirty, segments)
        assert got == want
        assert functions == twin
        assert all(type(w) is Fraction for w in functions.values())
        calls.append(got)
        return got

    space = initial_space(make_initial_mesh((0, 1, 0, 1), bidegree, 2))
    refined = 0
    with patch.object(space_module, "_fixpoint", checked_fixpoint):
        for i, (kind, seed) in enumerate(steps, start=1):
            rng = random.Random(seed)
            marked = random_marked(rng, space)
            try:
                if kind == "structured":
                    space = structured_refine(space, marked)
                elif kind == "pipeline":
                    [space], _ = n2s_pipeline(space, lambda key: key in marked, 1, start_index=i)
                else:
                    split = random_split(rng, space)
                    if split is None:
                        continue
                    space = apply_split(space, split)
            except SpaceError:
                # nothing new to insert, or a split that refines no function
                continue
            refined += 1
    assert len(calls) >= refined


def test_diagonal_demo_work_count(monkeypatch, tmp_path):
    # A work count in place of a timing gate.  One knot per split and a
    # scan of every mesh position per child made 42,199 covering-run
    # lookups and 5,095 insertions at 6 iterations.  The lookups are now
    # the positions the fixpoint's scans read (13,814) plus the single
    # covering-run calls (none here).  The insertions are the fixpoint's
    # multi-knot steps (2,187 in first-in, first-out order; 2,661 in key
    # order and 2,801 last in, first out), each one call of the memoized
    # Boehm kernel, which computes only its 629 distinct inputs.  The
    # mesh is copied once for the state and once per earlier iteration's
    # space (6), not once per insertion call (138) or per split (498).
    lookups, insertions, copies, calls = [], [], [], []
    covering_run = Mesh.covering_run
    covering_runs = Mesh.covering_runs
    copy = Mesh._copy
    insert = space_module._Refinement.insert
    boehm = space_module._boehm

    def counting_covering_run(self, *args):
        lookups.append(1)
        return covering_run(self, *args)

    def counting_covering_runs(self, direction, positions, lo, hi):
        lookups.append(len(positions))
        return covering_runs(self, direction, positions, lo, hi)

    def counting_copy(self):
        copies.append(1)
        return copy(self)

    def counting_insert(self, pieces):
        calls.append(1)
        return insert(self, pieces)

    def counting_boehm(*args):
        insertions.append(1)
        return boehm(*args)

    monkeypatch.setattr(Mesh, "covering_run", counting_covering_run)
    monkeypatch.setattr(Mesh, "covering_runs", counting_covering_runs)
    monkeypatch.setattr(Mesh, "_copy", counting_copy)
    monkeypatch.setattr(space_module._Refinement, "insert", counting_insert)
    monkeypatch.setattr(space_module, "_boehm", counting_boehm)
    boehm.cache_clear()
    summary = run_mesh_demo(tmp_path, iterations=6)
    assert summary["n_functions"] == 932
    assert sum(lookups) <= 14_000
    assert len(insertions) <= 2_200
    assert boehm.cache_info().misses <= 629
    assert len(copies) == 6
    assert len(calls) == 138


def test_pipeline_spaces_hold_the_shared_unit_weight():
    # N2S2 spaces have unit weights, and the fixpoint gives every key
    # whose weight comes out as one the shared ``ONE``, not a copy.
    for seed in range(10):
        for iterations in (1, 2, 3):
            space = random_pipeline_space(seed, iterations=iterations)
            assert {id(w) for w in space.functions.values()} == {id(space_module.ONE)}
