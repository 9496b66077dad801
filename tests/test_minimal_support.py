"""Checking a space once, by arrays.

``LRSpace.validate`` decides minimal support for every function of a
space in one array pass per direction
(``bspline._lacking_minimal_support``), and checks key shapes, degrees
and weights once per distinct vector and weight.  The oracles are the
per-function scan ``has_minimal_support`` and the per-function loop that
``validate`` used to run.  ``verify`` names the first failing function
by its document entry, and builds the distinct knot vectors of each
direction twice, once for this check and once for the space's incidence;
``quasi._collocations`` keeps its tables across calls, up to a bound; tiling
refuses a position grid above its cap.
"""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import has_minimal_support, key_of, random_pipeline_space, to_json
from lrbsplines import quasi
from lrbsplines.bspline import _lacking_minimal_support, _minimal_support
from lrbsplines import space as space_module
from lrbsplines.cli import main, run_mesh_demo, verify
from lrbsplines.formats import load
from lrbsplines.mesh import MAX_TILING_CELLS, Mesh, MeshError, _tile, make_initial_mesh
from lrbsplines.quasi import lr_qi, three_peaks, three_peaks_spaces
from lrbsplines.space import (
    ONE,
    LRSpace,
    SpaceError,
    _first_fault,
    _function_fault,
    _windows,
    initial_space,
)


def _array_verdicts(space) -> list:
    keys = list(space.functions)
    windows = [_windows(keys, d, p) for d, p in zip((1, 2), space.mesh.bidegree)]
    return _lacking_minimal_support(windows, space.mesh).tolist()


def _scan_verdicts(space) -> list:
    return [not has_minimal_support(key, space.mesh) for key in space.functions]


def _changed(mesh: Mesh, direction: int, index: int, change) -> Mesh:
    """``mesh`` with one run of ``direction``, the ``index``-th modulo
    their count, removed (``change`` None) or its multiplicity moved by
    ``change``; a run left at multiplicity zero is removed.  The result
    is not checked, so it need not be a valid mesh."""
    runs = {d: dict(mesh._runs[d]) for d in (1, 2)}
    lines = [(pos, run) for pos in mesh.positions(direction) for run in runs[direction][pos]]
    pos, (lo, hi, mult) = lines[index % len(lines)]
    kept = tuple(run for run in runs[direction][pos] if run[0] != lo)
    if change is not None and mult + change > 0:
        kept = tuple(sorted(kept + ((lo, hi, mult + change),)))
    if kept:
        runs[direction][pos] = kept
    else:
        del runs[direction][pos]
    positions = {d: tuple(sorted(runs[d])) for d in (1, 2)}
    return Mesh(mesh.domain, mesh.bidegree, runs, positions, None)


pipeline_spaces = st.builds(
    random_pipeline_space,
    seed=st.integers(0, 10**6),
    iterations=st.integers(0, 2),
    n_cells=st.sampled_from([1, 2, 4]),
    bidegree=st.sampled_from([(1, 1), (2, 2), (3, 2), (2, 3)]),
)


@settings(max_examples=40, deadline=None)
@given(space=pipeline_spaces)
def test_array_check_equals_the_scan_on_pipeline_spaces(space):
    assert _array_verdicts(space) == _scan_verdicts(space) == [False] * space.n_functions


@settings(max_examples=150, deadline=None)
@given(
    space=pipeline_spaces,
    direction=st.sampled_from([1, 2]),
    index=st.integers(0, 10**6),
    change=st.sampled_from([None, -1, 1, 2]),
)
def test_array_check_equals_the_scan_on_changed_meshes(space, direction, index, change):
    # Raising, lowering or removing one run leaves functions that lack
    # minimal support, and meshes whose runs end off the positions.
    changed = LRSpace(_changed(space.mesh, direction, index, change), space.functions)
    assert _array_verdicts(changed) == _scan_verdicts(changed)


def test_changed_meshes_leave_functions_without_minimal_support():
    # The property above is not vacuous: each kind of change fails some
    # functions of a refined space, and none fails all of them.
    space = random_pipeline_space(5, iterations=2, n_cells=2)
    for change in (None, -1, 1):
        verdicts = _scan_verdicts(LRSpace(_changed(space.mesh, 1, 7, change), space.functions))
        assert 0 < sum(verdicts) < len(verdicts)


def _old_first_fault(space):
    """The per-function loop of ``validate`` before the array check."""
    for i, (key, weight) in enumerate(space.functions.items()):
        message = _function_fault(key, weight, space.mesh.bidegree)
        if message is not None:
            return i, message
        if not _minimal_support(*key, space.mesh):
            return i, f"function {key} lacks minimal support"
    return None


@pytest.mark.parametrize(
    "faults",
    [
        {},
        {5: "support"},
        {5: "support", 9: "weight"},
        {5: "weight", 9: "support"},
        {2: "degree", 3: "support"},
        {3: "support", 8: "floats"},
        {0: "decreasing"},
        {12: "triple"},
    ],
)
def test_validate_names_the_first_failing_function_in_order(running_example, faults):
    # The function at each index of ``faults`` is replaced by one with
    # that fault, so several faults of different kinds can compete.
    base = running_example["structured_1"]
    outside = running_example["key1"]  # split in structured_1: no minimal support there
    bad_keys = {
        "support": outside,
        "degree": key_of((0, 0.5, 1), (0, 0.5, 1, 1)),
        "decreasing": key_of((0, 0.5, 0.25, 1), (0, 0.5, 1, 1)),
        "floats": ((0.0, 0.25, 0.5, 1.0), key_of((), (0, 0.5, 1, 1))[1]),
        "triple": key_of((0, 0.5, 1, 1), (0, 0.5, 1, 1)) + ((),),
    }
    items = list(base.functions.items())
    for i, fault in faults.items():
        key, weight = items[i]
        items[i] = (key, Fraction(-1)) if fault == "weight" else (bad_keys[fault], ONE)
    space = LRSpace(base.mesh, dict(items))
    expected = _old_first_fault(space)
    assert _first_fault(space) == expected
    assert (expected is None) == (not faults)
    if expected is not None:
        assert expected[0] == min(faults)
        with pytest.raises(SpaceError) as info:
            space.validate()
        assert str(info.value) == expected[1]


def test_validate_makes_no_covering_run_call(tmp_path, monkeypatch):
    run_mesh_demo(tmp_path, iterations=6)
    space = load(tmp_path / "space.json")
    assert space.n_functions == 932
    calls = []
    monkeypatch.setattr(Mesh, "covering_run", lambda *args: calls.append(args))
    space.validate()
    assert calls == []


def test_verify_builds_the_distinct_vectors_twice_per_direction(tmp_path, monkeypatch):
    # Once in document order for the check of the loaded functions, once
    # in sorted-key order for the incidence, whose windows serve the
    # grid sums and the element-wise rank certificate.
    run_mesh_demo(tmp_path, iterations=6)
    calls = []
    real = space_module._distinct

    def counting(keys, direction):
        calls.append(direction)
        return real(keys, direction)

    monkeypatch.setattr(space_module, "_distinct", counting)
    report = verify(tmp_path / "space.json")
    assert report["n_functions"] == 932 and report["passed"]
    assert calls == [1, 2, 1, 2]


def _write(doc, path) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def test_verify_names_the_entry_without_minimal_support(tmp_path, capsys, running_example):
    doc = to_json(running_example["structured_1"])
    outside = to_json(LRSpace(running_example["base"].mesh, {running_example["key1"]: ONE}))
    doc["functions"].insert(3, outside["functions"][0])
    code = main(["verify", _write(doc, tmp_path / "space.json")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1
    assert lines[0].startswith("error: functions[3]: function ((")
    assert lines[0].endswith(" lacks minimal support")


def test_verify_names_the_entry_of_a_wrong_degree(tmp_path, capsys):
    doc = to_json(initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2)))
    doc["functions"][7]["x"] = [[0, 0], [1, 1], [1, 0]]
    code = main(["verify", _write(doc, tmp_path / "space.json")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1
    assert lines[0].startswith("error: functions[7]: function ((")
    assert lines[0].endswith("has degrees (1, 2), mesh (2, 2)")


def test_qi_collocations_are_kept_across_calls(monkeypatch):
    # The tables are built by stacked kernel calls; a second call on the
    # same space finds every table kept and calls the kernel not at all.
    space = three_peaks_spaces(3)[-1]
    quasi._tables.clear()
    calls = []
    real = quasi._stacked_values

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(quasi, "_stacked_values", counting)
    first = lr_qi(space, three_peaks)
    assert calls
    calls.clear()
    assert lr_qi(space, three_peaks) == first
    assert calls == []
    nodes, matrix, _ = quasi._tables[space.sorted_keys()[0][0]]
    assert not nodes.flags.writeable and not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[0, 0] = 1.0


def test_qi_collocations_keep_the_most_recently_used(monkeypatch):
    space = three_peaks_spaces(2)[-1]
    expected = lr_qi(space, three_peaks)
    monkeypatch.setattr(quasi, "_TABLES_MAX", 5)
    quasi._tables.clear()
    assert lr_qi(space, three_peaks) == expected
    assert len(quasi._tables) == 5
    # the last five vectors read, the y vectors of the last keys
    assert list(quasi._tables) == space_module._distinct(space.sorted_keys(), 2)[0][-5:]


def test_the_tiling_cap_sits_above_the_scale_milestone():
    # 11 iterations of mesh-demo tile a 2,049 x 2,049 position grid.
    assert 2049 * 2049 * 4 < MAX_TILING_CELLS
    with pytest.raises(MeshError, match=r"2 x 16777217 positions.*cap of 33554432 cells"):
        _tile({1: (0, 1), 2: range(16_777_217)}, None)


def test_verify_refuses_an_oversized_grid_before_tiling(tmp_path, capsys):
    # About 6,000 positions per side: 36 million cells, above the cap.
    n = 6000
    lines = [{"dir": d, "fixed": [k, 0], "span": [[0, 0], [n, 0]], "mult": 1} for d in (1, 2) for k in range(1, n)]
    lines += [{"dir": d, "fixed": [k, 0], "span": [[0, 0], [n, 0]], "mult": 2} for d in (1, 2) for k in (0, n)]
    doc = {"domain": [[0, 0], [n, 0], [0, 0], [n, 0]], "bidegree": [1, 1], "lines": lines}
    target = _write(doc, tmp_path / "mesh.json")
    start = time.perf_counter()
    code = main(["verify", target])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot tile a grid of {n + 1} x {n + 1} positions")
    assert str(MAX_TILING_CELLS) in err
    assert elapsed < 1.0
