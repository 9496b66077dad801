"""Tests for the command-line interface: artifact production, exit
codes, determinism, and the verification report."""

import csv
import filecmp
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import count_incidence_calls, to_json
from lrbsplines import (
    EXPANSIONS,
    SpaceError,
    adaptive_solve,
    diagonal_marker,
    from_json,
    initial_space,
    is_locally_linearly_independent,
    load,
    make_initial_mesh,
    n2s_pipeline,
    save,
    three_peaks_spaces,
)
from lrbsplines import bspline, cli, quasi
from lrbsplines import poisson as poisson_module
from lrbsplines import refine as refine_module
from lrbsplines import space as space_module
from lrbsplines.cli import main, run_mesh_demo, verify
from lrbsplines.quasi import lr_qi, three_peaks
from lrbsplines.space import MAX_GRID_POINTS

# sha256 of every file that a 4-iteration mesh-demo writes.  Any change to mesh topology, function
# identity, weights, the trace or the float output formatting shows here.
GOLDEN_MESH_DEMO_4 = {
    "counts.csv": "076cdb1f41caba2f842659c9ed003f262b72a2608fe5394d56cdb496233cf2fb",
    "mesh_0.svg": "44085c01612f67771d78f770a921c94ae87756da30d01d3210561d68d52f3901",
    "mesh_1.svg": "6aad5b0776820bf7023a8d3eceb879e58f91695365c1e0eca919d20f24a62c14",
    "mesh_2.svg": "4b4cbcd19ceea1c1dc221e45540e465a538d4ade98931f2aba035d7f70ed9506",
    "mesh_3.svg": "3df64a06688d4c249d5093c6d3235bfab505d0663928147541fd14e1ead8b13f",
    "mesh_4.svg": "b37283c08f80efa5f918dd935179f94616e6d44a41e0d1cb3b2546c3f0296d6f",
    "space.json": "0b0537a1954fe3d22682b6730f24dba1334a80b079a68fe1cda654a9ab6f2d15",
    "trace.jsonl": "6e3205bc73d54eaafb12059db9b014c8b8a17b184f025c912e5c1d89e29fbf8e",
}

# sha256 of every file that ``mesh-demo --iterations 6 --expansion full``
# writes, recorded when the option was split into ``--parity`` and
# ``--expansion``; its trace's ``dir`` column is the odd-vertical one.
GOLDEN_MESH_DEMO_6_FULL = {
    "counts.csv": "5fbac1a5f8f0879b9eaaeca1a7a84497be284eca0c387e21664274338ad54bab",
    "mesh_0.svg": "44085c01612f67771d78f770a921c94ae87756da30d01d3210561d68d52f3901",
    "mesh_1.svg": "6aad5b0776820bf7023a8d3eceb879e58f91695365c1e0eca919d20f24a62c14",
    "mesh_2.svg": "4b4cbcd19ceea1c1dc221e45540e465a538d4ade98931f2aba035d7f70ed9506",
    "mesh_3.svg": "3df64a06688d4c249d5093c6d3235bfab505d0663928147541fd14e1ead8b13f",
    "mesh_4.svg": "860f7a6a3fee27ce8e0f86f8fe262bf8bea06123e452b919d1167a157312f14f",
    "mesh_5.svg": "6ad42e1a23f5edbdf56966424969a87fb77a763252447ca5a5f7ef341f869a0e",
    "mesh_6.svg": "89c6dff73b3bd2f8c7ef71371ffd3cd1d095c33f09e32748e07bba9ae006542c",
    "space.json": "579b2b7547ae01b390f337787286404e603c3efd1c196ea519c8bd49abcff478",
    "trace.jsonl": "c915ffbed4445b43404604f625b2c5f72e55faf3a5d5c244d58042d4f3a95d78",
}


# Every field but ``path`` of the verify report, in report order, recorded
# before verify certified independence element by element (when it ran
# the dense collocation rank on every space).
GOLDEN_VERIFY = {
    "pipeline_1": {
        "kind": "space", "bidegree": [2, 2], "n_elements": 45, "n_lines": 16,
        "tensorized": [False, False], "passed": True, "n_functions": 69,
        "support_count_min": 9, "support_count_max": 9, "support_count_expected": 9,
        "locally_independent": True, "nested_pairs_knotwise": 0, "nested_pairs_meshwise": 0,
        "nested_definitions_agree": True, "pou_defect_weighted": 4.440892098500626e-16,
        "pou_defect_unweighted": 4.440892098500626e-16, "collocation_rank": 69,
        "rank_deficiency": 0,
    },
    "pipeline_2": {
        "kind": "space", "bidegree": [2, 2], "n_elements": 86, "n_lines": 22,
        "tensorized": [False, False], "passed": True, "n_functions": 114,
        "support_count_min": 9, "support_count_max": 9, "support_count_expected": 9,
        "locally_independent": True, "nested_pairs_knotwise": 0, "nested_pairs_meshwise": 0,
        "nested_definitions_agree": True, "pou_defect_weighted": 4.440892098500626e-16,
        "pou_defect_unweighted": 4.440892098500626e-16, "collocation_rank": 114,
        "rank_deficiency": 0,
    },
    "rank_deficient": {
        "kind": "space", "bidegree": [2, 2], "n_elements": 39, "n_lines": 16,
        "tensorized": [False, False], "passed": False, "n_functions": 60,
        "support_count_min": 9, "support_count_max": 12, "support_count_expected": 9,
        "locally_independent": False, "nested_pairs_knotwise": 10,
        "nested_pairs_meshwise": 10, "nested_definitions_agree": True,
        "pou_defect_weighted": 3.3306690738754696e-16,
        "pou_defect_unweighted": 0.7325889649412578, "collocation_rank": 59,
        "rank_deficiency": 1,
    },
    "two_stage_dependent": {
        "kind": "space", "bidegree": [4, 4], "n_elements": 366, "n_lines": 54,
        "tensorized": [False, False], "passed": False, "n_functions": 400,
        "support_count_min": 25, "support_count_max": 47, "support_count_expected": 25,
        "locally_independent": False, "nested_pairs_knotwise": 620,
        "nested_pairs_meshwise": 620, "nested_definitions_agree": True,
        "pou_defect_weighted": 6.661338147750939e-16,
        "pou_defect_unweighted": 1.3013091193485713, "collocation_rank": 398,
        "rank_deficiency": 2,
    },
    "mesh_demo_4_n2s2": {
        "kind": "space", "bidegree": [2, 2], "n_elements": 176, "n_lines": 34,
        "tensorized": [False, False], "passed": True, "n_functions": 208,
        "support_count_min": 9, "support_count_max": 9, "support_count_expected": 9,
        "locally_independent": True, "nested_pairs_knotwise": 0, "nested_pairs_meshwise": 0,
        "nested_definitions_agree": True, "pou_defect_weighted": 3.3306690738754696e-16,
        "pou_defect_unweighted": 3.3306690738754696e-16, "collocation_rank": 208,
        "rank_deficiency": 0,
    },
    "mesh_demo_4_structured": {
        "kind": "space", "bidegree": [2, 2], "n_elements": 160, "n_lines": 34,
        "tensorized": [False, False], "passed": True, "n_functions": 180,
        "support_count_min": 9, "support_count_max": 10, "support_count_expected": 9,
        "locally_independent": False, "nested_pairs_knotwise": 14,
        "nested_pairs_meshwise": 14, "nested_definitions_agree": True,
        "pou_defect_weighted": 3.3306690738754696e-16,
        "pou_defect_unweighted": 0.25002263771941746, "collocation_rank": 180,
        "rank_deficiency": 0,
    },
}


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# sha256 of the error tables below.  They print full ``repr`` floats, so
# any change to evaluation, quasi-interpolation or assembly bits shows here.
GOLDEN_QI_PEAKS_2 = "4ab32bf1bbfcfb57af6677646353d1738f498993d167debb93c7cb6a80b92c00"
GOLDEN_POISSON_2 = "7682aa7d62840216cc6d4f517bfe2a8020b480a4f7b4226c41bad3cbeea8a146"
GOLDEN_POISSON_3_TENSOR = "c2371ba50d486abeb9fe1be2f12f4d2c57497a49f0ca4f6612a3a4161e3e68d4"


# -- mesh-demo -----------------------------------------------------------------


def test_mesh_demo_produces_artifacts(tmp_path, capsys):
    out = tmp_path / "demo"
    code = main(["mesh-demo", "--iterations", "3", "--out", str(out)])
    assert code == 0
    for i in range(4):
        assert (out / f"mesh_{i}.svg").exists()
    assert (out / "space.json").exists()
    assert (out / "trace.jsonl").exists()
    rows = _read_csv(out / "counts.csv")
    assert [int(r["iteration"]) for r in rows] == [0, 1, 2, 3]
    assert int(rows[0]["n_functions"]) == 9  # the Bernstein basis
    stdout = capsys.readouterr().out
    assert "locally_independent: True" in stdout

    space = from_json(json.loads((out / "space.json").read_text()))
    assert space.n_functions == int(rows[-1]["n_functions"])
    assert is_locally_linearly_independent(space)


def test_mesh_demo_with_unequal_bidegree_runs_to_the_end(tmp_path, capsys):
    # Iteration 6 of the (2, 1) sweep needs 136 expansions, more than the
    # mesh's 130 runs at the start of the sweep: no run-count bound holds.
    code = main(["mesh-demo", "--degree", "2", "1", "--iterations", "6", "--out", str(tmp_path)])
    assert code == 0
    assert "locally_independent: True" in capsys.readouterr().out


def test_mesh_demo_is_deterministic(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        assert main(["mesh-demo", "--iterations", "2", "--out", str(out)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert mismatch == [] and errors == []
    assert match == names


@pytest.mark.parametrize("command", ["mesh-demo", "qi-peaks", "poisson"])
def test_only_verify_takes_a_seed(tmp_path, capsys, command):
    # Nothing random runs in these commands, so they have no --seed.
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--out", str(tmp_path / "out"), "--seed", "5"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_mesh_demo_artifacts_match_golden_hashes(tmp_path):
    out = tmp_path / "demo"
    run_mesh_demo(out, iterations=4)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN_MESH_DEMO_4


def test_mesh_demo_structured_strategy(tmp_path):
    out = tmp_path / "structured"
    summary = run_mesh_demo(out, iterations=3, strategy="structured")
    assert summary["strategy"] == "structured"
    # Structured refinement performs no expansions, so the trace is empty.
    assert (out / "trace.jsonl").read_text() == ""
    assert len(summary["counts"]) == 4


def test_mesh_demo_full_expansion_matches_golden(tmp_path):
    out = tmp_path / "full"
    assert main(["mesh-demo", "--iterations", "6", "--expansion", "full", "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN_MESH_DEMO_6_FULL


def test_mesh_demo_expansions_write_different_spaces(tmp_path):
    # At 3 iterations no expansion runs yet, so all three spaces agree.
    documents, counts = {}, {}
    for expansion in EXPANSIONS:
        out = tmp_path / expansion
        assert main(["mesh-demo", "--iterations", "5", "--expansion", expansion, "--out", str(out)]) == 0
        documents[expansion] = (out / "space.json").read_bytes()
        counts[expansion] = load(out / "space.json").n_functions
    assert len(set(documents.values())) == 3
    assert counts == {"odd-vertical": 450, "odd-horizontal": 450, "full": 678}


@pytest.mark.parametrize(
    "argv", [["--parity", "odd-vertical"], ["--expansion", "one-directional"]]
)
def test_removed_sweep_options_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["mesh-demo", "--iterations", "1", "--out", str(tmp_path / "x")] + argv)
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "driver", ["n2s_pipeline", "run_mesh_demo", "three_peaks_spaces", "adaptive_solve"]
)
def test_drivers_take_exactly_the_three_expansions(tmp_path, driver):
    calls = {
        "n2s_pipeline": lambda **options: n2s_pipeline(
            initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 4)), diagonal_marker, 1, **options
        ),
        "run_mesh_demo": lambda **options: run_mesh_demo(tmp_path, iterations=1, **options),
        "three_peaks_spaces": lambda **options: three_peaks_spaces(2, **options),
        "adaptive_solve": lambda **options: adaptive_solve(
            2, grid=(8, 8), strategies=("n2s2",), **options
        ),
    }
    call = calls[driver]
    for unknown in ("one-directional", "tensor"):
        with pytest.raises(SpaceError, match="unknown expansion"):
            call(expansion=unknown)
    with pytest.raises(TypeError):
        call(parity="odd-horizontal")
    for expansion in EXPANSIONS:
        call(expansion=expansion)


@pytest.mark.parametrize("path", ["structured mesh-demo", "tensor poisson"])
def test_drivers_check_the_expansion_without_a_pipeline(tmp_path, monkeypatch, path):
    # Neither path runs the pipeline, which would check the value itself.
    calls = {
        "structured mesh-demo": lambda expansion: run_mesh_demo(
            tmp_path / "demo", iterations=1, strategy="structured", expansion=expansion
        ),
        "tensor poisson": lambda expansion: adaptive_solve(
            2, grid=(8, 8), strategies=("tensor",), expansion=expansion
        ),
    }
    with pytest.raises(SpaceError, match="^unknown expansion 'bogus'$"):
        calls[path]("bogus")
    assert not (tmp_path / "demo").exists()
    monkeypatch.setattr(refine_module, "EXPANSIONS", EXPANSIONS + ("bogus",))
    calls[path]("bogus")


def test_mesh_demo_parity_flips_every_direction(tmp_path):
    dirs = {}
    for expansion in ("odd-vertical", "odd-horizontal"):
        out = tmp_path / expansion
        assert main(["mesh-demo", "--iterations", "4", "--expansion", expansion, "--out", str(out)]) == 0
        records = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        by_iteration = {}
        for record in records:
            by_iteration.setdefault(record["iter"], set()).add(record["dir"])
        dirs[expansion] = by_iteration
    default, flipped = dirs["odd-vertical"], dirs["odd-horizontal"]
    assert flipped and set(flipped) <= set(default)
    for i, found in flipped.items():
        assert len(default[i]) == 1 and found == {3 - d for d in default[i]}


def test_mesh_demo_rejects_unknown_strategy(tmp_path):
    with pytest.raises(Exception):
        run_mesh_demo(tmp_path / "x", iterations=1, strategy="fancy")


@pytest.mark.parametrize("iterations", [True, False, 2.0, "2", None, (2,)])
def test_iterations_must_be_an_int(tmp_path, iterations):
    # iterations=True used to run one iteration, and 2.0 escaped from
    # range as a bare TypeError.
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 1))
    with pytest.raises(SpaceError, match=r"^iterations must be an int >= 0, got "):
        n2s_pipeline(space, diagonal_marker, iterations)
    for strategy in ("structured", "n2s2"):
        with pytest.raises(SpaceError, match=r"^iterations must be an int >= 0, got "):
            run_mesh_demo(tmp_path / "x", iterations=iterations, strategy=strategy)
    assert not (tmp_path / "x").exists()


def test_numpy_iteration_counts_are_still_taken(tmp_path):
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 1))
    spaces, _ = n2s_pipeline(space, diagonal_marker, np.int64(2))
    assert len(spaces) == 2
    summary = run_mesh_demo(tmp_path, iterations=np.int32(2))
    assert type(summary["iterations"]) is int and summary["iterations"] == 2
    with pytest.raises(SpaceError, match=r"^iterations must be an int >= 0, got -1$"):
        n2s_pipeline(space, diagonal_marker, -1)


# -- qi-peaks ------------------------------------------------------------------


def test_qi_peaks_writes_level_table(tmp_path, capsys):
    target = tmp_path / "peaks.csv"
    code = main(["qi-peaks", "--levels", "2", "--grid", "60", "--out", str(target)])
    assert code == 0
    rows = _read_csv(target)
    assert [int(r["level"]) for r in rows] == [1, 2]
    assert [int(r["n_tensor"]) for r in rows] == [36, 100]
    assert [int(r["n_n2s2"]) for r in rows] == [36, 86]
    assert all(float(r["max_error_n2s2"]) > 0 for r in rows)
    assert "level 2" in capsys.readouterr().out
    assert _sha256(target) == GOLDEN_QI_PEAKS_2


def test_qi_peaks_passes_expansion_on(tmp_path):
    # The peaks lie on the diagonal, so an odd-horizontal run gives the
    # transposed spaces and the same counts; the mesh-demo tests check
    # that the parity reaches the pipeline.
    target = tmp_path / "peaks.csv"
    argv = ["qi-peaks", "--levels", "3", "--expansion", "full"]
    assert main(argv + ["--grid", "30", "--out", str(target)]) == 0
    counts = [int(r["n_n2s2"]) for r in _read_csv(target)]
    spaces = three_peaks_spaces(3, expansion="full")
    assert counts == [space.n_functions for space in spaces]
    assert counts != [36, 86, 161]  # the default run's column


def test_qi_peaks_pays_each_fixed_cost_once(tmp_path, monkeypatch):
    # Level 1 of both families is one space, interpolated once, and the
    # target is sampled on the error grid once for all spaces.
    interpolated, sampled = [], []
    real_qi, real_peaks = cli.lr_qi, cli.three_peaks

    def counting_qi(space, f):
        interpolated.append(space.n_functions)
        return real_qi(space, f)

    def counting_peaks(x, y):
        if np.broadcast(x, y).shape == (40, 40):
            sampled.append(1)
        return real_peaks(x, y)

    monkeypatch.setattr(cli, "lr_qi", counting_qi)
    monkeypatch.setattr(cli, "three_peaks", counting_peaks)
    assert main(["qi-peaks", "--levels", "3", "--grid", "40", "--out", str(tmp_path / "qi.csv")]) == 0
    assert interpolated == [36, 100, 86, 324, 161]
    assert sampled == [1]


def test_cold_qi_tables_take_one_kernel_call_per_group(monkeypatch):
    # The distinct vectors' tables are built by one stacked kernel call
    # per (degree, raised length), not one call per vector.
    space = three_peaks_spaces(3)[-1]
    keys = space.sorted_keys()
    vectors = set(space_module._distinct(keys, 1)[0] + space_module._distinct(keys, 2)[0])
    groups = {(len(v) - 2, len(quasi._raised_vector(v, len(v) - 2))) for v in vectors}
    calls = []
    real = bspline._stacked_values

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(bspline, "_stacked_values", counting)
    lr_qi(space, three_peaks)
    assert len(calls) == len(groups) < len(vectors)
    assert sum(shape[0] for shape in calls) == len(vectors)


def test_qi_peaks_rejects_zero_levels(tmp_path, capsys):
    code = main(["qi-peaks", "--levels", "0", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# -- poisson -------------------------------------------------------------------


def test_poisson_writes_error_table(tmp_path, capsys):
    target = tmp_path / "poisson.csv"
    code = main(
        ["poisson", "--levels", "2", "--grid", "80", "--out", str(target)]
    )
    assert code == 0
    rows = _read_csv(target)
    assert {r["strategy"] for r in rows} == {"tensor", "n2s2"}
    for row in rows:
        assert int(row["level"]) == 2
        assert float(row["linf"]) >= float(row["l2"]) > 0
    assert "wrote" in capsys.readouterr().out
    assert _sha256(target) == GOLDEN_POISSON_2


def test_poisson_single_strategy(tmp_path):
    target = tmp_path / "poisson.csv"
    code = main(
        [
            "poisson",
            "--levels",
            "3",
            "--grid",
            "60",
            "--strategy",
            "tensor",
            "--out",
            str(target),
        ]
    )
    assert code == 0
    rows = _read_csv(target)
    assert [r["strategy"] for r in rows] == ["tensor", "tensor"]
    assert [int(r["level"]) for r in rows] == [2, 3]
    assert _sha256(target) == GOLDEN_POISSON_3_TENSOR


def test_poisson_passes_expansion_on(tmp_path):
    # Level 4: up to level 3 the full and one-directional sweeps agree.
    target = tmp_path / "poisson.csv"
    argv = ["poisson", "--levels", "4", "--strategy", "n2s2", "--expansion", "full"]
    assert main(argv + ["--grid", "40", "--out", str(target)]) == 0
    rows = adaptive_solve(4, grid=(40, 40), strategies=("n2s2",), expansion="full")
    assert _read_csv(target) == [{k: str(v) for k, v in row.items()} for row in rows]
    assert [row["n_functions"] for row in rows] == [36, 93, 259]  # one-directional: 222


def test_commands_build_spaces_through_the_benchmark_hooks(tmp_path, monkeypatch):
    # perfbench/workloads.py counts as build time only the calls of these
    # names, wrapped where the commands look them up.  A command that
    # builds its spaces some other way moves build time into analysis.
    hooks = [
        (cli, "three_peaks_spaces"),
        (cli, "tensor_space_for_level"),
        (poisson_module, "make_initial_mesh"),
        (poisson_module, "initial_space"),
        (poisson_module, "n2s_pipeline"),
    ]
    calls = Counter()
    for module, name in hooks:

        def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    table = tmp_path / "qi.csv"
    assert main(["qi-peaks", "--levels", "2", "--grid", "10", "--out", str(table)]) == 0
    poisson_module.adaptive_solve(3, grid=(20, 20))
    assert set(calls) == {name for _, name in hooks}


def test_poisson_rejects_too_few_levels(tmp_path, capsys):
    code = main(["poisson", "--levels", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["qi-peaks", "--grid", "0"],
        ["qi-peaks", "--grid", "1"],
        ["poisson", "--grid", "0"],
        ["poisson", "--grid", "1"],
        ["mesh-demo", "--iterations", "-1"],
    ],
)
def test_degenerate_sizes_fail_fast(tmp_path, capsys, argv):
    target = tmp_path / "out"
    code = main(argv + ["--out", str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not target.exists()


def _run_module(*argv):
    """``python -m lrbsplines *argv`` on the checkout's sources, and its
    wall time."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "lrbsplines", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        timeout=120,
    )
    return run, time.perf_counter() - start


@pytest.mark.parametrize("command", ["qi-peaks", "poisson"])
def test_an_oversized_grid_is_refused_before_any_work(tmp_path, command):
    # 10^10 points, 80 GB per float array: refused before anything is
    # built or sampled, within a second of the interpreter's start-up,
    # which the help run measures.
    _, start_up = _run_module(command, "--help")
    target = tmp_path / "out.csv"
    run, elapsed = _run_module(command, "--grid", "100000", "--out", str(target))
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: --grid 100000 asks for 10000000000 sample points")
    assert f"above the cap of {MAX_GRID_POINTS} points" in run.stderr
    assert elapsed - start_up < 1.0
    assert not target.exists()


def test_the_grid_cap_admits_every_default_grid_and_is_in_the_help(capsys):
    assert 500 * 500 < MAX_GRID_POINTS == 4096 * 4096
    for command in ("qi-peaks", "poisson"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"at most {MAX_GRID_POINTS} points" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "command, levels, functions",
    [("qi-peaks", "12", (2**13 + 2) ** 2), ("poisson", "14", (2**14 + 2) ** 2)],
)
def test_oversized_levels_are_refused_before_any_work(tmp_path, command, levels, functions):
    # 67 and 268 million tensor functions: refused from the closed-form
    # count before any space is built, within a second of the
    # interpreter's start-up, which the help run measures.
    _, start_up = _run_module(command, "--help")
    target = tmp_path / "out.csv"
    run, elapsed = _run_module(command, "--levels", levels, "--out", str(target))
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith(
        f"error: --levels {levels} asks for a tensor space of {functions} functions"
    )
    assert f"above the cap of {cli.MAX_TENSOR_FUNCTIONS[command]} functions" in run.stderr
    assert elapsed - start_up < 1.0
    assert not target.exists()


class _Started(Exception):
    """Raised by a stand-in for the work a command starts."""


def _start(*args, **kwargs):
    raise _Started


def test_the_levels_caps_admit_the_largest_levels_below_them_and_are_in_the_help(
    capsys, monkeypatch
):
    # Levels 9 and 8 (1,052,676 and 66,564 functions) start their work;
    # poisson level 9 (264,196) is refused unless its n2s2 family runs
    # alone, which builds no tensor space.
    monkeypatch.setattr(cli, "three_peaks_spaces", _start)
    monkeypatch.setattr(cli, "adaptive_solve", _start)
    for argv in (
        ["qi-peaks", "--levels", "9"],
        ["poisson", "--levels", "8"],
        ["poisson", "--levels", "9", "--strategy", "n2s2"],
    ):
        with pytest.raises(_Started):
            main(argv)
    assert main(["poisson", "--levels", "9"]) == 2
    assert "above the cap of 131072 functions" in capsys.readouterr().err
    for command in ("qi-peaks", "poisson"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"at most {cli.MAX_TENSOR_FUNCTIONS[command]} functions" in help_text


# -- verify --------------------------------------------------------------------


def test_verify_passes_independent_space(tmp_path, capsys, running_example):
    target = tmp_path / "space.json"
    save(running_example["pipeline_1"], target)
    code = main(["verify", str(target)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "passed: True" in stdout
    assert "rank_deficiency: 0" in stdout
    assert "locally_independent: True" in stdout
    assert "nested_definitions_agree: True" in stdout


def test_verify_flags_dependent_space(tmp_path, capsys, rank_deficient_space):
    target = tmp_path / "dependent.json"
    save(rank_deficient_space, target)
    code = main(["verify", str(target)])
    stdout = capsys.readouterr().out
    assert code == 2
    assert "passed: False" in stdout
    assert "rank_deficiency: 1" in stdout


def test_verify_fails_on_wrong_weights(tmp_path, capsys, running_example):
    # Weights that are not the space's break the partition of unity
    # while leaving the functions linearly independent.
    doc = to_json(running_example["pipeline_1"])
    doc["functions"][0]["w"] = 1e308
    bad = tmp_path / "wrong_weight.json"
    bad.write_text(json.dumps(doc))
    code = main(["verify", str(bad)])
    stdout = capsys.readouterr().out
    assert code == 2
    assert "passed: False" in stdout
    assert "rank_deficiency: 0" in stdout


def test_verify_report_fields(tmp_path, running_example):
    target = tmp_path / "space.json"
    save(running_example["pipeline_2"], target)
    report = verify(target)
    assert report["kind"] == "space"
    assert report["support_count_min"] == report["support_count_max"] == 9
    assert report["pou_defect_weighted"] <= 1e-12
    assert report["pou_defect_unweighted"] <= 1e-12
    assert report["collocation_rank"] == report["n_functions"]


def test_verify_reads_the_element_bounds_once(tmp_path, running_example, monkeypatch):
    # The support counts and the element-wise rank share one pass.
    target = tmp_path / "space.json"
    save(running_example["pipeline_2"], target)
    calls = count_incidence_calls(monkeypatch)
    assert verify(target)["collocation_rank"] == running_example["pipeline_2"].n_functions
    assert len(calls) == 1


def test_verify_builds_one_incidence_and_no_refinement_state(tmp_path, request, monkeypatch):
    # The nested pairs come from the corner search over the incidence
    # that the support counts built; no refinement state is made.
    target = _saved_space("mesh_demo_4_structured", tmp_path, request)
    calls = count_incidence_calls(monkeypatch)
    states = []
    init = space_module._Refinement.__init__

    def counted_init(self, space):
        states.append(space)
        init(self, space)

    monkeypatch.setattr(space_module._Refinement, "__init__", counted_init)
    assert verify(target)["nested_pairs_knotwise"] == 14
    assert len(calls) == 1
    assert states == []


def _saved_space(name, tmp_path, request):
    """The space document of a ``GOLDEN_VERIFY`` entry, written under tmp_path."""
    if name.startswith("mesh_demo_4_"):
        out = tmp_path / name
        run_mesh_demo(out, iterations=4, strategy=name.removeprefix("mesh_demo_4_"))
        return out / "space.json"
    if name.startswith("pipeline_"):
        space = request.getfixturevalue("running_example")[name]
    else:
        space = request.getfixturevalue(f"{name}_space")
    target = tmp_path / f"{name}.json"
    save(space, target)
    return target


@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
def test_verify_report_matches_golden(tmp_path, request, name):
    target = _saved_space(name, tmp_path, request)
    report = verify(target)
    assert report.pop("path") == str(target)
    assert list(report.items()) == list(GOLDEN_VERIFY[name].items())


@pytest.mark.parametrize("name", ["pipeline_2", "mesh_demo_4_n2s2"])
def test_verify_certifies_independent_space_without_dense_rank(
    tmp_path, request, monkeypatch, name
):
    target = _saved_space(name, tmp_path, request)

    def dense_rank(*args, **kwargs):
        raise AssertionError("verify took the dense collocation rank")

    monkeypatch.setattr(cli, "collocation_rank", dense_rank)
    report = verify(target)
    del report["path"]
    assert report == GOLDEN_VERIFY[name]


def test_verify_cross_checks_nestedness_on_both_sides(tmp_path, request, monkeypatch):
    # A knotwise test that finds no pair must not hide the pairs that the
    # meshwise test finds.
    target = _saved_space("mesh_demo_4_structured", tmp_path, request)

    def blind(inner, outer):
        return False

    monkeypatch.setattr(refine_module, "is_nested_knotwise", blind)
    report = verify(target)
    assert report["nested_pairs_knotwise"] == 0
    assert report["nested_pairs_meshwise"] == 14
    assert report["nested_definitions_agree"] is False


def test_verify_caps_the_dense_rank(
    tmp_path, capsys, monkeypatch, rank_deficient_space, running_example
):
    dependent = tmp_path / "dependent.json"
    independent = tmp_path / "independent.json"
    save(rank_deficient_space, dependent)
    save(running_example["pipeline_2"], independent)
    monkeypatch.setattr(cli, "DENSE_RANK_MAX_FUNCTIONS", 59)

    code = main(["verify", str(dependent)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert "passed: False" in lines
    assert lines[-3:-1] == ["collocation_rank: None", "rank_deficiency: None"]
    assert lines[-1].startswith("rank_not_computed: ")
    assert "60 functions" in lines[-1]

    # At the cap, the dense rank still runs.
    monkeypatch.setattr(cli, "DENSE_RANK_MAX_FUNCTIONS", 60)
    report = verify(dependent)
    assert report["collocation_rank"] == 59 and "rank_not_computed" not in report

    # The certificate needs no dense rank, so the cap does not apply.
    report = verify(independent)
    assert report["passed"] is True and report["collocation_rank"] == 114
    assert "rank_not_computed" not in report


def test_verify_seed_gives_identical_output(tmp_path, capsys, running_example):
    target = tmp_path / "space.json"
    save(running_example["pipeline_1"], target)
    outputs = []
    for _ in range(2):
        code = main(["verify", str(target), "--seed", "11"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", ["mesh_demo_4_n2s2", "mesh_demo_4_structured"])
def test_verify_rejects_a_negative_seed(tmp_path, capsys, request, name):
    # Only the structured space, not locally independent, reaches the
    # seeded dense rank; both reject the seed before reading the document.
    target = _saved_space(name, tmp_path, request)
    code = main(["verify", str(target), "--seed", "-1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_verify_handles_bare_mesh(tmp_path, capsys, mixed_mesh):
    target = tmp_path / "mesh.json"
    save(mixed_mesh, target)
    code = main(["verify", str(target)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "kind: mesh" in stdout
    assert "n_elements:" in stdout


def test_verify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code = main(["verify", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_out_of_range_coordinate(tmp_path, capsys, running_example):
    doc = to_json(running_example["pipeline_1"])
    doc["domain"][1] = [1, 10**12]
    bad = tmp_path / "huge_exponent.json"
    bad.write_text(json.dumps(doc))
    code = main(["verify", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: domain[1]:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "weight, field",
    [(None, "functions:"), ("1e400", "functions[0].w:"), (str(10**400), "functions[0].w:")],
    ids=["no-functions", "weight-1e400", "weight-10**400"],
)
def test_verify_rejects_unusable_functions(tmp_path, capsys, running_example, weight, field):
    # An empty function list and weights beyond the double range used to
    # escape as tracebacks.
    doc = to_json(running_example["pipeline_1"])
    if weight is None:
        doc["functions"] = []
    text = json.dumps(doc)
    if weight is not None:
        assert '"w": 1.0' in text
        text = text.replace('"w": 1.0', f'"w": {weight}', 1)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = main(["verify", str(bad)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(f"error: {field}")


def test_verify_missing_file(tmp_path, capsys):
    code = main(["verify", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["verify-a-directory", "mesh-demo-out-is-a-file", "verify-non-utf8-file"])
def test_path_and_encoding_errors_exit_2_with_one_error_line(tmp_path, capsys, case):
    target = tmp_path / "target"
    if case == "verify-a-directory":
        target.mkdir()
        argv = ["verify", str(target)]
    elif case == "mesh-demo-out-is-a-file":
        target.write_text("taken\n")
        argv = ["mesh-demo", "--iterations", "0", "--out", str(target)]
    else:
        target.write_bytes(b'{"domain": "\xff"}')
        argv = ["verify", str(target)]
    code = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(target) in lines[0]


# -- argument handling -----------------------------------------------------------


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_missing_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()


def test_python_m_runs_the_command_line(tmp_path, capsys, running_example):
    target = tmp_path / "space.json"
    save(running_example["pipeline_1"], target)
    assert main(["verify", str(target)]) == 0
    expected = capsys.readouterr().out
    # The checkout's sources, not an installed copy.
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "lrbsplines", "verify", str(target)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == expected
