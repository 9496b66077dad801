"""Tests for the command-line interface: artifact production, exit
codes, determinism, and the verification report."""

import csv
import filecmp
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lrbsplines import (
    FormatError,
    from_json,
    is_locally_linearly_independent,
    load,
    save,
    to_json,
    write_element_csv,
)
from lrbsplines import cli
from lrbsplines import space as space_module
from lrbsplines.cli import main, run_mesh_demo, verify

# sha256 of every file that a 4-iteration mesh-demo writes, plus the
# per-element table of its space.  Any change to mesh topology, function
# identity, weights, the trace or the float output formatting shows here.
GOLDEN_MESH_DEMO_4 = {
    "counts.csv": "076cdb1f41caba2f842659c9ed003f262b72a2608fe5394d56cdb496233cf2fb",
    "elements.csv": "301e99286aa48d9be99d2f29d74a897c02a5b731346e7e147401b290320994d8",
    "mesh_0.svg": "44085c01612f67771d78f770a921c94ae87756da30d01d3210561d68d52f3901",
    "mesh_1.svg": "6aad5b0776820bf7023a8d3eceb879e58f91695365c1e0eca919d20f24a62c14",
    "mesh_2.svg": "4b4cbcd19ceea1c1dc221e45540e465a538d4ade98931f2aba035d7f70ed9506",
    "mesh_3.svg": "3df64a06688d4c249d5093c6d3235bfab505d0663928147541fd14e1ead8b13f",
    "mesh_4.svg": "b37283c08f80efa5f918dd935179f94616e6d44a41e0d1cb3b2546c3f0296d6f",
    "space.json": "0b0537a1954fe3d22682b6730f24dba1334a80b079a68fe1cda654a9ab6f2d15",
    "trace.jsonl": "6e3205bc73d54eaafb12059db9b014c8b8a17b184f025c912e5c1d89e29fbf8e",
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
    write_element_csv(load(out / "space.json"), out / "elements.csv")
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN_MESH_DEMO_4


def test_mesh_demo_structured_strategy(tmp_path):
    out = tmp_path / "structured"
    summary = run_mesh_demo(out, iterations=3, strategy="structured")
    assert summary["strategy"] == "structured"
    # Structured refinement performs no expansions, so the trace is empty.
    assert (out / "trace.jsonl").read_text() == ""
    assert len(summary["counts"]) == 4


def test_mesh_demo_rejects_unknown_strategy(tmp_path):
    with pytest.raises(Exception):
        run_mesh_demo(tmp_path / "x", iterations=1, strategy="fancy")


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
    calls = []
    real = space_module._element_bounds

    def counting(mesh):
        calls.append(1)
        return real(mesh)

    monkeypatch.setattr(space_module, "_element_bounds", counting)
    assert verify(target)["collocation_rank"] == running_example["pipeline_2"].n_functions
    assert len(calls) == 1


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
