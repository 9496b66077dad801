"""Tests for the command-line interface: artifact production, exit
codes, determinism under --seed, and the verification report."""

import csv
import filecmp
import hashlib
import json

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


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
        assert main(["mesh-demo", "--iterations", "2", "--out", str(out), "--seed", "5"]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert mismatch == [] and errors == []
    assert match == names


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


def test_verify_report_fields(tmp_path, running_example):
    target = tmp_path / "space.json"
    save(running_example["pipeline_2"], target)
    report = verify(target)
    assert report["kind"] == "space"
    assert report["support_count_min"] == report["support_count_max"] == 9
    assert report["pou_defect_weighted"] <= 1e-12
    assert report["pou_defect_unweighted"] <= 1e-12
    assert report["collocation_rank"] == report["n_functions"]


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
