"""Tests for the file formats: JSON documents, SVG rendering, the
refinement trace, and the CSV tables.

The round-trip law is checked as encode-decode-encode == encode so that
byte-level determinism and semantic fidelity are covered by the same
assertion; malformed documents must fail with errors that name the
offending field.
"""

import json

import pytest

from lrbsplines import (
    FormatError,
    LRSpace,
    Mesh,
    from_json,
    initial_space,
    load,
    make_initial_mesh,
    n2s_pipeline,
    render_svg,
    save,
    write_poisson_csv,
    write_qi_csv,
    write_trace,
)

from conftest import random_pipeline_space, to_json
from lrbsplines import formats as formats_module


# -- JSON round trips ---------------------------------------------------------


def test_mesh_roundtrip_is_exact(mixed_mesh):
    doc = to_json(mixed_mesh)
    again = from_json(doc)
    assert isinstance(again, Mesh)
    assert again == mixed_mesh
    assert to_json(again) == doc


def test_space_roundtrip_is_exact(running_example):
    space = running_example["pipeline_2"]
    doc = to_json(space)
    again = from_json(doc)
    assert isinstance(again, LRSpace)
    assert again.mesh == space.mesh
    assert again.sorted_keys() == space.sorted_keys()
    assert all(
        again.functions[k] == space.functions[k]
        for k in space.functions
    )
    assert to_json(again) == doc


def test_randomized_roundtrips():
    for seed in (3, 59, 101):
        space = random_pipeline_space(seed, iterations=2, n_cells=4)
        doc = to_json(space)
        assert to_json(from_json(doc)) == doc


def test_json_documents_are_serializable(running_example):
    # The document must survive an actual json.dumps/loads cycle: exact
    # integer pairs rather than floats.
    space = running_example["structured_1"]
    text = json.dumps(to_json(space))
    assert to_json(from_json(json.loads(text))) == to_json(space)


def test_save_and_load(tmp_path, running_example):
    space = running_example["pipeline_1"]
    target = tmp_path / "space.json"
    save(space, target)
    assert load(target) == space
    # Saving the mesh alone strips the functions.
    save(space.mesh, target)
    loaded = load(target)
    assert isinstance(loaded, Mesh) and loaded == space.mesh


def test_dyadic_coordinates_survive_exactly():
    mesh = make_initial_mesh((0, 1, 0, 1), (2, 2), 8)
    doc = to_json(mesh)
    again = from_json(doc)
    assert sorted(again.positions(1)) == sorted(mesh.positions(1))
    # The document stores integer pairs, never floating-point strings.
    for line in doc["lines"]:
        assert all(isinstance(v, int) for v in line["fixed"])


# -- schema violations --------------------------------------------------------


def _valid_space_doc():
    space = initial_space(make_initial_mesh((0, 1, 0, 1), (2, 2), 2))
    return to_json(space)


def test_duplicate_functions_are_rejected():
    doc = _valid_space_doc()
    doc["functions"].append(dict(doc["functions"][0]))
    with pytest.raises(FormatError, match="duplicate"):
        from_json(doc)


def _line(direction, fixed, lo, hi, mult=1) -> dict:
    return {"dir": direction, "fixed": fixed, "span": [lo, hi], "mult": mult}


def _abutting_multiplicities(doc) -> None:
    """Replace the line x = 1/2 by two runs of multiplicities 1 and 2
    that meet at y = 1/2."""
    assert doc["lines"][1] == _line(1, [1, 1], [0, 0], [1, 0])
    doc["lines"][1] = _line(1, [1, 1], [0, 0], [1, 1])
    doc["lines"].append(_line(1, [1, 1], [1, 1], [1, 0], 2))


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("domain"), "domain"),
        (lambda d: d.__setitem__("domain", [[0, 0], [1, 0]]), "domain"),
        (lambda d: d["domain"].__setitem__(0, [1]), "domain[0]"),
        (lambda d: d["domain"].__setitem__(1, [1, -2]), "exponent"),
        (lambda d: d["domain"].__setitem__(1, [1, 2000]), "domain[1]"),
        (lambda d: d["lines"][0].__setitem__("fixed", [2**60, 0]), "lines[0].fixed"),
        (lambda d: d["functions"][0]["x"].__setitem__(1, [1, 10**6]), "functions[0].x[1]"),
        (lambda d: d["lines"][0]["span"].__setitem__(1, [1, True]), "lines[0].span[1]"),
        # equal to a decoded pair, but not integers
        (lambda d: d["functions"][0]["y"].__setitem__(0, [0.0, 0]), "functions[0].y[0]"),
        (lambda d: d.__setitem__("bidegree", [2]), "bidegree"),
        (lambda d: d.__setitem__("bidegree", [2, True]), "bidegree"),
        (lambda d: d["lines"][0].__setitem__("dir", 3), "dir"),
        # equal to a direction, but not an integer
        (lambda d: d["lines"][0].__setitem__("dir", 1.0), "lines[0].dir: expected 1 or 2, got 1.0"),
        (lambda d: d["lines"][0].__setitem__("dir", True), "lines[0].dir: expected 1 or 2, got True"),
        (lambda d: d["lines"][0].__setitem__("mult", 0), "mult"),
        (lambda d: d["lines"][0].__setitem__("span", [[0, 0]]), "span"),
        (lambda d: d["lines"][0].__setitem__("fixed", "half"), "fixed"),
        (lambda d: d["functions"][0].__setitem__("w", "1"), "w"),
        (lambda d: d["functions"][0].__setitem__("x", 7), "x"),
        (lambda d: d["functions"][0]["x"].pop(), "functions[0]"),
        (lambda d: d.__setitem__("functions", []), "functions:"),
        (lambda d: d["functions"][0].__setitem__("w", 1e400), "functions[0].w"),
        (lambda d: d["functions"][0].__setitem__("w", 10**400), "functions[0].w"),
        (lambda d: d["functions"][0].__setitem__("w", 0), "functions[0]: weight must be positive"),
        (lambda d: d["functions"][0].__setitem__("w", -0.5), "functions[0]: weight must be positive"),
        # collinear lines break constant splits: the error names the line
        (lambda d: d["lines"].append(_line(1, [1, 1], [1, 2], [1, 0])), "direction-1 position 1/2^1"),
        (_abutting_multiplicities, "direction-1 position 1/2^1"),
    ],
)
def test_malformed_documents_name_the_field(mutate, fragment):
    doc = _valid_space_doc()
    mutate(doc)
    with pytest.raises(FormatError) as excinfo:
        from_json(doc)
    assert fragment in str(excinfo.value)


def _pairs(doc) -> list:
    """Every ``[numerator, exponent]`` pair of a document, in decoding order."""
    pairs = list(doc["domain"])
    for line in doc["lines"]:
        pairs += [line["fixed"], *line["span"]]
    for entry in doc.get("functions", ()):
        pairs += entry["x"] + entry["y"]
    return [tuple(pair) for pair in pairs]


def test_decoding_builds_one_coordinate_per_distinct_pair(monkeypatch, running_example):
    doc = to_json(running_example["pipeline_2"])
    built = []
    real = formats_module.DyadicCoord

    def counting(numerator, exponent):
        built.append((numerator, exponent))
        return real(numerator, exponent)

    monkeypatch.setattr(formats_module, "DyadicCoord", counting)
    again = from_json(doc)
    assert sorted(built) == sorted(set(_pairs(doc)))
    assert to_json(again) == doc


def test_a_decoded_pair_does_not_excuse_an_equal_ill_typed_one():
    # [float(n), e] and [n, True] hash and compare like the valid [n, e],
    # so the memo of decoded pairs must not be consulted before the type
    # check, in a knot vector as anywhere else.
    bad_pairs = (
        lambda n, e: [float(n), e],
        lambda n, e: [n, e * 1.0],
        lambda n, e: [bool(n), e],
        lambda n, e: [n, bool(e)],
    )
    for index in (1, 3):  # the pairs [0, 0] and [1, 1]
        for bad in bad_pairs:
            doc = _valid_space_doc()
            n, e = doc["functions"][0]["x"][index]
            doc["functions"][1]["x"][index] = bad(n, e)
            with pytest.raises(FormatError, match=rf"functions\[1\]\.x\[{index}\]"):
                from_json(doc)


def test_top_level_must_be_an_object():
    with pytest.raises(FormatError, match="top level"):
        from_json([1, 2, 3])


def test_malformed_json_file_reports_position(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"domain": [[0, 0], [1, 0]')
    with pytest.raises(FormatError, match="line 1"):
        load(bad)


def test_format_error_is_a_value_error():
    assert issubclass(FormatError, ValueError)


# -- SVG ----------------------------------------------------------------------


def test_svg_is_deterministic(running_example):
    mesh = running_example["pipeline_2"].mesh
    first = render_svg(mesh)
    second = render_svg(mesh)
    assert first == second
    assert first.startswith("<svg ")
    assert first.rstrip().endswith("</svg>")


def test_svg_has_one_stroke_per_line(running_example):
    mesh = running_example["pipeline_1"].mesh
    text = render_svg(mesh)
    assert text.count("<line ") == len(mesh.lines())


def test_svg_stroke_widths_scale_with_multiplicity():
    mesh = make_initial_mesh((0, 1, 0, 1), (2, 2), 2)
    text = render_svg(mesh)
    # Boundary lines carry multiplicity 3, the interior bisectors 1.
    assert 'stroke-width="3.60"' in text
    assert 'stroke-width="1.20"' in text


def test_svg_writes_the_returned_text(tmp_path):
    mesh = make_initial_mesh((0, 1, 0, 1), (2, 2), 2)
    target = tmp_path / "mesh.svg"
    text = render_svg(mesh, target)
    assert target.read_text() == text


def test_svg_of_wide_domain_keeps_aspect():
    mesh = make_initial_mesh((0, 4, 0, 1), (2, 2), (4, 2))
    text = render_svg(mesh)
    header = text.split("\n", 1)[0]
    assert 'width="560.0"' in header
    # Height shrinks with the 4:1 aspect: 2*20 + 1*(520/4) = 170.
    assert 'height="170.0"' in header


# -- traces and CSV tables ----------------------------------------------------


def test_trace_roundtrips_as_jsonl(tmp_path, running_example):
    base = running_example["base"]
    [space], trace = n2s_pipeline(base, lambda key: True, 1)
    target = tmp_path / "trace.jsonl"
    write_trace(trace, target)
    lines = target.read_text().splitlines()
    assert len(lines) == len(trace)
    for line, record in zip(lines, trace):
        doc = json.loads(line)
        assert doc["iter"] == record["iter"]
        assert doc["dir"] == record["dir"]
        assert doc["n_functions_after"] == record["n_functions_after"]
        xv, yv = record["outer"]
        assert doc["outer"]["x"] == [v.pair() for v in xv]
        assert doc["outer"]["y"] == [v.pair() for v in yv]


def test_qi_csv_column_order(tmp_path):
    rows = [
        {
            "level": 1,
            "n_tensor": 36,
            "n_n2s2": 36,
            "max_error_tensor": 0.5,
            "max_error_n2s2": 0.5,
        }
    ]
    target = tmp_path / "qi.csv"
    write_qi_csv(rows, target)
    header, data = target.read_text().splitlines()
    assert header == "level,n_tensor,n_n2s2,max_error_tensor,max_error_n2s2"
    assert data.startswith("1,36,36,")


def test_poisson_csv_column_order(tmp_path):
    rows = [
        {
            "strategy": "tensor",
            "level": 2,
            "n_functions": 36,
            "linf": 0.25,
            "l2": 0.125,
        }
    ]
    target = tmp_path / "poisson.csv"
    write_poisson_csv(rows, target)
    header, data = target.read_text().splitlines()
    assert header == "strategy,level,n_functions,linf,l2"
    assert data == "tensor,2,36,0.25,0.125"
