"""The four benchmark workloads: their bodies, sizes and output checks.

Each body runs what a user runs: the ``mesh-demo`` and ``verify``
functions, the ``qi-peaks`` and ``poisson`` subcommands, or the public
calls that build and certify tensor spaces.  Its wall time splits into
``build``, constructing the spline spaces, and ``analyse``, what the user
wanted the spaces for (verification, quasi-interpolation, Galerkin
solves, certification).  Where the body is a subcommand, the build time
is that of the space-building functions the subcommand calls, timed by
wrapping them where the subcommand looks them up.  The bodies take only
generated inputs; the output checks run after the timed region.

This module is imported by ``child.py`` inside a fresh interpreter, with
the repository's ``src`` directory on the path.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import random
from pathlib import Path

import numpy as np

import lrbsplines as lr
import lrbsplines.cli
import lrbsplines.poisson

# Workload sizes.  ``full`` is what the benchmark measures; ``tiny`` is
# for ``selftest.py``.  The tensor entry is (build levels, certify levels).
SIZES = {
    "full": {"diagonal": 6, "peaks-qi": 4, "layer-poisson": 5, "tensor": (7, 5)},
    "tiny": {"diagonal": 4, "peaks-qi": 3, "layer-poisson": 5, "tensor": (3, 2)},
}

# Pinned results of the seed code; a workload of n levels or iterations
# is checked against the first entries.
DIAGONAL_COUNTS = (9, 16, 36, 86, 208, 450, 932, 1894)  # after iteration 0, 1, ...
DIAGONAL_EXPANSIONS = (0, 0, 0, 12, 36, 84, 180)  # trace records of iteration 1, 2, ...
PEAK_COUNTS = (36, 86, 161, 254, 363, 450, 537)  # adaptive, level 1, 2, ...
TENSOR_COUNTS = (36, 100, 324, 1156, 4356, 16900, 66564)  # level 1, 2, ...
LAYER_COUNTS = (36, 93, 222, 455, 918)  # adaptive, level 2, 3, ...
PEAK_ERROR_LEVEL_3 = 2.575e-1


class Stopwatch:
    """Time on ``clock`` accumulated over ``with stopwatch:`` blocks."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.seconds = 0.0

    def __enter__(self) -> None:
        self._start = self.clock()

    def __exit__(self, *exc) -> None:
        self.seconds += self.clock() - self._start


@contextlib.contextmanager
def timing(stopwatch: Stopwatch, module, *names: str):
    """Time every call of ``module.<name>`` on ``stopwatch`` while the block runs."""
    originals = {name: getattr(module, name) for name in names}

    def timed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with stopwatch:
                return fn(*args, **kwargs)

        return wrapper

    for name, fn in originals.items():
        setattr(module, name, timed(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def prepare(workload: str, seed: int, size: str, out: Path) -> dict:
    """Generate the inputs of one run from the seed."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    return {
        "level": SIZES[size][workload],
        "out": out,
        "verify_seed": seed,
        # Coefficients of one biquadratic, checked for QI reproduction.
        "biquadratic": [[rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(3)],
    }


def _command(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = lr.main(argv)
    if status != 0:
        raise RuntimeError(f"{argv[0]} exited {status}")


def _value(text: str):
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{key: _value(text) for key, text in row.items()} for row in csv.DictReader(fh)]


# -- bodies ------------------------------------------------------------------


def diagonal(inputs: dict, build: Stopwatch) -> dict:
    """``mesh-demo`` along the diagonal, then ``verify`` on its space."""
    out = inputs["out"]
    with build:
        summary = lr.run_mesh_demo(out, iterations=inputs["level"])
    report = lr.verify(out / "space.json", seed=inputs["verify_seed"])
    return {"summary": summary, "report": report}


def peaks_qi(inputs: dict, build: Stopwatch) -> dict:
    """The ``qi-peaks`` subcommand: adaptive and tensor spaces, QI, grid error."""
    table = inputs["out"] / "qi_peaks.csv"
    with timing(build, lrbsplines.cli, "three_peaks_spaces", "tensor_space_for_level"):
        _command(["qi-peaks", "--levels", str(inputs["level"]), "--out", str(table)])
    return {"rows": _read_csv(table)}


def layer_poisson(inputs: dict, build: Stopwatch) -> dict:
    """The ``poisson --strategy both`` subcommand."""
    table = inputs["out"] / "poisson.csv"
    argv = ["poisson", "--levels", str(inputs["level"]), "--strategy", "both", "--out", str(table)]
    with timing(build, lrbsplines.poisson, "make_initial_mesh", "initial_space", "n2s_pipeline"):
        _command(argv)
    return {"rows": _read_csv(table)}


def tensor(inputs: dict, build: Stopwatch) -> dict:
    """Bulk tensor construction, then independence and partition of unity."""
    build_levels, certify_levels = inputs["level"]
    with build:
        spaces = [lr.tensor_space_for_level(level) for level in range(1, build_levels + 1)]
    certified = spaces[:certify_levels]
    independent = [lr.is_locally_linearly_independent(s) for s in certified]
    defects = [lr.partition_of_unity_defect(s, use_weights=False) for s in certified]
    return {
        "counts": [s.n_functions for s in spaces],
        "independent": independent,
        "defects": defects,
    }


# -- checks ------------------------------------------------------------------


def _expect(failures: list, what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what}: got {got!r}, expected {want!r}")


def check_diagonal(result: dict, inputs: dict) -> list[str]:
    failures: list[str] = []
    iterations = inputs["level"]
    counts = [row["n_functions"] for row in result["summary"]["counts"]]
    _expect(failures, "function counts", counts, list(DIAGONAL_COUNTS[: iterations + 1]))
    with open(inputs["out"] / "trace.jsonl") as fh:
        records = sum(1 for line in fh if line.strip())
    _expect(failures, "trace records", records, sum(DIAGONAL_EXPANSIONS[:iterations]))
    report = result["report"]
    _expect(failures, "verify passed", report["passed"], True)
    _expect(failures, "collocation rank", report["collocation_rank"], DIAGONAL_COUNTS[iterations])
    _expect(failures, "knotwise nested pairs", report["nested_pairs_knotwise"], 0)
    _expect(failures, "meshwise nested pairs", report["nested_pairs_meshwise"], 0)
    _expect(failures, "nesting definitions agree", report["nested_definitions_agree"], True)
    support = (report["support_count_min"], report["support_count_max"])
    _expect(failures, "support count range", support, (9, 9))
    return failures


def _biquadratic(coeffs):
    def g(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        total = np.zeros(np.broadcast(x, y).shape)
        for i in range(3):
            for j in range(3):
                total = total + coeffs[i][j] * x**i * y**j
        return total

    return g


def check_peaks_qi(result: dict, inputs: dict) -> list[str]:
    failures: list[str] = []
    rows = result["rows"]
    levels = inputs["level"]
    _expect(failures, "n2s2 counts", [r["n_n2s2"] for r in rows], list(PEAK_COUNTS[:levels]))
    _expect(failures, "tensor counts", [r["n_tensor"] for r in rows], list(TENSOR_COUNTS[:levels]))
    if levels >= 3:
        error = rows[2]["max_error_n2s2"]
        if not PEAK_ERROR_LEVEL_3 / 2 <= error <= PEAK_ERROR_LEVEL_3 * 2:
            failures.append(f"level-3 error {error:.4e} not within 2x of {PEAK_ERROR_LEVEL_3:.4e}")
    g = _biquadratic(inputs["biquadratic"])
    for level, space in enumerate(lr.three_peaks_spaces(min(levels, 3)), start=1):
        error = lr.qi_max_error(space, lr.lr_qi(space, g), g, grid=150)
        if not error <= 1e-10:
            failures.append(f"biquadratic QI error {error:.3e} > 1e-10 at level {level}")
    return failures


def _loglog_curve(counts, errors, n) -> float:
    """Tensor accuracy-per-function curve, interpolated at ``n`` functions."""
    return math.exp(
        float(np.interp(math.log(n), np.log(np.array(counts, dtype=float)), np.log(np.array(errors))))
    )


def check_layer_poisson(result: dict, inputs: dict) -> list[str]:
    failures: list[str] = []
    levels = inputs["level"]
    tensor_rows = [r for r in result["rows"] if r["strategy"] == "tensor"]
    adaptive_rows = [r for r in result["rows"] if r["strategy"] == "n2s2"]
    _expect(failures, "n2s2 counts", [r["n_functions"] for r in adaptive_rows], list(LAYER_COUNTS[: levels - 1]))
    tensor_counts = [r["n_functions"] for r in tensor_rows]
    _expect(failures, "tensor counts", tensor_counts, list(TENSOR_COUNTS[: levels - 1]))
    l2 = [r["l2"] for r in tensor_rows]
    if not all(a > b for a, b in zip(l2, l2[1:])):
        failures.append(f"tensor L2 ladder not strictly decreasing: {l2}")
    for row in adaptive_rows[1:]:  # level 2 is the tensor space itself
        for norm in ("l2", "linf"):
            curve = _loglog_curve(tensor_counts, [r[norm] for r in tensor_rows], row["n_functions"])
            if not row[norm] < curve:
                failures.append(
                    f"n2s2 level {row['level']} {norm} {row[norm]:.4e} not below tensor curve {curve:.4e}"
                )
    return failures


def check_tensor(result: dict, inputs: dict) -> list[str]:
    failures: list[str] = []
    build_levels, certify_levels = inputs["level"]
    _expect(failures, "tensor counts", result["counts"], list(TENSOR_COUNTS[:build_levels]))
    _expect(failures, "independent", result["independent"], [True] * certify_levels)
    worst = max(result["defects"])
    if not worst <= 1e-12:
        failures.append(f"partition-of-unity defect {worst:.3e} > 1e-12")
    return failures


WORKLOADS = {
    "diagonal": (diagonal, check_diagonal),
    "peaks-qi": (peaks_qi, check_peaks_qi),
    "layer-poisson": (layer_poisson, check_layer_poisson),
    "tensor": (tensor, check_tensor),
}
