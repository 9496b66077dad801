"""Command line front end: refinement demos, benchmarks, verification.

Four subcommands.  ``mesh-demo`` refines the one-element mesh of the
unit square along its diagonal and writes the mesh (SVG per iteration),
the expansion trace and a per-iteration count table.  ``qi-peaks``
tabulates the quasi-interpolation error of the three-peaks function on
tensor and adaptively refined spaces.  ``poisson`` tabulates Galerkin error decay
for the circular-layer problem.  ``verify`` checks a mesh or space
document and reports element counts, nestedness, partition of unity
and collocation rank.

Exit codes: 0 on success, 2 on a validation failure (bad input files,
inadmissible meshes or spaces, a linearly dependent space), 3 on a
numerical failure.  A path that cannot be read or written (missing, a
directory where a file is wanted or the reverse) and a file that is not
UTF-8 text are bad input too.  Every failure but a failed ``verify``
report, which is printed, is one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .mesh import MAX_TILING_CELLS, MeshError, is_tensorized, make_initial_mesh
from .bspline import KnotVectorError
from .space import (
    GRID_POINT_BYTES,
    MAX_GRID_POINTS,
    LRSpace,
    SpaceError,
    _elementwise_full_rank,
    _first_fault,
    _incidence,
    _sampled,
    _unity_defects,
    collocation_rank,
    initial_space,
    is_locally_linearly_independent,
    structured_refine,
)
from .refine import (
    EXPANSIONS,
    _check_expansion,
    _nested_verdicts,
    diagonal_marker,
    n2s_pipeline,
)
from .quasi import _max_error, lr_qi, three_peaks, three_peaks_spaces, tensor_space_for_level
from .poisson import NumericsError, adaptive_solve
from . import formats
from .formats import FormatError

__all__ = ["main", "run_mesh_demo", "verify"]


def run_mesh_demo(
    out_dir,
    *,
    iterations: int = 7,
    bidegree=(2, 2),
    strategy: str = "n2s2",
    expansion: str = "odd-vertical",
) -> dict:
    """Refine along the diagonal of the unit square and dump artifacts.

    Starts from the coarsest open mesh on the unit square (a single
    element, carrying only the Bernstein basis) and, per iteration,
    refines every B-spline whose central knot span meets the main
    diagonal -- either by structured refinement alone or with the
    nested-pair expansion sweep appended.  After the last iteration it
    writes ``mesh_<i>.svg`` for each iteration, the final space as
    ``space.json``, the expansion trace as ``trace.jsonl`` and
    per-iteration counts as ``counts.csv``.  Returns a summary.
    """
    if strategy not in ("structured", "n2s2"):
        raise SpaceError(f"unknown strategy {strategy!r}")
    if iterations < 0:
        raise SpaceError(f"iterations must be >= 0, got {iterations}")
    _check_expansion(expansion)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    spaces, trace = [initial_space(make_initial_mesh((0, 1, 0, 1), bidegree, 1))], []
    if strategy == "structured":
        for i in range(1, iterations + 1):
            space = spaces[-1]
            marked = [k for k in space.sorted_keys() if diagonal_marker(k)]
            if not marked:
                raise SpaceError(f"marker selected no functions at iteration {i}")
            spaces.append(structured_refine(space, marked))
    else:
        refined, trace = n2s_pipeline(spaces[0], diagonal_marker, iterations, expansion=expansion)
        spaces += refined
    counts = []
    for i, space in enumerate(spaces):
        counts.append(
            {"iteration": i, "n_functions": space.n_functions, "n_elements": len(space.mesh.element_boxes())}
        )
        formats.render_svg(space.mesh, out / f"mesh_{i}.svg")

    formats.save(space, out / "space.json")
    formats.write_trace(trace, out / "trace.jsonl")
    formats._write_table(counts, out / "counts.csv", ["iteration", "n_functions", "n_elements"])

    return {
        "strategy": strategy,
        "iterations": iterations,
        "counts": counts,
        "n_functions": space.n_functions,
        "locally_independent": is_locally_linearly_independent(space),
        "out_dir": str(out),
    }


#: Largest function count for which ``verify`` falls back to the dense
#: collocation rank.  That rank costs O(n^3) time and O(n^2) memory
#: (1894 functions: about 7 s and 390 MiB on a 2-core machine); the cap
#: keeps the 1430 functions of a 7-iteration structured ``mesh-demo``,
#: which is not locally independent, within reach.
DENSE_RANK_MAX_FUNCTIONS = 2000


def verify(path, *, seed: int = 0) -> dict:
    """Check a mesh or space document and assemble a diagnostic report.

    Each function of a space is checked once.  :func:`formats.load`
    decodes every entry, checking its coordinates, knot vectors and
    weight, and then one array pass over all functions, the check of
    :meth:`LRSpace.validate`, confirms their degrees and minimal support
    on the mesh.  A function that fails it is named by its entry,
    ``functions[i]: ...``.  Tiling the mesh is refused, with a
    ``MeshError``, when its position grid holds more than
    :data:`~lrbsplines.mesh.MAX_TILING_CELLS` cells.

    For a space the report covers per-element support counts, nested
    pairs under both the knot-oriented and the mesh-oriented
    definition, partition-of-unity defects and the collocation rank.
    The rank is established in up to three tiers:

    1. the exact support count: every element carries (p1+1)(p2+1)
       functions (``locally_independent``);
    2. per element, the supported functions' values at the element's
       tensor Gauss points have full rank.  When both hold, the space is
       locally, hence globally, linearly independent, and
       ``collocation_rank`` is the function count;
    3. otherwise the dense :func:`collocation_rank` at ``seed``'s points,
       for spaces of at most ``DENSE_RANK_MAX_FUNCTIONS`` functions.
       Above that cap ``collocation_rank`` and ``rank_deficiency`` are
       None and ``rank_not_computed`` says why.

    ``report["passed"]`` is False when the functions are linearly
    dependent, when their rank was not computed, or when their stored
    weights miss the partition of unity by more than 1e-10.  A bare mesh
    only gets its element/tensorization summary.  A negative ``seed`` is
    rejected before the document is read.
    """
    if seed < 0:
        raise SpaceError(f"seed must be >= 0, got {seed}")
    obj = formats.load(path)
    p1, p2 = obj.bidegree if not isinstance(obj, LRSpace) else obj.mesh.bidegree
    mesh = obj.mesh if isinstance(obj, LRSpace) else obj
    report = {
        "path": str(path),
        "kind": "space" if isinstance(obj, LRSpace) else "mesh",
        "bidegree": [p1, p2],
        "n_elements": len(mesh.element_boxes()),
        "n_lines": sum(len(mesh.runs_at(d, pos)) for d in (1, 2) for pos in mesh.positions(d)),
        "tensorized": [is_tensorized(mesh, 1), is_tensorized(mesh, 2)],
        "passed": True,
    }
    if not isinstance(obj, LRSpace):
        return report

    space = obj
    # The document's one check of the functions against the mesh; from
    # here on every function has minimal support, so the unchecked
    # meshwise nestedness test of _nested_verdicts applies.
    fault = _first_fault(space)
    if fault is not None:
        raise FormatError(f"functions[{fault[0]}]: {fault[1]}")
    counts = _incidence(space)[1]
    n = space.n_functions
    report["n_functions"] = n
    report["support_count_min"] = int(counts.min())
    report["support_count_max"] = int(counts.max())
    report["support_count_expected"] = (p1 + 1) * (p2 + 1)
    report["locally_independent"] = is_locally_linearly_independent(space)

    knotwise, meshwise = _nested_verdicts(space)
    report["nested_pairs_knotwise"] = sum(knotwise)
    report["nested_pairs_meshwise"] = sum(meshwise)
    report["nested_definitions_agree"] = knotwise == meshwise

    report["pou_defect_weighted"], report["pou_defect_unweighted"] = _unity_defects(
        space, 64, (True, False)
    )
    if report["locally_independent"] and _elementwise_full_rank(space):
        rank = n
    elif n <= DENSE_RANK_MAX_FUNCTIONS:
        rank = collocation_rank(space, seed=seed)
    else:
        rank = None
    report["collocation_rank"] = rank
    report["rank_deficiency"] = None if rank is None else n - rank
    if rank is None:
        report["rank_not_computed"] = (
            f"the space is not certified independent element by element, and its "
            f"{n} functions exceed the dense collocation cap of "
            f"{DENSE_RANK_MAX_FUNCTIONS}"
        )
    report["passed"] = rank == n and report["pou_defect_weighted"] <= 1e-10
    return report


# -- argument parsing --------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--degree",
        nargs=2,
        type=int,
        default=[2, 2],
        metavar=("P1", "P2"),
        help="polynomial bidegree (default 2 2)",
    )
    parser.add_argument(
        "--expansion",
        choices=EXPANSIONS,
        default="odd-vertical",
        help="N2S2 sweep: one direction, vertical or horizontal on odd iterations, "
        "or tensor expansions in both (default odd-vertical)",
    )


#: The ``--grid`` cap as the help states it.
_GRID_HELP = (
    f"; at most {MAX_GRID_POINTS} points in all, {MAX_GRID_POINTS ** 0.5:.0f} a side, "
    f"at about {GRID_POINT_BYTES} bytes a point"
)


def _levels_help(command: str, default: int) -> str:
    """The ``--levels`` help, with the command's tensor-space cap."""
    return (
        f"finest level (default {default}); its tensor space may hold at most "
        f"{MAX_TENSOR_FUNCTIONS[command]} functions, at about "
        f"{TENSOR_FUNCTION_BYTES[command]} bytes a function"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrbsplines",
        description="Locally refined B-spline spaces: demos, benchmarks, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("mesh-demo", help="refine the one-element unit square along its diagonal")
    demo.add_argument("--iterations", type=int, default=7, help="refinement iterations (default 7)")
    demo.add_argument(
        "--strategy",
        choices=["structured", "n2s2"],
        default="n2s2",
        help="structured refinement alone, or with expansion sweeps",
    )
    demo.add_argument("--out", default="mesh_demo", help="output directory (default mesh_demo)")
    _add_common(demo)

    peaks = sub.add_parser("qi-peaks", help="quasi-interpolation error table for three peaks")
    peaks.add_argument("--levels", type=int, default=7, help=_levels_help("qi-peaks", 7))
    peaks.add_argument(
        "--grid", type=int, default=150, help=f"error-sampling grid (default 150){_GRID_HELP}"
    )
    peaks.add_argument("--out", default="qi_peaks.csv", help="output CSV (default qi_peaks.csv)")
    _add_common(peaks)

    pois = sub.add_parser("poisson", help="Galerkin error decay for the circular layer")
    pois.add_argument("--levels", type=int, default=6, help=_levels_help("poisson", 6))
    pois.add_argument(
        "--strategy",
        choices=["tensor", "n2s2", "both"],
        default="both",
        help="which refinement families to run",
    )
    pois.add_argument(
        "--grid", type=int, default=500, help=f"error-sampling grid (default 500){_GRID_HELP}"
    )
    pois.add_argument("--out", default="poisson.csv", help="output CSV (default poisson.csv)")
    _add_common(pois)

    ver = sub.add_parser(
        "verify",
        help="check a mesh or space JSON document",
        description="Check a mesh or space JSON document and print its report.  Each "
        "function is decoded and checked once; a function that fails is named by its "
        "entry, functions[i].  A mesh whose position grid holds more than "
        f"{MAX_TILING_CELLS} cells, at about 28 bytes each to tile, is refused with exit 2.",
    )
    ver.add_argument("path", help="mesh or space JSON file")
    ver.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    return parser


def _cmd_mesh_demo(args) -> int:
    summary = run_mesh_demo(
        args.out,
        iterations=args.iterations,
        bidegree=tuple(args.degree),
        strategy=args.strategy,
        expansion=args.expansion,
    )
    for row in summary["counts"]:
        print(f"iteration {row['iteration']}: {row['n_functions']} functions, {row['n_elements']} elements")
    print(f"strategy: {summary['strategy']}")
    print(f"locally_independent: {summary['locally_independent']}")
    print(f"artifacts in {summary['out_dir']}")
    return 0


def _check_grid(grid: int) -> None:
    """Refuse a ``--grid`` outside 2 to 4,096 before any work: the error
    grid of ``grid`` x ``grid`` points is sampled whole."""
    if grid < 2:
        raise SpaceError(f"grid must be >= 2, got {grid}")
    if grid * grid > MAX_GRID_POINTS:
        raise SpaceError(
            f"--grid {grid} asks for {grid * grid} sample points, about "
            f"{grid * grid * GRID_POINT_BYTES / 2**30:.1f} GiB at {GRID_POINT_BYTES} bytes a "
            f"point, above the cap of {MAX_GRID_POINTS} points"
        )


#: Largest tensor space, in functions, that ``qi-peaks`` and ``poisson``
#: build for ``--levels``, and the peak bytes a function each takes: the
#: growth of peak RSS from level 6 to level 7 at bidegree (2, 2), 39 MiB
#: over 49,664 more functions for ``qi-peaks`` and 97 MiB over 12,544
#: for ``poisson --strategy tensor``.  The caps keep the finest tensor
#: space near 1.6 and 1.0 GiB at those rates; ``poisson``'s is the lower
#: because its rate grows with the level (5.5 KiB a function from level
#: 5 to 6, 7.9 KiB from 6 to 7).
MAX_TENSOR_FUNCTIONS = {"qi-peaks": 1 << 21, "poisson": 1 << 17}
TENSOR_FUNCTION_BYTES = {"qi-peaks": 820, "poisson": 8100}


def _check_levels(command: str, levels: int, cells: int, bidegree) -> None:
    """Refuse a ``--levels`` whose finest tensor space, ``cells`` x
    ``cells`` elements of ``bidegree`` with ``cells + p`` functions a
    side, exceeds the command's cap, before any work."""
    n = (cells + bidegree[0]) * (cells + bidegree[1])
    if n > MAX_TENSOR_FUNCTIONS[command]:
        size = n * TENSOR_FUNCTION_BYTES[command]
        raise SpaceError(
            f"--levels {levels} asks for a tensor space of {n} functions, about "
            f"{size / 2**30:.1f} GiB at {TENSOR_FUNCTION_BYTES[command]} bytes a function, "
            f"above the cap of {MAX_TENSOR_FUNCTIONS[command]} functions"
        )


def _cmd_qi_peaks(args) -> int:
    if args.levels < 1:
        raise SpaceError(f"levels must be >= 1, got {args.levels}")
    _check_levels("qi-peaks", args.levels, 2 ** (args.levels + 1), args.degree)
    _check_grid(args.grid)
    bidegree = tuple(args.degree)
    adaptive = three_peaks_spaces(args.levels, bidegree=bidegree, expansion=args.expansion)
    # Every space shares the domain, so the target is sampled once.
    sample = _sampled(adaptive[0].mesh.domain, three_peaks, args.grid)

    def error(space) -> float:
        return _max_error(space, lr_qi(space, three_peaks), sample)

    rows = []
    for level, refined in enumerate(adaptive, start=1):
        # Level 1 of both families is the open 4x4 tensor space.
        tensor = refined if level == 1 else tensor_space_for_level(level, bidegree=bidegree)
        error_tensor = error(tensor)
        rows.append(
            {
                "level": level,
                "n_tensor": tensor.n_functions,
                "n_n2s2": refined.n_functions,
                "max_error_tensor": error_tensor,
                "max_error_n2s2": error_tensor if tensor is refined else error(refined),
            }
        )
        print(
            f"level {level}: tensor {rows[-1]['n_tensor']} fns, err {rows[-1]['max_error_tensor']:.3e}; "
            f"n2s2 {rows[-1]['n_n2s2']} fns, err {rows[-1]['max_error_n2s2']:.3e}"
        )
    formats.write_qi_csv(rows, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_poisson(args) -> int:
    if args.levels < 2:
        raise SpaceError(f"levels must be >= 2, got {args.levels}")
    strategies = ("tensor", "n2s2") if args.strategy == "both" else (args.strategy,)
    if "tensor" in strategies:
        _check_levels("poisson", args.levels, 2**args.levels, args.degree)
    _check_grid(args.grid)
    rows = adaptive_solve(
        args.levels,
        bidegree=tuple(args.degree),
        grid=(args.grid, args.grid),
        strategies=strategies,
        expansion=args.expansion,
    )
    for row in rows:
        print(
            f"{row['strategy']} level {row['level']}: {row['n_functions']} fns, "
            f"linf {row['linf']:.3e}, l2 {row['l2']:.3e}"
        )
    formats.write_poisson_csv(rows, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    report = verify(args.path, seed=args.seed)
    for key, value in report.items():
        print(f"{key}: {value}")
    return 0 if report["passed"] else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "mesh-demo": _cmd_mesh_demo,
        "qi-peaks": _cmd_qi_peaks,
        "poisson": _cmd_poisson,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (FormatError, MeshError, SpaceError, KnotVectorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
