"""Command line front end: refinement demos, benchmarks, verification.

Four subcommands.  ``mesh-demo`` refines a 4x4 mesh along the domain
diagonal and writes the mesh (SVG per iteration), the expansion trace
and a per-iteration count table.  ``qi-peaks`` tabulates the
quasi-interpolation error of the three-peaks function on tensor and
adaptively refined spaces.  ``poisson`` tabulates Galerkin error decay
for the circular-layer problem.  ``verify`` checks a mesh or space
document and reports element counts, nestedness, partition of unity
and collocation rank.

Exit codes: 0 on success, 2 on a validation failure (bad input files,
inadmissible meshes or spaces, a linearly dependent space), 3 on a
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .mesh import MeshError, is_tensorized, make_initial_mesh
from .bspline import KnotVectorError
from .space import (
    LRSpace,
    SpaceError,
    _elementwise_full_rank,
    _incidence,
    _unity_defects,
    collocation_rank,
    initial_space,
    is_locally_linearly_independent,
    structured_refine,
)
from .refine import (
    RefinementTrace,
    diagonal_marker,
    is_nested_meshwise,
    n2s_pipeline,
    nested_map,
)
from .quasi import lr_qi, qi_max_error, three_peaks, three_peaks_spaces, tensor_space_for_level
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
    parity: str = "odd-vertical",
    expansion: str = "one-directional",
) -> dict:
    """Refine along the diagonal of the unit square and dump artifacts.

    Starts from the coarsest open mesh on the unit square (a single
    element, carrying only the Bernstein basis) and, per iteration,
    refines every B-spline whose central knot span meets the main
    diagonal -- either by structured refinement alone or with the
    nested-pair expansion sweep appended.  Writes ``mesh_<i>.svg`` for
    each iteration, the final space as ``space.json``, the expansion
    trace as ``trace.jsonl`` and per-iteration counts as ``counts.csv``.
    Returns a summary.
    """
    if strategy not in ("structured", "n2s2"):
        raise SpaceError(f"unknown strategy {strategy!r}")
    if iterations < 0:
        raise SpaceError(f"iterations must be >= 0, got {iterations}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    space = initial_space(make_initial_mesh((0, 1, 0, 1), bidegree, 1))
    trace = RefinementTrace()
    counts = [
        {"iteration": 0, "n_functions": space.n_functions, "n_elements": len(space.mesh.elements())}
    ]
    formats.render_svg(space.mesh, out / "mesh_0.svg")
    for i in range(1, iterations + 1):
        if strategy == "structured":
            marked = [k for k in space.sorted_keys() if diagonal_marker(space.functions[k])]
            if not marked:
                raise SpaceError(f"marker selected no functions at iteration {i}")
            space = structured_refine(space, marked)
        else:
            space, step_trace = n2s_pipeline(
                space,
                diagonal_marker,
                1,
                parity=parity,
                expansion=expansion,
                start_index=i,
            )
            trace.records.extend(step_trace.records)
        counts.append(
            {"iteration": i, "n_functions": space.n_functions, "n_elements": len(space.mesh.elements())}
        )
        formats.render_svg(space.mesh, out / f"mesh_{i}.svg")

    formats.save(space, out / "space.json")
    formats.write_trace(trace, out / "trace.jsonl")
    with open(out / "counts.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["iteration", "n_functions", "n_elements"])
        writer.writeheader()
        writer.writerows(counts)

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
    only gets its element/tensorization summary.
    """
    obj = formats.load(path)
    p1, p2 = obj.bidegree if not isinstance(obj, LRSpace) else obj.mesh.bidegree
    mesh = obj.mesh if isinstance(obj, LRSpace) else obj
    report = {
        "path": str(path),
        "kind": "space" if isinstance(obj, LRSpace) else "mesh",
        "bidegree": [p1, p2],
        "n_elements": len(mesh.elements()),
        "n_lines": len(mesh.lines()),
        "tensorized": [is_tensorized(mesh, 1), is_tensorized(mesh, 2)],
        "passed": True,
    }
    if not isinstance(obj, LRSpace):
        return report

    space = obj
    # Raises SpaceError for a function without minimal support, so the
    # meshwise nestedness test below applies to every pair.
    space.validate()
    keys, counts, indices, bounds = _incidence(space)
    n_loc = (p1 + 1) * (p2 + 1)
    n = space.n_functions
    report["n_functions"] = n
    report["support_count_min"] = int(counts.min())
    report["support_count_max"] = int(counts.max())
    report["support_count_expected"] = n_loc
    report["locally_independent"] = (
        report["support_count_min"] == report["support_count_max"] == n_loc
    )

    knotwise = nested_map(space)
    n_knotwise = sum(len(v) for v in knotwise.values())
    n_meshwise = sum(
        is_nested_meshwise(space.functions[inner_key], space.functions[outer_key], space.mesh)
        for outer_key, inners in knotwise.items()
        for inner_key in inners
    )
    report["nested_pairs_knotwise"] = n_knotwise
    report["nested_pairs_meshwise"] = n_meshwise
    report["nested_definitions_agree"] = n_meshwise == n_knotwise

    report["pou_defect_weighted"], report["pou_defect_unweighted"] = _unity_defects(
        space, 64, (True, False)
    )
    if report["locally_independent"] and _elementwise_full_rank(
        space, keys, indices.reshape(len(counts), n_loc), bounds
    ):
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


def _print_report(report: dict) -> None:
    for key, value in report.items():
        print(f"{key}: {value}")


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
        "--parity",
        choices=["odd-vertical", "odd-horizontal"],
        default="odd-vertical",
        help="which direction odd-numbered iterations expand in",
    )
    parser.add_argument(
        "--expansion",
        choices=["one-directional", "full"],
        default="one-directional",
        help="expand outer supports in one direction or both",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrbsplines",
        description="Locally refined B-spline spaces: demos, benchmarks, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("mesh-demo", help="refine a 4x4 mesh along the diagonal")
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
    peaks.add_argument("--levels", type=int, default=7, help="finest level (default 7)")
    peaks.add_argument("--grid", type=int, default=150, help="error-sampling grid (default 150)")
    peaks.add_argument("--out", default="qi_peaks.csv", help="output CSV (default qi_peaks.csv)")
    _add_common(peaks)

    pois = sub.add_parser("poisson", help="Galerkin error decay for the circular layer")
    pois.add_argument("--levels", type=int, default=6, help="finest level (default 6)")
    pois.add_argument(
        "--strategy",
        choices=["tensor", "n2s2", "both"],
        default="both",
        help="which refinement families to run",
    )
    pois.add_argument("--grid", type=int, default=500, help="error-sampling grid (default 500)")
    pois.add_argument("--out", default="poisson.csv", help="output CSV (default poisson.csv)")
    _add_common(pois)

    ver = sub.add_parser("verify", help="check a mesh or space JSON document")
    ver.add_argument("path", help="mesh or space JSON file")
    ver.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    return parser


def _cmd_mesh_demo(args) -> int:
    summary = run_mesh_demo(
        args.out,
        iterations=args.iterations,
        bidegree=tuple(args.degree),
        strategy=args.strategy,
        parity=args.parity,
        expansion=args.expansion,
    )
    for row in summary["counts"]:
        print(f"iteration {row['iteration']}: {row['n_functions']} functions, {row['n_elements']} elements")
    print(f"strategy: {summary['strategy']}")
    print(f"locally_independent: {summary['locally_independent']}")
    print(f"artifacts in {summary['out_dir']}")
    return 0


def _cmd_qi_peaks(args) -> int:
    if args.levels < 1:
        raise SpaceError(f"levels must be >= 1, got {args.levels}")
    if args.grid < 2:
        raise SpaceError(f"grid must be >= 2, got {args.grid}")
    bidegree = tuple(args.degree)
    adaptive = three_peaks_spaces(
        args.levels, bidegree=bidegree, parity=args.parity, expansion=args.expansion
    )
    rows = []
    for level in range(1, args.levels + 1):
        tensor = tensor_space_for_level(level, bidegree=bidegree)
        refined = adaptive[level - 1]
        rows.append(
            {
                "level": level,
                "n_tensor": tensor.n_functions,
                "n_n2s2": refined.n_functions,
                "max_error_tensor": qi_max_error(
                    tensor, lr_qi(tensor, three_peaks), three_peaks, grid=args.grid
                ),
                "max_error_n2s2": qi_max_error(
                    refined, lr_qi(refined, three_peaks), three_peaks, grid=args.grid
                ),
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
    if args.grid < 2:
        raise SpaceError(f"grid must be >= 2, got {args.grid}")
    strategies = ("tensor", "n2s2") if args.strategy == "both" else (args.strategy,)
    rows = adaptive_solve(
        args.levels,
        bidegree=tuple(args.degree),
        grid=(args.grid, args.grid),
        strategies=strategies,
        parity=args.parity,
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
    _print_report(report)
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
    except (FormatError, MeshError, SpaceError, KnotVectorError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
