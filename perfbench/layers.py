"""Per-layer metrics from a ``cProfile`` run of one workload body.

The layers are the modules of ``lrbsplines``.  Code generated by
``dataclasses`` (``__init__``, ``__hash__``, ``__eq__`` of the frozen
coordinate, rectangle and split classes) is compiled from a string and
gets its own ``dataclass`` bucket; everything else outside the package
(numpy, scipy, builtins) is ``other``.

``.calls`` is a profiler call count and repeats exactly between runs of
the same code.  ``.cum_s`` and ``.self_s`` are profiler times, inflated
over untraced runs; ``trace_overhead`` gives the factor.  Private
functions show up only inside the module self time and the ``.cum_s`` of
the public call they sit under; the one exception is the nested-pair
tracker's update, named by the refinement item it serves.

Each metric lists the end-to-end metrics it should move, as
``metric@workload``, so a change on one layer can state beforehand which
numbers it expects to change.  Names and units are those of the
``per_layer`` list of BENCHMARK.json.
"""

from __future__ import annotations

from pathlib import Path

MODULES = ("dyadic", "mesh", "bspline", "space", "refine", "quasi", "poisson", "formats", "cli")
BUCKETS = MODULES + ("dataclass", "other")

# Function-level metrics: name prefix -> (bucket, function name).
FUNCTIONS = {
    "dyadic.lt": ("dyadic", "__lt__"),
    "dataclass.hash": ("dataclass", "__hash__"),
    "dataclass.eq": ("dataclass", "__eq__"),
    "mesh.insert_split": ("mesh", "insert_split"),
    "bspline.univariate_values": ("bspline", "univariate_values"),
    "bspline.find_refining_split": ("bspline", "find_refining_split"),
    "bspline.insert_knot": ("bspline", "insert_knot"),
    "space.sorted_keys": ("space", "sorted_keys"),
    "space.initial_space": ("space", "initial_space"),
    "space.element_support_table": ("space", "element_support_table"),
    "space.evaluate_space": ("space", "evaluate_space"),
    "space.collocation_rank": ("space", "collocation_rank"),
    "refine.n2s_pipeline": ("refine", "n2s_pipeline"),
    "refine.tracker_update": ("refine", "update"),
    "refine.is_nested_knotwise": ("refine", "is_nested_knotwise"),
    "refine.nested_map": ("refine", "nested_map"),
    "quasi.lr_qi": ("quasi", "lr_qi"),
    "quasi.local_tensor_space": ("quasi", "local_tensor_space"),
    "poisson.assemble": ("poisson", "assemble"),
    "poisson.solve": ("poisson", "solve"),
    "poisson.error_norms": ("poisson", "error_norms"),
    "formats.save": ("formats", "save"),
    "formats.load": ("formats", "load"),
    "formats.render_svg": ("formats", "render_svg"),
}

REFINE = ["build_s@diagonal"]
QI = ["total_s@peaks-qi", "analyse_s@peaks-qi"]
ASSEMBLY = ["total_s@layer-poisson", "analyse_s@layer-poisson"]
VERIFY = ["analyse_s@diagonal"]
CERTIFY = ["analyse_s@tensor"]
TENSOR_BUILD = ["build_s@tensor"]

# Per-layer metric -> the end-to-end metrics it should move.
TARGETS = {
    "dyadic.self_s": REFINE + ["total_s@peaks-qi"],
    "dyadic.lt.calls": REFINE + ["total_s@peaks-qi"],
    "dataclass.hash.calls": REFINE + ["total_s@peaks-qi"] + TENSOR_BUILD,
    "dataclass.eq.calls": REFINE,
    "mesh.insert_split.calls": REFINE,
    "mesh.insert_split.cum_s": REFINE,
    "bspline.univariate_values.calls": ASSEMBLY + QI + CERTIFY,
    "bspline.univariate_values.cum_s": ASSEMBLY + QI + CERTIFY,
    "bspline.find_refining_split.calls": REFINE,
    "bspline.insert_knot.calls": REFINE,
    "space.fixpoint.split_ratio": REFINE,
    "space.sorted_keys.calls": REFINE,
    "space.sorted_keys.cum_s": REFINE,
    "space.initial_space.cum_s": TENSOR_BUILD,
    "space.element_support_table.cum_s": CERTIFY + VERIFY,
    "space.evaluate_space.cum_s": QI + ASSEMBLY + CERTIFY,
    "space.collocation_rank.cum_s": VERIFY,
    "refine.n2s_pipeline.cum_s": REFINE + ["build_s@layer-poisson"],
    "refine.tracker_update.cum_s": REFINE + VERIFY,
    "refine.is_nested_knotwise.calls": REFINE + VERIFY,
    "refine.nested_map.cum_s": REFINE + VERIFY,
    "quasi.lr_qi.cum_s": QI,
    "quasi.local_tensor_space.calls": QI,
    "quasi.local_tensor_space.cum_s": QI,
    "poisson.assemble.cum_s": ASSEMBLY,
    "poisson.solve.cum_s": ASSEMBLY,
    "poisson.error_norms.cum_s": ASSEMBLY,
    "formats.save.cum_s": REFINE + VERIFY,
    "formats.load.cum_s": REFINE + VERIFY,
    "formats.render_svg.cum_s": REFINE + VERIFY,
    "mesh.self_s": REFINE + TENSOR_BUILD + ["total_s@peaks-qi"],
    "bspline.self_s": REFINE + QI + ASSEMBLY,
    "space.self_s": REFINE + TENSOR_BUILD + CERTIFY,
    "refine.self_s": REFINE + VERIFY,
    "quasi.self_s": QI,
    "poisson.self_s": ASSEMBLY,
    "formats.self_s": REFINE + VERIFY,
    "cli.self_s": REFINE + VERIFY,
    "dataclass.self_s": REFINE + TENSOR_BUILD + ["total_s@peaks-qi"],
    "other.self_s": ASSEMBLY + QI + VERIFY,
    "trace_overhead": [],
}


def bucket(filename: str) -> str:
    """The layer a profiled function belongs to, from its file name."""
    if filename == "<string>":
        return "dataclass"
    path = Path(filename)
    if path.parent.name == "lrbsplines" and path.stem in MODULES:
        return path.stem
    return "other"


def from_stats(stats: dict) -> dict[str, float]:
    """Per-layer metrics, except ``trace_overhead``, from ``pstats.Stats(...).stats``."""
    self_s = dict.fromkeys(BUCKETS, 0.0)
    calls = dict.fromkeys(FUNCTIONS, 0)
    cum_s = dict.fromkeys(FUNCTIONS, 0.0)
    wanted = {target: prefix for prefix, target in FUNCTIONS.items()}
    for (filename, _line, name), (_primitive, ncalls, tottime, cumtime, _callers) in stats.items():
        layer = bucket(filename)
        self_s[layer] += tottime
        prefix = wanted.get((layer, name))
        if prefix is not None:
            calls[prefix] += ncalls
            cum_s[prefix] += cumtime

    values: dict[str, float] = {}
    for name in TARGETS:
        head, _, stat = name.rpartition(".")
        if stat == "self_s" and head in self_s:
            values[name] = self_s[head]
        elif stat == "calls":
            values[name] = calls[head]
        elif stat == "cum_s":
            values[name] = cum_s[head]
    tried = calls["bspline.find_refining_split"]
    values["space.fixpoint.split_ratio"] = calls["bspline.insert_knot"] / tried if tried else 0.0
    return values
