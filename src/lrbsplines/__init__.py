"""Locally refined B-spline spaces with guaranteed local linear independence.

The package builds bivariate spline spaces over box meshes that carry
axis-parallel meshline segments of varying extent and multiplicity.
Splines are generated by repeated knot insertion until every function
has minimal support on the mesh; a structured refinement strategy plus
a nested-function expansion sweep keeps the generated set locally
linearly independent.  On top of the spaces sit a polynomial-
reproducing quasi-interpolant and a Galerkin solver for the Poisson
problem with Dirichlet data.

Coordinates are dyadic rationals stored exactly, so meshes, knot
vectors and refinement weights never suffer rounding; only function
evaluation works in floating point.
"""

from .dyadic import DyadicCoord, dyadic, midpoint
from .mesh import (
    Mesh,
    MeshError,
    Rect,
    Split,
    insert_split,
    is_tensorized,
    make_initial_mesh,
    mesh_from_knots,
)
from .bspline import (
    KnotVectorError,
    evaluate,
    evaluate_gradient,
    find_refining_split,
    has_minimal_support,
    has_support_on,
    insert_knot,
    local_knot_vector,
)
from .space import (
    LRSpace,
    SpaceError,
    apply_split,
    collocation_points,
    collocation_rank,
    element_support_count,
    element_support_table,
    evaluate_space,
    initial_space,
    is_locally_linearly_independent,
    partition_of_unity_defect,
    structured_refine,
)
from .refine import (
    is_nested_knotwise,
    is_nested_meshwise,
    n2s_pipeline,
    nested_map,
    one_directional_expansion,
    central_span,
    diagonal_marker,
    point_marker,
    tensor_expansion,
)
from .quasi import (
    lr_qi,
    qi_max_error,
    tensor_qi_coefficient,
    tensor_space_for_level,
    three_peaks,
    three_peaks_marker,
    three_peaks_spaces,
)
from .poisson import (
    ErrorReport,
    GalerkinSystem,
    NumericsError,
    adaptive_solve,
    assemble,
    error_norms,
    impose_dirichlet,
    layer_marker,
    layer_rhs,
    layer_solution,
    mark_by_layer,
    solve,
)
from .formats import (
    FormatError,
    from_json,
    load,
    render_svg,
    save,
    to_json,
    write_element_csv,
    write_poisson_csv,
    write_qi_csv,
    write_trace,
)
from .cli import main, run_mesh_demo, verify

__version__ = "0.1.0"

__all__ = [
    "DyadicCoord",
    "dyadic",
    "midpoint",
    "Mesh",
    "MeshError",
    "Rect",
    "Split",
    "insert_split",
    "is_tensorized",
    "make_initial_mesh",
    "mesh_from_knots",
    "KnotVectorError",
    "evaluate",
    "evaluate_gradient",
    "find_refining_split",
    "has_minimal_support",
    "has_support_on",
    "insert_knot",
    "local_knot_vector",
    "LRSpace",
    "SpaceError",
    "apply_split",
    "collocation_points",
    "collocation_rank",
    "element_support_count",
    "element_support_table",
    "evaluate_space",
    "initial_space",
    "is_locally_linearly_independent",
    "partition_of_unity_defect",
    "structured_refine",
    "is_nested_knotwise",
    "is_nested_meshwise",
    "n2s_pipeline",
    "nested_map",
    "one_directional_expansion",
    "central_span",
    "diagonal_marker",
    "point_marker",
    "tensor_expansion",
    "lr_qi",
    "qi_max_error",
    "tensor_qi_coefficient",
    "tensor_space_for_level",
    "three_peaks",
    "three_peaks_marker",
    "three_peaks_spaces",
    "ErrorReport",
    "GalerkinSystem",
    "NumericsError",
    "adaptive_solve",
    "assemble",
    "error_norms",
    "impose_dirichlet",
    "layer_marker",
    "layer_rhs",
    "layer_solution",
    "mark_by_layer",
    "solve",
    "FormatError",
    "from_json",
    "load",
    "render_svg",
    "save",
    "to_json",
    "write_element_csv",
    "write_poisson_csv",
    "write_qi_csv",
    "write_trace",
    "main",
    "run_mesh_demo",
    "verify",
    "__version__",
]
