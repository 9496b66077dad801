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

from . import dyadic, mesh, bspline, space, refine, quasi, poisson, formats, cli

__version__ = "0.1.0"

# Each module's ``__all__`` is the one list of its public names.  They are
# read before the star imports, because ``from .dyadic import *`` rebinds
# ``dyadic`` from the module to the function of that name.
__all__ = [
    name
    for module in (dyadic, mesh, bspline, space, refine, quasi, poisson, formats, cli)
    for name in module.__all__
] + ["__version__"]

from .dyadic import *
from .mesh import *
from .bspline import *
from .space import *
from .refine import *
from .quasi import *
from .poisson import *
from .formats import *
from .cli import *
