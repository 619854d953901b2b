"""frameforms: exact symbolic exterior calculus on framed manifolds.

Scalars are polynomials over the Gaussian rationals; differential forms
live over a global coframe with the exterior derivative given by
structure equations; connections carry declaratively constrained
symbolic parameters; and a Cartan involutivity checker handles linear
exterior differential systems on frame bundles.
"""

# Each public name is declared once, in its module's __all__; each star
# import also binds the submodule itself, whose __all__ is read below.
from .basis import *
from .connection import *
from .eds import *
from .errors import *
from .exterior import *
from .manifold import *
from .scalar import *
from .spinors import *

__version__ = "0.1.0"

__all__ = (
    basis.__all__
    + connection.__all__
    + eds.__all__
    + errors.__all__
    + exterior.__all__
    + manifold.__all__
    + scalar.__all__
    + spinors.__all__
)
