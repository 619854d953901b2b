"""frameforms: exact symbolic exterior calculus on framed manifolds.

Scalars are polynomials over the Gaussian rationals; differential forms
live over a global coframe with the exterior derivative given by
structure equations; connections carry declaratively constrained
symbolic parameters; and a Cartan involutivity checker handles linear
exterior differential systems on frame bundles.
"""

from .basis import AffineBasis, Basis, FormBasis, SymbolBasis
from .connection import Connection, RiemannianManifold
from .eds import (
    CartanReport,
    FrameBundle,
    cartan_test,
    frame_bundle,
    load_ideal,
    reduced_polar_equations,
)
from .errors import (
    DegreeError,
    DimensionError,
    EngineError,
    FileFormatError,
    FormParseError,
    FrameIndexError,
    FrameMismatchError,
    InconsistentError,
    MissingDeclarationError,
    MixedDegreeError,
    NonConstantCoefficientError,
    NonLinearError,
    NotInSpanError,
    NotLinearError,
    NotNilpotentError,
    RedeclarationError,
    UnsupportedKindError,
)
from .exterior import (
    Form,
    coefficients,
    degree,
    hook,
    pairing,
    parse_form,
    print_form,
    substitute_form,
    wedge,
)
from .manifold import FrameManifold, load_manifold
from .scalar import (
    GaussianRational,
    I,
    LinearSolution,
    Poly,
    Session,
    Symbol,
    linear_solve,
)
from .spinors import CliffordTable, Spinor, build_clifford_table, clifford_mul

__version__ = "0.1.0"

__all__ = [
    "AffineBasis",
    "Basis",
    "CartanReport",
    "CliffordTable",
    "Connection",
    "DegreeError",
    "DimensionError",
    "EngineError",
    "FileFormatError",
    "Form",
    "FormBasis",
    "FormParseError",
    "FrameBundle",
    "FrameIndexError",
    "FrameManifold",
    "FrameMismatchError",
    "GaussianRational",
    "I",
    "InconsistentError",
    "LinearSolution",
    "MissingDeclarationError",
    "MixedDegreeError",
    "NonConstantCoefficientError",
    "NonLinearError",
    "NotInSpanError",
    "NotLinearError",
    "NotNilpotentError",
    "Poly",
    "RedeclarationError",
    "RiemannianManifold",
    "Session",
    "Spinor",
    "Symbol",
    "SymbolBasis",
    "UnsupportedKindError",
    "build_clifford_table",
    "cartan_test",
    "clifford_mul",
    "coefficients",
    "degree",
    "frame_bundle",
    "hook",
    "linear_solve",
    "load_ideal",
    "load_manifold",
    "pairing",
    "parse_form",
    "print_form",
    "reduced_polar_equations",
    "substitute_form",
    "wedge",
]
