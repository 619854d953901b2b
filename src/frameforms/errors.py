"""Exception hierarchy for the engine.

Everything raised on purpose derives from EngineError; the CLI maps
input-shaped errors to exit code 1 and mathematical/structural errors
to exit code 2.
"""

__all__ = [
    "EngineError",
    "NonLinearError",
    "InconsistentError",
    "NonConstantCoefficientError",
    "DegreeError",
    "MixedDegreeError",
    "FrameMismatchError",
    "FrameIndexError",
    "FormParseError",
    "FileFormatError",
    "RedeclarationError",
    "NotNilpotentError",
    "MissingDeclarationError",
    "NotInSpanError",
    "UnsupportedKindError",
    "DimensionError",
    "NotLinearError",
]


class EngineError(Exception):
    """Base class for all engine errors."""


class NonLinearError(EngineError):
    """An expression is not linear where the engine requires linearity.

    Raised when an unknown appears with degree two or more, when two
    unknowns multiply each other, or when an unknown carries a symbolic
    (parametric) coefficient.  Signals the restriction of this engine,
    not a user typo.
    """


class InconsistentError(EngineError):
    """A linear system reduced to a nonzero constant or parameter-only equation."""


class NonConstantCoefficientError(EngineError):
    """A basis insertion needs exact division but the coefficients are symbolic."""


class DegreeError(EngineError):
    """A form has the wrong degree for the requested operation."""


class MixedDegreeError(EngineError):
    """degree() was asked of a form with monomials of different lengths."""


class FrameMismatchError(EngineError):
    """Two expressions from different frames/sessions were combined."""


class FrameIndexError(EngineError):
    """A frame index lies outside 1..dim."""


class FormParseError(EngineError):
    """A form string does not match the grammar; carries position and reason."""

    def __init__(self, position, reason):
        super().__init__(f"parse error at position {position}: {reason}")
        self.position = position
        self.reason = reason


class FileFormatError(EngineError):
    """A manifold or ideal file is malformed; carries the line number."""

    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class RedeclarationError(EngineError):
    """A name was declared twice: declare_d for one generator, or a symbol name in one session."""


class NotNilpotentError(EngineError):
    """A loaded d-table gives d(d e^i) != 0 for some generator."""


class MissingDeclarationError(EngineError):
    """d was requested for a generator with no d-table entry."""


class NotInSpanError(EngineError):
    """components() was asked for an element outside the basis span."""


class UnsupportedKindError(EngineError):
    """The operation is not defined for this connection kind (e.g. spinor

    covariant derivative on a non-Riemannian connection)."""


class DimensionError(EngineError):
    """A dimension argument is out of the supported range."""


class NotLinearError(NonLinearError):
    """The NonLinearError of a whole exterior differential system: a term

    without exactly one connection form, so Cartan's test does not apply."""
