"""Exception types shared across the package."""


class ValutaError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(ValutaError):
    """Operands live in incompatible ambient dimensions or ranks."""


class GeometryError(ValutaError):
    """Degenerate or unsupported geometric input."""


class NumericalRankError(ValutaError):
    """A floating-point rank decision fell inside the ambiguity band."""


class ParseError(ValutaError):
    """Malformed serialized input."""
