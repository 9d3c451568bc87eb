"""Exception types shared across semfab modules."""


class SemfabError(Exception):
    """Base class for all semfab-specific errors."""


class MeshFormatError(SemfabError, ValueError):
    """Mesh file cannot be parsed or references vertices out of range."""


class AnnotationParseError(SemfabError, ValueError):
    """Annotation document is syntactically or semantically malformed.

    Carries the offending field path so callers can point at the input.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field:
            message = f"{field}: {message}"
        super().__init__(message)


class BindError(SemfabError, ValueError):
    """Annotation cannot be bound to the mesh (dangling reference,
    under-constrained problem, missing boundary data)."""


class WellPosednessError(SemfabError, ValueError):
    """Assembled system has no usable Dirichlet data for the requested physics,
    or its reduced matrix is singular or not positive definite."""


class SolverFailure(SemfabError, RuntimeError):
    """Linear solve left a backward error above fem.BACKWARD_ERROR_TOL."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class ModelInvalidError(SemfabError, ValueError):
    """Quadratic model cannot be used (free-block Hessian not positive definite)."""


class BasePointError(SemfabError, ValueError):
    """Quadratic model requested at a point that is not a minimizer."""


class CalibrationError(SemfabError, ValueError):
    """Not enough test-print data to fit the actuator model."""


class PrintCompleteError(SemfabError, RuntimeError):
    """print_layer called after the last layer was already printed."""
