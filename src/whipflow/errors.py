"""Exception types shared across the package."""


class WhipflowError(Exception):
    """Base class for all whipflow errors."""


class ShapeError(WhipflowError, ValueError):
    """An array argument has the wrong length or dimensionality."""


class NumericDomainError(WhipflowError, ValueError):
    """A numeric argument is outside the admissible domain (NaN, inf, ...)."""


class InversionError(WhipflowError, RuntimeError):
    """The scalar inversion of the constitutive map failed to converge."""


class TensionSolveError(WhipflowError, RuntimeError):
    """The tridiagonal tension system could not be solved."""


class UnderResolvedError(WhipflowError, ValueError):
    """The requested grid is too coarse for the requested stiffness."""


class StepRejected(WhipflowError, RuntimeError):
    """A single implicit step did not converge; the caller should retry
    with a smaller time step."""


class SolverFailure(WhipflowError, RuntimeError):
    """Time integration failed hard (time step underflow).

    Carries a ``diagnostics`` dict with the state of the integrator at the
    point of failure.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class RunFormatError(WhipflowError, ValueError):
    """A persisted run directory is missing, corrupt, or malformed."""

    def __init__(self, message, path=None, line=None):
        detail = message
        if path is not None:
            detail += f" [file: {path}"
            if line is not None:
                detail += f", line {line}"
            detail += "]"
        super().__init__(detail)
        self.path = path
        self.line = line


class SchemaVersionError(RunFormatError):
    """A persisted run uses an unsupported schema version."""
