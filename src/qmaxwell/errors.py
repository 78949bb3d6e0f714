"""Exception hierarchy shared by the library and the CLI."""


class QMaxwellError(Exception):
    """Base class for all qmaxwell errors."""


class NotPositiveSemidefinite(QMaxwellError):
    """An operator that must be PSD has an eigenvalue below tolerance."""


SingularDensityOperator = NotPositiveSemidefinite  # former name, for existing except clauses


class NonPositiveDensity(QMaxwellError):
    """A density profile touches zero or goes negative somewhere."""


class BasisMismatch(QMaxwellError):
    """Two objects built on incompatible spectral bases were combined."""


class SolverError(QMaxwellError):
    """Base class for solver failures; carries the last iterate's report and potential."""

    def __init__(self, message, report=None, potential=None):
        super().__init__(message)
        self.report = report
        self.potential = potential


class MaxIterExceeded(SolverError):
    """Iteration budget exhausted before the residual tolerance was met."""


class BasisTooSmall(SolverError):
    """The constraint is not representable at the current mode cutoff.

    Raised when the dual ascent reaches its rounding floor with the
    residual's in-basis part within tolerance and its out-of-basis part
    above it.  ``suggested_modes`` is the smallest cutoff above M beyond
    which that measured residual carries at most the tolerance: a lower
    estimate, since the solve at a larger cutoff may suggest again.  When
    no cutoff below the grid's Nyquist wavenumber does, it is that
    wavenumber, and the message says it is the grid's cap.
    """

    def __init__(self, message, suggested_modes, report=None, potential=None):
        super().__init__(message, report, potential)
        self.suggested_modes = suggested_modes


class DensityFileError(QMaxwellError):
    """Base class for density CSV ingestion failures."""


class MalformedRow(DensityFileError):
    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class NonUniformGrid(DensityFileError):
    pass


class DuplicatedEndpoint(DensityFileError):
    pass


class PotentialExprError(QMaxwellError):
    """The restricted potential expression grammar was violated."""
