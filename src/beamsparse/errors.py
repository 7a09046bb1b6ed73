"""Exception types shared across the package."""


class BeamsparseError(Exception):
    """Base class for all package-specific errors."""


class ContractError(BeamsparseError, ValueError):
    """An argument violates a documented precondition (shape, range, norm)."""


class ConfigurationError(BeamsparseError, ValueError):
    """An experiment configuration or template specification is invalid."""


class DegenerateInputError(BeamsparseError, ValueError):
    """Input is degenerate for the requested operation (zero vector, empty template)."""


class NumericalError(BeamsparseError, RuntimeError):
    """A numerical step failed (non-finite values, failed factorization)."""


class DivergenceError(NumericalError):
    """The solver produced non-finite iterates.

    Carries the ``Trace`` of the sweeps before the failure in ``trace``.
    """

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace
