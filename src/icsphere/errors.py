"""Exception types shared across the library.

Everything user-facing derives from ValueError or RuntimeError so the
command-line layer can map failures onto stable exit codes.
"""

__all__ = [
    "ConvergenceError", "DegenerateInputError", "DimensionError", "DomainError",
    "InvalidCovarianceError", "MalformedInputError", "ModelError",
    "NoUniqueSolutionError", "UndefinedMeanDirectionError",
]


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of an operation."""


class DimensionError(ValueError):
    """Vector or matrix shape is unusable for the requested operation."""


class MalformedInputError(ValueError):
    """External input (file or command line) could not be parsed."""


class ModelError(ValueError):
    """Distribution parameters are inconsistent or not positive definite."""


class InvalidCovarianceError(ValueError):
    """Matrix fails the kernel precondition for a direction covariance.

    A covariance of centered unit vectors must annihilate the constant
    vector; anything else is not such a covariance.
    """


class NoUniqueSolutionError(ValueError):
    """The optimization problem has no unique maximizer."""


class DegenerateInputError(ValueError):
    """Input lies in the constant subspace, so its direction is undefined."""


class UndefinedMeanDirectionError(DegenerateInputError):
    """The mean direction does not exist.

    The resultant length is still well defined (zero) and is carried on
    the exception so callers can report it.
    """

    def __init__(self, message: str, mrl: float = 0.0):
        super().__init__(message)
        self.mrl = mrl


class ConvergenceError(RuntimeError):
    """A series or iteration exhausted its budget before converging."""

    def __init__(self, message: str, terms_used: int = 0):
        super().__init__(message)
        self.terms_used = terms_used
