"""Exception types shared across the package."""


class MvsdeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MvsdeError, ValueError):
    """An argument is outside the documented domain of an operation."""


class NumericsError(MvsdeError, ArithmeticError):
    """A numeric evaluation produced non-finite or otherwise invalid values."""


class SizeError(MvsdeError):
    """A problem instance exceeds a documented solver budget."""


class QuadratureError(MvsdeError):
    """A quadrature failed its accuracy or mass-coverage check."""


class AuditError(MvsdeError):
    """A model violated its declared constants; the message carries the witness."""


class ConvergenceError(MvsdeError):
    """An iteration failed to contract or converge.

    ``history`` is the per-sweep distance (or residual) series of the loop
    that gave up, in sweep order, its last sweep included.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class ConfigError(MvsdeError, ValueError):
    """Invalid model or experiment configuration.

    ``pointer`` is a JSON pointer to the offending field, e.g. ``/model``.
    """

    def __init__(self, message, pointer=""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer
