"""Exception types shared across the package."""


class SteinerAdaptError(Exception):
    """Base class for errors raised by this package."""


class DegenerateEdgeError(SteinerAdaptError, ValueError):
    """An edge length fell below the coincidence threshold where a formula divides by it."""


class IllConditionedError(SteinerAdaptError, ArithmeticError):
    """The Steiner Hessian is not usably positive definite at this configuration."""


class ConvergenceError(SteinerAdaptError, RuntimeError):
    """A solver found no answer that passes its own checks."""


class DocumentError(SteinerAdaptError, ValueError):
    """A document failed to parse or violated a format rule."""


class UsageError(SteinerAdaptError):
    """Bad command-line arguments."""
