"""Exception types shared across the package."""


class Curv4Error(Exception):
    """Base class for all package-specific failures."""


class InputError(Curv4Error, ValueError):
    """Malformed or out-of-contract input (shape, symmetry, parameter range)."""


class DomainError(Curv4Error):
    """A point left a chart's box."""


class IntegrationError(Curv4Error):
    """ODE integration produced a non-finite state.

    `t_last` holds the last parameter value with a valid state.
    """

    def __init__(self, message, t_last=None):
        super().__init__(message)
        self.t_last = t_last


class InconsistencyError(Curv4Error):
    """Numerical data violates an identity far beyond its noise budget."""


class PreconditionError(Curv4Error):
    """An operation was called on data that fails its documented precondition."""


class DegenerateFrameError(Curv4Error):
    """No canonical Ricci eigenframe exists at this point."""
