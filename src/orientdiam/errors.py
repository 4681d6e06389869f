"""Exception types shared across the package."""

from __future__ import annotations


class GraphFormatError(ValueError):
    """Raised when a graph or orientation file cannot be parsed."""


class PreconditionError(ValueError):
    """An input violates a documented precondition.

    ``witness`` carries the offending object: a bridge edge, an unreachable
    vertex, or a short description of what failed.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class OrientationConflictError(ValueError):
    """An edge would be assigned two different directions."""


class IncompleteOrientationError(ValueError):
    """A query that needs a complete orientation hit an unassigned edge."""


class CertifiedFailureError(RuntimeError):
    """A runtime-certified invariant failed.

    This always signals an implementation bug or an instance outside the
    method's guarantees; it is never a normal result. ``details`` holds the
    diagnostic payload, typically the trace collected so far.
    """

    def __init__(self, message: str, details=None):
        super().__init__(message)
        self.details = details


class BudgetExceededError(ValueError):
    """The instance is larger than the configured exhaustive-search budget."""


class InfeasibleSpecError(ValueError):
    """A generator specification could not be realized."""
