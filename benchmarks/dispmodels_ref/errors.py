"""Exception hierarchy shared by all dispmodels modules.

Two failure classes matter to callers: a *domain* problem (the inputs are
outside the contract) and a *numerical* problem (the inputs were fine but
the computation could not be completed reliably).  The CLI maps these to
exit codes 1 and 2 respectively.
"""


class DispersionModelError(Exception):
    """Base class for all dispmodels errors."""


class DomainError(DispersionModelError, ValueError):
    """Input outside the mathematical domain of an operation."""


class NumericalError(DispersionModelError, RuntimeError):
    """A numerical procedure failed (instability, divergence, overflow)."""


class ConvergenceError(NumericalError):
    """An iterative solver exhausted its iteration budget."""
