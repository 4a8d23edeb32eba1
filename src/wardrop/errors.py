"""Exception types shared across the solver modules."""

from __future__ import annotations


class GameError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GameError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RangeOverflowError(GameError, OverflowError):
    """A value is too large for native floats; use the log-domain evaluator."""


class UnsupportedCostError(GameError, TypeError):
    """The cost family does not support the requested operation."""


class ConvergenceError(GameError, RuntimeError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (residual={residual:.3e})"
        super().__init__(message)
        self.residual = residual


class DemandBracketError(GameError, ValueError):
    """Total demand falls outside the bracket lattice a solver can handle."""
