"""Exception types shared across the solver suite."""

from __future__ import annotations


class DdvefError(Exception):
    """Base class for all package errors."""


class ConfigError(DdvefError):
    """Invalid configuration input."""


class ConvergenceError(DdvefError):
    """An iteration failed to converge; carries the residual history."""

    def __init__(self, message: str, residual: float, history=None):
        self.residual = residual
        self.history = list(history) if history is not None else []
        super().__init__(f"{message} (residual {residual:.3e})")


class SolverError(DdvefError):
    """A linear solve failed; carries the group index for context."""

    def __init__(self, message: str, group: int | None = None):
        self.group = group
        if group is not None:
            message = f"{message} (group {group})"
        super().__init__(message)
