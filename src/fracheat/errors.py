"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "FracheatError",
    "ConfigError",
    "QuadratureError",
    "SolverError",
]


class FracheatError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(FracheatError):
    """Invalid scenario configuration (bad schema, out-of-range field)."""


class QuadratureError(FracheatError):
    """Singular-integral quadrature failed an internal consistency check."""


class SolverError(FracheatError):
    """An iterative solver failed to produce a usable result."""
