"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np

__all__ = [
    "FracheatError",
    "ConfigError",
    "SolverError",
]


class FracheatError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(FracheatError):
    """Invalid scenario configuration (bad schema, out-of-range field)."""


class SolverError(FracheatError):
    """An iterative solver failed to produce a usable result."""


def _check_count(name: str, value, minimum: int = 1, maximum: int | None = None) -> int:
    """Return value as an int; raise ValueError unless it is an integer (not a
    bool, nor a float such as 2.0) in [minimum, maximum]."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if minimum <= value and (maximum is None or value <= maximum):
            return int(value)
    bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
    raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
