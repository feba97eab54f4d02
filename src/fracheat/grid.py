"""Uniform grids on the interval (-1, 1)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import _check_count

__all__ = [
    "Grid",
    "build_grid",
    "nodes_in_interval",
    "trapezoid_weights",
]


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform partition of (-1, 1) into ``n_x`` subintervals.

    The grid stores its cell count only; construction raises ValueError
    unless n_x is an integer >= 2, so that the grid has interior degrees
    of freedom.  Its mesh size and nodes are derived on read.

    Attributes
    ----------
    n_x : int
        Number of subintervals.
    """

    n_x: int

    def __post_init__(self):
        object.__setattr__(self, "n_x", _check_count("n_x", self.n_x, minimum=2))

    @property
    def h(self) -> float:
        """Mesh size 2 / n_x."""
        return 2.0 / self.n_x

    @cached_property
    def nodes(self) -> np.ndarray:
        """Read-only node coordinates x_i = -1 + 2 i / n_x, i = 0..n_x,
        with the endpoints pinned so they are exact regardless of rounding."""
        nodes = -1.0 + 2.0 * np.arange(self.n_x + 1) / self.n_x
        nodes[0] = -1.0
        nodes[-1] = 1.0
        nodes.setflags(write=False)
        return nodes

    @property
    def n_interior(self) -> int:
        """Number of interior degrees of freedom."""
        return self.n_x - 1

    @property
    def interior_nodes(self) -> np.ndarray:
        """Coordinates of the interior nodes."""
        return self.nodes[1:-1]


def build_grid(n_x: int) -> Grid:
    """The uniform grid x_i = -1 + 2 i / n_x, i = 0..n_x: ``Grid(n_x)``."""
    return Grid(n_x)


def _in_closed_interval(grid: Grid, interval: tuple[float, float]) -> np.ndarray:
    """Mask over all nodes, domain endpoints included, of [lo, hi] widened by 1e-12."""
    lo, hi = float(interval[0]), float(interval[1])
    if not (-1.0 <= lo < hi <= 1.0):
        raise ValueError(f"interval must satisfy -1 <= lo < hi <= 1, got ({lo}, {hi})")
    x = grid.nodes
    tol = 1e-12
    return (x >= lo - tol) & (x <= hi + tol)


def nodes_in_interval(grid: Grid, interval: tuple[float, float]) -> np.ndarray:
    """Interior-DOF mask of nodes lying in the closed interval.

    A node whose hat function overlaps the interval with positive measure on
    both sides contributes a full trapezoid weight; nodes exactly at an
    endpoint are included (they carry half weight in quadrature helpers).

    Parameters
    ----------
    grid : Grid
    interval : (float, float)
        Interval (lo, hi) with -1 <= lo < hi <= 1.

    Returns
    -------
    ndarray of bool, shape (n_interior,)
    """
    return _in_closed_interval(grid, interval)[1:-1]


def trapezoid_weights(grid: Grid, interval: tuple[float, float]) -> np.ndarray:
    """Trapezoid quadrature weights for integrals over a subinterval.

    Each interior node in the closed interval receives ``h/2`` for every
    neighbouring node (including the domain endpoints, where functions
    vanish) that also lies in the interval, so interior runs get weight
    ``h`` and run ends get ``h/2``.  For node-aligned intervals this equals
    exact integration of the piecewise linear interpolant.  The weight
    vector covers all interior DOFs and is zero off the interval, and it is
    elementwise monotone in the interval, so integrals of nonnegative nodal
    functions are monotone in the interval as well.

    Parameters
    ----------
    grid : Grid
    interval : (float, float)
        Interval (lo, hi) with -1 <= lo < hi <= 1.

    Returns
    -------
    ndarray, shape (n_interior,)
    """
    in_closed = _in_closed_interval(grid, interval)
    mask = in_closed[1:-1]
    if not mask.any():
        raise ValueError(f"interval {interval!r} contains no interior nodes")
    left_in = in_closed[:-2]
    right_in = in_closed[2:]
    w = 0.5 * grid.h * mask * (left_in.astype(float) + right_in.astype(float))
    return w
