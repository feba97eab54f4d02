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
        """Read-only node coordinates x_i = -1 + 2 i / n_x, i = 0..n_x."""
        nodes = -1.0 + 2.0 * np.arange(self.n_x + 1) / self.n_x
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


def nodes_in_interval(grid: Grid, interval: tuple[float, float]) -> np.ndarray:
    """Interior-DOF mask of the nodes in the closed interval.

    The interval is widened by 1e-12 on each side, so a node that lies on
    an endpoint up to roundoff is included.  This mask is the support of
    every control on omega, and the package weighs each node in it by the
    lumped mass h.

    Parameters
    ----------
    grid : Grid
    interval : (float, float)
        Interval (lo, hi) with -1 <= lo < hi <= 1.

    Returns
    -------
    ndarray of bool, shape (n_interior,)
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (-1.0 <= lo < hi <= 1.0):
        raise ValueError(f"interval must satisfy -1 <= lo < hi <= 1, got ({lo}, {hi})")
    x = grid.interior_nodes
    tol = 1e-12
    return (x >= lo - tol) & (x <= hi + tol)
