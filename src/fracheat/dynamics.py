"""Time integration of the controlled fractional heat equation.

Marches the semi-discrete system M dz/dt + K z = M (u restricted to the
control region), with M the lumped mass, by implicit Euler on a uniform
time grid, with piecewise-constant-in-time controls on right-open cells.
Also provides the exact modal (Duhamel) solution used as a cross-check
oracle and target-trajectory generation.  scipy.linalg is imported by
:func:`simulate`, its one user here, when it first runs, so that importing
the package loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import DiscreteOperator
from .errors import _check_count
from .grid import Grid, nodes_in_interval
from .spectral import SpectralBasis

__all__ = [
    "Trajectory",
    "ControlField",
    "make_control",
    "simulate",
    "duhamel_spectral",
    "generate_target_trajectory",
    "trajectory_to_csv",
]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States of a time-marched solution on a uniform time grid.

    Attributes
    ----------
    T : float
        Final time.
    states : ndarray, shape (n_t + 1, n_interior)
        Row j holds the nodal values at t_j = j T / n_t; row 0 is the
        initial datum.
    """

    T: float
    states: np.ndarray = field(repr=False)

    @property
    def times(self) -> np.ndarray:
        """Uniform grid t_j = j T / n_t, shape (n_t + 1,), with times[-1] = T exactly."""
        return np.linspace(0.0, self.T, self.n_t + 1)

    @property
    def min_value(self) -> float:
        """Minimum entry over all rows."""
        return float(self.states.min())

    @property
    def n_t(self) -> int:
        return len(self.states) - 1

    @property
    def final(self) -> np.ndarray:
        """Nodal values at the final time."""
        return self.states[-1]


@dataclass(frozen=True, eq=False)
class ControlField:
    """Piecewise-constant-in-time control supported on a subinterval.

    Construction, direct or by ``dataclasses.replace``, stores read-only
    copies of values (as float) and support_mask, and raises ValueError
    unless values is finite and 2-D and support_mask is a 1-D bool array
    with a True for each row of values.

    Attributes
    ----------
    values : ndarray, shape (n_support, n_t)
        Read-only; rows follow the interior nodes inside omega, columns
        the time cells [t_j, t_{j+1}).
    support_mask : ndarray of bool, shape (n_interior,)
        Read-only; True for interior nodes inside omega.
    """

    values: np.ndarray = field(repr=False)
    support_mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        u, mask = np.array(self.values, dtype=float), self.support_mask
        if u.ndim != 2 or not np.isfinite(u).all():
            raise ValueError(f"control values must be finite and 2-D, got {u.shape}")
        if not isinstance(mask, np.ndarray) or mask.dtype != bool or mask.ndim != 1:
            raise ValueError(f"support_mask must be a 1-D bool array, got {mask!r}")
        if not mask.any():
            raise ValueError("control support contains no interior nodes")
        if u.shape[0] != mask.sum():
            raise ValueError(f"control values must have shape ({mask.sum()}, n_t), got {u.shape}")
        mask = np.array(mask)
        u.flags.writeable = mask.flags.writeable = False
        object.__setattr__(self, "values", u)
        object.__setattr__(self, "support_mask", mask)

    @property
    def n_t(self) -> int:
        return self.values.shape[1]


def make_control(
    grid: Grid,
    omega: tuple[float, float],
    n_t: int,
    values: np.ndarray | float,
) -> ControlField:
    """Build a ControlField on the nodes of omega.

    Parameters
    ----------
    grid : Grid
    omega : (float, float)
        Control region; must contain at least one interior node.
    n_t : int
        Number of time cells, an integer >= 1.
    values : ndarray or float
        Either shape (n_support, n_t), or a scalar (constant control;
        0.0 gives the zero control).
    """
    n_t = _check_count("n_t", n_t)
    mask = nodes_in_interval(grid, omega)
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 0:
        vals = np.full((int(mask.sum()), n_t), float(vals))
    control = ControlField(values=vals, support_mask=mask)
    if control.n_t != n_t:
        raise ValueError(f"control values must have {n_t} time cells, got {vals.shape}")
    return control


def _check_horizon(T: float, n_t: int) -> None:
    """Raise ValueError unless T is finite and positive and n_t an integer >= 1."""
    if not 0 < T < np.inf:
        raise ValueError(f"T must be finite and positive, got {T}")
    _check_count("n_t", n_t)


def _check_on_grid(control: ControlField, grid: Grid) -> None:
    """Raise ValueError unless the control's mask covers the grid's interior nodes."""
    size = control.support_mask.size
    if size != grid.n_interior:
        raise ValueError(f"control mask has {size} nodes, grid has {grid.n_interior}")


def _control_cells(control: ControlField, grid: Grid, T: float):
    """Coordinates of a control's support nodes and time-cell midpoints at T."""
    _check_horizon(T, control.n_t)
    _check_on_grid(control, grid)
    mask = control.support_mask
    return grid.interior_nodes[mask], (np.arange(control.n_t) + 0.5) * (T / control.n_t)


def simulate(
    op: DiscreteOperator,
    z0: np.ndarray,
    control: ControlField | None,
    T: float,
    n_t: int,
) -> Trajectory:
    """March the semi-discrete system over [0, T] by lumped implicit Euler.

    Each step solves (M + dt K) z_{j+1} = M (z_j + dt u_j) with the lumped
    mass M = h I, h read from ``op.grid.h``, and a Cholesky factor
    computed once.  z0 is checked for NaN and inf before the march, and a
    ControlField is finite by construction.  The step matrix is entrywise
    nonnegative, hence positivity-preserving, for every dt when
    ``op.positivity_preserving`` holds (s >= 0.2374); otherwise small
    steps can turn nonnegative data negative.

    Parameters
    ----------
    op : DiscreteOperator
    z0 : ndarray, shape (n_interior,)
        Initial nodal values.
    control : ControlField or None
        Piecewise-constant control with n_t cells; None means no forcing.
    T : float
        Final time, finite and positive.
    n_t : int
        Number of time steps, an integer >= 1.

    Returns
    -------
    Trajectory

    Raises
    ------
    ValueError
        If an argument is out of range or z0 holds NaN or inf.
    """
    _check_horizon(T, n_t)
    n = op.n_dof
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (n,):
        raise ValueError(f"z0 must have shape ({n},), got {z0.shape}")
    if not np.isfinite(z0).all():
        raise ValueError("z0 must be finite")
    if control is not None:
        if control.n_t != n_t:
            raise ValueError(f"control has {control.n_t} time cells, simulation has {n_t}")
        _check_on_grid(control, op.grid)

    dt = T / n_t
    states = np.empty((n_t + 1, n))
    states[0] = z0
    z = z0
    # the lumped mass is h I: scale by h, not by a dense product
    h = op.grid.h
    from scipy.linalg import cho_factor, get_lapack_funcs

    # M + dt K, built once in LAPACK's column-major layout, which the
    # Cholesky factor then overwrites instead of copying
    factor = np.multiply(dt, op.stiffness, order="F")
    factor[np.diag_indices(n)] += h
    factor, lower = cho_factor(factor, overwrite_a=True)
    # the LAPACK triangular solve behind cho_solve, resolved once per call
    # instead of once per step
    (potrs,) = get_lapack_funcs(("potrs",), (factor,))
    for j in range(n_t):
        rhs = h * z
        if control is not None:
            rhs[control.support_mask] += dt * (h * control.values[:, j])
        z, info = potrs(factor, rhs, lower=lower, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        states[j + 1] = z

    states.setflags(write=False)
    return Trajectory(T=T, states=states)


def duhamel_spectral(
    basis: SpectralBasis,
    z0_coeffs: np.ndarray,
    control_coeffs: np.ndarray | None,
    t: float,
) -> np.ndarray:
    """Exact modal solution by variation of constants.

    Each mode evolves as z_k(t) = z_k(0) e^{-lambda_k t} + integral of
    e^{-lambda_k (t - tau)} u_k(tau); the integral is evaluated in closed
    form for controls that are constant on the uniform cells of [0, t].

    Parameters
    ----------
    basis : SpectralBasis
    z0_coeffs : ndarray, shape (k_max,)
        Modal coefficients of the initial datum.
    control_coeffs : ndarray or None
        Modal control coefficients, shape (n_t, k_max), constant per
        right-open time cell of the uniform partition of [0, t].
    t : float
        Finite nonnegative evaluation time.

    Returns
    -------
    ndarray, shape (k_max,)
        Modal coefficients of the solution at time t.
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    lam = basis.eigenvalues
    out = np.asarray(z0_coeffs, dtype=float) * np.exp(-lam * t)
    if control_coeffs is not None and t > 0:
        u = np.asarray(control_coeffs, dtype=float)
        n_t = u.shape[0]
        edges = np.linspace(0.0, t, n_t + 1)
        # integral of e^{-lam (t - tau)} over [t_j, t_{j+1}]
        w = (
            np.exp(-lam[None, :] * (t - edges[1:, None]))
            - np.exp(-lam[None, :] * (t - edges[:-1, None]))
        ) / lam[None, :]
        out = out + (w * u).sum(axis=0)
    return out


def generate_target_trajectory(
    op: DiscreteOperator,
    zhat0: np.ndarray,
    uhat: float,
    omega: tuple[float, float],
    T: float,
    n_t: int,
) -> Trajectory:
    """Free-running target trajectory with a constant control on omega.

    Parameters
    ----------
    op : DiscreteOperator
    zhat0 : ndarray
        Finite initial nodal values, strictly positive at every interior node.
    uhat : float
        Constant finite nonnegative control value applied on omega.
    omega : (float, float)
    T, n_t
        Passed through to :func:`simulate`.

    Returns
    -------
    Trajectory
        Its final row is the controllability target at time T.
    """
    zhat0, uhat = _target_data(zhat0, uhat)
    control = make_control(op.grid, omega, n_t, values=uhat)
    return simulate(op, zhat0, control, T, n_t)


def _target_data(zhat0, uhat) -> tuple[np.ndarray, float]:
    """A target's data as a float array and a float, checked.

    The one rule for a target trajectory's data: raises ValueError unless
    zhat0 is finite and > 0 at every node and uhat is finite and >= 0.
    """
    zhat0 = np.asarray(zhat0, dtype=float)
    if not np.isfinite(zhat0).all():
        raise ValueError("zhat0 must be finite")
    if (zhat0 <= 0).any():
        raise ValueError("target initial datum must be strictly positive")
    uhat_value = float(uhat)
    if not 0.0 <= uhat_value < np.inf:
        raise ValueError(f"uhat must be finite and nonnegative, got {uhat}")
    return zhat0, uhat_value


def trajectory_to_csv(traj: Trajectory, grid: Grid, path) -> None:
    """Write a trajectory in long format with header t,x,z.

    Boundary nodes are included with their zero values so each time slice
    covers the full grid.  Raises ValueError unless the trajectory has one
    value per interior node of the grid.
    """
    n_nodes = traj.states.shape[1]
    if n_nodes != grid.n_interior:
        raise ValueError(f"trajectory has {n_nodes} nodes, grid has {grid.n_interior}")
    x = grid.nodes
    full = np.zeros((traj.states.shape[0], x.size))
    full[:, 1:-1] = traj.states
    _write_long_csv(path, "t,x,z", traj.times, x, full)


def _write_long_csv(
    path, header: str, t: np.ndarray, x: np.ndarray, values: np.ndarray
) -> None:
    """Write the rows (t[i], x[k], values[i, k]), k varying fastest.

    Every number is formatted with %.17g, so the file is byte for byte
    what ``np.savetxt(..., fmt="%.17g", delimiter=",")`` writes.  Each x
    is formatted once per file, into a format string for one time slice,
    and each t once per slice, so only the values are formatted per row.
    """
    # %.17g never prints a '%', so the x strings are safe in a format
    slice_fmt = "".join("%s," + ("%.17g" % xk) + ",%.17g\n" for xk in x.tolist())
    cells: list = [None] * (2 * x.size)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for ti, row in zip(t.tolist(), values):
            cells[0::2] = ["%.17g" % ti] * x.size
            cells[1::2] = row.tolist()
            fh.write(slice_fmt % tuple(cells))
