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


@dataclass(frozen=True)
class Trajectory:
    """States of a time-marched solution on a uniform time grid.

    Attributes
    ----------
    times : ndarray, shape (n_t + 1,)
        Uniform grid t_j = j T / n_t with times[-1] = T exactly.
    states : ndarray, shape (n_t + 1, n_interior)
        Row j holds the nodal values at t_j; row 0 is the initial datum.
    min_value : float
        Minimum entry over all rows.
    """

    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)
    min_value: float

    @property
    def n_t(self) -> int:
        return len(self.times) - 1

    @property
    def final(self) -> np.ndarray:
        """Nodal values at the final time."""
        return self.states[-1]


@dataclass(frozen=True)
class ControlField:
    """Piecewise-constant-in-time control supported on a subinterval.

    Attributes
    ----------
    values : ndarray, shape (n_support, n_t)
        Rows follow the interior nodes inside omega, columns the time
        cells [t_j, t_{j+1}).
    support_mask : ndarray of bool, shape (n_interior,)
        True for interior nodes inside omega.
    """

    values: np.ndarray = field(repr=False)
    support_mask: np.ndarray = field(repr=False)

    @property
    def n_t(self) -> int:
        return self.values.shape[1]

    def expand(self) -> np.ndarray:
        """Zero-extended control over all interior nodes, shape (n_interior, n_t)."""
        full = np.zeros((self.support_mask.size, self.values.shape[1]))
        full[self.support_mask] = self.values
        return full


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
        Number of time cells.
    values : ndarray or float
        Either shape (n_support, n_t), or a scalar (constant control;
        0.0 gives the zero control).
    """
    mask = nodes_in_interval(grid, omega)
    n_sup = int(mask.sum())
    if n_sup == 0:
        raise ValueError(f"control region {omega!r} contains no interior nodes")
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 0:
        vals = np.full((n_sup, n_t), float(vals))
    if vals.shape != (n_sup, n_t):
        raise ValueError(
            f"control values must have shape ({n_sup}, {n_t}), got {vals.shape}"
        )
    return ControlField(values=vals, support_mask=mask)


def _time_grid(T: float, n_t: int) -> np.ndarray:
    times = np.arange(n_t + 1) * (T / n_t)
    times[-1] = T
    return times


def simulate(
    op: DiscreteOperator,
    z0: np.ndarray,
    control: ControlField | None,
    T: float,
    n_t: int,
) -> Trajectory:
    """March the semi-discrete system over [0, T] by lumped implicit Euler.

    Each step solves (M + dt K) z_{j+1} = M (z_j + dt u_j) with the lumped
    mass M and a Cholesky factor computed once.  z0 and the control are
    checked for NaN and inf once, before the march, not at every solve.
    The step matrix is entrywise nonnegative, hence positivity-preserving,
    for every dt when ``op.positivity_preserving`` holds (s above about
    0.23); otherwise small steps can turn nonnegative data negative.

    Parameters
    ----------
    op : DiscreteOperator
    z0 : ndarray, shape (n_interior,)
        Initial nodal values.
    control : ControlField or None
        Piecewise-constant control with n_t cells; None means no forcing.
    T : float
        Final time, positive.
    n_t : int
        Number of time steps.

    Returns
    -------
    Trajectory

    Raises
    ------
    ValueError
        If an argument is out of range or z0 or the control holds NaN or
        inf.
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    if n_t < 1:
        raise ValueError(f"n_t must be >= 1, got {n_t}")
    n = op.n_dof
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (n,):
        raise ValueError(f"z0 must have shape ({n},), got {z0.shape}")
    u_full = None
    if control is not None:
        if control.n_t != n_t:
            raise ValueError(
                f"control has {control.n_t} time cells, simulation has {n_t}"
            )
        u_full = control.expand()
    if not np.isfinite(z0).all() or (
        u_full is not None and not np.isfinite(u_full).all()
    ):
        raise ValueError("array must not contain infs or NaNs")

    dt = T / n_t
    states = np.empty((n_t + 1, n))
    states[0] = z0
    z = z0
    # the lumped mass is diagonal: scale by it, not by a dense product
    m = op.mass_lumped_diag
    from scipy.linalg import cho_factor, get_lapack_funcs

    # M + dt K, built once in LAPACK's column-major layout, which the
    # Cholesky factor then overwrites instead of copying
    factor = np.multiply(dt, op.stiffness, order="F")
    factor[np.diag_indices(n)] += m
    factor, lower = cho_factor(factor, overwrite_a=True)
    # the LAPACK triangular solve behind cho_solve, resolved once per call
    # instead of once per step
    (potrs,) = get_lapack_funcs(("potrs",), (factor,))
    for j in range(n_t):
        rhs = m * z
        if u_full is not None:
            rhs = rhs + dt * (m * u_full[:, j])
        z, info = potrs(factor, rhs, lower=lower, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        states[j + 1] = z

    states.setflags(write=False)
    times = _time_grid(T, n_t)
    times.setflags(write=False)
    return Trajectory(times=times, states=states, min_value=float(states.min()))


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
        Nonnegative evaluation time.

    Returns
    -------
    ndarray, shape (k_max,)
        Modal coefficients of the solution at time t.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    lam = basis.eigenvalues
    out = np.asarray(z0_coeffs, dtype=float) * np.exp(-lam * t)
    if control_coeffs is not None and t > 0:
        u = np.asarray(control_coeffs, dtype=float)
        n_t = u.shape[0]
        edges = _time_grid(t, n_t)
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
        Initial nodal values, strictly positive at every interior node.
    uhat : float
        Constant nonnegative control value applied on omega.
    omega : (float, float)
    T, n_t
        Passed through to :func:`simulate`.

    Returns
    -------
    Trajectory
        Its final row is the controllability target at time T.
    """
    zhat0 = np.asarray(zhat0, dtype=float)
    if (zhat0 <= 0).any():
        raise ValueError("target initial datum must be strictly positive")
    if uhat < 0:
        raise ValueError(f"uhat must be nonnegative, got {uhat}")
    control = make_control(op.grid, omega, n_t, values=float(uhat))
    return simulate(op, zhat0, control, T, n_t)


def trajectory_to_csv(traj: Trajectory, grid: Grid, path) -> None:
    """Write a trajectory in long format with header t,x,z.

    Boundary nodes are included with their zero values so each time slice
    covers the full grid.
    """
    x = grid.nodes
    full = np.zeros((traj.states.shape[0], x.size))
    full[:, grid.interior] = traj.states
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
