"""Control synthesis for the fractional heat equation.

The minimal-sup-norm control that steers the state exactly onto the
target is one linear program over the terminal map; its duals give the
adjoint state and the bang-bang relation.  Nonnegative controls come from
a fixed-horizon solver (projected gradient with Barzilai-Borwein steps on
the terminal residual) and a bisection search for the minimal horizon at
which that problem stays feasible, with one solve from the zero control
per probed horizon.  The solver stops early once a nonnegative
least-squares dual bound proves that no nonnegative control meets the
tolerance; the outcome's ``basis`` says how each solve ended.  Both
fixed-horizon solvers return a :class:`FixedTimeOutcome`, and one
function judges every such control: it simulates it and checks the
terminal residual and the signs.  Impulse diagnostics quantify how
concentrated near-minimal-time controls are.

All solvers march with the lumped-mass implicit Euler scheme, and
gradients are exact discrete adjoints of it.  They run the scheme in the
eigenbasis of (stiffness, lumped mass), which each operator computes once
and every horizon shares, where one step scales mode k by
1 / (1 + dt lambda_k).  The terminal state and its adjoint are closed
forms over the powers of those factors.  Powers below 1e-150 are
flushed to zero, and both products skip them in blocks of time cells:
on fine meshes the early cells carry only the slow modes.  Every full
trajectory, the one each verdict checks and a run writes, comes from
:func:`simulate`.

The state constraint z >= 0 is accepted only with z0 >= 0 and an
operator whose step matrix is entrywise nonnegative
(``DiscreteOperator.positivity_preserving``, s of about 0.24 or more).
Then nonnegative controls keep every state nonnegative, so the
constrained solver needs only the terminal map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .assembly import DiscreteOperator
from .dynamics import (
    ControlField,
    Trajectory,
    _write_long_csv,
    generate_target_trajectory,
    make_control,
    simulate,
)
from .errors import SolverError
from .grid import nodes_in_interval

__all__ = [
    "ControlProblem",
    "FixedTimeOutcome",
    "MinimalTimeReport",
    "AtomicityReport",
    "make_problem",
    "solve_unconstrained_Linf",
    "solve_constrained_fixed_time",
    "minimal_time_search",
    "impulse_analysis",
    "unconstrained_dual_details",
    "control_to_csv",
]

# feasibility tolerances of every verdict: the terminal residual may reach
# EPS_TARGET_FRACTION times the target's norm, and constrained controls and
# states may dip to -EPS_CONS
EPS_TARGET_FRACTION = 1e-3
EPS_CONS = 1e-8

# how a constrained solve ended, its FixedTimeOutcome.basis
BASES = ("tolerance_met", "proved_infeasible", "budget_exhausted", "no_descent")
# the projected gradient checks its infeasibility bound on the first
# iteration and every _BOUND_EVERY-th after it; a check costs about a
# fifth of an iteration at n_x = 20
_BOUND_EVERY = 25


@dataclass(frozen=True)
class ControlProblem:
    """Controllability data: dynamics, initial state, and target family.

    The target at horizon T is the trajectory of its own dynamics (initial
    datum zhat0, constant control uhat on omega) run up to T, built on
    demand by :meth:`target_at`, so probing different horizons regenerates
    the target rather than truncating it.

    Attributes
    ----------
    op : DiscreteOperator
    z0 : ndarray
        Initial nodal values of the controlled state.
    zhat0 : ndarray
        Strictly positive initial datum of the target trajectory.
    uhat : float
        Constant nonnegative control defining the target trajectory.
    omega : tuple
        Control region, strictly inside (-1, 1).
    nonneg_state : bool
        Require z >= 0 at every step; :func:`make_problem` accepts it only
        with z0 >= 0 and a positivity-preserving operator.
    """

    op: DiscreteOperator
    z0: np.ndarray = field(repr=False)
    zhat0: np.ndarray = field(repr=False)
    uhat: float
    omega: tuple[float, float]
    nonneg_state: bool = True

    def target_at(self, T: float, n_t: int) -> Trajectory:
        """Target trajectory regenerated at horizon T with n_t steps."""
        return generate_target_trajectory(
            self.op, self.zhat0, self.uhat, self.omega, T, n_t
        )


@dataclass(frozen=True)
class FixedTimeOutcome:
    """A control at a fixed horizon and its verdict, from either solver.

    Attributes
    ----------
    control : ControlField
    final_residual : float
        ||z(T) - zhat(T)|| in the lumped discrete L2 norm.
    feasible : bool
        True iff final_residual is at most EPS_TARGET_FRACTION times the
        target's norm at T, the states are nonnegative to EPS_CONS when
        nonneg_state is set, and so is the control unless it comes from
        the signed solver :func:`solve_unconstrained_Linf`.
    iterations : int or None
        Gradient iterations of :func:`solve_constrained_fixed_time`; None
        for the linear program of :func:`solve_unconstrained_Linf`.
    trajectory : Trajectory
        The control's trajectory from :func:`simulate`; the verdict's.
    basis : str or None
        How the gradient iteration ended, one of :data:`BASES`:
        "tolerance_met", "proved_infeasible" (no nonnegative control
        meets the tolerance; see lower_bound), "budget_exhausted" or
        "no_descent" (no step accepted, or the step moved nothing).
        None for the linear program.
    lower_bound : float or None
        With basis "proved_infeasible", the bound L > the tolerance that
        every nonnegative control's terminal residual reaches; else None.
    """

    control: ControlField = field(repr=False)
    final_residual: float
    feasible: bool
    iterations: int | None
    trajectory: Trajectory = field(repr=False)
    basis: str | None = None
    lower_bound: float | None = None


@dataclass(frozen=True)
class AtomicityReport:
    """Mass-concentration diagnostics of a control's magnitude |u|.

    Attributes
    ----------
    total_mass : float
        Sum of |u| * dt * dx over all (node, step) cells.
    active_cell_fraction : float
        Fraction of cells whose mass exceeds 1% of the largest cell mass.
    top_impulses : tuple of (x, t, mass)
        The up-to-10 heaviest cells, positions at node coordinates and
        cell midpoints in time.
    """

    total_mass: float
    active_cell_fraction: float
    top_impulses: tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class MinimalTimeReport:
    """Bisection record for the minimal feasible horizon.

    Attributes
    ----------
    T_lo : float
        Largest horizon whose probe was infeasible; bases says whether a
        bound proved it or the budget ran out.
    T_hi : float
        Smallest horizon whose probe was feasible.
    T_min_estimate : float
        Midpoint of the final bracket.
    history : tuple of (T, feasible, residual)
        All probes in evaluation order, one per probed horizon.
    bases : tuple of str
        Each probe's :attr:`FixedTimeOutcome.basis`, in history's order.
    outcome : FixedTimeOutcome
        The feasible solve at T_hi.
    """

    T_lo: float
    T_hi: float
    T_min_estimate: float
    history: tuple[tuple[float, bool, float], ...]
    bases: tuple[str, ...]
    outcome: FixedTimeOutcome = field(repr=False)


def make_problem(
    op: DiscreteOperator,
    z0: np.ndarray,
    zhat0: np.ndarray,
    uhat: float,
    omega: tuple[float, float],
    nonneg_state: bool = True,
) -> ControlProblem:
    """Assemble and validate a ControlProblem.

    Targets are not built here; :meth:`ControlProblem.target_at` builds
    the one each horizon needs.

    Raises
    ------
    ValueError
        If omega is not strictly inside (-1, 1) or holds no interior node,
        z0 or zhat0 is not one value per interior node, zhat0 is not
        strictly positive, or uhat is negative; or nonneg_state is set
        while z0 has a negative entry or the operator is not
        positivity-preserving.
    """
    lo, hi = float(omega[0]), float(omega[1])
    if not (-1.0 < lo < hi < 1.0):
        raise ValueError(f"omega must be strictly inside (-1, 1), got {omega!r}")
    if not nodes_in_interval(op.grid, (lo, hi)).any():
        raise ValueError(f"control region {omega!r} contains no interior nodes")
    z0 = np.asarray(z0, dtype=float)
    zhat0 = np.asarray(zhat0, dtype=float)
    for name, v in (("z0", z0), ("zhat0", zhat0)):
        if v.shape != (op.n_dof,):
            raise ValueError(f"{name} must have shape ({op.n_dof},), got {v.shape}")
    if (zhat0 <= 0).any():
        raise ValueError("target initial datum must be strictly positive")
    if uhat < 0:
        raise ValueError(f"uhat must be nonnegative, got {uhat}")
    if nonneg_state and not (z0.min() >= 0.0 and op.positivity_preserving):
        raise ValueError(
            "nonneg_state needs z0 >= 0 and a positivity-preserving operator, "
            f"got min(z0) = {z0.min():.3g} at s = {op.s}"
        )
    return ControlProblem(
        op=op,
        z0=z0,
        zhat0=zhat0,
        uhat=float(uhat),
        omega=(lo, hi),
        nonneg_state=nonneg_state,
    )


class _ModalStepper:
    """Terminal map of lumped-mass implicit Euler, in the lumped eigenbasis.

    One step is z_{j+1} = P (z_j + dt u_j) with P = (M + dt K)^{-1} M.
    With K V = M V diag(lambda) and V^T M V = I (the operator's cached
    ``lumped_basis``), P = V diag(d) V^T M with d = 1 / (1 + dt lambda).
    So the terminal state is z(T) = V (d^n_t c0 + dt sum_j E[:, j] V^T M
    u_j) with c0 = V^T M z0 and E[k, j] = d_k^(n_t - j), and it and its
    adjoint are two matrix products each, with no loop over the steps.
    Controls enter only on the support, a contiguous run of nodes given
    as a slice, so its rows of V are a view rather than a copy.

    E is flushed to zero below 1e-150, and as lambda ascends each column
    is nonzero on a prefix of the modes that grows toward T: on fine
    meshes only the slow modes survive the early cells.  The cells are
    split into blocks (a, b, K), a new block starting wherever that
    prefix first exceeds twice its length at the block's first cell, and
    both products run over each block's cells a:b and first K modes
    only.  At n_x = 800, n_t = 300, T = 0.9 that is 6 blocks and 28% of
    the dense work; where E has no zero it is one block and the dense
    products.
    """

    def __init__(self, op: DiscreteOperator, T: float, n_t: int, support: slice):
        basis = op.lumped_basis
        self.dt = T / n_t
        self.m = op.mass_lumped_diag
        self.V = basis.eigenvectors
        self.d = 1.0 / (1.0 + self.dt * basis.eigenvalues)
        # E[k, j] = d_k^(n_t - j), flushed below 1e-150 so that no product
        # works on subnormal numbers
        self.E = self.d[:, None] ** np.arange(n_t, 0, -1)
        self.E[self.E < 1e-150] = 0.0
        self.V_sup = self.V[support]
        self.m_sup = self.m[support]
        self.dt_m_sup = self.dt * self.m_sup
        # live[j]: the modes up to column j's last nonzero
        live = self.d.size - np.argmax(self.E[::-1] != 0.0, axis=0)
        starts = [0]
        for j in range(1, n_t):
            if live[j] > 2 * live[starts[-1]]:
                starts.append(j)
        self.blocks = tuple(
            (a, b, int(live[a:b].max()))
            for a, b in zip(starts, starts[1:] + [n_t])
        )

    def free(self, z0: np.ndarray) -> np.ndarray:
        """Modal coordinates V^T M z(T) of the uncontrolled final state."""
        return self.E[:, 0] * ((self.m * z0) @ self.V)

    def forced(self, u_sup: np.ndarray) -> np.ndarray:
        """Modal coordinates of the control's part of z(T); u_sup is
        (support nodes, n_t)."""
        mu = self.m_sup[:, None] * u_sup
        c = np.zeros(self.d.size)
        for a, b, K in self.blocks:
            w = self.V_sup[:, :K].T @ mu[:, a:b]
            c[:K] += np.einsum("kj,kj->k", self.E[:K, a:b], w)
        return self.dt * c

    def terminal(self, z0: np.ndarray, u_sup: np.ndarray | None) -> np.ndarray:
        """Final state z(T); u_sup is (support nodes, n_t), or None."""
        c = self.free(z0)
        if u_sup is not None:
            c += self.forced(u_sup)
        return self.V @ c

    def control_matrix(self) -> np.ndarray:
        """Modal matrix A of the control term of :meth:`terminal`.

        A[k, (i, j)] = dt m_i V[i, k] E[k, j] over support node i and cell
        j, so A u = V^T M terminal(0, u) and A^T V^T r = gradient(r)
        with u and the gradient flattened node-major.
        """
        A = self.V_sup.T * self.dt_m_sup
        return (A[:, :, None] * self.E[:, None, :]).reshape(self.d.size, -1)

    def gradient(self, r_weighted: np.ndarray) -> np.ndarray:
        """Adjoint of the terminal map, in closed form.

        r_weighted is d(objective)/d(z_T); returns the exact gradient of
        the objective w.r.t. the support cell controls, shape
        (support nodes, n_t).
        """
        rho = r_weighted @ self.V
        g = np.empty((self.m_sup.size, self.E.shape[1]))
        for a, b, K in self.blocks:
            np.matmul(
                self.V_sup[:, :K], self.E[:K, a:b] * rho[:K, None], out=g[:, a:b]
            )
        g *= self.dt_m_sup[:, None]
        return g


def _m_norm(v: np.ndarray, m: np.ndarray) -> float:
    return float(np.sqrt(v @ (m * v)))


def _outcome(
    problem: ControlProblem,
    T: float,
    n_t: int,
    control: ControlField,
    zhat_T: np.ndarray,
    iterations: int | None,
    signed: bool = False,
    basis: str | None = None,
    lower_bound: float | None = None,
) -> FixedTimeOutcome:
    """The verdict on a control at horizon T, the only one in the package.

    Simulates the control and compares its terminal state with zhat_T, the
    target at T: feasible iff the residual is at most EPS_TARGET_FRACTION
    times the target's norm (a residual exactly at that tolerance counts),
    the states are >= -EPS_CONS when nonneg_state is set, and the control
    is >= -EPS_CONS unless ``signed``.  basis and lower_bound are the
    solver's account, passed through.
    """
    traj = simulate(problem.op, problem.z0, control, T, n_t)
    m = problem.op.mass_lumped_diag
    residual = _m_norm(traj.final - zhat_T, m)
    feasible = residual <= EPS_TARGET_FRACTION * _m_norm(zhat_T, m)
    if problem.nonneg_state:
        feasible = feasible and traj.min_value >= -EPS_CONS
    if not signed:
        feasible = feasible and control.values.min() >= -EPS_CONS
    return FixedTimeOutcome(
        control=control,
        final_residual=residual,
        feasible=bool(feasible),
        iterations=iterations,
        trajectory=traj,
        basis=basis,
        lower_bound=lower_bound,
    )


def _support_stepper(problem: ControlProblem, T: float, n_t: int):
    """Modal stepper with controls on omega's nodes, and omega's node mask."""
    mask = nodes_in_interval(problem.op.grid, problem.omega)
    rows = np.flatnonzero(mask)
    return _ModalStepper(problem.op, T, n_t, slice(rows[0], rows[-1] + 1)), mask


def unconstrained_dual_details(
    problem: ControlProblem, T: float, n_t: int
) -> tuple[ControlField, np.ndarray, float]:
    """Minimal-sup-norm control as a linear program, with its dual.

    In the modal coordinates of the terminal map, u steers z0 onto the
    target iff A u = c, with A from :meth:`_ModalStepper.control_matrix`
    (A u = V^T M z_T(0, u)) and c = V^T M (zhat(T) - z_free(T)).  After
    scaling each row of A and c by the row's largest entry, HiGHS's dual
    simplex solves the homogenized LP: maximize sigma subject to
    A v = sigma c, -1 <= v <= 1 and sigma >= 0.  Then u = v / sigma has
    ||u||_inf = 1 / sigma, and at the vertex optimum all but at most
    n_dof cells sit at +-||u||_inf (bang-bang).

    The LP's equality duals y are modal adjoint terminal data: the
    adjoint on cell j is p_j = V (d^(n_t - j) o y), and A^T y = dt M p on
    the support.  LP duality gives ||u||_inf = max_y <y, c> / D(y), where
    D(y) = dt sum_j sum_omega m |p_j| is the adjoint's space-time L1 norm
    over omega.  The returned adjoint is the LP's y scaled to minimize
    the dual functional (1/2) D(p)^2 - <p, c>, and the returned D is its
    L1 norm <y, c> / D(y): the dual's value, computed from the duals
    alone, which strong duality makes equal to ||u||_inf.

    Returns (control, adjoint cell values p of shape (n, n_t), D).  When
    the free state hits the target exactly, c = 0, and the zero control,
    a zero adjoint and D = 0 are returned without solving.

    Raises
    ------
    SolverError
        If HiGHS does not report an optimum, or the target is
        unreachable (sigma = 0); the message carries HiGHS's.
    """
    if problem.op.s <= 0.5:
        warnings.warn(
            f"s = {problem.op.s} <= 1/2: steering to trajectories is not "
            "expected to be attainable; proceeding anyway",
            stacklevel=2,
        )
    stepper, mask = _support_stepper(problem, T, n_t)
    dt, m, V = stepper.dt, stepper.m, stepper.V
    n, n_sup = problem.op.n_dof, int(mask.sum())
    # the target through the same map as the free state, so that a free
    # state already on target leaves c exactly zero
    zhat_T = stepper.terminal(problem.zhat0, np.full((n_sup, n_t), problem.uhat))
    c = (m * (zhat_T - stepper.terminal(problem.z0, None))) @ V
    if not c.any():
        zero = make_control(problem.op.grid, problem.omega, n_t, values=0.0)
        return zero, np.zeros((n, n_t)), 0.0

    # imported here, as it loads all of scipy.optimize, which no other
    # run path needs
    from scipy.optimize import linprog

    A = stepper.control_matrix()
    row_scale = np.abs(A).max(axis=1)
    A /= row_scale[:, None]
    res = linprog(
        np.r_[np.zeros(A.shape[1]), -1.0],
        A_eq=np.hstack([A, -(c / row_scale)[:, None]]),
        b_eq=np.zeros(n),
        bounds=np.r_[np.tile([-1.0, 1.0], (A.shape[1], 1)), [[0.0, np.inf]]],
        method="highs-ds",
    )
    if res.status != 0:
        raise SolverError(f"L-infinity LP not solved: {res.message}")
    sigma = res.x[-1]
    if not sigma > 0.0:
        raise SolverError(
            f"L-infinity LP: the target is unreachable at T={T} ({res.message})"
        )
    u = res.x[:-1].reshape(n_sup, n_t) / sigma
    control = make_control(problem.op.grid, problem.omega, n_t, values=u)

    y = res.eqlin.marginals / row_scale
    y *= np.sign(y @ c)
    yc = float(y @ c)
    p_cells = V @ (stepper.E * y[:, None])
    D_y = dt * float(np.abs(p_cells[mask]).sum(axis=1) @ m[mask])
    return control, (yc / D_y**2) * p_cells, yc / D_y


def solve_unconstrained_Linf(
    problem: ControlProblem, T: float, n_t: int
) -> FixedTimeOutcome:
    """Minimal-sup-norm control steering z0 onto the target at T.

    Among the cell controls on omega whose lumped implicit Euler state
    hits zhat(T) exactly, finds one of least sup norm, as the exact
    optimum of the linear program in :func:`unconstrained_dual_details`.
    It is bang-bang: all but at most n_dof cells take the values
    +-||u||_inf, and ||u||_inf equals the space-time L1 norm over omega
    of the optimal adjoint.

    The LP constrains z(T) only, so the verdict simulates the control and
    checks its states when nonneg_state is set.  The control may take
    either sign; its verdict does not check it.

    Parameters
    ----------
    problem : ControlProblem
    T : float
        Horizon.
    n_t : int
        Time steps.

    Returns
    -------
    FixedTimeOutcome
        With iterations None.

    Raises
    ------
    SolverError
        If HiGHS reports no optimum or the target is unreachable; the
        message carries HiGHS's.
    """
    control, _, _ = unconstrained_dual_details(problem, T, n_t)
    zhat_T = problem.target_at(T, n_t).final
    return _outcome(problem, T, n_t, control, zhat_T, None, signed=True)


def _projected_gradient(stepper, z0, zhat_T, n_sup, eps_target, alpha0, max_iter):
    """The iteration of :func:`solve_constrained_fixed_time` from the zero
    control; returns (u_sup, steps taken, basis, lower bound or None).

    In modal coordinates the residual is q = A u - c, with c the target
    less the free state, and the gradient is g = A^T q.  With y0 = V^T M 1
    and a0 = A^T y0 > 0 on every cell, y = -q - delta y0 with
    delta = max(0, max(-g / a0)) has A^T y <= 0, so every u >= 0 has
    ||A u - c|| >= <y, c - A u> / ||y|| >= L = <y, c> / ||y||.  The
    iteration stops once L exceeds the tolerance; the bound only reads g
    and q, so it leaves the iterates untouched.
    """
    m, V = stepper.m, stepper.V
    c_free = stepper.free(z0)
    c = (m * zhat_T) @ V - c_free
    y0 = m @ V
    a0 = stepper.gradient(m)
    if not (a0 > 0.0).all():
        # the bound needs a0 > 0 on every cell; go without it
        a0 = None

    def evaluate(u_s):
        """Returns (r^T M r, M r) for the terminal residual r."""
        r = stepper.V @ (c_free + stepper.forced(u_s)) - zhat_T
        mr = m * r
        return float(r @ mr), mr

    def lower_bound(mr, g):
        """L: no nonnegative control's residual is below it."""
        delta = max(0.0, float((-g / a0).max()))
        y = -(mr @ V) - delta * y0
        norm_y = float(np.linalg.norm(y))
        return float(y @ c) / norm_y if norm_y > 0.0 else 0.0

    u_sup = np.zeros((n_sup, stepper.E.shape[1]))
    rr, mr = evaluate(u_sup)
    g = stepper.gradient(mr)
    residual = np.sqrt(rr)
    # objective values, whose last ten set the nonmonotone line search's
    # reference
    history = [0.5 * rr]
    total_iters = 0
    alpha = alpha0
    prev_u = prev_g = None
    basis, bound = "budget_exhausted", None

    for it in range(max_iter):
        if residual <= eps_target:
            basis = "tolerance_met"
            break
        if a0 is not None and it % _BOUND_EVERY == 0:
            L = lower_bound(mr, g)
            # the margin covers the roundoff of L itself
            if L > (1.0 + 1e-9) * eps_target:
                basis, bound = "proved_infeasible", L
                break
        # Barzilai-Borwein step, alternating the two step rules
        if prev_u is not None:
            s_vec = u_sup - prev_u
            y_vec = g - prev_g
            sy = float((s_vec * y_vec).sum())
            if sy > 1e-300:
                if it % 2 == 0:
                    alpha = float((s_vec * s_vec).sum()) / sy
                else:
                    yy = float((y_vec * y_vec).sum())
                    alpha = sy / yy if yy > 1e-300 else alpha
                alpha = min(max(alpha, 1e-10 * alpha0), 1e10 * alpha0)
        f_ref = max(history[-10:])
        accepted = False
        step = alpha
        for _bt in range(40):
            trial = np.maximum(u_sup - step * g, 0.0)
            rr_t, mr_t = evaluate(trial)
            f_t = 0.5 * rr_t
            moved = u_sup - trial
            decrease = float((g * moved).sum())
            if f_t <= f_ref - 1e-4 * decrease or decrease <= 0:
                accepted = True
                break
            step *= 0.5
        total_iters += 1
        if not accepted or not moved.any():
            basis = "no_descent"
            break
        prev_u, prev_g = u_sup, g
        u_sup, mr = trial, mr_t
        g = stepper.gradient(mr)
        residual = np.sqrt(rr_t)
        history.append(f_t)
    else:
        if residual <= eps_target:
            basis = "tolerance_met"

    return u_sup, total_iters, basis, bound


def solve_constrained_fixed_time(
    problem: ControlProblem,
    T: float,
    n_t: int,
    max_iter: int = 3000,
) -> FixedTimeOutcome:
    """Constrained tracking of the target at a fixed horizon.

    Minimizes (1/2) ||z(T) - zhat(T)||_M^2 over nonnegative cell controls
    by projected gradient from the zero control, with Barzilai-Borwein
    steps safeguarded by a nonmonotone backtracking line search, on the
    closed-form terminal map and its adjoint alone: with nonneg_state
    set, :func:`make_problem` has required z0 >= 0 and a
    positivity-preserving operator, so no state can turn negative.

    The iteration ends when the residual meets the tolerance, when the
    budget runs out, when no step descends, or when a dual bound proves
    the tolerance unreachable: the residual q and gradient A^T q give a
    y with A^T y <= 0, and then ||A u - c|| >= <y, c> / ||y|| for every
    u >= 0 (checked on iteration 0 and every 25th).  The outcome's
    ``basis`` names the end.

    The verdict rests on the control's trajectory from :func:`simulate`,
    which the outcome carries: see :class:`FixedTimeOutcome`.  Never
    raises on exhausted iterations: the outcome reports feasible=False
    with the residual reached.

    Parameters
    ----------
    problem : ControlProblem
    T, n_t
        Horizon and step count.
    max_iter : int
        Gradient iterations.

    Returns
    -------
    FixedTimeOutcome
    """
    stepper, mask = _support_stepper(problem, T, n_t)
    zhat_T = problem.target_at(T, n_t).final
    eps_target = EPS_TARGET_FRACTION * _m_norm(zhat_T, stepper.m)
    alpha0 = 1.0 / (stepper.dt * T * problem.op.grid.h)
    # the iteration's arrays are freed before the verdict's dense simulate
    u_sup, total_iters, basis, bound = _projected_gradient(
        stepper, problem.z0, zhat_T, int(mask.sum()), eps_target, alpha0, max_iter
    )

    control = make_control(problem.op.grid, problem.omega, n_t, values=u_sup)
    return _outcome(
        problem, T, n_t, control, zhat_T, total_iters, basis=basis, lower_bound=bound
    )


def minimal_time_search(
    problem: ControlProblem,
    T_bracket: tuple[float, float],
    tol_T: float,
    n_t: int,
) -> MinimalTimeReport:
    """Bisection for the smallest horizon with a feasible constrained solve.

    Validates the bracket with two initial solves (the lower end must be
    infeasible, the upper end feasible), then bisects.  Every probed
    horizon gets one :func:`solve_constrained_fixed_time` call from the
    zero control, whose verdict is the probe's.

    Parameters
    ----------
    problem : ControlProblem
    T_bracket : (float, float)
        Horizons (T_lo, T_hi) bracketing the minimal time.
    tol_T : float
        Stop when T_hi - T_lo <= tol_T.
    n_t : int
        Time steps used at every horizon.

    Returns
    -------
    MinimalTimeReport

    Raises
    ------
    SolverError
        If bracket validation fails or the probe budget is exhausted.
    """
    T_lo, T_hi = float(T_bracket[0]), float(T_bracket[1])
    if not 0 < T_lo < T_hi:
        raise ValueError(f"need 0 < T_lo < T_hi, got {T_bracket!r}")
    if tol_T <= 0:
        raise ValueError(f"tol_T must be positive, got {tol_T}")

    history: list[tuple[float, bool, float]] = []
    bases: list[str] = []

    def probe(T):
        out = solve_constrained_fixed_time(problem, T, n_t)
        history.append((T, out.feasible, out.final_residual))
        bases.append(out.basis)
        return out

    lo_out = probe(T_lo)
    if lo_out.feasible:
        raise SolverError(
            f"bracket invalid: lower horizon T={T_lo} is already feasible "
            f"(residual {lo_out.final_residual:.3e}); minimal time lies below "
            "the bracket"
        )
    hi_out = probe(T_hi)
    if not hi_out.feasible:
        raise SolverError(
            f"bracket invalid: upper horizon T={T_hi} is infeasible "
            f"(residual {hi_out.final_residual:.3e}, {hi_out.basis}); enlarge "
            "the bracket"
        )

    for _ in range(64):
        if T_hi - T_lo <= tol_T:
            break
        T_mid = 0.5 * (T_lo + T_hi)
        out = probe(T_mid)
        if out.feasible:
            T_hi, hi_out = T_mid, out
        else:
            T_lo = T_mid
    else:
        raise SolverError("probe budget exhausted before reaching tol_T")

    return MinimalTimeReport(
        T_lo=T_lo,
        T_hi=T_hi,
        T_min_estimate=0.5 * (T_lo + T_hi),
        history=tuple(history),
        bases=tuple(bases),
        outcome=hi_out,
    )


def impulse_analysis(control: ControlField, dt: float, dx: float) -> AtomicityReport:
    """Mass-concentration report of a control's magnitude |u|.

    Each (node, step) cell carries mass |u| * dt * dx, so a signed control
    is measured by its magnitude.  The report gives the total, the
    fraction of cells whose mass exceeds 1% of the peak cell mass, and
    the ten heaviest cells located at node coordinates and time-cell
    midpoints.

    Parameters
    ----------
    control : ControlField
    dt, dx : float
        Cell sizes of the control grid.

    Returns
    -------
    AtomicityReport
    """
    mass = np.abs(control.values) * dt * dx
    total = float(mass.sum())
    peak = mass.max() if mass.size else 0.0
    if peak > 0.0:
        active = float((mass > 0.01 * peak).sum() / mass.size)
    else:
        active = 0.0

    # interior node i sits at -1 + (i + 1) dx on the uniform grid
    x0 = -1.0 + (int(np.argmax(control.support_mask)) + 1) * dx
    order = np.argsort(mass.ravel(), kind="stable")[::-1][:10]
    top = []
    for flat in order:
        i, j = np.unravel_index(flat, mass.shape)
        if mass[i, j] <= 0.0:
            break
        top.append((x0 + i * dx, (j + 0.5) * dt, float(mass[i, j])))
    return AtomicityReport(
        total_mass=total,
        active_cell_fraction=active,
        top_impulses=tuple(top),
    )


def control_to_csv(control: ControlField, grid, T: float, path) -> None:
    """Write a control in long format with header t,x,u.

    Rows cover the support nodes of omega at each time-cell midpoint.
    """
    x = grid.interior_nodes[control.support_mask]
    n_t = control.values.shape[1]
    t_mid = (np.arange(n_t) + 0.5) * (T / n_t)
    _write_long_csv(path, "t,x,u", t_mid, x, control.values.T)
