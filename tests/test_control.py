"""Control solvers: the modal propagator, the sup-norm LP and its dual,
the projected gradient and the minimal-time search."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import OptimizeResult, nnls

import fracheat as fh
from fracheat.control import BASES, _ModalStepper, _support_stepper

from conftest import m_norm


def test_make_problem_validation(op20_unit, cos_profile):
    with pytest.raises(ValueError, match="omega"):
        fh.make_problem(op20_unit, cos_profile, cos_profile, 0.1, (-1.0, 0.5))
    with pytest.raises(ValueError, match="omega"):
        fh.make_problem(op20_unit, cos_profile, cos_profile, 0.1, (0.8, -0.3))
    with pytest.raises(ValueError, match="shape"):
        fh.make_problem(op20_unit, cos_profile[:-2], cos_profile, 0.1, (-0.3, 0.8))
    with pytest.raises(ValueError, match="zhat0 must have shape"):
        fh.make_problem(op20_unit, cos_profile, cos_profile[:-2], 0.1, (-0.3, 0.8))
    with pytest.raises(ValueError, match="positive"):
        fh.make_problem(op20_unit, cos_profile, 0.0 * cos_profile, 0.1, (-0.3, 0.8))
    with pytest.raises(ValueError, match="uhat"):
        fh.make_problem(op20_unit, cos_profile, cos_profile, -0.1, (-0.3, 0.8))
    with pytest.raises(ValueError, match="no interior nodes"):
        fh.make_problem(op20_unit, cos_profile, cos_profile, 0.1, (0.51, 0.54))
    # the state constraint is accepted only where nonnegative controls keep
    # every state nonnegative: z0 >= 0 and a positivity-preserving operator
    op_low = fh.build_operator(op20_unit.grid, s=0.2, normalization="unit")
    assert not op_low.positivity_preserving
    negative_z0 = 2.0 * cos_profile - 1.0
    for op, z0 in ((op20_unit, negative_z0), (op_low, 2.0 * cos_profile)):
        with pytest.raises(ValueError, match="z0 >= 0.*positivity-preserving"):
            fh.make_problem(op, z0, cos_profile, 0.1, (-0.3, 0.8))
        prob = fh.make_problem(
            op, z0, cos_profile, 0.1, (-0.3, 0.8), nonneg_state=False
        )
        assert not prob.nonneg_state


def test_make_problem_defaults(prob_case1):
    assert prob_case1.nonneg_state
    # regenerating the target at another horizon keeps the initial datum
    t2 = prob_case1.target_at(0.4, 50)
    assert t2.times[-1] == 0.4
    assert t2.states[0] == pytest.approx(prob_case1.zhat0)


def test_primal_gradient_matches_finite_differences(prob_case1):
    # (1/2) ||z(T) - zhat(T)||_M^2 through the terminal map, against the
    # stepper's closed-form adjoint
    stepper, mask = _support_stepper(prob_case1, 0.9, 60)
    zhat_T = prob_case1.target_at(0.9, 60).final
    m = stepper.m

    def objective(u):
        r = stepper.terminal(prob_case1.z0, u) - zhat_T
        return 0.5 * float(r @ (m * r))

    rng = np.random.default_rng(2)
    u = rng.uniform(0.0, 0.3, (int(mask.sum()), 60))
    g = stepper.gradient(m * (stepper.terminal(prob_case1.z0, u) - zhat_T))
    h = 1e-6
    for _ in range(3):
        d = rng.standard_normal(u.shape)
        d /= np.abs(d).max()
        fd = (objective(u + h * d) - objective(u - h * d)) / (2.0 * h)
        assert fd == pytest.approx(float((g * d).sum()), rel=1e-5)


def _modal_case(n_x, n_t):
    """Modal stepper on the case-1 operator at T = 0.9 with a random
    nonnegative control."""
    grid = fh.build_grid(n_x)
    op = fh.build_operator(grid, s=0.8, normalization="unit")
    mask = fh.nodes_in_interval(grid, (-0.3, 0.8))
    rows = np.flatnonzero(mask)
    stepper = _ModalStepper(op, 0.9, n_t, slice(rows[0], rows[-1] + 1))
    z0 = 2.0 * np.cos(np.pi * grid.interior_nodes / 2.0)
    u = np.random.default_rng(0).uniform(0.0, 0.3, (int(mask.sum()), n_t))
    return op, mask, stepper, z0, u


def test_modal_gradient_matches_dense_recursion():
    # at n_x = 200, n_t = 300 the stepper runs in 4 blocks
    for n_x, n_t in ((20, 60), (200, 300)):
        op, mask, stepper, _, _ = _modal_case(n_x, n_t)
        rng = np.random.default_rng(4)
        n = op.n_dof
        r_weighted = rng.standard_normal(n)
        # reference: the per-step adjoint of z_{j+1} = P (z_j + dt u_j)
        dt = stepper.dt
        P = np.linalg.solve(op.mass_lumped + dt * op.stiffness, op.mass_lumped)
        ref = np.empty((n, n_t))
        g = r_weighted
        for j in range(n_t - 1, -1, -1):
            g = P.T @ g
            ref[:, j] = dt * g
        grad = stepper.gradient(r_weighted)
        assert grad.shape == (int(mask.sum()), n_t)
        assert np.abs(grad - ref[mask]).max() <= 1e-12 * np.abs(ref[mask]).max()


@pytest.mark.parametrize("n_x", [20, 200, 800])
def test_modal_blocks_cover_the_nonzeros(n_x):
    _, _, stepper, _, _ = _modal_case(n_x, 300)
    E = stepper.E
    starts = [a for a, _, _ in stepper.blocks]
    ends = [b for _, b, _ in stepper.blocks]
    assert starts == [0] + ends[:-1] and ends[-1] == E.shape[1]
    for a, b, K in stepper.blocks:
        assert not E[K:, a:b].any()
        # the block's last cell needs all K modes
        assert E[K - 1, b - 1] != 0.0
    # E has no zero at n_x = 20; at 200 and 800 the early cells need only
    # the slow modes
    assert len(stepper.blocks) == 1 if n_x == 20 else len(stepper.blocks) > 2


@pytest.mark.parametrize(("n_x", "rel_tol"), [(20, 0.0), (200, 1e-14)])
def test_blocked_products_match_the_dense_ones(n_x, rel_tol):
    # the dense products over all of E: at n_x = 20 (one block) the
    # blocked ones are the same BLAS calls; at n_x = 200 (4 blocks, 44%
    # of E nonzero) they sum in another order
    op, _, stepper, z0, u = _modal_case(n_x, 300)
    E, V, V_sup, m_sup = stepper.E, stepper.V, stepper.V_sup, stepper.m_sup
    dt = stepper.dt
    c = E[:, 0] * ((stepper.m * z0) @ V)
    c += dt * np.einsum("kj,kj->k", E, V_sup.T @ (m_sup[:, None] * u))
    dense_T = V @ c
    r = np.random.default_rng(6).standard_normal(op.n_dof)
    dense_g = (dt * m_sup)[:, None] * (V_sup @ (E * (r @ V)[:, None]))
    pairs = ((stepper.terminal(z0, u), dense_T), (stepper.gradient(r), dense_g))
    for blocked, dense in pairs:
        assert np.abs(blocked - dense).max() <= rel_tol * np.abs(dense).max()


@pytest.mark.parametrize("n_x", [20, 200])
def test_terminal_map_matches_scan_and_simulate(n_x):
    n_t = 300
    op, mask, stepper, z0, u = _modal_case(n_x, n_t)
    control = fh.make_control(op.grid, (-0.3, 0.8), n_t, values=u)
    ref = fh.simulate(op, z0, control, 0.9, n_t).final
    z_T = stepper.terminal(z0, u)
    assert np.abs(z_T - ref).max() <= 1e-12 * np.abs(ref).max()
    free = fh.simulate(op, z0, None, 0.9, n_t).final
    free_T = stepper.terminal(z0, None)
    assert np.abs(free_T - free).max() <= 1e-12 * np.abs(free).max()


@pytest.mark.parametrize("n_x", [20, 200])
def test_terminal_map_adjoint_identity(n_x):
    # G u = z_T(u) - z_T(0) and G* r = gradient(M r): <G u, r>_M = <u, G* r>
    n_t = 120
    op, mask, stepper, z0, u = _modal_case(n_x, n_t)
    m = np.diag(op.mass_lumped)
    r = np.random.default_rng(12).standard_normal(op.n_dof)
    Gu = stepper.terminal(z0, u) - stepper.terminal(z0, None)
    lhs = float(Gu @ (m * r))
    rhs = float((u * stepper.gradient(m * r)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("n_x", [20, 200])
def test_lp_matrix_is_the_modal_terminal_map(n_x):
    # A u = V^T M terminal(0, u) and A^T V^T r = gradient(r)
    n_t = 120
    op, mask, stepper, z0, u = _modal_case(n_x, n_t)
    A = stepper.control_matrix()
    assert A.shape == (op.n_dof, u.size)
    ref = (stepper.m * stepper.terminal(0.0 * z0, u)) @ stepper.V
    Au = A @ u.ravel()
    assert np.abs(Au - ref).max() <= 1e-12 * np.abs(ref).max()
    r = np.random.default_rng(14).standard_normal(op.n_dof)
    ref = stepper.gradient(r)
    ATr = (A.T @ (r @ stepper.V)).reshape(u.shape)
    assert np.abs(ATr - ref).max() <= 1e-12 * np.abs(ref).max()


def test_modal_stepper_fine_mesh_finite_and_nonnegative():
    n_t = 300
    op, mask, stepper, z0, u = _modal_case(800, n_t)
    z_T = stepper.terminal(z0, u)
    assert np.isfinite(z_T).all()
    assert z_T.min() >= -1e-12
    grad = stepper.gradient(stepper.m * z_T)
    assert np.isfinite(grad).all()


def test_unconstrained_dual_steers_and_is_bang_bang(prob_case1, lumped_diag):
    control, p_cells, D = fh.unconstrained_dual_details(prob_case1, 0.9, 100)
    traj = fh.simulate(prob_case1.op, prob_case1.z0, control, 0.9, 100)
    zhat_T = prob_case1.target_at(0.9, 100).final
    scale = m_norm(zhat_T, lumped_diag)
    assert m_norm(traj.final - zhat_T, lumped_diag) <= 1e-5 * scale
    # the sup norm of the control equals the dual's value, the adjoint's
    # L1 norm over omega
    umax = np.abs(control.values).max()
    assert umax == pytest.approx(D, rel=1e-3)
    assert p_cells.shape == (prob_case1.op.n_dof, 100)


def test_unconstrained_steers_on_a_finer_mesh():
    # case-1 data at n_x = 80, where the re-simulated control must meet the
    # target far inside the 1e-3 feasibility tolerance
    grid = fh.build_grid(80)
    op = fh.build_operator(grid, s=0.8, normalization="unit")
    cos = np.cos(np.pi * grid.interior_nodes / 2.0)
    prob = fh.make_problem(op, 2.0 * cos, 0.05 * cos, 0.2, (-0.3, 0.8))
    control = fh.solve_unconstrained_Linf(prob, 0.9, 300).control
    final = fh.simulate(op, prob.z0, control, 0.9, 300).final
    zhat_T = prob.target_at(0.9, 300).final
    m = np.diag(op.mass_lumped)
    assert m_norm(final - zhat_T, m) <= 1e-5 * m_norm(zhat_T, m)


def test_unconstrained_outcome_is_an_independent_verdict(
    op20_unit, cos_profile, lumped_diag
):
    # case-1 data at T = 0.1 without the state constraint: the sup-norm
    # control hits the target but takes both signs
    prob = fh.make_problem(
        op20_unit,
        2.0 * cos_profile,
        0.05 * cos_profile,
        0.2,
        (-0.3, 0.8),
        nonneg_state=False,
    )
    out = fh.solve_unconstrained_Linf(prob, 0.1, 60)
    assert out.iterations is None
    traj = fh.simulate(op20_unit, prob.z0, out.control, 0.1, 60)
    assert np.array_equal(out.trajectory.states, traj.states)
    zhat_T = prob.target_at(0.1, 60).final
    residual = m_norm(traj.final - zhat_T, lumped_diag)
    assert out.final_residual == residual
    # the signed control's negative entries are not part of its verdict
    assert out.control.values.min() < 0.0
    assert out.feasible is (residual <= 1e-3 * m_norm(zhat_T, lumped_diag))
    assert out.feasible


def test_unconstrained_on_target_returns_zero_without_solving(
    op20_unit, cos_profile, monkeypatch
):
    # z0 is the target's initial datum and the target control is zero, so
    # the free state already hits the target
    prob = fh.make_problem(op20_unit, cos_profile, cos_profile, 0.0, (-0.3, 0.8))

    def no_lp(*args, **kwargs):
        raise AssertionError("the LP must not be solved")

    monkeypatch.setattr("scipy.optimize.linprog", no_lp)
    control, p_cells, D = fh.unconstrained_dual_details(prob, 0.5, 40)
    assert control.values.shape == (12, 40)
    assert not control.values.any()
    assert p_cells.shape == (op20_unit.n_dof, 40)
    assert not p_cells.any()
    assert D == 0.0


@pytest.mark.parametrize(
    "status, sigma, match",
    [(4, None, "not solved: HiGHS mock"), (0, 0.0, "unreachable.*HiGHS mock")],
)
def test_unconstrained_lp_failure_raises(
    prob_case1, monkeypatch, status, sigma, match
):
    def failed_lp(c, **kwargs):
        x = None if sigma is None else np.r_[np.zeros(c.size - 1), sigma]
        return OptimizeResult(status=status, x=x, message="HiGHS mock")

    monkeypatch.setattr("scipy.optimize.linprog", failed_lp)
    with pytest.raises(fh.SolverError, match=match):
        fh.solve_unconstrained_Linf(prob_case1, 0.9, 60)


def test_solve_unconstrained_warns_below_half(grid20):
    op = fh.build_operator(grid20, s=0.5, normalization="unit")
    x = grid20.interior_nodes
    prob = fh.make_problem(
        op,
        np.cos(np.pi * x / 2.0),
        0.5 * np.cos(np.pi * x / 2.0),
        0.1,
        (-0.3, 0.8),
    )
    with pytest.warns(UserWarning, match="1/2"):
        fh.solve_unconstrained_Linf(prob, 0.5, 20)


def test_constrained_solve_case1_feasible(prob_case1, lumped_diag):
    out = fh.solve_constrained_fixed_time(prob_case1, 0.9, 300)
    zhat_T = prob_case1.target_at(0.9, 300).final
    assert out.feasible
    assert out.final_residual <= 1e-3 * m_norm(zhat_T, lumped_diag)
    assert out.control.values.min() >= 0.0
    assert out.iterations >= 1
    assert out.basis == "tolerance_met"
    assert out.lower_bound is None
    traj = fh.simulate(prob_case1.op, prob_case1.z0, out.control, 0.9, 300)
    assert traj.min_value >= -1e-8


def test_constrained_solve_zero_iterations_when_already_on_target(
    op20_unit, cos_profile
):
    # z0 equal to the target's initial datum with zero target control:
    # the zero control is already exact
    prob = fh.make_problem(op20_unit, cos_profile, cos_profile, 0.0, (-0.3, 0.8))
    out = fh.solve_constrained_fixed_time(prob, 0.5, 40)
    assert out.feasible
    assert out.iterations == 0
    assert out.basis == "tolerance_met"
    assert not out.control.values.any()
    assert out.final_residual <= 1e-12


def test_constrained_solve_budget_exhaustion_reports_infeasible(prob_case1):
    # a budget too small for a feasible horizon: the solver must not raise;
    # it reports the residual it reached (far below the minimal horizon the
    # dual bound ends the solve before the budget does)
    out = fh.solve_constrained_fixed_time(prob_case1, 0.8, 60, max_iter=20)
    assert not out.feasible
    assert out.final_residual > 0.0
    assert out.basis == "budget_exhausted"
    assert out.iterations == 20
    assert out.lower_bound is None


def _nnls_optimum(problem, T, n_t):
    """Exact least residual ||A u - c|| over u >= 0, and eps_target."""
    stepper, _ = _support_stepper(problem, T, n_t)
    zhat_T = problem.target_at(T, n_t).final
    c = (stepper.m * zhat_T) @ stepper.V - stepper.free(problem.z0)
    _, optimum = nnls(stepper.control_matrix(), c)
    return optimum, 1e-3 * m_norm(zhat_T, stepper.m)


@pytest.mark.parametrize(("T", "optimum_eps"), [(0.7, 11.72), (0.65, 123.8)])
def test_constrained_solve_proves_infeasibility(prob_case1, T, optimum_eps):
    # the dual bound that ends the solve lies below the exact NNLS optimum,
    # which lies below the residual of the returned control
    out = fh.solve_constrained_fixed_time(prob_case1, T, 300)
    optimum, eps = _nnls_optimum(prob_case1, T, 300)
    assert out.basis == "proved_infeasible"
    assert out.iterations < 3000
    assert not out.feasible
    assert eps < out.lower_bound <= optimum <= out.final_residual
    assert optimum / eps == pytest.approx(optimum_eps, rel=1e-3)


def test_constrained_solve_budget_bound_where_nnls_reaches_the_target(
    prob_case2, case2_at_015
):
    # case 2 at T = 0.15: the exact optimum is roundoff, so no bound can
    # fire, and the projected gradient still ends on its budget
    optimum, eps = _nnls_optimum(prob_case2, 0.15, 100)
    assert optimum <= 1e-6 * eps
    assert case2_at_015.basis == "budget_exhausted"
    assert case2_at_015.iterations == 3000
    assert not case2_at_015.feasible


def test_minimal_time_search_probes_each_horizon_once(case1_minimal):
    # one cold solve per probed horizon, and a basis for each
    report = case1_minimal
    horizons = [T for T, _, _ in report.history]
    assert len(set(horizons)) == len(horizons)
    assert len(report.bases) == len(horizons)
    assert set(report.bases) <= set(BASES)
    # T = 0.7 is proved infeasible, every feasible probe met the tolerance
    assert report.bases[0] == "proved_infeasible"
    for (_, feasible, _), basis in zip(report.history, report.bases):
        assert feasible == (basis == "tolerance_met")
    assert report.outcome.basis == "tolerance_met"
    assert (report.T_hi, True, report.outcome.final_residual) in report.history


def test_minimal_time_search_validation(prob_case1):
    with pytest.raises(ValueError, match="T_lo"):
        fh.minimal_time_search(prob_case1, (0.9, 0.7), 0.02, 100)
    with pytest.raises(ValueError, match="tol_T"):
        fh.minimal_time_search(prob_case1, (0.7, 0.9), 0.0, 100)


def test_minimal_time_search_rejects_feasible_lower_end(prob_case1):
    with pytest.raises(fh.SolverError, match="already feasible"):
        fh.minimal_time_search(prob_case1, (0.9, 1.1), 0.05, 300)


def test_minimal_time_search_rejects_infeasible_upper_end(prob_case1):
    with pytest.raises(fh.SolverError, match="infeasible"):
        fh.minimal_time_search(prob_case1, (0.45, 0.5), 0.05, 100)


def test_impulse_analysis_uniform_and_single_cell(grid20):
    uniform = fh.make_control(grid20, (-0.3, 0.8), 6, values=2.0)
    rep = fh.impulse_analysis(uniform, dt=0.1, dx=grid20.h)
    assert rep.active_cell_fraction == 1.0
    assert rep.total_mass == pytest.approx(2.0 * 0.1 * grid20.h * 12 * 6)

    single = np.zeros((12, 6))
    single[4, 2] = 3.0
    ctrl = fh.make_control(grid20, (-0.3, 0.8), 6, values=single)
    rep = fh.impulse_analysis(ctrl, dt=0.1, dx=grid20.h)
    assert rep.active_cell_fraction == pytest.approx(1.0 / (12 * 6))
    assert len(rep.top_impulses) == 1
    x, t, mass = rep.top_impulses[0]
    # support nodes start at -0.3; cell times are midpoints
    assert x == pytest.approx(-0.3 + 4 * grid20.h)
    assert t == pytest.approx(0.25)
    assert mass == pytest.approx(3.0 * 0.1 * grid20.h)


def test_impulse_analysis_locates_support_as_the_mask_does(grid20):
    # omega's left end sits just above the node -0.3, past the node mask's
    # 1e-12 slack, so the support starts one node later, at -0.2
    omega = (-0.3 + 5e-11, 0.8)
    single = np.zeros((11, 4))
    single[0, 1] = 1.0
    ctrl = fh.make_control(grid20, omega, 4, values=single)
    assert grid20.interior_nodes[ctrl.support_mask][0] == pytest.approx(-0.2)
    rep = fh.impulse_analysis(ctrl, dt=0.1, dx=grid20.h)
    assert rep.top_impulses[0][0] == pytest.approx(-0.2)


def test_impulse_analysis_ordering_and_cap(grid20):
    rng = np.random.default_rng(11)
    vals = rng.uniform(0.0, 1.0, (12, 30))
    ctrl = fh.make_control(grid20, (-0.3, 0.8), 30, values=vals)
    rep = fh.impulse_analysis(ctrl, dt=0.05, dx=grid20.h)
    masses = [imp[2] for imp in rep.top_impulses]
    assert len(masses) == 10
    assert masses == sorted(masses, reverse=True)
    assert masses[0] == pytest.approx(vals.max() * 0.05 * grid20.h)


def test_impulse_analysis_measures_the_magnitude(grid20):
    # a signed control gets the report of |u|, as the unconstrained
    # solver's bang-bang controls do in a run
    vals = np.random.default_rng(5).uniform(-1.0, 1.0, (12, 4))
    signed = fh.make_control(grid20, (-0.3, 0.8), 4, values=vals)
    magnitude = fh.make_control(grid20, (-0.3, 0.8), 4, values=np.abs(vals))
    assert fh.impulse_analysis(signed, dt=0.1, dx=grid20.h) == fh.impulse_analysis(
        magnitude, dt=0.1, dx=grid20.h
    )


def test_impulse_analysis_zero_control(grid20):
    ctrl = fh.make_control(grid20, (-0.3, 0.8), 4, values=0.0)
    rep = fh.impulse_analysis(ctrl, dt=0.1, dx=grid20.h)
    assert rep.total_mass == 0.0
    assert rep.active_cell_fraction == 0.0
    assert rep.top_impulses == ()


@given(st.integers(0, 2**32 - 1))
def test_impulse_total_mass_property(seed):
    g = fh.build_grid(10)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 2.0, (int(fh.nodes_in_interval(g, (-0.5, 0.5)).sum()), 8))
    ctrl = fh.make_control(g, (-0.5, 0.5), 8, values=vals)
    rep = fh.impulse_analysis(ctrl, dt=0.125, dx=g.h)
    assert rep.total_mass == pytest.approx(vals.sum() * 0.125 * g.h)
    assert 0.0 <= rep.active_cell_fraction <= 1.0


def test_unconstrained_scaling_equivariance(prob_case1, op20_unit):
    # the LP is positively homogeneous: scaling z0, zhat0, uhat by alpha
    # scales the optimal control by alpha
    alpha = 2.0
    scaled = fh.make_problem(
        op20_unit,
        alpha * prob_case1.z0,
        alpha * prob_case1.zhat0,
        alpha * prob_case1.uhat,
        prob_case1.omega,
    )
    base, _, _ = fh.unconstrained_dual_details(prob_case1, 0.9, 300)
    scal, _, _ = fh.unconstrained_dual_details(scaled, 0.9, 300)
    umax_dev = abs(
        np.abs(scal.values).max() - alpha * np.abs(base.values).max()
    ) / (alpha * np.abs(base.values).max())
    assert umax_dev <= 0.01
    # pointwise, through the space-time L1 masses
    diff = np.abs(scal.values - alpha * base.values).sum()
    assert diff / (alpha * np.abs(base.values).sum()) <= 0.01


@given(
    st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40
    )
)
def test_nonneg_projection_idempotent(values):
    u = np.array(values)
    once = np.maximum(u, 0.0)
    twice = np.maximum(once, 0.0)
    assert np.array_equal(once, twice)


def test_minimal_time_degenerate_problem_invalidates_bracket(
    op20_unit, cos_profile
):
    # z0 equals the target's initial datum with zero target control, so
    # every horizon is feasible and the lower bracket end must invalidate
    prob = fh.make_problem(op20_unit, cos_profile, cos_profile, 0.0, (-0.3, 0.8))
    with pytest.raises(fh.SolverError, match="already feasible"):
        fh.minimal_time_search(prob, (0.2, 0.5), 0.05, 30)


def test_control_to_csv(tmp_path, grid20):
    vals = np.arange(12 * 3, dtype=float).reshape(12, 3)
    ctrl = fh.make_control(grid20, (-0.3, 0.8), 3, values=vals)
    path = tmp_path / "control.csv"
    fh.control_to_csv(ctrl, grid20, T=0.6, path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 12 * 3
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    # columns sweep the support nodes at each time-cell midpoint
    assert sorted(set(np.round(data[:, 0], 12))) == pytest.approx([0.1, 0.3, 0.5])
    x_nodes = grid20.interior_nodes[ctrl.support_mask]
    assert data[:12, 1] == pytest.approx(x_nodes)
    assert data[:12, 2] == pytest.approx(vals[:, 0])
