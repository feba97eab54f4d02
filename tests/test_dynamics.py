"""Time marching, modal reference solution, and trajectory utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fracheat as fh
from conftest import traced


def modal_reference(op, z0, control, T):
    """Exact semigroup solution of the lumped semi-discrete system."""
    basis = fh.eigendecompose(op, mass_kind="lumped")
    m = np.diag(op.mass_lumped)
    V = basis.eigenvectors
    z0c = V.T @ (m * z0)
    uc = None
    if control is not None:
        u_full = control.expand()
        uc = (V.T @ (m[:, None] * u_full)).T
    return V @ fh.duhamel_spectral(basis, z0c, uc, T)


def test_simulate_validation(op20_unit, cos_profile):
    with pytest.raises(ValueError, match="T"):
        fh.simulate(op20_unit, cos_profile, None, T=0.0, n_t=10)
    with pytest.raises(ValueError, match="n_t"):
        fh.simulate(op20_unit, cos_profile, None, T=1.0, n_t=0)
    with pytest.raises(ValueError, match="shape"):
        fh.simulate(op20_unit, cos_profile[:-1], None, T=1.0, n_t=10)
    ctrl = fh.make_control(op20_unit.grid, (-0.3, 0.8), n_t=20, values=0.0)
    with pytest.raises(ValueError, match="time cells"):
        fh.simulate(op20_unit, cos_profile, ctrl, T=1.0, n_t=10)
    # the march solves without checking, so NaN and inf are caught up front
    z_nan = cos_profile.copy()
    z_nan[3] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        fh.simulate(op20_unit, z_nan, None, T=1.0, n_t=10)
    u_inf = np.zeros((12, 10))
    u_inf[4, 7] = np.inf
    ctrl = fh.make_control(op20_unit.grid, (-0.3, 0.8), n_t=10, values=u_inf)
    with pytest.raises(ValueError, match="infs or NaNs"):
        fh.simulate(op20_unit, cos_profile, ctrl, T=1.0, n_t=10)


def test_simulate_peak_memory(op20_unit, op400_symbol):
    # M + dt K is built once, in the layout its Cholesky factor overwrites
    fh.simulate(op20_unit, np.ones(op20_unit.n_dof), None, 0.9, 1)
    g = op400_symbol.grid
    z0 = np.cos(np.pi * g.interior_nodes / 2.0)
    control = fh.make_control(g, (-0.3, 0.8), 50, values=0.2)
    _, _, peak = traced(lambda: fh.simulate(op400_symbol, z0, control, 0.9, 50))
    assert peak <= 1.5 * 8.0 * op400_symbol.n_dof ** 2


def test_trajectory_shape_and_times(op20_unit, cos_profile):
    traj = fh.simulate(op20_unit, cos_profile, None, T=0.7, n_t=35)
    assert traj.states.shape == (36, op20_unit.n_dof)
    assert traj.n_t == 35
    assert traj.times[0] == 0.0 and traj.times[-1] == 0.7
    assert np.allclose(np.diff(traj.times), 0.7 / 35)
    assert np.array_equal(traj.final, traj.states[-1])
    assert traj.min_value == traj.states.min()


def test_implicit_euler_first_order_in_time(op20_unit, cos_profile):
    # error against the exact modal solution roughly halves when the step
    # halves; the control is piecewise constant on the coarse cells so the
    # reference is exact for both resolutions
    rng = np.random.default_rng(3)
    base = rng.uniform(0.0, 1.0, (12, 50))
    c50 = fh.make_control(op20_unit.grid, (-0.3, 0.8), 50, values=base)
    c100 = fh.make_control(
        op20_unit.grid, (-0.3, 0.8), 100, values=np.repeat(base, 2, axis=1)
    )
    ref = modal_reference(op20_unit, cos_profile, c50, 0.5)
    e50 = np.abs(
        fh.simulate(op20_unit, cos_profile, c50, 0.5, 50).final - ref
    ).max()
    e100 = np.abs(
        fh.simulate(op20_unit, cos_profile, c100, 0.5, 100).final - ref
    ).max()
    assert 1.5 <= e50 / e100 <= 3.0


def test_free_decay_matches_semigroup(op20_unit, cos_profile):
    ref = modal_reference(op20_unit, cos_profile, None, 0.4)
    traj = fh.simulate(op20_unit, cos_profile, None, 0.4, 800)
    assert np.abs(traj.final - ref).max() < 6e-3 * np.abs(ref).max()


def test_implicit_lumped_preserves_positivity_randomized(op20_unit):
    rng = np.random.default_rng(7)
    n = op20_unit.n_dof
    for _ in range(5):
        z0 = rng.uniform(0.0, 2.0, n)
        u = rng.uniform(0.0, 1.0, (12, 40))
        ctrl = fh.make_control(op20_unit.grid, (-0.3, 0.8), 40, values=u)
        traj = fh.simulate(op20_unit, z0, ctrl, 1.0, 40)
        assert traj.min_value >= 0.0


@given(st.integers(0, 2**32 - 1))
def test_implicit_lumped_positivity_property(seed):
    g = fh.build_grid(12)
    op = fh.build_operator(g, s=0.6, normalization="unit")
    rng = np.random.default_rng(seed)
    z0 = rng.uniform(0.0, 1.0, op.n_dof)
    traj = fh.simulate(op, z0, None, 0.5, 15)
    assert traj.min_value >= 0.0
    # the step is also L-infinity contractive
    assert traj.states.max() <= z0.max() + 1e-12


def test_duhamel_spectral_pure_decay(op20_unit, cos_profile):
    basis = fh.eigendecompose(op20_unit, mass_kind="lumped")
    m = np.diag(op20_unit.mass_lumped)
    z0c = basis.eigenvectors.T @ (m * cos_profile)
    out = fh.duhamel_spectral(basis, z0c, None, 0.3)
    assert out == pytest.approx(z0c * np.exp(-basis.eigenvalues * 0.3))
    assert fh.duhamel_spectral(basis, z0c, None, 0.0) == pytest.approx(z0c)
    with pytest.raises(ValueError, match="nonnegative"):
        fh.duhamel_spectral(basis, z0c, None, -0.1)


def test_duhamel_spectral_constant_control(op20_unit):
    # a constant modal control integrates to u (1 - e^{-lam t}) / lam
    basis = fh.eigendecompose(op20_unit, k_max=4, mass_kind="lumped")
    lam = basis.eigenvalues
    u = np.ones((8, 4)) * 0.7
    out = fh.duhamel_spectral(basis, np.zeros(4), u, 0.9)
    assert out == pytest.approx(0.7 * (1.0 - np.exp(-lam * 0.9)) / lam, rel=1e-12, abs=0.0)


def test_make_control_variants(grid20):
    zero = fh.make_control(grid20, (-0.3, 0.8), 5, values=0.0)
    assert zero.values.shape == (12, 5)
    assert not zero.values.any()
    const = fh.make_control(grid20, (-0.3, 0.8), 5, values=2.5)
    assert (const.values == 2.5).all()
    full = const.expand()
    assert full.shape == (grid20.n_interior, 5)
    assert (full[const.support_mask] == 2.5).all()
    assert not full[~const.support_mask].any()
    with pytest.raises(ValueError, match="shape"):
        fh.make_control(grid20, (-0.3, 0.8), 5, values=np.ones((3, 5)))
    with pytest.raises(ValueError, match="no interior nodes"):
        fh.make_control(grid20, (0.51, 0.54), 5, values=0.0)


def test_generate_target_trajectory(op20_unit, cos_profile):
    traj = fh.generate_target_trajectory(
        op20_unit, 0.05 * cos_profile, uhat=0.2, omega=(-0.3, 0.8), T=0.9, n_t=60
    )
    assert traj.min_value >= 0.0
    assert traj.final.max() > 0.0
    with pytest.raises(ValueError, match="positive"):
        fh.generate_target_trajectory(
            op20_unit, 0.0 * cos_profile, 0.2, (-0.3, 0.8), 0.9, 60
        )
    with pytest.raises(ValueError, match="uhat"):
        fh.generate_target_trajectory(
            op20_unit, 0.05 * cos_profile, -1.0, (-0.3, 0.8), 0.9, 60
        )


def test_trajectory_to_csv(tmp_path, op20_unit, cos_profile):
    traj = fh.simulate(op20_unit, cos_profile, None, 0.2, 4)
    path = tmp_path / "traj.csv"
    fh.trajectory_to_csv(traj, op20_unit.grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,z"
    assert len(lines) == 1 + 5 * 21
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == -1.0 and float(first[2]) == 0.0
    # boundary values are zero at every slice
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    boundary = data[np.abs(np.abs(data[:, 1]) - 1.0) < 1e-15]
    assert not boundary[:, 2].any()


def test_positivity_preserving_holds_only_for_larger_s(op20_unit):
    # s = 0.8: no positive off-diagonal, and nonnegative data stays >= 0
    assert op20_unit.positivity_preserving
    rng = np.random.default_rng(8)
    z0 = rng.uniform(0.0, 1.0, op20_unit.n_dof)
    z0[::3] = 0.0
    traj = fh.simulate(op20_unit, z0, None, 0.01, 10)
    assert traj.min_value >= 0.0
    # s = 0.1: adjacent off-diagonals are positive, and a unit impulse
    # turns negative within a few small steps
    op = fh.build_operator(op20_unit.grid, s=0.1, normalization="unit")
    assert not op.positivity_preserving
    assert np.diag(op.stiffness, 1).max() > 0.0
    impulse = np.zeros(op.n_dof)
    impulse[5] = 1.0
    traj = fh.simulate(op, impulse, None, 0.01, 10)
    assert traj.min_value < -1e-2


def test_csv_writers_match_savetxt(tmp_path):
    # the chunked writers must reproduce np.savetxt byte for byte, across
    # chunk boundaries and for awkward values
    grid = fh.build_grid(150)
    rng = np.random.default_rng(9)
    n_t = 40
    states = rng.standard_normal((n_t + 1, grid.n_interior)) * 10.0 ** rng.integers(
        -300, 300, (n_t + 1, grid.n_interior)
    )
    states[0, :5] = [0.0, -0.0, 1.0 / 3.0, 5e-324, -1e300]
    times = np.arange(n_t + 1) * (0.7 / n_t)
    traj = fh.Trajectory(times=times, states=states, min_value=float(states.min()))
    fh.trajectory_to_csv(traj, grid, tmp_path / "traj.csv")
    full = np.zeros((n_t + 1, grid.nodes.size))
    full[:, grid.interior] = states
    ref = np.column_stack(
        [np.repeat(times, grid.nodes.size), np.tile(grid.nodes, n_t + 1), full.ravel()]
    )
    np.savetxt(tmp_path / "traj_ref.csv", ref, fmt="%.17g", delimiter=",",
               header="t,x,z", comments="")
    written = (tmp_path / "traj.csv").read_bytes()
    assert written.count(b"\n") == 1 + ref.shape[0] > 4096
    assert written == (tmp_path / "traj_ref.csv").read_bytes()

    omega = (-0.3, 0.8)
    mask = fh.nodes_in_interval(grid, omega)
    values = rng.uniform(0.0, 3.0, (int(mask.sum()), 70))
    values[3, 7] = 0.0
    ctrl = fh.make_control(grid, omega, 70, values=values)
    fh.control_to_csv(ctrl, grid, 0.9, tmp_path / "ctrl.csv")
    t_mid = (np.arange(70) + 0.5) * (0.9 / 70)
    ref = np.column_stack(
        [np.repeat(t_mid, mask.sum()), np.tile(grid.interior_nodes[mask], 70),
         values.T.ravel()]
    )
    np.savetxt(tmp_path / "ctrl_ref.csv", ref, fmt="%.17g", delimiter=",",
               header="t,x,u", comments="")
    written = (tmp_path / "ctrl.csv").read_bytes()
    assert written.count(b"\n") == 1 + ref.shape[0] > 4096
    assert written == (tmp_path / "ctrl_ref.csv").read_bytes()
