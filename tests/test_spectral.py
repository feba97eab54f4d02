"""Spectral decomposition against the lumped mass, gap statistics and the
asymptotic eigenvalue law."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracheat as fh
from conftest import FROZEN_LAMBDA_UNIT, envinfo, traced


@pytest.fixture(scope="module")
def basis20(op20_unit):
    return fh.eigendecompose(op20_unit, k_max=8)


def test_frozen_unit_eigenvalues(basis20):
    assert basis20.eigenvalues == pytest.approx(FROZEN_LAMBDA_UNIT, rel=1e-12)


def test_eigenvectors_mass_orthonormal(basis20, op20_unit):
    V = basis20.eigenvectors
    G = V.T @ (op20_unit.grid.h * V)
    assert np.allclose(G, np.eye(8), atol=1e-10)


def test_ground_state_nonnegative(basis20):
    assert (basis20.eigenvectors[:, 0] >= 0).all()


def test_eigendecompose_k_max_validation(op20_unit):
    for k_max in (0, op20_unit.n_dof + 1, 2.5, True):
        with pytest.raises(ValueError, match="k_max"):
            fh.eigendecompose(op20_unit, k_max=k_max)


@pytest.fixture(scope="module")
def op200_unit():
    return fh.build_operator(fh.build_grid(200), s=0.8, normalization="unit")


def test_partial_eigensolve_matches_full(op200_unit):
    part = fh.eigendecompose(op200_unit, k_max=8)
    full = fh.eigendecompose(op200_unit)
    assert part.k_max == 8
    assert part.eigenvalues == pytest.approx(full.eigenvalues[:8], rel=1e-12)
    assert np.abs(part.eigenvectors - full.eigenvectors[:, :8]).max() <= 1e-9


def test_basis_size_is_read_from_its_arrays(op200_unit):
    # a slice of the full basis, as a run's summary takes, has k_max pairs
    # by construction
    full = op200_unit.lumped_basis
    part = fh.SpectralBasis(full.eigenvalues[:8], full.eigenvectors[:, :8], full.grid)
    assert part.k_max == 8


def test_eigensolve_peak_memory(op20_unit, op400_symbol):
    # LAPACK overwrites the one dense matrix built for it, D K D.  The full
    # basis holds V beside D K D, and its residual is checked a block of
    # columns at a time
    fh.eigendecompose(op20_unit, k_max=3)  # imports scipy.linalg untraced
    n2 = 8.0 * op400_symbol.n_dof ** 2
    for k_max, bound in ((8, 1.25), (None, 2.2)):
        _, _, peak = traced(lambda: fh.eigendecompose(op400_symbol, k_max=k_max))
        assert peak <= bound * n2, k_max


def test_lumped_basis_is_the_full_solve(op200_unit):
    assert op200_unit.lumped_basis.k_max == op200_unit.n_dof


def test_lumped_basis_close_to_consistent(op20_unit, basis20):
    # the consistent P1 mass, tridiagonal with 2h/3 and h/6, is built here
    # as the Galerkin reference; lumping perturbs lambda_k at O((k h)^2)
    # relative, and k = 3 on this grid sits below 4 percent
    from scipy.linalg import eigh

    n, h = op20_unit.n_dof, op20_unit.grid.h
    M = np.diag(np.full(n, 2.0 * h / 3.0))
    M += np.diag(np.full(n - 1, h / 6.0), 1) + np.diag(np.full(n - 1, h / 6.0), -1)
    consistent = eigh(op20_unit.stiffness, M, eigvals_only=True)
    assert basis20.eigenvalues[:3] == pytest.approx(consistent[:3], rel=0.04)


def test_min_gap_frozen(basis20, op20_unit):
    assert fh.min_gap(basis20) == pytest.approx(14.83097944263719, rel=1e-12)
    pair = fh.SpectralBasis(basis20.eigenvalues[:2], basis20.eigenvectors[:, :2], basis20.grid)
    with pytest.raises(ValueError, match="^need k_max >= 3 for gap statistics, got 2"):
        fh.min_gap(pair)
    # the full basis on 20 cells has 19 pairs, short of the ratio's 80
    with pytest.raises(ValueError, match="^need partial sums up to K=80, have 19"):
        fh.flattening_ratio(op20_unit.lumped_basis)


def test_l1_lower_bound_frozen(basis20):
    beta = fh.l1_lower_bound(basis20, (-0.3, 0.8))
    assert beta == pytest.approx(0.7297769317062565, rel=1e-12)
    assert beta > 0
    # monotone in the observation window
    assert fh.l1_lower_bound(basis20, (-0.5, 0.9)) >= beta
    with pytest.raises(ValueError, match=r"^interval \(0.51, 0.54\) contains no interior nodes"):
        fh.l1_lower_bound(basis20, (0.51, 0.54))


def test_l1_lower_bound_weighs_omega_by_the_lumped_mass(op20_unit, basis20):
    # each node of omega weighs h, as in the control operator: omega's end
    # nodes -0.3 and 0.8 count in full
    V = op20_unit.lumped_basis.eigenvectors[:, :8]
    x = op20_unit.grid.interior_nodes
    inside = (x > -0.3 - 1e-9) & (x < 0.8 + 1e-9)
    by_hand = min(0.1 * sum(abs(V[i, k]) for i in range(19) if inside[i]) for k in range(8))
    assert fh.l1_lower_bound(basis20, (-0.3, 0.8)) == pytest.approx(by_hand, rel=1e-13)


def test_summary_reads_every_listed_pair(tmp_path):
    # on 12 cells the summary lists 8 of the 11 pairs, and all 8 set both
    # statistics: the smallest gap is lambda_8 - lambda_7 and the smallest
    # L1 norm over omega is phi_8's
    cfg = fh.parse_config(json.dumps({
        "n_x": 12, "n_t": 10, "omega": [-0.5, 0.5], "horizon_mode": {"fixed": 0.9},
        "output_dir": str(tmp_path / "out"),
    }))
    summary = fh.run_scenario(cfg)
    op = fh.build_operator(fh.build_grid(12), s=0.8, normalization="unit")
    lam = op.lumped_basis.eigenvalues[:8]
    # omega holds the interior nodes 2..8, x = -0.5, ..., 0.5
    norms = op.grid.h * np.abs(op.lumped_basis.eigenvectors[2:9, :8]).sum(axis=0)
    assert summary["lambda"] == pytest.approx(lam, rel=1e-12)
    assert np.diff(lam).argmin() == 6 and norms.argmin() == 7
    assert summary["min_gap"] == pytest.approx(np.diff(lam).min(), rel=1e-12)
    assert summary["beta_hat"] == pytest.approx(norms.min(), rel=1e-12)


def test_lambda_asymptotic():
    # mu_k = k pi/2 - (1 - s) pi/4, lambda ~ mu_k^(2s)
    s = 0.8
    for k in (1, 2, 7):
        mu = k * math.pi / 2.0 - (1.0 - s) * math.pi / 4.0
        assert fh.lambda_asymptotic(k, s) == pytest.approx(mu ** (2 * s), rel=1e-15)
    assert type(fh.lambda_asymptotic(3, s)) is float
    arr = fh.lambda_asymptotic(np.arange(1, 5), 0.5)
    assert arr.shape == (4,)
    assert np.all(np.diff(arr) > 0)
    # NaN fails the range checks
    with pytest.raises(ValueError, match="k must be"):
        fh.lambda_asymptotic(np.array([1.0, np.nan]), 0.8)
    # s outside [0.01, 0.99], or NaN, is refused first: lambda_asymptotic
    # returned 283.1 at s = 1.7
    for s in (0.0, 1.5, 1.7, -0.5, np.nan):
        with pytest.raises(ValueError, match="^s must lie in"):
            fh.lambda_asymptotic(3, s)


def test_asymptotic_law_tracks_discrete_spectrum():
    # relative error of the closed-form law against a fine grid, and it
    # shrinks with k; the law targets the symbol-normalized operator
    g = fh.build_grid(200)
    op = fh.build_operator(g, s=0.8, normalization="symbol")
    lam = fh.eigendecompose(op, k_max=5).eigenvalues
    pred = fh.lambda_asymptotic(np.arange(1, 6), 0.8)
    rel = np.abs(pred - lam) / lam
    assert rel[0] < 0.01
    assert rel[2] < rel[0]


def test_slow_eigenvalue_does_not_depend_on_the_thread_count():
    # eigh alone leaves lambda_1 at n_x = 200 with an error of about
    # eps lambda_max, which moved by 8.4e-13 relative between one BLAS
    # thread and two; refined to relative accuracy it is the same at both
    script = (
        "import fracheat as fh; "
        "op = fh.build_operator(fh.build_grid(200), s=0.8, normalization='unit'); "
        "print(repr(float(fh.eigendecompose(op).eigenvalues[0])))"
    )
    src = str(Path(fh.__file__).resolve().parents[1])
    lam = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        env.update({var: threads for var in envinfo.THREAD_VARS})
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        lam.append(float(proc.stdout))
    assert lam[0] == pytest.approx(lam[1], rel=1e-13, abs=0.0)
