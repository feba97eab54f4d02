"""Observability-constant estimator and exponential-sum quadrature."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

import fracheat as fh
import fracheat.observability as obs
from fracheat.observability import (
    N_QUAD,
    _cancellation_candidates,
    _ratio,
    _sign_change_roots,
)


def anti(c, mu, t):
    """Antiderivative of sum c_k e^(-mu_k t)."""
    return float(-(c / mu) @ np.exp(-mu * t))


def test_exponential_sum_validation():
    with pytest.raises(ValueError, match="equal length"):
        fh.ExponentialSum([1.0, 2.0], [1.0], 1.0)
    with pytest.raises(ValueError, match="increasing"):
        fh.ExponentialSum([1.0, 2.0], [2.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="increasing"):
        fh.ExponentialSum([1.0], [-1.0], 1.0)
    with pytest.raises(ValueError, match="horizon"):
        fh.ExponentialSum([1.0], [1.0], 0.0)


def test_exponential_sum_evaluation():
    es = fh.ExponentialSum([2.0, -1.0], [1.0, 3.0], 2.0)
    t = np.array([0.0, 0.5, 1.0])
    assert es(t) == pytest.approx(2.0 * np.exp(-t) - np.exp(-3.0 * t))


def test_l1_norm_single_exponential():
    # integral of c e^(-mu t) over [0, T] is c (1 - e^(-mu T)) / mu
    es = fh.ExponentialSum([3.0], [2.5], 1.7)
    exact = 3.0 * (1.0 - math.exp(-2.5 * 1.7)) / 2.5
    assert fh.l1_norm_exp_sum(es, 64) == pytest.approx(exact, rel=1e-13)


def test_l1_norm_with_sign_change():
    # F(t) = e^(-2t) - e^(-t)/2 crosses zero at t = ln 2; split the
    # analytic antiderivative there
    c = np.array([1.0, -0.5])
    mu = np.array([2.0, 1.0])
    # constructor requires increasing exponents
    es = fh.ExponentialSum(c[::-1], mu[::-1], 3.0)
    t_star = math.log(2.0)
    exact = abs(anti(c, mu, t_star) - anti(c, mu, 0.0)) + abs(
        anti(c, mu, 3.0) - anti(c, mu, t_star)
    )
    assert fh.l1_norm_exp_sum(es, 128) == pytest.approx(exact, rel=1e-12)


def _grid_sign_changes(es, n_quad):
    grid = np.linspace(0.0, es.T, n_quad + 1)
    fvals = es(grid)
    change = np.flatnonzero(np.sign(fvals[:-1]) * np.sign(fvals[1:]) < 0)
    return grid, fvals, change


def test_roots_and_l1_norm_match_mpmath():
    # a Gram-cancellation witness at K = 5 with the full K - 1 = 4 sign
    # changes on [0, T], against 50-digit roots and piecewise quadrature
    mu = fh.lambda_asymptotic(np.arange(1, 6), 0.8)
    T = 0.5
    c = _cancellation_candidates(mu, T)[-1]
    es = fh.ExponentialSum(c, mu, T)
    grid, fvals, change = _grid_sign_changes(es, N_QUAD)
    assert change.size == 4
    roots = _sign_change_roots(es, grid, fvals, change)
    with mpmath.workdps(50):
        terms = [(mpmath.mpf(ck), mpmath.mpf(mk)) for ck, mk in zip(c, mu)]

        def F(t):
            return mpmath.fsum(ck * mpmath.exp(-mk * t) for ck, mk in terms)

        ref = [
            mpmath.findroot(F, (grid[i], grid[i + 1]), solver="anderson")
            for i in change
        ]
        edges = [mpmath.mpf(0)] + ref + [mpmath.mpf(T)]
        exact = mpmath.fsum(abs(mpmath.quad(F, [a, b])) for a, b in zip(edges, edges[1:]))
        errors = [abs(r - mpmath.mpf(x)) for r, x in zip(ref, roots)]
    assert max(float(e) for e in errors) <= 1e-14
    assert fh.l1_norm_exp_sum(es, N_QUAD) == pytest.approx(float(exact), rel=1e-13)


def test_l1_norm_rejects_more_than_k_minus_1_sign_changes():
    # three nearly equal exponents: the sum is a second difference that
    # cancels to roundoff, and the grid sees noise flip its sign
    es = fh.ExponentialSum([1.0, -2.0, 1.0], [1.0, 1.0 + 1e-13, 1.0 + 2e-13], 1.0)
    assert _grid_sign_changes(es, N_QUAD)[2].size > 2
    with pytest.raises(fh.QuadratureError, match="more than the K-1=2"):
        fh.l1_norm_exp_sum(es, N_QUAD)


def test_root_iteration_never_returns_unconverged(monkeypatch):
    es = fh.ExponentialSum([-0.5, 1.0], [1.0, 2.0], 3.0)
    assert fh.l1_norm_exp_sum(es, 64) > 0.0
    monkeypatch.setattr(obs, "_ROOT_STEPS", 1)
    with pytest.raises(fh.SolverError, match="not converged"):
        fh.l1_norm_exp_sum(es, 64)


def test_root_iteration_does_not_creep_at_flat_roots(monkeypatch):
    # s = 0.3, K = 12 over 25 horizons holds flat roots whose values sit in
    # the sum's rounding error; iterating there once took up to 37 steps,
    # against at most 10 now
    monkeypatch.setattr(obs, "_ROOT_STEPS", 16)
    mu = fh.lambda_asymptotic(np.arange(1, 13), 0.3)
    for T in np.geomspace(4.0, 0.01, 25):
        assert fh.estimate_observability_constant(mu, T, 12).lower_bound_C > 0.0


def test_l1_norm_quadrature_floor():
    es = fh.ExponentialSum([1.0], [1.0], 1.0)
    with pytest.raises(ValueError, match="n_quad"):
        fh.l1_norm_exp_sum(es, 32)


def test_estimator_validation():
    mu = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="K"):
        fh.estimate_observability_constant(mu, 1.0, 0)
    with pytest.raises(ValueError, match="K"):
        fh.estimate_observability_constant(mu, 1.0, 4)
    with pytest.raises(ValueError, match="T"):
        fh.estimate_observability_constant(mu, -1.0, 2)
    with pytest.raises(ValueError, match="increasing"):
        fh.estimate_observability_constant(np.array([2.0, 1.0]), 1.0, 2)


def test_estimator_single_mode_closed_form():
    # with one exponent the ratio is scale invariant and every witness
    # yields mu e^(-mu T) / (1 - e^(-mu T))
    mu = np.array([1.8])
    T = 0.7
    est = fh.estimate_observability_constant(mu, T, 1)
    exact = 1.8 * math.exp(-1.8 * T) / (1.0 - math.exp(-1.8 * T))
    assert est.lower_bound_C == pytest.approx(exact, rel=1e-10)
    assert est.T == T


def test_estimator_bound_is_certified_by_witness():
    mu = fh.lambda_asymptotic(np.arange(1, 5), 0.8)
    est = fh.estimate_observability_constant(mu, 0.5, 4)
    c = est.witness_coeffs
    numer = float(np.abs(c) @ np.exp(-mu * est.T))
    denom = fh.l1_norm_exp_sum(fh.ExponentialSum(c, mu, est.T), 256)
    assert est.lower_bound_C == pytest.approx(numer / denom, rel=1e-12)


def test_estimator_nondecreasing_in_K():
    mu = fh.lambda_asymptotic(np.arange(1, 9), 0.8)
    prev = 0.0
    for K in range(1, 9):
        est = fh.estimate_observability_constant(mu, 0.4, K)
        assert est.lower_bound_C >= prev - 1e-12
        prev = est.lower_bound_C


def test_estimate_is_the_best_ladder_witness():
    # no local search refines the ladder: at K = 2 coordinate ascent would
    # raise this estimate from 6.578 to 6.678
    mu = fh.lambda_asymptotic(np.arange(1, 9), 0.8)
    K, T = 2, 0.4
    candidates = [np.eye(K, 1).ravel()]
    for m in range(1, K + 1):
        for v in _cancellation_candidates(mu[:m], T):
            candidates.append(np.pad(v, (0, K - m)))
    best = max(_ratio(c, mu[:K], T, N_QUAD) for c in candidates)
    est = fh.estimate_observability_constant(mu, T, K)
    assert est.lower_bound_C == best
    assert est.lower_bound_C == pytest.approx(6.578, rel=1e-3)


def test_estimator_at_underflowing_horizon():
    # at T = 1e-20 every Gram entry (1 - e^(-2 mu T)) / (2 mu) rounds to 0;
    # e_1 still gives the ratio e^(-mu_1 T) / T, about 1e20
    mu = np.array([1.0, 2.0, 3.0])
    est = fh.estimate_observability_constant(mu, 1e-20, 3)
    assert est.lower_bound_C >= 0.5e20 and np.isfinite(est.lower_bound_C)


def test_blowup_curve_validation():
    mu = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="three"):
        fh.blowup_curve(mu, [1.0, 0.5], 2)
    with pytest.raises(ValueError, match="decreasing"):
        fh.blowup_curve(mu, [0.5, 1.0, 2.0], 2)
    with pytest.raises(ValueError, match="positive"):
        fh.blowup_curve(mu, [1.0, 0.5, -0.1], 2)


def test_blowup_curve_envelope_and_slope():
    mu = fh.lambda_asymptotic(np.arange(1, 5), 0.8)
    curve = fh.blowup_curve(mu, [2.0, 1.0, 0.5, 0.2, 0.1], 4)
    assert curve.T_values == pytest.approx([2.0, 1.0, 0.5, 0.2, 0.1])
    # the envelope is the running max toward small horizons
    assert np.all(np.diff(curve.C_envelope) >= 0)
    assert np.all(curve.C_envelope >= curve.C_lower)
    # constants blow up as T decreases: positive slope of log C vs 1/T
    assert curve.slope_fit > 0
    assert curve.C_envelope[-1] > 10 * curve.C_envelope[0]


@given(
    st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=5),
    st.floats(0.2, 3.0),
)
def test_l1_norm_dominates_plain_integral(coeffs, T):
    # triangle inequality: the L1 norm bounds |integral of F|
    c = np.array(coeffs)
    if not np.abs(c).max() > 0:
        c[0] = 1.0
    mu = 0.5 + np.arange(c.size, dtype=float)
    es = fh.ExponentialSum(c, mu, T)
    plain = abs(float((c / mu) @ (1.0 - np.exp(-mu * T))))
    assert fh.l1_norm_exp_sum(es, 64) >= plain - 1e-12 * max(plain, 1.0)


def test_l1_norm_of_a_sum_cancelled_to_roundoff():
    # the vectorized grid evaluation sees a sign change in a cell whose
    # endpoints, evaluated one at a time, round to the same sign
    c = np.array([1.0, 1.0000000000025004, -2.0000000000040004])
    mu = np.array([1.0, 2.0, 3.0])
    try:
        norm = fh.l1_norm_exp_sum(fh.ExponentialSum(c, mu, 1e-12), 256)
    except fh.QuadratureError:
        pass
    else:
        assert np.isfinite(norm) and norm >= 0.0
    # the estimator treats such a sum as a degenerate witness
    r = _ratio(c, mu, 1e-12, 256)
    assert np.isfinite(r) and r >= 0.0


def test_blowup_curve_to_csv(tmp_path):
    mu = np.array([1.0, 3.0, 6.0])
    curve = fh.blowup_curve(mu, [1.0, 0.5, 0.25], 3)
    path = tmp_path / "curve.csv"
    fh.blowup_curve_to_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "T,C_lower,slope_fit"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (3, 3)
    assert data[:, 0] == pytest.approx(curve.T_values)
    assert data[:, 1] == pytest.approx(curve.C_lower)
    assert data[:, 2] == pytest.approx(curve.slope_fit)
