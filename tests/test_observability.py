"""Observability-constant estimator and closed-form exponential-sum L1 norms."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

import fracheat as fh
import fracheat.observability as obs
from fracheat.observability import _cancellation_candidates, _ladder, _ratios, _root_edges


def anti(c, mu, t):
    """Antiderivative of sum c_k e^(-mu_k t)."""
    return float(-(c / mu) @ np.exp(-mu * t))


def ratio(c, mu, T):
    """Observability ratio of one witness, as the estimator computes it."""
    return float(_ratios(np.asarray(c, dtype=float)[None, :], mu, np.array([T]))[0])


def ladder_roots(es):
    """Sign-change roots that the derivative ladder isolates."""
    edges = _root_edges(es.coefficients[None, :], es.exponents, np.array([es.T]))[0]
    inner = edges[1:-1]
    return inner[inner < es.T]


def mp_reference(c, mu, T, brackets):
    """50-digit roots, by bisection in each bracket, and the L1 norm on
    [0, T] as a sum of piecewise quadratures between them."""
    with mpmath.workdps(50):
        terms = [(mpmath.mpf(ck), mpmath.mpf(mk)) for ck, mk in zip(c, mu)]

        def F(t):
            return mpmath.fsum(ck * mpmath.exp(-mk * t) for ck, mk in terms)

        roots = []
        for a, b in brackets:
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            positive_at_a = F(a) > 0
            assert positive_at_a != (F(b) > 0)
            while b - a > mpmath.mpf(10) ** -45:
                mid = (a + b) / 2
                if (F(mid) > 0) == positive_at_a:
                    a = mid
                else:
                    b = mid
            roots.append(a)
        edges = [mpmath.mpf(0)] + roots + [mpmath.mpf(T)]
        norm = mpmath.fsum(abs(mpmath.quad(F, [a, b])) for a, b in zip(edges, edges[1:]))
        return roots, float(norm)


def mp_graded_brackets(c, mu, T):
    """Sign changes, evaluated in 50 digits, on a grid of 400 cells graded
    geometrically from T 1e-6 to T, and on [0, T 1e-6]."""
    with mpmath.workdps(50):
        grid = [mpmath.mpf(0)] + [T * mpmath.mpf(10) ** (-6 + 6 * i / 400) for i in range(401)]
        terms = [(mpmath.mpf(ck), mpmath.mpf(mk)) for ck, mk in zip(c, mu)]
        vals = [mpmath.fsum(ck * mpmath.exp(-mk * t) for ck, mk in terms) for t in grid]
        return [(a, b) for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]) if fa * fb < 0]


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
    assert fh.l1_norm_exp_sum(es) == pytest.approx(exact, rel=1e-13)


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
    assert fh.l1_norm_exp_sum(es) == pytest.approx(exact, rel=1e-12)


def _grid_sign_changes(es, n_cells):
    grid = np.linspace(0.0, es.T, n_cells + 1)
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
    grid, _, change = _grid_sign_changes(es, 256)
    assert change.size == 4
    roots = ladder_roots(es)
    ref, exact = mp_reference(c, mu, T, zip(grid[change], grid[change + 1]))
    assert roots.size == 4
    assert max(float(abs(r - mpmath.mpf(x))) for r, x in zip(ref, roots)) <= 1e-14
    assert fh.l1_norm_exp_sum(es) == pytest.approx(exact, rel=1e-13)


def test_l1_norm_finds_roots_that_a_grid_misses():
    # at s = 0.8, K = 12, T = 4 this padded Gram-ladder witness changes
    # sign 8 times, twice within the first of 256 uniform cells; a
    # quadrature on those cells missed both roots and erred by 7.6e-5
    mu = fh.lambda_asymptotic(np.arange(1, 13), 0.8)
    T = 4.0
    c = np.pad(_cancellation_candidates(mu[:9], T)[0], (0, 3))
    es = fh.ExponentialSum(c, mu, T)
    assert _grid_sign_changes(es, 256)[2].size == 6
    ref, exact = mp_reference(c, mu, T, mp_graded_brackets(c, mu, T))
    roots = ladder_roots(es)
    assert len(ref) == roots.size == 8
    # each root within its conditioning, eps sum_k |c_k| e^(-mu_k t) / |F'(t)|
    for r, x in zip(ref, roots):
        e = np.exp(-mu * x)
        cond = np.finfo(float).eps * (np.abs(c) @ e) / abs((c * mu) @ e)
        assert float(abs(r - mpmath.mpf(x))) <= 4 * cond
    assert fh.l1_norm_exp_sum(es) == pytest.approx(exact, rel=1e-12)


def test_l1_norm_where_every_term_underflows_at_T():
    # F(t) = e^(-300 t) - 1.01 e^(-310 t) is -0.01 at 0 and crosses zero at
    # t = ln(1.01) / 10, but both terms round to 0 long before T = 4, so
    # the sign of F itself is lost there; scaled ladder levels keep it
    c = np.array([1.0, -1.01])
    mu = np.array([300.0, 310.0])
    T = 4.0
    t_star = math.log(1.01) / 10.0
    exact = abs(anti(c, mu, t_star) - anti(c, mu, 0.0)) + abs(
        anti(c, mu, T) - anti(c, mu, t_star)
    )
    roots = ladder_roots(fh.ExponentialSum(c, mu, T))
    assert roots.size == 1 and roots[0] == pytest.approx(t_star, rel=1e-13, abs=0.0)
    assert fh.l1_norm_exp_sum(fh.ExponentialSum(c, mu, T)) == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_l1_norm_at_large_K():
    # at s = 0.99, K = 40, T = 1 the most regularized full-length Gram
    # witness changes sign 11 times; its high ladder levels, e^(-mu_k t)
    # down to e^(-14000), round to 0 at T, and scaled by 2^900 their
    # coefficients, products of up to 38 exponent gaps, overflow
    mu = fh.lambda_asymptotic(np.arange(1, 41), 0.99)
    T = 1.0
    c = _cancellation_candidates(mu, T)[-1]
    es = fh.ExponentialSum(c, mu, T)
    ref, exact = mp_reference(c, mu, T, mp_graded_brackets(c, mu, T))
    roots = ladder_roots(es)
    assert len(ref) == roots.size == 11
    assert max(float(abs(r - mpmath.mpf(x))) for r, x in zip(ref, roots)) <= 1e-14
    assert fh.l1_norm_exp_sum(es) == pytest.approx(exact, rel=1e-12)
    scale = 2.0**900
    with np.errstate(over="ignore"):
        assert np.isinf(abs(c[-1]) * scale * np.prod(mu[-1] - mu[:-2]))
    big = fh.l1_norm_exp_sum(fh.ExponentialSum(scale * c, mu, T))
    assert big / scale == pytest.approx(exact, rel=1e-12)


def test_sum_with_noise_sign_changes_is_a_degenerate_witness():
    # three nearly equal exponents: the sum is a second difference that
    # cancels to roundoff, and a uniform grid sees noise flip its sign more
    # often than the K - 1 = 2 times a sum of 3 exponentials can; the ladder
    # isolates at most 2 roots, and the rounding guard gives ratio 0
    mu = np.array([1.0, 1.0 + 1e-13, 1.0 + 2e-13])
    c = np.array([1.0, -2.0, 1.0])
    es = fh.ExponentialSum(c, mu, 1.0)
    assert _grid_sign_changes(es, 256)[2].size > 2
    assert ladder_roots(es).size <= 2
    assert ratio(c, mu, 1.0) == 0.0


def test_root_iteration_never_returns_unconverged(monkeypatch):
    es = fh.ExponentialSum([-0.5, 1.0], [1.0, 2.0], 3.0)
    assert fh.l1_norm_exp_sum(es) > 0.0
    monkeypatch.setattr(obs, "_ROOT_STEPS", 1)
    with pytest.raises(fh.SolverError, match="not converged"):
        fh.l1_norm_exp_sum(es)


def test_root_iteration_does_not_creep_at_flat_roots(monkeypatch):
    # s = 0.3, K = 12 over 25 horizons holds flat roots whose values sit in
    # the sum's rounding error; iterating there once took up to 37 steps,
    # against at most 13 now
    monkeypatch.setattr(obs, "_ROOT_STEPS", 16)
    mu = fh.lambda_asymptotic(np.arange(1, 13), 0.3)
    for T in np.geomspace(4.0, 0.01, 25):
        assert fh.estimate_observability_constant(mu, T, 12).lower_bound_C > 0.0


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
    denom = fh.l1_norm_exp_sum(fh.ExponentialSum(c, mu, est.T))
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
    best = max(ratio(c, mu[:K], T) for c in candidates)
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
    assert fh.l1_norm_exp_sum(es) >= plain - 1e-12 * max(plain, 1.0)


def test_l1_norm_of_a_sum_cancelled_to_roundoff():
    # e^-t - 2 e^-2t + e^-3t = e^-t (1 - e^-t)^2 is about t^2 <= 1e-24 on
    # [0, 1e-12], far below the rounding of its unit terms: a uniform grid
    # sees dozens of noise sign changes
    c = np.array([1.0, -2.0, 1.0])
    mu = np.array([1.0, 2.0, 3.0])
    T = 1e-12
    es = fh.ExponentialSum(c, mu, T)
    assert _grid_sign_changes(es, 256)[2].size > 2
    norm = fh.l1_norm_exp_sum(es)
    assert np.isfinite(norm) and 0.0 <= norm <= 1e-24
    # the estimator treats such a sum as a degenerate witness
    assert ratio(c, mu, T) == 0.0
    est = fh.estimate_observability_constant(mu, T, 3)
    assert np.isfinite(est.lower_bound_C) and est.lower_bound_C > 0.0


def test_witness_alone_reproduces_its_batched_ratio():
    # the obs-curve sweep evaluates every horizon's ladder in one batch;
    # each estimate, and each witness's ratio, recomputed alone is the
    # same float
    mu = fh.lambda_asymptotic(np.arange(1, 9), 0.8)
    T_values = np.geomspace(4.0, 0.05, 9)
    curve = fh.blowup_curve(mu, T_values, 8)
    for T, C in zip(T_values, curve.C_lower):
        est = fh.estimate_observability_constant(mu, T, 8)
        assert est.lower_bound_C == C
        assert ratio(est.witness_coeffs, mu, T) == C
        rows = _ladder(mu, T)
        batched = _ratios(rows, mu, np.full(len(rows), T))
        assert [ratio(c, mu, T) for c in rows] == list(batched)


def test_blowup_curve_to_csv(tmp_path):
    mu = np.array([1.0, 3.0, 6.0])
    curve = fh.blowup_curve(mu, [1.0, 0.5, 0.25], 3)
    path = tmp_path / "curve.csv"
    fh.blowup_curve_to_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "T,C_lower,C_envelope"
    # 17 significant digits read back exactly
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (3, 3)
    assert list(data[:, 0]) == list(curve.T_values)
    assert list(data[:, 1]) == list(curve.C_lower)
    assert list(data[:, 2]) == list(curve.C_envelope)
