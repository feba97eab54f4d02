"""Lower bounds for L1 observability constants of exponential sums.

For a finite exponential sum F(t) = sum_k c_k e^(-mu_k t) the observability
ratio (sum_k |c_k| e^(-mu_k T)) / ||F||_{L1(0,T)} is bounded above by a
constant C(T) depending only on the exponents.  The true constant is a
supremum over coefficient vectors and out of reach; this module certifies
lower bounds by evaluating the ratio on witnesses, and exhibits the
blow-up of C(T) as T decreases.  The witnesses are the near-cancellation
solves of the exponential Gram system (a ladder of Tikhonov
regularizations over every leading block of exponents), and the estimate
is the best of them; it is deterministic.  Each ratio's L1 norm is a
piecewise Gauss quadrature between the sum's roots, which one vectorized
bracketed Newton iteration finds; the module runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, SolverError

__all__ = [
    "ExponentialSum",
    "ObservabilityEstimate",
    "BlowupCurve",
    "l1_norm_exp_sum",
    "estimate_observability_constant",
    "blowup_curve",
    "blowup_curve_to_csv",
]

# cells of the L1 quadrature behind every estimated ratio
N_QUAD = 256

# Gauss-Legendre rule on [-1, 1] for each smooth piece of |F|
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(10)
_GAUSS_X.setflags(write=False)
_GAUSS_W.setflags(write=False)

# the root iteration stops once a step or a bracket is within
# 1e-14 + 4 eps |t|, the default tolerance of scipy's bracketing root
# finders; an iterate with |F(t)| <= _ROOT_FTOL * sum_k |c_k| e^(-mu_k t)
# is within the sum's rounding error of a root; the cap is far above the
# steps any sum here takes
_ROOT_XTOL = 1e-14
_ROOT_RTOL = 4 * np.finfo(float).eps
_ROOT_FTOL = 4 * np.finfo(float).eps
_ROOT_STEPS = 100


@dataclass(frozen=True)
class ExponentialSum:
    """Finite sum of decaying exponentials on a horizon.

    Attributes
    ----------
    coefficients : ndarray, shape (K,)
    exponents : ndarray, shape (K,)
        Strictly increasing positive rates.
    T : float
        Positive horizon.
    """

    coefficients: np.ndarray = field(repr=False)
    exponents: np.ndarray = field(repr=False)
    T: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        mu = np.atleast_1d(np.asarray(self.exponents, dtype=float))
        if c.shape != mu.shape or c.ndim != 1:
            raise ValueError("coefficients and exponents must be 1-D of equal length")
        if (mu <= 0).any() or (np.diff(mu) <= 0).any():
            raise ValueError("exponents must be positive and strictly increasing")
        if self.T <= 0:
            raise ValueError(f"horizon must be positive, got {self.T}")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "exponents", mu)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.exp(-np.multiply.outer(t, self.exponents)) @ self.coefficients


@dataclass(frozen=True)
class ObservabilityEstimate:
    """Certified lower bound of the observability constant at horizon T.

    Attributes
    ----------
    T : float
    lower_bound_C : float
        Best ratio found; equals the ratio recomputed on witness_coeffs.
    witness_coeffs : ndarray
        Coefficient vector achieving the bound.
    """

    T: float
    lower_bound_C: float
    witness_coeffs: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class BlowupCurve:
    """Estimates of the observability constant across horizons.

    Attributes
    ----------
    T_values : ndarray
        Horizons in the order supplied (decreasing).
    C_lower : ndarray
        Raw estimator output per horizon.
    C_envelope : ndarray
        Running maxima toward small T, nonincreasing in T.
    slope_fit : float
        Slope of log C against 1/T fitted on the three smallest horizons.
    """

    T_values: np.ndarray = field(repr=False)
    C_lower: np.ndarray = field(repr=False)
    C_envelope: np.ndarray = field(repr=False)
    slope_fit: float


def l1_norm_exp_sum(es: ExponentialSum, n_quad: int) -> float:
    """L1 norm of an exponential sum on [0, T] by piecewise Gauss quadrature.

    The sum is sampled on n_quad uniform cells, and every cell whose
    endpoints have strictly opposite signs holds one root.  All such roots
    are found together by a bracketed Newton iteration on the closed-form
    derivative F'(t) = -sum_k c_k mu_k e^(-mu_k t): each cell keeps a
    bracket with that sign change, and a step leaving it becomes a
    bisection, or ends at an iterate within the sum's rounding error of
    zero.  The absolute value is then integrated with a 10-point
    Gauss rule on each smooth piece.

    Parameters
    ----------
    es : ExponentialSum
    n_quad : int
        Number of cells, at least 64.

    Returns
    -------
    float

    Raises
    ------
    QuadratureError
        If more sign changes are detected than the K - 1 possible for a
        sum of K decaying exponentials, which happens only to sums that
        cancel down to roundoff.
    SolverError
        If the root iteration has not converged after its step cap; it
        never returns an unconverged root.
    """
    if n_quad < 64:
        raise ValueError(f"n_quad must be >= 64, got {n_quad}")
    K = es.coefficients.size
    grid = np.linspace(0.0, es.T, n_quad + 1)
    fvals = es(grid)
    sign = np.sign(fvals)
    # indices of cells with a strict sign change at their endpoints
    change = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    if change.size > K - 1:
        raise QuadratureError(
            f"detected {change.size} sign changes, more than the K-1={K - 1} "
            "possible for this exponential sum"
        )
    roots = _sign_change_roots(es, grid, fvals, change)
    edges = np.unique(np.concatenate([grid, roots]))
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    t = (mid[:, None] + half[:, None] * _GAUSS_X[None, :]).ravel()
    w = (half[:, None] * _GAUSS_W[None, :]).ravel()
    return float(w @ np.abs(es(t)))


def _sign_change_roots(
    es: ExponentialSum, grid: np.ndarray, fvals: np.ndarray, change: np.ndarray
) -> np.ndarray:
    """Roots of the sum in the grid cells listed in change.

    Each bracket keeps the signs of the one grid evaluation at its ends,
    so no sign change can be lost to roundoff; the iteration starts from
    the secant point of those values.  A Newton step that leaves its
    bracket bisects, unless the iterate's value lies within the sum's
    rounding error: that iterate is a root as far as the arithmetic can
    tell, and stays put.  Near a flat root that band is wide, and
    bisecting through it costs tens of steps.
    """
    lo, hi = grid[change], grid[change + 1]
    f_lo, f_hi = fvals[change], fvals[change + 1]
    s_lo = np.sign(f_lo)
    t = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    c, mu = es.coefficients, es.exponents
    abs_c = np.abs(c)
    for _ in range(_ROOT_STEPS):
        e = np.exp(-np.multiply.outer(t, mu))
        f = e @ c
        left = np.sign(f) == s_lo
        lo = np.where(left, t, lo)
        hi = np.where(left, hi, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_new = t + f / (e @ (c * mu))
        # NaN (a zero derivative) fails the comparison and bisects too
        inside = (lo < t_new) & (t_new < hi)
        flat = np.abs(f) <= _ROOT_FTOL * (e @ abs_c)
        t_new = np.where(inside, t_new, np.where(flat, t, 0.5 * (lo + hi)))
        tol = _ROOT_XTOL + _ROOT_RTOL * np.abs(t_new)
        if ((np.abs(t_new - t) <= tol) | (hi - lo <= tol)).all():
            return t_new
        t = t_new
    raise SolverError(
        f"sign-change roots not converged in {_ROOT_STEPS} steps on [0, {es.T}]"
    )


def _ratio(c: np.ndarray, mu: np.ndarray, T: float, n_quad: int) -> float:
    numer = float(np.abs(c) @ np.exp(-mu * T))
    try:
        denom = l1_norm_exp_sum(ExponentialSum(c, mu, T), n_quad)
    except QuadratureError:
        # sums cancelling down to rounding noise wiggle around zero;
        # such candidates are degenerate witnesses, not errors
        return 0.0
    if denom == 0.0:
        return 0.0
    return numer / denom


def _cancellation_candidates(mu: np.ndarray, T: float) -> list[np.ndarray]:
    """Coefficients that nearly annihilate the sum in L2(0, T).

    Minimizing the L2 norm with one coefficient pinned to 1 reduces to a
    linear solve against the exponential Gram matrix, which is extremely
    ill-conditioned precisely when strong cancellation is possible; a
    ladder of Tikhonov regularizations supplies usable candidates.
    """
    K = mu.size
    G = (1.0 - np.exp(-np.add.outer(mu, mu) * T)) / np.add.outer(mu, mu)
    out = []
    scale = np.trace(G) / K
    for reg in (0.0, 1e-12, 1e-9, 1e-6):
        A = G + reg * scale * np.eye(K)
        try:
            v = np.linalg.solve(A, np.eye(K, 1).ravel())
        except np.linalg.LinAlgError:
            continue
        if abs(v[0]) > 1e-300 and np.isfinite(v).all():
            out.append(v / v[0])
    return out


def estimate_observability_constant(
    mu: np.ndarray, T: float, K: int
) -> ObservabilityEstimate:
    """Best observability ratio over the Gram-cancellation ladder.

    Maximizes (sum |c_k| e^(-mu_k T)) / ||sum c_k e^(-mu_k t)||_{L1(0,T)}
    over the near-cancellation solves of the exponential Gram system of
    the leading m exponents, for every m = 1..K, each zero-padded to
    length K, with the L1 norm on N_QUAD quadrature cells.  The estimate
    is deterministic.  The candidate set for K contains the padded set
    for every smaller K, so the estimate is nondecreasing in K.

    Single-mode vectors, alternating-sign geometric profiles, random
    draws and the zero-padded prefixes of every candidate are not tried:
    measured on the obs-curve sweep, the acceptance horizons, the
    sufficient-time scan and the blow-up demo, none of them ever gave the
    answer at K >= 3, and they cost most of the time.  Nor is the best
    candidate refined by a local search: coordinate ascent changed no
    estimate at K >= 4 on those inputs, raised some at K <= 3 by at most
    2.2%, and took more than half the time.

    Parameters
    ----------
    mu : ndarray
        Positive strictly increasing exponents, at least K of them.
    T : float
        Positive horizon.
    K : int
        Truncation: number of leading exponents to use.

    Returns
    -------
    ObservabilityEstimate
    """
    mu = np.asarray(mu, dtype=float)
    if K < 1 or K > mu.size:
        raise ValueError(f"K must lie in [1, {mu.size}], got {K}")
    mu = mu[:K]
    if (mu <= 0).any() or (np.diff(mu) <= 0).any():
        raise ValueError("exponents must be positive and strictly increasing")
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")

    # the one-term rung in closed form: its 1x1 solve gives v / v[0] = 1,
    # but fails when the Gram entry underflows at very short horizons
    candidates = [np.eye(K, 1).ravel()]
    for m in range(2, K + 1):
        for v in _cancellation_candidates(mu[:m], T):
            padded = np.zeros(K)
            padded[:m] = v
            candidates.append(padded)

    ratios = np.array([_ratio(c, mu, T, N_QUAD) for c in candidates])
    best_idx = int(np.argmax(ratios))  # argmax takes the lowest index on ties
    best_c = candidates[best_idx]
    best_c.setflags(write=False)
    return ObservabilityEstimate(
        T=float(T), lower_bound_C=float(ratios[best_idx]), witness_coeffs=best_c
    )


def blowup_curve(mu: np.ndarray, T_list, K: int) -> BlowupCurve:
    """Observability lower bounds over a decreasing list of horizons.

    Runs the estimator at each horizon, forms the nonincreasing envelope
    by running maxima toward small T, and fits the slope of log C against
    1/T on the three smallest horizons (a positive slope reflects the
    blow-up as T decreases).  The estimator is deterministic, so equal
    inputs give equal curves.

    Parameters
    ----------
    mu : ndarray
        Exponents passed to the estimator.
    T_list : sequence of float
        Strictly decreasing positive horizons, at least three.
    K : int
        Exponents the estimator uses.

    Returns
    -------
    BlowupCurve
    """
    T_arr = np.asarray(T_list, dtype=float)
    if (T_arr <= 0).any():
        raise ValueError("all horizons must be positive")
    if T_arr.size < 3:
        raise ValueError("need at least three horizons for the slope fit")
    if (np.diff(T_arr) >= 0).any():
        raise ValueError("horizons must be strictly decreasing")
    C = np.array(
        [estimate_observability_constant(mu, T, K).lower_bound_C for T in T_arr]
    )
    env = np.maximum.accumulate(C)
    small = np.argsort(T_arr)[:3]
    slope = float(np.polyfit(1.0 / T_arr[small], np.log(C[small]), 1)[0])
    C.setflags(write=False)
    env.setflags(write=False)
    T_out = T_arr.copy()
    T_out.setflags(write=False)
    return BlowupCurve(T_values=T_out, C_lower=C, C_envelope=env, slope_fit=slope)


def blowup_curve_to_csv(curve: BlowupCurve, path) -> None:
    """Write a blow-up curve as CSV with header T,C_lower,slope_fit."""
    data = np.column_stack(
        [curve.T_values, curve.C_lower, np.full_like(curve.T_values, curve.slope_fit)]
    )
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header="T,C_lower,slope_fit", comments="")
