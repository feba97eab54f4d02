"""Lower bounds for L1 observability constants of exponential sums.

For a finite exponential sum F(t) = sum_k c_k e^(-mu_k t) the observability
ratio (sum_k |c_k| e^(-mu_k T)) / ||F||_{L1(0,T)} is bounded above by a
constant C(T) depending only on the exponents.  The true constant is a
supremum over coefficient vectors and out of reach; this module certifies
lower bounds by evaluating the ratio on witnesses, and exhibits the
blow-up of C(T) as T decreases.  The witnesses are the near-cancellation
solves of the exponential Gram system (a ladder of Tikhonov
regularizations over every leading block of exponents), and the estimate
is the best of them; it is deterministic.

Every L1 norm is exact up to rounding.  The derivative of e^(mu_1 t) F is
e^(mu_1 t) times a sum of the K - 1 other exponentials, so by Rolle's
theorem the roots of that shorter sum separate the roots of F (the
generalized Descartes rule; Polya & Szego, Problems and Theorems in
Analysis II, Part V).  Isolating roots from the one-term end of that
derivative ladder down to F leaves at most one root per bracket, found by
a safeguarded Newton iteration, and between consecutive roots the
integral of F has a closed form.  The ladder works on logarithms of its
coefficients and scales each value by its largest term, so neither
terms that round to 0 at large mu_k t nor coefficients beyond the float
range can hide a sign change.  The witnesses of every horizon are
evaluated together as one batch of rows; the module runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError

__all__ = [
    "ExponentialSum",
    "ObservabilityEstimate",
    "BlowupCurve",
    "l1_norm_exp_sum",
    "estimate_observability_constant",
    "blowup_curve",
    "blowup_curve_to_csv",
]

# the root iteration stops once a step or a bracket is within
# 1e-14 + 4 eps |t|, the default tolerance of scipy's bracketing root
# finders; an iterate with |F(t)| <= _ROOT_FTOL * sum_k |c_k| e^(-mu_k t)
# is within the sum's rounding error of a root; the cap is far above the
# steps any sum here takes
_ROOT_XTOL = 1e-14
_ROOT_RTOL = 4 * np.finfo(float).eps
_ROOT_FTOL = 4 * np.finfo(float).eps
_ROOT_STEPS = 100

# a computed L1 norm at or below _NOISE_ULPS * K * eps * (the L1 norm of
# the sum's terms taken one by one) is rounding noise: such a witness is
# degenerate and gets ratio 0
_NOISE_ULPS = 64


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


def l1_norm_exp_sum(es: ExponentialSum) -> float:
    """L1 norm of an exponential sum on [0, T], exact up to rounding.

    The sign-change roots come from the derivative ladder (see
    :func:`_root_edges`), and between consecutive roots the integral of
    the sum is sum_k (c_k / mu_k) e^(-mu_k a) (1 - e^(-mu_k (b - a))).

    Parameters
    ----------
    es : ExponentialSum

    Returns
    -------
    float

    Raises
    ------
    SolverError
        If the root iteration has not converged after its step cap; it
        never returns an unconverged root.
    """
    return float(_l1_norms(es.coefficients[None, :], es.exponents, np.array([es.T]))[0])


def _root_edges(C: np.ndarray, mu: np.ndarray, T: np.ndarray) -> np.ndarray:
    """0, every sign-change root in increasing order, then T repeated.

    Row r is the sum with coefficients C[r] on [0, T[r]]; the result has
    shape (R, K + 1).  Level j of the derivative ladder keeps the terms
    k >= j (from 0) with coefficients -(mu_k - mu_(j-1)) times those of
    level j - 1; it is e^(-mu_(j-1) t) times the derivative of
    e^(mu_(j-1) t) times level j - 1.  So between consecutive sign changes
    of level j that product is strictly monotone, and level j - 1 changes
    sign there at most once.  The one-term top level has no root, and each
    level down has one more bracket per row.  The coefficients of level j
    carry products of j exponent gaps, which leave the float range at
    large K, so they are kept as logarithms and signs, and every value is
    taken through :func:`_scaled_terms`.
    """
    R, K = C.shape
    with np.errstate(divide="ignore"):
        levels = [(np.log(np.abs(C)), np.sign(C))]
    for j in range(1, K - 1):
        log_c, sign = levels[-1]
        levels.append((log_c[:, 1:] + np.log(mu[j:] - mu[j - 1]), -sign[:, 1:]))
    edges = np.column_stack([np.zeros(R), T])
    for j in range(K - 2, -1, -1):
        (log_c, sign), m = levels[j], mu[j:]
        f = (sign[:, None, :] * _scaled_terms(log_c[:, None, :], m, edges)).sum(axis=-1)
        rows, cols = np.nonzero(np.sign(f[:, :-1]) * np.sign(f[:, 1:]) < 0)
        inner = np.repeat(T[:, None], edges.shape[1] - 1, axis=1)
        inner[rows, cols] = _sign_change_roots(
            log_c[rows],
            sign[rows],
            m,
            edges[rows, cols],
            edges[rows, cols + 1],
            f[rows, cols],
            f[rows, cols + 1],
        )
        inner.sort(axis=1)
        edges = np.column_stack([np.zeros(R), inner, T])
    return edges


def _scaled_terms(log_c: np.ndarray, mu: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Magnitudes e^(log_c_k - mu_k t) of each sum's terms at each t, scaled.

    The terms of one sum at one t share a positive factor that makes the
    largest exactly 1, so no sign is lost to underflow however large
    mu_k t grows, and no term overflows.  A sum without terms stays 0.
    """
    x = log_c - t[..., None] * mu
    top = x.max(axis=-1, keepdims=True)
    return np.exp(x - np.where(np.isfinite(top), top, 0.0))


def _sign_change_roots(
    log_c: np.ndarray,
    sign: np.ndarray,
    mu: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    f_lo: np.ndarray,
    f_hi: np.ndarray,
) -> np.ndarray:
    """The root in the bracket (lo[i], hi[i]) of sum i, for every i.

    Sum i has terms sign[i, k] e^(log_c[i, k] - mu_k t).  Each bracket
    keeps the signs of the (scaled) values f_lo, f_hi at its ends, so no
    sign change can be lost to roundoff; the iteration starts from the
    secant point of those values.  Its Newton steps are taken on
    log(P / N), where P and N are the sums of the positive and of the
    negative terms: that function is linear for two terms, and nearly so
    wherever one term of each sign dominates, where Newton on F itself
    crawls by about 1 / mu_k per step.  It does not change when both are
    scaled by one factor, as :func:`_scaled_terms` scales them.  A Newton
    step that leaves its bracket bisects, unless the iterate's value lies
    within the sum's rounding error: that iterate is a root as far as the
    arithmetic can tell, and stays put.  Near a flat root that band is
    wide, and bisecting through it costs tens of steps.  A converged root
    is frozen, so it does not depend on the other brackets of the call.
    """
    s_lo = np.sign(f_lo)
    t = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    pos, neg = sign > 0, sign < 0
    out = np.empty_like(t)
    idx = np.arange(t.size)
    steps = 0
    while idx.size:
        if steps == _ROOT_STEPS:
            raise SolverError(f"sign-change roots not converged in {_ROOT_STEPS} steps")
        steps += 1
        e = _scaled_terms(log_c, mu, t)
        P, N = (e * pos).sum(axis=1), (e * neg).sum(axis=1)
        f = P - N
        left = np.sign(f) == s_lo
        lo = np.where(left, t, lo)
        hi = np.where(left, hi, t)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # the derivative of -log(P / N) is the difference of the mean
            # rates of the positive and of the negative terms
            rates = (e * pos * mu).sum(axis=1) / P - (e * neg * mu).sum(axis=1) / N
            t_new = t + np.log(P / N) / rates
        # NaN (a zero derivative) fails the comparison and bisects too
        inside = (lo < t_new) & (t_new < hi)
        flat = np.abs(f) <= _ROOT_FTOL * (P + N)
        t_new = np.where(inside, t_new, np.where(flat, t, 0.5 * (lo + hi)))
        tol = _ROOT_XTOL + _ROOT_RTOL * np.abs(t_new)
        done = (np.abs(t_new - t) <= tol) | (hi - lo <= tol)
        out[idx[done]] = t_new[done]
        go = ~done
        idx, t, lo, hi, s_lo = idx[go], t_new[go], lo[go], hi[go], s_lo[go]
        log_c, pos, neg = log_c[go], pos[go], neg[go]
    return out


def _l1_norms(C: np.ndarray, mu: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Closed-form L1 norm on [0, T[r]] of the sum with coefficients C[r]."""
    edges = _root_edges(C, mu, T)
    a = edges[:, :-1, None]
    h = np.diff(edges, axis=1)[:, :, None]
    pieces = ((C / mu)[:, None, :] * np.exp(-mu * a) * -np.expm1(-mu * h)).sum(axis=-1)
    return np.abs(pieces).sum(axis=1)


def _ratios(C: np.ndarray, mu: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Observability ratio of every row; 0 for a sum cancelled to roundoff."""
    abs_C = np.abs(C)
    muT = np.multiply.outer(T, mu)
    numer = (abs_C * np.exp(-muT)).sum(axis=1)
    norm = _l1_norms(C, mu, T)
    noise = _NOISE_ULPS * mu.size * np.finfo(float).eps * (abs_C * -np.expm1(-muT) / mu).sum(axis=1)
    # sums cancelling down to rounding noise are degenerate witnesses
    ratios = np.zeros_like(norm)
    np.divide(numer, norm, out=ratios, where=norm > noise)
    return ratios


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


def _ladder(mu: np.ndarray, T: float) -> np.ndarray:
    """Every witness at horizon T, one per row, zero-padded to length K.

    The one-term rung is e_1 in closed form: its 1x1 solve gives
    v / v[0] = 1, but fails when the Gram entry underflows at very short
    horizons.
    """
    K = mu.size
    rows = [np.eye(1, K).ravel()]
    for m in range(2, K + 1):
        rows.extend(np.pad(v, (0, K - m)) for v in _cancellation_candidates(mu[:m], T))
    return np.array(rows)


def _best_witnesses(mu: np.ndarray, T_values: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Best ratio and its witness at each horizon, all rows in one batch.

    One batch runs the root iteration's Python loop once for every
    horizon; calling the estimator per horizon made the 9-horizon,
    K = 8 obs-curve sweep about 50 ms slower end to end (0.32 against
    0.27 s, on 2 cores with one BLAS thread).  Rows do not
    interact, so each result equals the one computed alone.  The argmax
    takes the lowest index on ties.
    """
    ladders = [_ladder(mu, T) for T in T_values]
    sizes = [len(rows) for rows in ladders]
    ratios = _ratios(np.concatenate(ladders), mu, np.repeat(T_values, sizes))
    per_T = np.split(ratios, np.cumsum(sizes)[:-1])
    best = [int(np.argmax(r)) for r in per_T]
    return (
        np.array([r[b] for r, b in zip(per_T, best)]),
        [rows[b] for rows, b in zip(ladders, best)],
    )


def _leading_exponents(mu: np.ndarray, K: int) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if K < 1 or K > mu.size:
        raise ValueError(f"K must lie in [1, {mu.size}], got {K}")
    mu = mu[:K]
    if (mu <= 0).any() or (np.diff(mu) <= 0).any():
        raise ValueError("exponents must be positive and strictly increasing")
    return mu


def estimate_observability_constant(
    mu: np.ndarray, T: float, K: int
) -> ObservabilityEstimate:
    """Best observability ratio over the Gram-cancellation ladder.

    Maximizes (sum |c_k| e^(-mu_k T)) / ||sum c_k e^(-mu_k t)||_{L1(0,T)}
    over the near-cancellation solves of the exponential Gram system of
    the leading m exponents, for every m = 1..K, each zero-padded to
    length K, with the L1 norm in closed form between the sum's roots.
    A witness whose computed norm is within its own rounding error of
    zero counts with ratio 0.  The estimate is deterministic, and equals
    the one :func:`blowup_curve` finds at T.  The candidate set for K
    contains the padded set for every smaller K, so the estimate is
    nondecreasing in K.

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
    mu = _leading_exponents(mu, K)
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    ratios, witnesses = _best_witnesses(mu, np.array([T], dtype=float))
    best_c = witnesses[0]
    best_c.setflags(write=False)
    return ObservabilityEstimate(
        T=float(T), lower_bound_C=float(ratios[0]), witness_coeffs=best_c
    )


def blowup_curve(mu: np.ndarray, T_list, K: int) -> BlowupCurve:
    """Observability lower bounds over a decreasing list of horizons.

    Takes the estimate of :func:`estimate_observability_constant` at each
    horizon, with every horizon's witnesses in one batch, forms the
    nonincreasing envelope by running maxima toward small T, and fits the
    slope of log C against 1/T on the three smallest horizons (a positive
    slope reflects the blow-up as T decreases).  The estimator is
    deterministic, so equal inputs give equal curves.

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
    C = _best_witnesses(_leading_exponents(mu, K), T_arr)[0]
    env = np.maximum.accumulate(C)
    small = np.argsort(T_arr)[:3]
    slope = float(np.polyfit(1.0 / T_arr[small], np.log(C[small]), 1)[0])
    C.setflags(write=False)
    env.setflags(write=False)
    T_out = T_arr.copy()
    T_out.setflags(write=False)
    return BlowupCurve(T_values=T_out, C_lower=C, C_envelope=env, slope_fit=slope)


def blowup_curve_to_csv(curve: BlowupCurve, path) -> None:
    """Write a blow-up curve as CSV with header T,C_lower,C_envelope.

    ``path`` is a file name or an open text file; every value is written
    with 17 significant digits, so it reads back exactly.
    """
    data = np.column_stack([curve.T_values, curve.C_lower, curve.C_envelope])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header="T,C_lower,C_envelope", comments="")
