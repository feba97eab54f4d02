"""Spectral analysis of the discrete fractional Laplacian.

Provides the eigensolve of the stiffness against the lumped mass, the
package's one mass matrix, together with the diagnostics used throughout
the package: gap and summability statistics of the spectrum, L1 lower
bounds of eigenfunctions over a control region, and the eigenvalue law
lambda_k ~ (k pi/2 - (1-s) pi/4)^(2s) of the operator on the interval
(Kwasnicki, J. Funct. Anal. 262, 2012).  scipy.linalg is imported by
:func:`eigendecompose`, its one user here, when it first runs, so that
importing the package loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import DiscreteOperator, _require_s
from .errors import SolverError, _check_count
from .grid import Grid, nodes_in_interval

__all__ = [
    "SpectralBasis",
    "eigendecompose",
    "min_gap",
    "flattening_ratio",
    "l1_lower_bound",
    "lambda_asymptotic",
]

# Columns per block of the eigenpair residual check.
_RESIDUAL_BLOCK = 128


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Sorted eigenpairs of the stiffness against the lumped mass.

    The statistics of this module read every pair a basis holds, so a
    caller picks the pairs by slicing them.  On a coarse grid the top pairs
    track the grid scale rather than the operator: at s = 0.39 on 8 cells
    with the symbol normalization, lambda_6 and lambda_7 lie 5.5e-6 of
    lambda_7 apart.

    Attributes
    ----------
    eigenvalues : ndarray, shape (k_max,)
        Increasing positive eigenvalues.
    eigenvectors : ndarray, shape (n_interior, k_max)
        Columns are discrete eigenfunctions over interior DOFs,
        orthonormal in the lumped mass (h V^T V = I), each signed
        so that its entry of largest magnitude among the first
        (n + 1) // 2 of the n DOFs is positive.  On the symmetric grid
        each mode is even or odd, so over all DOFs an odd mode's largest
        entries are a mirror pair of opposite sign, and roundoff would
        pick between them; the left half, middle DOF included, holds one
        entry of each pair.
    grid : Grid
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    grid: Grid

    @property
    def k_max(self) -> int:
        """Number of retained pairs."""
        return self.eigenvalues.size


def eigendecompose(op: DiscreteOperator, k_max: int | None = None) -> SpectralBasis:
    """Solve the eigenproblem K v = lambda M v with the lumped mass M.

    M = h I, with the mesh size h read from ``op.grid.h``, so with
    d = h^(-1/2) the problem is the standard symmetric one
    d K d w = lambda w, and v = d w.  With k_max below the number of
    interior DOFs only the k_max smallest pairs are computed (``eigh``'s
    ``subset_by_index``), about three times as fast on fine grids.  They
    agree with the leading pairs of the full solve, which
    :attr:`DiscreteOperator.lumped_basis` caches, to roundoff but not bit
    for bit.

    ``eigh`` leaves each eigenvalue with an absolute error of about
    eps lambda_max, whose bits depend on the BLAS thread count.
    For the slow modes, whose e^(-lambda_k T) every solve reads, that is a
    large relative error (8.4e-13 for lambda_1 at n_x = 200).  So each
    lambda_k <= sqrt(lambda_1 * 2 max_i K_ii / h) is replaced by the
    Rayleigh quotient of (d K d)^(-1) at its eigenvector,
    1 / (w_k^T (d K d)^(-1) w_k), with one Cholesky factorization of
    d K d.  Its relative error is about eps lambda_k / lambda_1 (Parlett,
    *The Symmetric Eigenvalue Problem*, SIAM 1998, ch. 4 and 11), against
    eigh's eps lambda_max / lambda_k; the two meet at
    sqrt(lambda_1 lambda_max).  2 max_i K_ii / h bounds lambda_max where K
    is diagonally dominant, as at s = 0.8; elsewhere the cut-off only
    picks which eigenvalues are refined.  That is 3 eigenvalues at
    n_x = 20, 10 at n_x = 200 and 20 at n_x = 800.  The factor is taken
    in the storage that ``eigh`` overwrote, so no second n x n array is
    held.

    Parameters
    ----------
    op : DiscreteOperator
    k_max : int, optional
        Number of leading pairs to keep; defaults to all interior DOFs.

    Returns
    -------
    SpectralBasis
        Eigenvalues increasing, eigenvectors orthonormal in the lumped
        mass, each column signed as :class:`SpectralBasis` states (this
        makes the ground state nonnegative at every interior node).

    Raises
    ------
    ValueError
        If k_max is not an integer in [1, n].
    SolverError
        If the stiffness is not positive definite, or any retained pair
        has relative residual above 1e-8.
    """
    n = op.n_dof
    k_max = n if k_max is None else _check_count("k_max", k_max, maximum=n)
    from scipy.linalg import eigh
    from scipy.linalg.lapack import dpotrf, dpotrs

    K = op.stiffness
    subset = None if k_max == n else [0, k_max - 1]
    h = op.grid.h
    d = 1.0 / np.sqrt(h)
    # d K d is built once, in LAPACK's column-major layout, and
    # overwritten in place
    A = np.multiply(d, K, order="F")
    A *= d
    lam, V = eigh(A, subset_by_index=subset, overwrite_a=True)
    # the slow eigenvalues refined (see above): d K d again, in the
    # storage eigh overwrote, and its Cholesky factor there
    np.multiply(d, K, out=A)
    A *= d
    L, info = dpotrf(A, lower=True, overwrite_a=True, clean=False)
    if info != 0:
        raise SolverError(f"stiffness is not positive definite (dpotrf info {info})")
    r = np.count_nonzero(lam <= np.sqrt(lam[0] * 2.0 * K.diagonal().max() / h))
    x, _ = dpotrs(L, V[:, :r], lower=True)
    lam[:r] = 1.0 / np.einsum("ik,ik->k", V[:, :r], x)
    del A, L, x
    # exactly k_max pairs, stored in C order
    V = np.multiply(d, V, order="C")
    flip = V[np.abs(V[: (n + 1) // 2]).argmax(axis=0), np.arange(k_max)] < 0.0
    V[:, flip] *= -1.0

    # the residual M V diag(lam) - K V, built in the storage of M V one
    # block of columns at a time, so no second n x n array is held beside V
    rel = np.empty(k_max)
    for j in range(0, k_max, _RESIDUAL_BLOCK):
        b = slice(j, j + _RESIDUAL_BLOCK)
        resid = h * V[:, b]
        scale = lam[b] * np.linalg.norm(resid, axis=0)
        resid *= lam[None, b]
        resid -= K @ V[:, b]
        rel[b] = np.linalg.norm(resid, axis=0) / scale
    if rel.max() > 1e-8:
        worst = int(rel.argmax())
        raise SolverError(
            f"generalized eigensolve residual {rel.max():.3e} at k={worst + 1} "
            f"(lambda={lam[worst]:.6g}) exceeds 1e-8"
        )
    lam.setflags(write=False)
    V.setflags(write=False)
    return SpectralBasis(eigenvalues=lam, eigenvectors=V, grid=op.grid)


def min_gap(basis: SpectralBasis) -> float:
    """Smallest consecutive gap among all k_max eigenvalues of the basis,
    the grid-dominated top pairs of a coarse grid included.

    Parameters
    ----------
    basis : SpectralBasis
        Needs k_max >= 3.
    """
    if basis.k_max < 3:
        raise ValueError(f"need k_max >= 3 for gap statistics, got {basis.k_max}")
    return float(np.diff(basis.eigenvalues).min())


def flattening_ratio(basis: SpectralBasis) -> float:
    """Ratio of late to early growth of the reciprocal partial sums.

    Computes (S_80 - S_40) / (S_50 - S_10) where S_K denotes
    sum_{k<=K} 1/lambda_k over the basis's eigenvalues.  Values at or
    below 0.5 indicate the sums are flattening (summable-like spectrum);
    values near or above 1 indicate harmonic-like growth.
    """
    if basis.k_max < 80:
        raise ValueError(f"need partial sums up to K=80, have {basis.k_max}")
    S = np.cumsum(1.0 / basis.eigenvalues)
    return float((S[79] - S[39]) / (S[49] - S[9]))


def l1_lower_bound(basis: SpectralBasis, omega: tuple[float, float]) -> float:
    """Smallest discrete L1 norm over omega among all k_max eigenfunctions
    of the basis, the grid-dominated top pairs of a coarse grid included.

    Each node of omega, as :func:`~fracheat.grid.nodes_in_interval` picks
    them, weighs the lumped mass h, as in every solver.

    Parameters
    ----------
    basis : SpectralBasis
    omega : (float, float)
        Subinterval of [-1, 1] with positive length containing at least
        one interior node.

    Returns
    -------
    float
        min over k <= k_max of h sum_{i in omega} |phi_k(x_i)|.
        Invariant under sign flips of the eigenvectors and monotone in
        omega.

    Raises
    ------
    ValueError
        If omega is not an interval of [-1, 1] or holds no interior node.
    """
    mask = nodes_in_interval(basis.grid, omega)
    if not mask.any():
        raise ValueError(f"interval {omega!r} contains no interior nodes")
    return float(basis.grid.h * np.abs(basis.eigenvectors[mask]).sum(axis=0).min())


def lambda_asymptotic(k, s: float):
    """Asymptotic eigenvalue law mu_k^(2s), accurate to O(1/k).

    mu_k = k pi/2 - (1-s) pi/4 is the half-line frequency; consecutive
    values are spaced exactly pi/2 apart.  Under the symbol normalization
    the k-th eigenvalue approaches mu_k^(2s) with an O(1/k) remainder.
    Accepts scalar or array k >= 1, and s in [0.01, 0.99], checked first.
    """
    s = _require_s(s)
    k = np.asarray(k)
    if not (k >= 1).all():
        raise ValueError("k must be >= 1")
    mu = k * (np.pi / 2.0) - (1.0 - s) * (np.pi / 4.0)
    return (mu if mu.ndim else float(mu)) ** (2.0 * s)
