"""Finite-element assembly for the 1D Dirichlet fractional Laplacian.

The operator is discretized with P1 hat functions on a uniform grid over
(-1, 1), extended by zero outside the interval (exterior Dirichlet
condition).  The bilinear form splits into a principal double integral over
the interval and an exterior mass-like term:

    E(u, v) = (kappa/2) |int int_{(-1,1)^2} (u(x)-u(y)) (v(x)-v(y))
                          / |x-y|^{1+2s} dx dy
              + kappa  int_{-1}^{1} u(x) v(x) rho(x) dx,

    rho(x) = (1/(2s)) [ (1+x)^{-2s} + (1-x)^{-2s} ],

where ``kappa`` is either the Fourier-symbol normalization constant c_s
(so that the operator has symbol |xi|^{2s}) or 1 (the bare Gagliardo form,
the convention used by several published simulations of this problem).

Assembly exploits translation invariance of the uniform grid: the local
interaction block of an element pair depends only on the offset between the
elements, so each block is computed once and scattered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, cached_property

import numpy as np

from .errors import QuadratureError
from .grid import Grid

__all__ = [
    "DiscreteOperator",
    "normalization_constant",
    "assemble_stiffness",
    "assemble_mass",
    "build_operator",
]

S_MIN = 0.01
S_MAX = 0.99

NORMALIZATIONS = ("symbol", "unit")


def _require_s(s: float) -> float:
    s = float(s)
    # Gamma(1-s) blows up near s=1 and conditioning degrades near s=0.
    if not (S_MIN <= s <= S_MAX):
        raise ValueError(f"s must lie in [{S_MIN}, {S_MAX}], got {s}")
    return s


def normalization_constant(s: float) -> float:
    """Fourier-symbol normalization constant of the fractional Laplacian.

    Returns c_s = 2^{2s} s Gamma(s + 1/2) / (sqrt(pi) Gamma(1 - s)), the
    constant under which the singular-integral operator has Fourier symbol
    |xi|^{2s}.  At s = 1/2 this equals 1/pi.

    Parameters
    ----------
    s : float
        Fractional order, restricted to [0.01, 0.99].
    """
    s = _require_s(s)
    return (
        2.0 ** (2.0 * s)
        * s
        * math.gamma(s + 0.5)
        / (math.sqrt(math.pi) * math.gamma(1.0 - s))
    )


@lru_cache(maxsize=None)
def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _same_element_block(s: float, h: float) -> np.ndarray:
    """Interaction of the two hats of one element with itself (exact).

    On a single element every P1 function is affine, so
    u(x)-u(y) = u' (x-y) and the double integral reduces to
    int int |x-y|^{1-2s} = 2 h^{3-2s} / ((2-2s)(3-2s)).
    """
    factor = 2.0 * h ** (1.0 - 2.0 * s) / ((2.0 - 2.0 * s) * (3.0 - 2.0 * s))
    return factor * np.array([[1.0, -1.0], [-1.0, 1.0]])


def _adjacent_block(s: float, h: float, n_quad: int = 8) -> np.ndarray:
    """Interaction block of two elements sharing a node.

    With x = b - h xi, y = b + h eta around the shared node b, the hat
    differences are linear in (xi, eta) and vanish at the singular corner
    xi = eta = 0.  Splitting at xi = eta (Duffy substitution) removes the
    singularity; each half reduces to a smooth 1D integral weighted by
    (1+t)^{-1-2s}, integrated with Gauss-Legendre.  Nodes are ordered
    (left, shared, right); the returned block is one ordered pair's worth.
    """
    t, w = _gauss01(n_quad)
    # xi > eta half: differences evaluated at (1, t); xi < eta half: at (t, 1).
    d_upper = np.stack([np.ones_like(t), t - 1.0, -t])
    d_lower = np.stack([t, 1.0 - t, -np.ones_like(t)])
    kern = w * (1.0 + t) ** (-1.0 - 2.0 * s)
    block = (d_upper * kern) @ d_upper.T + (d_lower * kern) @ d_lower.T
    return h ** (1.0 - 2.0 * s) / (3.0 - 2.0 * s) * block


@lru_cache(maxsize=None)
def _tensor_rule(n_quad: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tensor Gauss rule on the unit square for :func:`_distant_block`.

    Returns read-only nodes xi and eta, weights, and the 4 x n_quad^2
    matrix of the hat differences at the nodes, in the node order
    (e, e+1, e+m, e+m+1).
    """
    t, w = _gauss01(n_quad)
    xi, eta = np.meshgrid(t, t, indexing="ij")
    xi, eta = xi.ravel(), eta.ravel()
    ww = np.outer(w, w).ravel()
    d = np.stack([1.0 - xi, xi, -(1.0 - eta), -eta])
    for a in (xi, eta, ww, d):
        a.setflags(write=False)
    return xi, eta, ww, d


def _distant_block(s: float, h: float, m: int, n_quad: int = 5) -> np.ndarray:
    """Interaction block of two elements separated by offset m >= 2.

    The kernel (m + eta - xi)^{-1-2s} is smooth on the unit square, so a
    small tensor Gauss rule suffices.  Nodes are ordered
    (e, e+1, e+m, e+m+1); the returned block is one ordered pair's worth.
    """
    xi, eta, ww, d = _tensor_rule(n_quad)
    kern = ww * (m + eta - xi) ** (-1.0 - 2.0 * s)
    return h ** (1.0 - 2.0 * s) * ((d * kern) @ d.T)


def _tail_power_integrals(t0: float, t1: float, s: float) -> np.ndarray:
    """I_k = int_{t0}^{t1} t^{k-2s} dt for k = 0, 1, 2 (closed form).

    For k = 0 with s = 1/2 the antiderivative is a logarithm.  When t0 = 0
    and the exponent is negative the integral diverges; the caller only
    multiplies that entry by an exactly-zero coefficient, so it is returned
    as inf and must be masked there.
    """
    out = np.empty(3)
    for k in range(3):
        p = k + 1.0 - 2.0 * s
        if abs(p) < 1e-12:
            out[k] = math.log(t1) - math.log(t0) if t0 > 0.0 else math.inf
        elif t0 == 0.0 and p < 0.0:
            out[k] = math.inf
        else:
            lo = t0 ** p if t0 > 0.0 else 0.0
            out[k] = (t1 ** p - lo) / p
    return out


def _exterior_tail_block(t0: float, h: float, s: float) -> np.ndarray:
    """2x2 block of int psi_a psi_b t^{-2s} dt over one element.

    ``t`` is the distance to one endpoint of (-1, 1); the element occupies
    [t0, t0 + h] in that variable, and local node 0 is the node closer to
    that endpoint (t = t0).  Entries pairing a boundary node (t0 = 0) with
    a divergent moment are produced as inf; callers drop boundary
    rows/columns.
    """
    t1 = t0 + h
    mom = _tail_power_integrals(t0, t1, s)
    # Local node 0 sits at t = t0 with shape (t1 - t)/h; node 1 at t = t1
    # with shape (t - t0)/h.  Expand psi_a psi_b in powers of t.
    coeff = {
        (0, 0): np.array([t1 * t1, -2.0 * t1, 1.0]),
        (0, 1): np.array([-t0 * t1, t0 + t1, -1.0]),
        (1, 1): np.array([t0 * t0, -2.0 * t0, 1.0]),
    }
    block = np.empty((2, 2))
    for (a, b), c in coeff.items():
        val = 0.0
        for k in range(3):
            if c[k] != 0.0:
                val += c[k] * mom[k]
        block[a, b] = block[b, a] = val / (h * h)
    return block


def _check_quadrature(s: float, h: float) -> None:
    """Cross-check the fixed-order rules against refined ones."""
    adj_err = np.max(np.abs(_adjacent_block(s, h, 8) - _adjacent_block(s, h, 16)))
    far = _distant_block(s, h, 2, 5)
    far_err = np.max(np.abs(far - _distant_block(s, h, 2, 10)))
    scale = max(np.max(np.abs(_adjacent_block(s, h, 8))), np.max(np.abs(far)))
    if adj_err > 1e-8 * scale or far_err > 1e-6 * scale:
        raise QuadratureError(
            f"element-pair quadrature failed self-check at s={s}, h={h}: "
            f"adjacent drift {adj_err:.3e}, far drift {far_err:.3e}"
        )


def assemble_stiffness(grid: Grid, s: float, normalization: str = "symbol") -> np.ndarray:
    """Assemble the stiffness matrix of the Dirichlet fractional Laplacian.

    Entries are A_ij = E(psi_i, psi_j) for interior P1 hat functions,
    including the exterior-interaction term (hats are extended by zero
    outside (-1, 1)).

    Parameters
    ----------
    grid : Grid
    s : float
        Fractional order in [0.01, 0.99].
    normalization : {"symbol", "unit"}
        "symbol" multiplies the form by the constant c_s so the operator
        matches the Fourier symbol |xi|^{2s}; "unit" uses the bare form
        (kappa = 1), the convention behind several published simulations.

    Returns
    -------
    ndarray, shape (n_interior, n_interior)
        Symmetric positive-definite matrix over interior DOFs.
    """
    s = _require_s(s)
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {NORMALIZATIONS}")
    n = grid.n_x
    h = grid.h
    _check_quadrature(s, h)

    full = np.zeros((n + 1, n + 1))

    # Same-element and adjacent-pair contributions.
    j0 = _same_element_block(s, h)
    j1 = 2.0 * _adjacent_block(s, h)  # ordered pairs (e,e') and (e',e)
    for e in range(n):
        full[e : e + 2, e : e + 2] += j0
    for e in range(n - 1):
        full[e : e + 3, e : e + 3] += j1

    # Disjoint pairs, one offset at a time (blocks depend only on offset).
    # For fixed m and block entry (a, b), the element pairs e = 0 .. n-m-1
    # hit the distinct cells (e + oa, e + ob) of one diagonal: in the
    # flattened matrix a stride of n + 2 from oa (n + 1) + ob, so one
    # in-place add on a strided view adds exactly what a scatter would.
    flat = full.reshape(-1)
    for m in range(2, n):
        jm = 2.0 * _distant_block(s, h, m)
        offsets = (0, 1, m, m + 1)
        stop = (n - m) * (n + 2)
        for a in range(4):
            for b in range(4):
                start = offsets[a] * (n + 1) + offsets[b]
                flat[start : start + stop : n + 2] += jm[a, b]

    full *= 0.5

    # Exterior term: kappa * int u v rho with both tails, element by element.
    # The right tail of element e is the left tail of element n - 1 - e with
    # its local nodes swapped.
    inv2s = 1.0 / (2.0 * s)
    tails = [_exterior_tail_block(e * h, h, s) for e in range(n)]
    for e in range(n):
        left, right = tails[e], tails[n - 1 - e][::-1, ::-1]
        for a in range(2):
            ga = e + a
            if ga == 0 or ga == n:
                continue
            for b in range(2):
                gb = e + b
                if gb == 0 or gb == n:
                    continue
                full[ga, gb] += inv2s * (left[a, b] + right[a, b])

    A = full[1:n, 1:n].copy()
    if normalization == "symbol":
        A *= normalization_constant(s)
    return A


def assemble_mass(grid: Grid, lumped: bool = False) -> np.ndarray:
    """Assemble the dense P1 mass matrix over interior DOFs.

    The consistent matrix is tridiagonal with diagonal 2h/3 and
    off-diagonal h/6; row-sum lumping collapses it to the diagonal h.
    :class:`DiscreteOperator` stores neither: it keeps the lumped
    diagonal and builds these dense matrices only when one is read.  The
    consistent matrix is laid out in Fortran order, the layout LAPACK
    works in, so a generalized eigensolve can overwrite it in place.
    """
    n_i = grid.n_interior
    h = grid.h
    if lumped:
        return np.diag(np.full(n_i, h))
    M = np.zeros((n_i, n_i), order="F")
    idx = np.arange(n_i)
    M[idx, idx] = 2.0 * h / 3.0
    M[idx[:-1], idx[:-1] + 1] = h / 6.0
    M[idx[:-1] + 1, idx[:-1]] = h / 6.0
    return M


@dataclass
class DiscreteOperator:
    """Discrete fractional Laplacian with its mass matrices.

    The stiffness is the one dense n x n array the operator stores.  The
    lumped mass is stored as its diagonal, which every solver reads.  The
    dense mass matrices are built from the grid on each read of
    :attr:`mass` and :attr:`mass_lumped`; in the package only the
    consistent eigensolve reads one, and LAPACK overwrites it there.
    :meth:`mass_times` applies the consistent mass without building it.

    Attributes
    ----------
    grid : Grid
    s : float
        Fractional order.
    normalization : str
        "symbol" or "unit"; see :func:`assemble_stiffness`.  A "unit"
        stiffness times :func:`normalization_constant` is the "symbol" one.
    stiffness : ndarray, shape (n_interior, n_interior)
        Stiffness matrix over interior DOFs.
    mass_lumped_diag : ndarray, shape (n_interior,)
        Read-only diagonal of the lumped mass, h at every interior DOF.
    """

    grid: Grid
    s: float
    normalization: str
    stiffness: np.ndarray = field(repr=False)
    mass_lumped_diag: np.ndarray = field(repr=False)

    @property
    def n_dof(self) -> int:
        return self.grid.n_interior

    @property
    def mass(self) -> np.ndarray:
        """Dense consistent mass matrix, built on each read."""
        return assemble_mass(self.grid, lumped=False)

    @property
    def mass_lumped(self) -> np.ndarray:
        """Dense lumped mass matrix, built on each read."""
        return assemble_mass(self.grid, lumped=True)

    def mass_times(self, X: np.ndarray) -> np.ndarray:
        """Consistent mass times X, a new array, from the mass's three diagonals."""
        h = self.grid.h
        out = (2.0 * h / 3.0) * X
        out[:-1] += (h / 6.0) * X[1:]
        out[1:] += (h / 6.0) * X[:-1]
        return out

    @cached_property
    def positivity_preserving(self) -> bool:
        """True iff the stiffness has no positive off-diagonal entry.

        Then M_lumped + dt K is a symmetric positive definite Z-matrix,
        hence an M-matrix, for every dt > 0, so each lumped implicit Euler
        step (M_lumped + dt K)^{-1} M_lumped is entrywise nonnegative and
        nonnegative data and controls keep every state nonnegative.  The
        assembled stiffness has this sign pattern for s above about 0.23;
        for smaller s its adjacent off-diagonals are positive and the step
        can turn nonnegative data negative.
        """
        return bool((np.triu(self.stiffness, 1) <= 0.0).all())

    @cached_property
    def lumped_basis(self):
        """All generalized eigenpairs of (stiffness, lumped mass).

        A :class:`~fracheat.spectral.SpectralBasis`, mass-orthonormal and
        residual-checked.  Every lumped implicit Euler step is diagonal in
        it, whatever the time step, so it is computed once per operator.
        """
        from .spectral import eigendecompose

        return eigendecompose(self, mass_kind="lumped")


def build_operator(grid: Grid, s: float, normalization: str = "symbol") -> DiscreteOperator:
    """Assemble a :class:`DiscreteOperator`: its stiffness and lumped mass diagonal."""
    s = _require_s(s)
    mass_lumped_diag = np.full(grid.n_interior, grid.h)
    mass_lumped_diag.setflags(write=False)
    return DiscreteOperator(
        grid=grid,
        s=s,
        normalization=normalization,
        stiffness=assemble_stiffness(grid, s, normalization),
        mass_lumped_diag=mass_lumped_diag,
    )
