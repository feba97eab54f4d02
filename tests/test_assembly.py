"""Stiffness and mass assembly against closed-form oracle values.

The frozen stiffness energies come from tests/oracles/
stiffness_symbol_oracle.py, which evaluates the Fourier-side closed form
of the hat-function energy with 50-digit arithmetic.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import fracheat as fh
from conftest import traced

# (s, n_x, |i-j|) -> E(psi_i, psi_j); regenerate with the oracle script
FROZEN_STIFFNESS = {
    (0.8, 20, 0): 5.3915622623067277,
    (0.8, 20, 1): -2.1777914752552834,
    (0.8, 20, 2): -0.34931182936072043,
    (0.8, 20, 5): -0.017314926632417458,
    (0.8, 20, 17): -0.00067682643289993829,
    (0.55, 20, 0): 1.1796834959735058,
    (0.55, 20, 3): -0.047322841647614604,
    (0.4, 10, 0): 0.57552389512871105,
    (0.4, 10, 2): -0.080033701645040404,
    (0.95, 10, 1): -3.6533211172452199,
    (0.5, 20, 0): 0.88254240061060637,
    (0.5, 20, 4): -0.02127031863122254,
    # the ends and the middle of the range of s: the fixed element-pair
    # rules are checked here, not on every assembly, since their error
    # depends on s alone (each block scales as h^(1-2s)) and is largest
    # at s = 0.99
    (0.01, 10, 0): 0.13737017462999074,
    (0.01, 10, 1): 0.032732925593881952,
    (0.01, 10, 2): -0.001126390897256819,
    (0.2, 10, 0): 0.26117769134857943,
    (0.2, 10, 1): 0.0093167438576485576,
    (0.2, 10, 2): -0.029057342316369902,
    (0.99, 10, 0): 9.4711271989829478,
    (0.99, 10, 1): -4.6944757754616395,
    (0.99, 10, 2): -0.032139287396339783,
}


@pytest.mark.parametrize("key", list(FROZEN_STIFFNESS))
def test_stiffness_matches_fourier_oracle(key):
    s, n_x, offset = key
    g = fh.build_grid(n_x)
    K = fh.assemble_stiffness(g, s=s, normalization="symbol")
    i = g.n_interior // 2
    if i + offset < g.n_interior:
        j = i + offset
    else:
        i, j = 0, offset
    assert K[i, j] == pytest.approx(FROZEN_STIFFNESS[key], rel=5e-6)


def test_stiffness_translation_invariance():
    # the energy of two zero-extended hats depends only on their distance,
    # up to the quadrature error of the singular-kernel tail integrals
    g = fh.build_grid(20)
    K = fh.assemble_stiffness(g, s=0.8, normalization="symbol")
    for off in (0, 1, 3):
        vals = np.array([K[i, i + off] for i in range(g.n_interior - off)])
        assert np.ptp(vals) <= 1e-6 * abs(vals[0])


def test_stiffness_symmetric_positive_definite():
    g = fh.build_grid(16)
    K = fh.assemble_stiffness(g, s=0.6, normalization="symbol")
    assert np.allclose(K, K.T, atol=1e-14)
    assert np.linalg.eigvalsh(K).min() > 0


def test_normalization_constant_closed_form():
    # c_s = 2^(2s) s Gamma(s + 1/2) / (sqrt(pi) Gamma(1 - s))
    for s in (0.3, 0.5, 0.8):
        expected = (
            2.0 ** (2 * s)
            * s
            * math.gamma(s + 0.5)
            / (math.sqrt(math.pi) * math.gamma(1.0 - s))
        )
        assert fh.normalization_constant(s) == pytest.approx(expected, rel=1e-14)
    assert fh.normalization_constant(0.8) == pytest.approx(0.26747969093097512)
    # s = 1/2 collapses to 1/pi
    assert fh.normalization_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_unit_normalization_rescales_stiffness():
    g = fh.build_grid(12)
    K_sym = fh.assemble_stiffness(g, s=0.8, normalization="symbol")
    K_unit = fh.assemble_stiffness(g, s=0.8, normalization="unit")
    c = fh.normalization_constant(0.8)
    assert np.allclose(K_unit * c, K_sym, rtol=1e-13)
    with pytest.raises(ValueError, match=r"^normalization must be one of \('symbol', 'unit'\)"):
        fh.assemble_stiffness(g, s=0.8, normalization="weird")
    # no library default: a caller states the normalization it means
    for build in (fh.assemble_stiffness, fh.build_operator):
        with pytest.raises(TypeError, match="normalization"):
            build(g, s=0.8)


def test_mass_matrices():
    # row-sum lumping gives each interior node the integral of its hat, h
    op = fh.build_operator(fh.build_grid(10), s=0.8, normalization="symbol")
    n, h = op.n_dof, op.grid.h
    assert op.mass_lumped.shape == (n, n)
    assert np.array_equal(op.mass_lumped, np.diag(np.full(n, h)))


def test_build_operator_bundles_consistently(op20_symbol):
    g = op20_symbol.grid
    assert op20_symbol.n_dof == g.n_interior
    assert np.array_equal(op20_symbol.mass_lumped, np.diag(np.full(g.n_interior, g.h)))
    assert op20_symbol.s == 0.8


def test_operator_holds_one_dense_matrix():
    # the mass is stored as its diagonal: only the stiffness is n x n,
    # and it is assembled in its own buffer with no second copy
    fh.build_operator(fh.build_grid(8), s=0.8, normalization="symbol")  # fills the quadrature caches
    op, held, peak = traced(
        lambda: fh.build_operator(fh.build_grid(400), s=0.8, normalization="symbol")
    )
    assert held <= 1.1 * 8.0 * op.n_dof ** 2
    assert peak <= 1.2 * 8.0 * op.n_dof ** 2


def test_operator_is_frozen():
    # the cached basis and sign test are computed from the stiffness once,
    # so neither the stiffness nor any field may change after that
    op = fh.build_operator(fh.build_grid(10), s=0.8, normalization="symbol")
    lam1 = op.lumped_basis.eigenvalues[0]
    assert op.lumped_basis is op.lumped_basis and op.positivity_preserving
    assert not op.stiffness.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        op.stiffness *= 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.s = 0.3
    assert op.s == 0.8 and op.lumped_basis.eigenvalues[0] == lam1


def test_operator_checks_its_inputs_however_built(op20_unit):
    grid20, K20 = op20_unit.grid, op20_unit.stiffness
    with pytest.raises(ValueError, match=r"^s must lie in \[0.01, 0.99\], got 1.5$"):
        fh.DiscreteOperator(grid20, 1.5, K20)
    # a stiffness of another grid's size
    with pytest.raises(ValueError, match=r"^stiffness must be a \(9, 9\) ndarray, got \(19, 19\)$"):
        fh.DiscreteOperator(fh.build_grid(10), 0.8, K20)
    # a writable stiffness could change under the cached basis
    with pytest.raises(ValueError, match="^stiffness must be read-only$"):
        fh.DiscreteOperator(grid20, 0.8, K20.copy())
    op = fh.DiscreteOperator(grid20, np.float64(0.8), K20)
    assert type(op.s) is float and op.stiffness is K20


def test_build_operator_rejects_bad_s():
    g = fh.build_grid(8)
    with pytest.raises(ValueError, match="s"):
        fh.build_operator(g, s=1.2, normalization="symbol")
    with pytest.raises(ValueError, match="s"):
        fh.build_operator(g, s=0.0, normalization="symbol")
