"""Grid construction, interval masks, and quadrature weights."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import fracheat as fh


def test_build_grid_basic():
    g = fh.build_grid(20)
    assert g.n_x == 20
    assert g.h == pytest.approx(0.1)
    assert g.n_interior == 19
    assert g.nodes[0] == -1.0
    assert g.nodes[-1] == 1.0
    assert np.allclose(np.diff(g.nodes), g.h)
    assert g.interior_nodes[0] == pytest.approx(-0.9)
    assert g.interior_nodes[-1] == pytest.approx(0.9)


def test_build_grid_rejects_tiny():
    with pytest.raises(ValueError, match="n_x"):
        fh.build_grid(1)


def test_nodes_are_read_only():
    g = fh.build_grid(10)
    with pytest.raises(ValueError):
        g.nodes[0] = 0.0


@pytest.mark.parametrize("n_x", [2, 3, 20, 800])
def test_nodes_are_derived_from_the_cell_count(n_x):
    # the grid stores n_x only; its nodes are computed once, read-only,
    # bit for bit the formula with the endpoints pinned
    g = fh.Grid(n_x)
    expected = -1.0 + 2.0 * np.arange(n_x + 1) / n_x
    expected[0], expected[-1] = -1.0, 1.0
    assert g.nodes is g.nodes and not g.nodes.flags.writeable
    assert g.nodes.tobytes() == expected.tobytes()
    assert g.h == 2.0 / n_x
    assert g.interior_nodes.tobytes() == expected[1:-1].tobytes()


@given(st.integers(min_value=2, max_value=200))
def test_grid_symmetry(n_x):
    g = fh.build_grid(n_x)
    assert np.allclose(g.nodes + g.nodes[::-1], 0.0, atol=1e-15)
    assert len(g.nodes) == n_x + 1


def test_nodes_in_interval_case_region():
    g = fh.build_grid(20)
    mask = fh.nodes_in_interval(g, (-0.3, 0.8))
    x = g.interior_nodes
    assert mask.dtype == bool
    assert mask.sum() == 12
    assert np.all(x[mask] >= -0.3 - 1e-12)
    assert np.all(x[mask] <= 0.8 + 1e-12)
    with pytest.raises(ValueError, match=r"^interval must satisfy -1 <= lo < hi <= 1"):
        fh.nodes_in_interval(g, (0.5, 0.2))


def test_trapezoid_weights_full_interval():
    g = fh.build_grid(40)
    w = fh.trapezoid_weights(g, (-1.0, 1.0))
    # interpolants vanish at the boundary, so the constant 1 integrates
    # to the interval length minus one cell
    assert w.sum() == pytest.approx(2.0 - g.h, rel=1e-12)


def test_trapezoid_weights_aligned_interior_interval_exact():
    g = fh.build_grid(20)
    w = fh.trapezoid_weights(g, (-0.3, 0.5))
    # node-aligned interior interval: trapezoid rule integrates 1 exactly
    assert w.sum() == pytest.approx(0.8, rel=1e-12)
    with pytest.raises(ValueError, match=r"^interval \(0.51, 0.54\) contains no interior nodes"):
        fh.trapezoid_weights(g, (0.51, 0.54))


@given(
    st.integers(min_value=4, max_value=80),
    st.floats(min_value=-0.95, max_value=0.4),
    st.floats(min_value=0.05, max_value=0.5),
    st.sampled_from(["free", "nodes", "left_domain_end", "right_domain_end"]),
)
def test_trapezoid_weights_measure_subinterval(n_x, a, length, ends):
    b = min(a + length, 0.95)
    g = fh.build_grid(n_x)
    if ends == "nodes":
        # -1 + i h lands on node i up to roundoff
        a, b = (min(-1.0 + round((v + 1.0) / g.h) * g.h, 1.0) for v in (a, b))
    elif ends == "left_domain_end":
        a = -1.0
    elif ends == "right_domain_end":
        b = 1.0
    assume(a < b)
    mask = fh.nodes_in_interval(g, (a, b))
    assume(mask.any())
    w = fh.trapezoid_weights(g, (a, b))
    assert w.shape == (g.n_interior,)
    assert np.all(w >= 0)
    # nodal trapezoid rule integrates the constant 1 up to cut cells
    assert abs(w.sum() - (b - a)) <= 2 * g.h
    # the weights live on the mask; a free-ended interval may also hold a
    # lone node with no neighbour in it, which gets no weight
    if ends == "free":
        assert not w[~mask].any()
    else:
        assert np.array_equal(w > 0, mask)


def test_trapezoid_weights_monotone_in_interval():
    g = fh.build_grid(20)
    w_small = fh.trapezoid_weights(g, (-0.2, 0.2))
    w_big = fh.trapezoid_weights(g, (-0.6, 0.6))
    assert np.all(w_big >= w_small - 1e-15)
