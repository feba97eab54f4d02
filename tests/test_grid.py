"""Grid construction and interval masks."""

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
    # bit for bit the formula, which gives the endpoints exactly
    g = fh.Grid(n_x)
    expected = -1.0 + 2.0 * np.arange(n_x + 1) / n_x
    assert expected[0] == -1.0 and expected[-1] == 1.0
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


@given(
    st.integers(min_value=4, max_value=80),
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=1, max_value=80),
)
def test_nodes_in_interval_holds_its_end_nodes(n_x, i, length):
    # ends computed as -1 + i h land on nodes i and j up to roundoff, and
    # the mask holds both of them when they are interior
    i = min(i, n_x - 1)
    j = min(i + length, n_x)
    g = fh.build_grid(n_x)
    a, b = (-1.0 + k * g.h for k in (i, j))
    assume(-1.0 <= a < b <= 1.0)
    k = np.arange(1, n_x)
    assert np.array_equal(fh.nodes_in_interval(g, (a, b)), (k >= i) & (k <= j))
