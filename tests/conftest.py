"""Shared fixtures: the case-study discretization and control problems."""

from __future__ import annotations

import importlib.util
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import fracheat as fh

settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def pytest_report_header(config):
    """The thread variables and the threads each loaded OpenBLAS uses: one
    test passes at two BLAS threads and fails at one."""
    path = Path(__file__).resolve().parents[1] / "bench" / "envinfo.py"
    spec = importlib.util.spec_from_file_location("_bench_envinfo", path)
    envinfo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(envinfo)
    env = " ".join(f"{var}={os.environ.get(var)}" for var in envinfo.THREAD_VARS)
    return [f"thread env: {env}", f"blas runtime: {envinfo.blas_runtime()}"]


@pytest.fixture(scope="session")
def grid20():
    return fh.build_grid(20)


@pytest.fixture(scope="session")
def op20_unit(grid20):
    return fh.build_operator(grid20, s=0.8, normalization="unit")


@pytest.fixture(scope="session")
def op20_symbol(grid20):
    return fh.build_operator(grid20, s=0.8, normalization="symbol")


@pytest.fixture(scope="session")
def op400_symbol():
    return fh.build_operator(fh.build_grid(400), s=0.8, normalization="symbol")


@pytest.fixture(scope="session")
def cos_profile(grid20):
    return np.cos(np.pi * grid20.interior_nodes / 2.0)


@pytest.fixture(scope="session")
def prob_case1(op20_unit, cos_profile):
    """First case study: steer 2 cos down to the trajectory of 0.05 cos."""
    return fh.make_problem(
        op20_unit,
        2.0 * cos_profile,
        0.05 * cos_profile,
        uhat=0.2,
        omega=(-0.3, 0.8),
    )


@pytest.fixture(scope="session")
def prob_case2(op20_unit, cos_profile):
    """Second case study: steer 0.5 cos up to the trajectory of 6 cos."""
    return fh.make_problem(
        op20_unit,
        0.5 * cos_profile,
        6.0 * cos_profile,
        uhat=1.0,
        omega=(-0.3, 0.8),
    )


@pytest.fixture(scope="session")
def case1_minimal(prob_case1):
    return fh.minimal_time_search(prob_case1, (0.7, 0.9), tol_T=0.02, n_t=300)


@pytest.fixture(scope="session")
def case2_at_015(prob_case2):
    return fh.solve_constrained_fixed_time(prob_case2, 0.15, 100)


@pytest.fixture(scope="session")
def lumped_diag(op20_unit):
    return np.diag(op20_unit.mass_lumped)


def m_norm(v, m):
    return float(np.sqrt(v @ (m * v)))


def traced(fn):
    """Call fn under tracemalloc: its result, and the bytes it left held
    and at most held at once, counting only what the call allocated."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak
