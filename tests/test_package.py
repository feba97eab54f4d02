"""The package's public surface: one export list, built from the modules'."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import fracheat as fh

MODULES = (
    "assembly",
    "config",
    "control",
    "dynamics",
    "errors",
    "grid",
    "observability",
    "scenario",
    "spectral",
)

FROZEN_ALL = [
    "BlowupCurve",
    "ConfigError",
    "ControlField",
    "ControlProblem",
    "DiscreteOperator",
    "FixedTimeOutcome",
    "FracheatError",
    "Grid",
    "HorizonMode",
    "MinimalTimeReport",
    "ScenarioConfig",
    "SolverError",
    "SpectralBasis",
    "Trajectory",
    "__version__",
    "assemble_stiffness",
    "blowup_curve",
    "blowup_curve_to_csv",
    "build_grid",
    "build_operator",
    "build_problem_from_config",
    "control_to_csv",
    "duhamel_spectral",
    "eigendecompose",
    "flattening_ratio",
    "generate_target_trajectory",
    "impulse_analysis",
    "l1_lower_bound",
    "l1_norm_exp_sum",
    "lambda_asymptotic",
    "make_control",
    "min_gap",
    "minimal_time_search",
    "nodes_in_interval",
    "normalization_constant",
    "parse_config",
    "run_scenario",
    "simulate",
    "solve_constrained_fixed_time",
    "solve_unconstrained_Linf",
    "trajectory_to_csv",
    "unconstrained_dual_details",
]


def test_package_all_is_the_union_of_the_modules():
    assert len(fh.__all__) == len(set(fh.__all__))
    union = {"__version__"}
    for short in MODULES:
        mod = importlib.import_module(f"fracheat.{short}")
        # every public function and class a module defines is in its list,
        # and the package binds each listed name to the module's object
        defined = {
            name
            for name, value in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == mod.__name__
        }
        assert defined == set(mod.__all__), short
        for name in mod.__all__:
            assert getattr(fh, name) is getattr(mod, name)
        union.update(mod.__all__)
    assert set(fh.__all__) == union
    assert sorted(fh.__all__) == FROZEN_ALL


ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_has_a_reader():
    # a public name is read by the package, a demo, the benchmark or an
    # acceptance criterion.  Its definition and its __all__ string are not
    # reads, and the unit tests do not count: a name only they call is code
    # that nothing needs
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").rglob("*.py")]
    bench_tests = ROOT / "bench" / "tests"
    files += [f for f in (ROOT / "bench").rglob("*.py") if bench_tests not in f.parents]
    files.append(ROOT / "tests" / "test_acceptance.py")
    read = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"), filename=str(f))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(set(fh.__all__) - read - {"__version__"}) == []


def _case1():
    """The first case study at n_x = 10, built from scratch."""
    grid = fh.build_grid(10)
    op = fh.build_operator(grid, s=0.8, normalization="unit")
    c = np.cos(np.pi * grid.interior_nodes / 2.0)
    return fh.ControlProblem(op, 2.0 * c, 0.05 * c, uhat=0.2, omega=(-0.3, 0.8))


# every record that holds an array, directly or through another record,
# built by the package's own builders and solvers
ARRAY_RECORDS = {
    "Grid": lambda: fh.build_grid(10),
    "DiscreteOperator": lambda: _case1().op,
    "SpectralBasis": lambda: fh.eigendecompose(_case1().op),
    "Trajectory": lambda: _case1().target_at(0.5, 20),
    "ControlField": lambda: fh.make_control(fh.build_grid(10), (-0.3, 0.8), 20, 0.1),
    "ControlProblem": _case1,
    "FixedTimeOutcome": lambda: fh.solve_constrained_fixed_time(_case1(), 0.9, 20),
    "MinimalTimeReport": lambda: fh.minimal_time_search(_case1(), (0.7, 1.5), 1.0, 20),
    "BlowupCurve": lambda: fh.blowup_curve(np.arange(1.0, 5.0), [2.0, 0.5]),
}


@pytest.mark.parametrize("name", sorted(ARRAY_RECORDS))
def test_array_records_compare_and_hash_by_identity(name):
    a, b = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert type(a) is getattr(fh, name)
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2


# each record's fields are its inputs; every other attribute is derived
RECORD_FIELDS = {
    "Grid": ("n_x",),
    "DiscreteOperator": ("grid", "s", "stiffness"),
    "Trajectory": ("T", "states"),
    "MinimalTimeReport": ("history", "bases", "outcome"),
    "BlowupCurve": ("T_values", "C_lower", "witnesses"),
}


@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_records_store_only_their_inputs(name):
    assert tuple(f.name for f in dataclasses.fields(getattr(fh, name))) == RECORD_FIELDS[name]


# every count argument, reached through its public function at n_x = 10:
# the name its error gives, its least valid value, and the call
COUNT_ARGUMENTS = {
    "Grid": ("n_x", 2, lambda prob, n: fh.Grid(n)),
    "build_grid": ("n_x", 2, lambda prob, n: fh.build_grid(n)),
    "simulate": ("n_t", 1, lambda prob, n: fh.simulate(prob.op, prob.z0, None, 0.5, n)),
    "make_control": ("n_t", 1, lambda prob, n: fh.make_control(prob.op.grid, prob.omega, n, 0.1)),
    "eigendecompose": ("k_max", 1, lambda prob, n: fh.eigendecompose(prob.op, k_max=n)),
    "solve_constrained_fixed_time": (
        "max_iter", 1, lambda prob, n: fh.solve_constrained_fixed_time(prob, 0.9, 20, max_iter=n)
    ),
}


def _work_started(*args, **kwargs):
    raise AssertionError("work started before the count was checked")


@pytest.mark.parametrize("function", sorted(COUNT_ARGUMENTS))
def test_every_count_is_an_integer_checked_before_any_work(function, monkeypatch):
    name, least, call = COUNT_ARGUMENTS[function]
    prob = _case1()
    # a refused count starts no eigensolve
    monkeypatch.setattr("scipy.linalg.eigh", _work_started)
    for bad in (least - 1, 2.5, True, np.float64(2.0)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(prob, bad)
    monkeypatch.undo()
    call(prob, np.int64(least))
