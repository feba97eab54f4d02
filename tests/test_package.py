"""The package's public surface: one export list, built from the modules'."""

from __future__ import annotations

import importlib
import inspect

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
    "G_transform",
    "GapReport",
    "Grid",
    "HorizonMode",
    "MinimalTimeReport",
    "QuadratureError",
    "QuasiEigenfunction",
    "ScenarioConfig",
    "ScenarioResult",
    "SolverError",
    "SpectralBasis",
    "Trajectory",
    "__version__",
    "assemble_mass",
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
    "gamma_density",
    "gap_statistics",
    "generate_target_trajectory",
    "impulse_analysis",
    "l1_lower_bound",
    "l1_norm_exp_sum",
    "lambda_asymptotic",
    "make_control",
    "minimal_time_search",
    "mu_value",
    "nodes_in_interval",
    "normalization_constant",
    "parse_config",
    "q_profile",
    "quasi_eigenfunction",
    "run_scenario",
    "simulate",
    "solve_constrained_fixed_time",
    "solve_unconstrained_Linf",
    "trajectory_to_csv",
    "trapezoid_weights",
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
