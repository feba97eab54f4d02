"""fracheat: controlled fractional heat equation on (-1, 1).

P1 finite-element discretization of the fractional Laplacian with
exterior Dirichlet condition, lumped-mass implicit Euler time marching,
which preserves positivity for s above about 0.23, spectral and
observability diagnostics, and control synthesis with nonnegativity
constraints, including minimal-horizon estimation by bisection.  Every
control a solver returns comes with one verdict, a
:class:`FixedTimeOutcome`: its simulated trajectory, terminal residual
and feasibility.
"""

from .assembly import (
    DiscreteOperator,
    assemble_mass,
    assemble_stiffness,
    build_operator,
    normalization_constant,
)
from .config import HorizonMode, ScenarioConfig, parse_config, preset_fields
from .control import (
    AtomicityReport,
    ControlProblem,
    FixedTimeOutcome,
    MinimalTimeReport,
    control_to_csv,
    impulse_analysis,
    make_problem,
    minimal_time_search,
    solve_constrained_fixed_time,
    solve_unconstrained_Linf,
    unconstrained_dual_details,
)
from .dynamics import (
    ControlField,
    Trajectory,
    duhamel_spectral,
    generate_target_trajectory,
    make_control,
    simulate,
    trajectory_to_csv,
)
from .errors import ConfigError, FracheatError, QuadratureError, SolverError
from .grid import Grid, build_grid, nodes_in_interval, trapezoid_weights
from .scenario import ScenarioResult, build_problem_from_config, run_scenario
from .observability import (
    BlowupCurve,
    ExponentialSum,
    ObservabilityEstimate,
    blowup_curve,
    blowup_curve_to_csv,
    estimate_observability_constant,
    l1_norm_exp_sum,
)
from .spectral import (
    GapReport,
    QuasiEigenfunction,
    SpectralBasis,
    G_transform,
    eigendecompose,
    flattening_ratio,
    gamma_density,
    gap_statistics,
    l1_lower_bound,
    lambda_asymptotic,
    mu_value,
    q_profile,
    quasi_eigenfunction,
    spectral_report,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicityReport",
    "BlowupCurve",
    "ConfigError",
    "ControlField",
    "ControlProblem",
    "DiscreteOperator",
    "ExponentialSum",
    "FixedTimeOutcome",
    "FracheatError",
    "G_transform",
    "GapReport",
    "Grid",
    "HorizonMode",
    "MinimalTimeReport",
    "ObservabilityEstimate",
    "QuadratureError",
    "QuasiEigenfunction",
    "ScenarioConfig",
    "ScenarioResult",
    "SolverError",
    "SpectralBasis",
    "Trajectory",
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
    "estimate_observability_constant",
    "flattening_ratio",
    "gamma_density",
    "gap_statistics",
    "generate_target_trajectory",
    "impulse_analysis",
    "l1_lower_bound",
    "l1_norm_exp_sum",
    "lambda_asymptotic",
    "make_control",
    "make_problem",
    "minimal_time_search",
    "mu_value",
    "nodes_in_interval",
    "normalization_constant",
    "parse_config",
    "preset_fields",
    "q_profile",
    "quasi_eigenfunction",
    "run_scenario",
    "simulate",
    "solve_constrained_fixed_time",
    "solve_unconstrained_Linf",
    "spectral_report",
    "trajectory_to_csv",
    "trapezoid_weights",
    "unconstrained_dual_details",
    "__version__",
]
