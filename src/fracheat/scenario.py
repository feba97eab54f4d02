"""Scenario orchestration: wire a config through the solvers to files.

``run_scenario`` builds the discrete operator, generates the target
trajectory, runs either a fixed-horizon solve or a minimal-time
bisection, and writes three artifacts into the output directory:

* ``trajectory.csv``   controlled state, long format ``t,x,z``
* ``control.csv``      synthesized control, long format ``t,x,u``
* ``summary.json``     resolved config, spectral data, solve outcome

With ``emit_plots`` it also writes three self-contained plot scripts
(state evolution, control heatmap, impulse map) that render the CSV and
JSON artifacts with matplotlib; no rendering happens during the run.

Two runs with the same config produce byte-identical ``summary.json``
except for the ``wall_time_seconds`` entry.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import build_operator
from .config import ScenarioConfig
from .control import (
    AtomicityReport,
    ControlProblem,
    control_to_csv,
    impulse_analysis,
    make_problem,
    minimal_time_search,
    solve_constrained_fixed_time,
    solve_unconstrained_Linf,
)
from .dynamics import trajectory_to_csv
from .errors import ConfigError
from .grid import build_grid
from .spectral import eigendecompose, gap_statistics, l1_lower_bound

__all__ = [
    "ScenarioResult",
    "run_scenario",
    "build_problem_from_config",
]


@dataclass(frozen=True)
class ScenarioResult:
    """Artifacts of one scenario run.

    Attributes
    ----------
    summary : dict
        The content written to summary.json.
    output_dir : Path
        Directory the files were written into.
    files : tuple of str
        Names of the files written, in write order.
    """

    summary: dict
    output_dir: Path
    files: tuple[str, ...]


def _cosine_profile(grid) -> np.ndarray:
    return np.cos(np.pi * grid.interior_nodes / 2.0)


def build_problem_from_config(config: ScenarioConfig) -> ControlProblem:
    """Instantiate the control problem a config describes.

    The initial datum and the target's initial datum are cosine profiles
    scaled by the configured amplitudes.

    Parameters
    ----------
    config : ScenarioConfig

    Returns
    -------
    ControlProblem

    Raises
    ------
    ConfigError
        When constraints.nonneg_state is true and the assembled operator
        is not positivity-preserving.
    """
    grid = build_grid(config.n_x)
    op = build_operator(grid, s=config.s, normalization=config.normalization)
    if config.nonneg_state and not op.positivity_preserving:
        raise ConfigError(
            "constraints.nonneg_state: needs a positivity-preserving operator, "
            f"but s = {config.s} gives positive off-diagonal stiffness entries"
        )
    profile = _cosine_profile(grid)
    return make_problem(
        op,
        config.z0_amplitude * profile,
        config.zhat0_amplitude * profile,
        uhat=config.uhat,
        omega=config.omega,
        nonneg_state=config.nonneg_state,
    )


def _atomicity_dict(report: AtomicityReport) -> dict:
    return {
        "total_mass": report.total_mass,
        "active_cell_fraction": report.active_cell_fraction,
        "top_impulses": [
            {"x": imp[0], "t": imp[1], "mass": imp[2]} for imp in report.top_impulses
        ],
    }


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Run one scenario and write its artifacts.

    Parameters
    ----------
    config : ScenarioConfig
        Fully resolved configuration, e.g. from :func:`parse_config`.

    Returns
    -------
    ScenarioResult

    Raises
    ------
    ConfigError
        Minimal-time mode with the control nonnegativity constraint
        disabled (the searched-for transition does not exist then), or
        the state constraint with an operator that cannot keep it.
    SolverError
        Propagated from the bisection when the bracket is invalid or the
        probe budget is exhausted.
    OSError
        When the output directory or a file cannot be written.
    """
    t_start = time.perf_counter()
    # claim the output directory before solving so I/O problems surface
    # in milliseconds, not after a long bisection
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    problem = build_problem_from_config(config)
    op = problem.op
    grid = op.grid

    k_max = min(8, op.n_dof)
    basis = eigendecompose(op, k_max=k_max)

    summary: dict = {
        "resolved_config": config.to_dict(),
        "lambda": basis.eigenvalues.tolist(),
        "min_gap": gap_statistics(basis).min_gap,
        "beta_hat": l1_lower_bound(basis, config.omega),
    }

    if config.horizon.kind == "fixed":
        T = config.horizon.T
        if config.nonneg_control:
            outcome = solve_constrained_fixed_time(problem, T, config.n_t)
            summary["iterations"] = outcome.iterations
            summary["basis"] = outcome.basis
        else:
            outcome = solve_unconstrained_Linf(problem, T, config.n_t)
        summary["final_residual"] = outcome.final_residual
    else:
        if not config.nonneg_control:
            raise ConfigError(
                "constraints.nonneg_control: minimal_time mode requires the "
                "control nonnegativity constraint (without it every horizon "
                "is feasible and no transition exists)"
            )
        report = minimal_time_search(
            problem, config.horizon.bracket, config.horizon.tol, config.n_t
        )
        T, outcome = report.T_hi, report.outcome
        summary["T_min_estimate"] = report.T_min_estimate
        summary["T_lo"] = report.T_lo
        summary["T_hi"] = report.T_hi
        summary["history"] = [
            {"T": probe_T, "feasible": ok, "residual": res, "basis": basis}
            for (probe_T, ok, res), basis in zip(report.history, report.bases)
        ]

    control, traj = outcome.control, outcome.trajectory
    summary["feasible"] = outcome.feasible
    summary["atomicity"] = _atomicity_dict(
        impulse_analysis(control, dt=T / config.n_t, dx=grid.h)
    )

    files: list[str] = []

    trajectory_to_csv(traj, grid, outdir / "trajectory.csv")
    files.append("trajectory.csv")

    control_to_csv(control, grid, T, outdir / "control.csv")
    files.append("control.csv")

    if config.emit_plots:
        for name, text in _plot_scripts().items():
            (outdir / name).write_text(text, encoding="utf-8")
            files.append(name)

    summary["wall_time_seconds"] = time.perf_counter() - t_start
    with open(outdir / "summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    files.append("summary.json")

    return ScenarioResult(summary=summary, output_dir=outdir, files=tuple(files))


# one space-time heatmap script per CSV artifact
_PLOT_HEATMAP = '''\
"""Render {what} from {csv_name} as a space-time {kind}."""
import csv
import os
import sys

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

here = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.abspath(__file__))
rows = list(csv.DictReader(open(os.path.join(here, "{csv_name}"))))
t = np.array([float(r["t"]) for r in rows])
x = np.array([float(r["x"]) for r in rows])
{col} = np.array([float(r["{col}"]) for r in rows])
ts, xs = np.unique(t), np.unique(x)
grid = {col}.reshape(len(ts), len(xs))
fig, ax = plt.subplots(figsize=(7, 4))
pc = ax.pcolormesh(ts, xs, grid.T, shading="nearest", cmap="{cmap}")
fig.colorbar(pc, ax=ax, label="{col}(t, x)")
ax.set_xlabel("t")
ax.set_ylabel("x")
ax.set_title("{title}")
fig.tight_layout()
fig.savefig(os.path.join(here, "{stem}.png"), dpi=150)
print("wrote {stem}.png")
'''

_PLOT_IMPULSE = '''\
"""Render the dominant control impulses from summary.json."""
import json
import os
import sys

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.abspath(__file__))
summary = json.load(open(os.path.join(here, "summary.json")))
atom = summary["atomicity"]
imps = atom["top_impulses"]
fig, ax = plt.subplots(figsize=(6, 4))
if imps:
    biggest = max(imp["mass"] for imp in imps)
    sizes = [600.0 * imp["mass"] / biggest for imp in imps]
    ax.scatter([imp["t"] for imp in imps], [imp["x"] for imp in imps],
               s=sizes, c="crimson", alpha=0.8, edgecolors="black")
ax.set_xlabel("t")
ax.set_ylabel("x")
ax.set_title(
    "dominant impulses (active fraction %.3f)" % atom["active_cell_fraction"]
)
fig.tight_layout()
fig.savefig(os.path.join(here, "impulse_map.png"), dpi=150)
print("wrote impulse_map.png")
'''


# the fields of _PLOT_HEATMAP for the state and the control
_HEATMAPS = (
    dict(stem="state_evolution", what="the state evolution", kind="map",
         csv_name="trajectory.csv", col="z", cmap="viridis", title="controlled state evolution"),
    dict(stem="control_heatmap", what="the control", kind="heatmap",
         csv_name="control.csv", col="u", cmap="magma", title="control heatmap"),
)


def _plot_scripts() -> dict[str, str]:
    scripts = {f"plot_{h['stem']}.py": _PLOT_HEATMAP.format(**h) for h in _HEATMAPS}
    scripts["plot_impulse_map.py"] = _PLOT_IMPULSE
    return scripts
