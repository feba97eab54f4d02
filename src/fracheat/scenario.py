"""Scenario orchestration: wire a config through the solvers to files.

``run_scenario`` builds the discrete operator, generates the target
trajectory, runs either a fixed-horizon solve or a minimal-time
bisection, and writes three artifacts into the output directory:

* ``trajectory.csv``   controlled state, long format ``t,x,z``
* ``control.csv``      synthesized control, long format ``t,x,u``
* ``summary.json``     resolved config, spectral data, solve outcome

With ``emit_plots`` it also writes ``plot.py``, a self-contained script
that renders the CSV and JSON artifacts with matplotlib into
``state_evolution.png``, ``control_heatmap.png`` and ``impulse_map.png``;
no rendering happens during the run.

Two runs with the same config produce byte-identical ``summary.json``
except for the ``wall_time_seconds`` entry.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from .assembly import build_operator
from .config import ScenarioConfig
from .control import (
    ControlProblem,
    control_to_csv,
    impulse_analysis,
    minimal_time_search,
    solve_constrained_fixed_time,
    solve_unconstrained_Linf,
)
from .dynamics import trajectory_to_csv
from .errors import ConfigError
from .grid import build_grid
from .spectral import SpectralBasis, l1_lower_bound, min_gap

__all__ = [
    "run_scenario",
    "build_problem_from_config",
]


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
    profile = np.cos(np.pi * grid.interior_nodes / 2.0)
    return ControlProblem(
        op,
        config.z0_amplitude * profile,
        config.zhat0_amplitude * profile,
        uhat=config.uhat,
        omega=config.omega,
        nonneg_state=config.nonneg_state,
    )


def run_scenario(config: ScenarioConfig) -> dict:
    """Run one scenario and write its artifacts.

    The output directory is made after the solve, just before the first
    write, so a run that raises ConfigError or SolverError leaves nothing
    behind.

    Parameters
    ----------
    config : ScenarioConfig
        Fully resolved configuration, e.g. from :func:`parse_config`.

    Returns
    -------
    dict
        The summary written to ``summary.json`` in ``config.output_dir``.

    Raises
    ------
    ConfigError
        The state constraint with an operator that cannot keep it.
    SolverError
        Propagated from the bisection when the bracket is invalid or the
        probe budget is exhausted.
    OSError
        When the output directory or a file cannot be written.
    """
    t_start = time.perf_counter()
    problem = build_problem_from_config(config)
    op = problem.op
    grid = op.grid

    # the summary's spectrum: the leading pairs of the basis the solvers
    # step in, so a run solves one eigenproblem
    full = op.lumped_basis
    k_max = min(8, op.n_dof)
    basis = SpectralBasis(full.eigenvalues[:k_max], full.eigenvectors[:, :k_max], grid)

    summary: dict = {
        "resolved_config": config.to_dict(),
        "lambda": basis.eigenvalues.tolist(),
        "min_gap": min_gap(basis),
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
    summary["atomicity"] = impulse_analysis(control, grid, T)

    # made only now, so a refused config or a failed solve leaves nothing
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    trajectory_to_csv(traj, grid, outdir / "trajectory.csv")
    control_to_csv(control, grid, T, outdir / "control.csv")
    if config.emit_plots:
        (outdir / "plot.py").write_text(_PLOT_SCRIPT, encoding="utf-8")

    summary["wall_time_seconds"] = time.perf_counter() - t_start
    with open(outdir / "summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")

    return summary


_PLOT_SCRIPT = '''\
"""Render a fracheat run's artifacts with matplotlib.

Usage: python plot.py [RUN_DIR]; RUN_DIR defaults to this script's
directory.  Writes state_evolution.png, control_heatmap.png and
impulse_map.png there.
"""
import csv
import json
import os
import sys

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

here = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.abspath(__file__))


def save(fig, stem):
    fig.tight_layout()
    fig.savefig(os.path.join(here, stem + ".png"), dpi=150)
    print("wrote %s.png" % stem)


def heatmap(csv_name, col, cmap, title, stem):
    """Render a long-format t,x,<col> CSV as a space-time heatmap."""
    rows = list(csv.DictReader(open(os.path.join(here, csv_name))))
    ts = np.unique([float(r["t"]) for r in rows])
    xs = np.unique([float(r["x"]) for r in rows])
    values = np.array([float(r[col]) for r in rows]).reshape(len(ts), len(xs))
    fig, ax = plt.subplots(figsize=(7, 4))
    pc = ax.pcolormesh(ts, xs, values.T, shading="nearest", cmap=cmap)
    fig.colorbar(pc, ax=ax, label="%s(t, x)" % col)
    ax.set_xlabel("t")
    ax.set_ylabel("x")
    ax.set_title(title)
    save(fig, stem)


heatmap("trajectory.csv", "z", "viridis", "controlled state evolution", "state_evolution")
heatmap("control.csv", "u", "magma", "control heatmap", "control_heatmap")

# the dominant impulses, sized by mass
atom = json.load(open(os.path.join(here, "summary.json")))["atomicity"]
imps = atom["top_impulses"]
fig, ax = plt.subplots(figsize=(6, 4))
if imps:
    biggest = max(imp["mass"] for imp in imps)
    ax.scatter([imp["t"] for imp in imps], [imp["x"] for imp in imps],
               s=[600.0 * imp["mass"] / biggest for imp in imps],
               c="crimson", alpha=0.8, edgecolors="black")
ax.set_xlabel("t")
ax.set_ylabel("x")
ax.set_title("dominant impulses (active fraction %.3f)" % atom["active_cell_fraction"])
save(fig, "impulse_map")
'''
