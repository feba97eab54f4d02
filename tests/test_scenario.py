"""End-to-end scenario runs: artifacts, schema conformance, determinism."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import fracheat as fh
from fracheat.assembly import NORMALIZATIONS
from fracheat.control import BASES

FAST_FIXED = json.dumps(
    {
        "n_x": 10,
        "n_t": 30,
        "horizon_mode": {"fixed": 0.9},
        "output_dir": "unused",
    }
)


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("fracheat") / "schemas" / "summary.schema.json"
    return json.loads(ref.read_text())


@pytest.fixture(scope="module")
def fixed_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fixed")
    cfg = replace(fh.parse_config(FAST_FIXED), output_dir=str(outdir))
    return fh.run_scenario(cfg)


def test_fixed_run_artifacts(fixed_run):
    assert fixed_run.files == ("trajectory.csv", "control.csv", "summary.json")
    for name in fixed_run.files:
        assert (fixed_run.output_dir / name).is_file()


def test_fixed_run_summary_content(fixed_run):
    s = fixed_run.summary
    assert s["feasible"] is True
    assert 0.0 <= s["final_residual"]
    assert s["iterations"] >= 1
    assert s["basis"] == "tolerance_met"
    assert len(s["lambda"]) == 8
    assert s["min_gap"] > 0
    assert s["beta_hat"] > 0
    assert "seed" not in s and s["resolved_config"]["seed"] == 42
    assert s["resolved_config"]["n_x"] == 10
    assert "T_min_estimate" not in s
    # the echoed config reparses to the one that produced the run
    again = fh.parse_config(json.dumps(s["resolved_config"]))
    assert again.n_t == 30 and again.horizon == fh.HorizonMode.fixed(0.9)


def test_fixed_run_summary_validates_against_schema(fixed_run, schema):
    on_disk = json.loads((fixed_run.output_dir / "summary.json").read_text())
    jsonschema.validate(on_disk, schema)


def test_fixed_run_csv_shapes(fixed_run):
    traj = np.loadtxt(fixed_run.output_dir / "trajectory.csv", delimiter=",", skiprows=1)
    assert traj.shape == (31 * 11, 3)
    ctrl = np.loadtxt(fixed_run.output_dir / "control.csv", delimiter=",", skiprows=1)
    n_sup = int(fh.nodes_in_interval(fh.build_grid(10), (-0.3, 0.8)).sum())
    assert ctrl.shape == (n_sup * 30, 3)


def test_deterministic_summary_bytes(tmp_path):
    outdir = tmp_path / "run"
    cfg = replace(fh.parse_config(FAST_FIXED), output_dir=str(outdir))
    fh.run_scenario(cfg)
    first = (outdir / "summary.json").read_bytes()
    shutil.copy(outdir / "summary.json", tmp_path / "first.json")
    fh.run_scenario(cfg)
    second = (outdir / "summary.json").read_bytes()

    def strip_wall_time(b: bytes) -> list[bytes]:
        return [ln for ln in b.splitlines() if b"wall_time_seconds" not in ln]

    assert strip_wall_time(first) == strip_wall_time(second)


def test_minimal_time_run_summary(tmp_path, schema):
    # a coarse bracket around the fast problem keeps the bisection short
    cfg_text = json.dumps(
        {
            "n_x": 10,
            "n_t": 30,
            "horizon_mode": {"minimal_time": {"bracket": [0.2, 0.9], "tol": 0.3}},
            "output_dir": str(tmp_path / "mt"),
        }
    )
    result = fh.run_scenario(fh.parse_config(cfg_text))
    s = result.summary
    assert s["feasible"] is True
    assert 0.2 <= s["T_lo"] < s["T_hi"] <= 0.9
    assert s["T_min_estimate"] == pytest.approx(0.5 * (s["T_lo"] + s["T_hi"]))
    assert len(s["history"]) >= 2
    for probe in s["history"]:
        assert probe["basis"] in BASES
    assert "final_residual" not in s
    jsonschema.validate(
        json.loads((result.output_dir / "summary.json").read_text()), schema
    )


def test_schema_declares_every_basis(schema):
    assert schema["definitions"]["basis"]["enum"] == list(BASES)
    ref = {"$ref": "#/definitions/basis"}
    assert schema["properties"]["basis"] == ref
    history_item = schema["properties"]["history"]["items"]
    assert history_item["properties"]["basis"] == ref


def test_schema_declares_every_normalization(schema):
    # a normalization added to the code must reach the schema, or its
    # summaries would fail validation
    config = schema["properties"]["resolved_config"]["properties"]
    assert set(config["normalization"]["enum"]) == set(NORMALIZATIONS)


def test_minimal_time_requires_nonneg_control(tmp_path):
    cfg_text = json.dumps(
        {
            "n_x": 10,
            "n_t": 30,
            "horizon_mode": {"minimal_time": {"bracket": [0.2, 0.9], "tol": 0.3}},
            "constraints": {"nonneg_control": False},
            "output_dir": str(tmp_path / "x"),
        }
    )
    with pytest.raises(fh.ConfigError, match="nonneg_control"):
        fh.run_scenario(fh.parse_config(cfg_text))


def test_unconstrained_fixed_run(tmp_path):
    cfg_text = json.dumps(
        {
            "n_x": 10,
            "n_t": 30,
            "horizon_mode": {"fixed": 0.5},
            "constraints": {"nonneg_control": False, "nonneg_state": False},
            "output_dir": str(tmp_path / "unc"),
        }
    )
    result = fh.run_scenario(fh.parse_config(cfg_text))
    assert result.summary["feasible"] is True
    # the sup-norm solver may go negative; the files are still complete
    assert result.files == ("trajectory.csv", "control.csv", "summary.json")


@pytest.mark.parametrize("nonneg_state", [True, False])
def test_unconstrained_fixed_run_checks_the_state_constraint(tmp_path, nonneg_state):
    # the sup-norm control at T = 0.1 hits the case-1 target but drives the
    # state far below zero on the way
    cfg_text = json.dumps(
        {
            "case_preset": "case1",
            "horizon_mode": {"fixed": 0.1},
            "constraints": {"nonneg_control": False, "nonneg_state": nonneg_state},
            "output_dir": str(tmp_path / "unc"),
        }
    )
    result = fh.run_scenario(fh.parse_config(cfg_text))
    traj = np.loadtxt(result.output_dir / "trajectory.csv", delimiter=",", skiprows=1)
    assert traj[:, 2].min() == pytest.approx(-2.49, abs=0.01)
    assert result.summary["final_residual"] <= 1e-5
    assert result.summary["feasible"] is (not nonneg_state)


def test_written_trajectory_is_the_verdicts(tmp_path, monkeypatch, prob_case1):
    out = fh.solve_constrained_fixed_time(prob_case1, 0.9, 60)
    fresh = fh.simulate(prob_case1.op, prob_case1.z0, out.control, 0.9, 60)
    assert np.array_equal(out.trajectory.states, fresh.states)
    m = np.diag(prob_case1.op.mass_lumped)
    r = out.trajectory.final - prob_case1.target_at(0.9, 60).final
    assert out.final_residual == float(np.sqrt(r @ (m * r)))

    # every simulation of a run is a verdict's, and the run writes the
    # trajectory of the verdict it reports
    simulated, solved = [], []

    def recording(fn, results):
        def wrapper(*args, **kwargs):
            results.append(fn(*args, **kwargs))
            return results[-1]

        return wrapper

    monkeypatch.setattr(
        "fracheat.control.simulate", recording(fh.simulate, simulated)
    )
    solve = recording(fh.solve_constrained_fixed_time, solved)
    monkeypatch.setattr("fracheat.control.solve_constrained_fixed_time", solve)
    monkeypatch.setattr("fracheat.scenario.solve_constrained_fixed_time", solve)
    fixed = json.loads(FAST_FIXED)
    linf = dict(fixed, constraints={"nonneg_control": False, "nonneg_state": False})
    minimal = dict(
        fixed, horizon_mode={"minimal_time": {"bracket": [0.2, 0.9], "tol": 0.3}}
    )
    for name, cfg in (("fixed", fixed), ("linf", linf), ("mt", minimal)):
        simulated.clear()
        solved.clear()
        cfg["output_dir"] = str(tmp_path / name)
        result = fh.run_scenario(fh.parse_config(json.dumps(cfg)))
        written = np.loadtxt(
            result.output_dir / "trajectory.csv", delimiter=",", skiprows=1
        )[:, 2].reshape(31, 11)[:, 1:-1]
        if name == "mt":
            assert len(simulated) == len(solved) > 2
            T_hi = result.summary["T_hi"]
            reported = [o for o in solved if o.feasible and o.trajectory.times[-1] == T_hi]
            assert np.array_equal(written, reported[-1].trajectory.states)
        else:
            # a fixed run simulates its control exactly once
            assert len(simulated) == 1
            assert np.array_equal(written, simulated[0].states)


def test_emit_plots_scripts_render(tmp_path):
    pytest.importorskip("matplotlib")
    cfg_text = json.dumps(
        {
            "n_x": 10,
            "n_t": 30,
            "horizon_mode": {"fixed": 0.5},
            "emit_plots": True,
            "output_dir": str(tmp_path / "plots"),
        }
    )
    result = fh.run_scenario(fh.parse_config(cfg_text))
    scripts = [f for f in result.files if f.endswith(".py")]
    assert sorted(scripts) == [
        "plot_control_heatmap.py",
        "plot_impulse_map.py",
        "plot_state_evolution.py",
    ]
    for script in scripts:
        proc = subprocess.run(
            [sys.executable, script],
            cwd=result.output_dir,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    pngs = sorted(p.name for p in result.output_dir.glob("*.png"))
    assert pngs == [
        "control_heatmap.png",
        "impulse_map.png",
        "state_evolution.png",
    ]


def test_emit_plots_scripts_compile(tmp_path):
    # runs without matplotlib, unlike the render test above
    cfg = {**json.loads(FAST_FIXED), "emit_plots": True, "output_dir": str(tmp_path)}
    result = fh.run_scenario(fh.parse_config(json.dumps(cfg)))
    scripts = sorted(f for f in result.files if f.endswith(".py"))
    assert scripts == [
        "plot_control_heatmap.py",
        "plot_impulse_map.py",
        "plot_state_evolution.py",
    ]
    for script in scripts:
        compile((result.output_dir / script).read_text(), script, "exec")


def test_scipy_optimize_loads_only_for_the_lp(tmp_path):
    # scipy.optimize costs about 0.2 s to import in a fresh process that
    # has scipy.linalg loaded, and only the L-infinity LP needs it;
    # scipy.linalg costs more than that and only the Cholesky factor in
    # simulate and the eigensolve need it, so the package import and the
    # observability estimate load no scipy at all
    script = """
import contextlib, io, json, sys
import fracheat as fh
from fracheat.control import BASES
import fracheat.cli

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

after_import = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    code = fracheat.cli.main(["obs-curve", "--s", "0.8", "--tmin", "0.1",
                              "--tmax", "1", "--points", "3", "--kmax", "4"])
after_obs_curve = scipy_modules()
loaded = ["scipy.optimize" in sys.modules]
cfg = fh.parse_config(json.dumps({
    "n_x": 8, "n_t": 20, "horizon_mode": {"fixed": 0.9}, "output_dir": sys.argv[1],
}))
fh.run_scenario(cfg)
loaded.append("scipy.optimize" in sys.modules)
linalg_after_run = "scipy.linalg" in sys.modules
fh.solve_unconstrained_Linf(fh.build_problem_from_config(cfg), 0.9, 20)
loaded.append("scipy.optimize" in sys.modules)
print(json.dumps({"loaded": loaded, "after_import": after_import, "code": code,
                  "after_obs_curve": after_obs_curve,
                  "linalg_after_run": linalg_after_run}))
"""
    env = dict(os.environ)
    src = str(Path(fh.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == [False, False, True]
    assert out["after_import"] == []
    assert out["code"] == 0
    assert out["after_obs_curve"] == []
    assert out["linalg_after_run"]


def test_build_problem_from_config(prob_case1):
    cfg = fh.parse_config('{"case_preset": "case1", "horizon_mode": {"fixed": 0.9}}')
    prob = fh.build_problem_from_config(cfg)
    assert prob.op.s == prob_case1.op.s
    assert prob.omega == prob_case1.omega
    assert prob.z0 == pytest.approx(prob_case1.z0)
    assert prob.zhat0 == pytest.approx(prob_case1.zhat0)
    assert prob.uhat == prob_case1.uhat


def test_unwritable_output_dir_raises_oserror(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    cfg = replace(fh.parse_config(FAST_FIXED), output_dir=str(blocker / "out"))
    with pytest.raises(OSError):
        fh.run_scenario(cfg)
