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
from fracheat.assembly import NORMALIZATIONS, S_MAX, S_MIN
from fracheat.control import BASES

FAST_FIXED = json.dumps(
    {
        "n_x": 10,
        "n_t": 30,
        "horizon_mode": {"fixed": 0.9},
        "output_dir": "unused",
    }
)


def _listing(outdir: Path) -> list[str]:
    """Sorted names of the files a run left in its output directory."""
    return sorted(p.name for p in outdir.iterdir())


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("fracheat") / "schemas" / "summary.schema.json"
    return json.loads(ref.read_text())


@pytest.fixture(scope="module")
def fixed_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fixed")
    cfg = replace(fh.parse_config(FAST_FIXED), output_dir=str(outdir))
    return outdir, fh.run_scenario(cfg)


def test_fixed_run_artifacts(fixed_run):
    assert _listing(fixed_run[0]) == ["control.csv", "summary.json", "trajectory.csv"]


def test_fixed_run_summary_content(fixed_run):
    s = fixed_run[1]
    assert s["feasible"] is True
    assert 0.0 <= s["final_residual"]
    assert s["iterations"] >= 1
    assert s["basis"] == "tolerance_met"
    assert len(s["lambda"]) == 8
    # the gap is read over every listed pair
    assert s["min_gap"] == min(np.diff(s["lambda"])) > 0
    assert s["beta_hat"] > 0
    assert "seed" not in s and s["resolved_config"]["seed"] == 42
    assert s["resolved_config"]["n_x"] == 10
    assert "T_min_estimate" not in s
    # the echoed config reparses to the one that produced the run
    again = fh.parse_config(json.dumps(s["resolved_config"]))
    assert again.n_t == 30 and again.horizon == fh.HorizonMode("fixed", T=0.9)


def test_fixed_run_summary_validates_against_schema(fixed_run, schema):
    on_disk = json.loads((fixed_run[0] / "summary.json").read_text())
    jsonschema.validate(on_disk, schema)


def test_fixed_run_csv_shapes(fixed_run):
    traj = np.loadtxt(fixed_run[0] / "trajectory.csv", delimiter=",", skiprows=1)
    assert traj.shape == (31 * 11, 3)
    ctrl = np.loadtxt(fixed_run[0] / "control.csv", delimiter=",", skiprows=1)
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
    s = fh.run_scenario(fh.parse_config(cfg_text))
    assert s["feasible"] is True
    assert 0.2 <= s["T_lo"] < s["T_hi"] <= 0.9
    assert s["T_min_estimate"] == pytest.approx(0.5 * (s["T_lo"] + s["T_hi"]))
    assert len(s["history"]) >= 2
    for probe in s["history"]:
        assert probe["basis"] in BASES
    assert "final_residual" not in s
    jsonschema.validate(
        json.loads((tmp_path / "mt" / "summary.json").read_text()), schema
    )


@pytest.mark.parametrize(
    "horizon", [{"fixed": 0.9}, {"minimal_time": {"bracket": [0.2, 0.9], "tol": 0.3}}]
)
def test_run_solves_one_eigenproblem(tmp_path, monkeypatch, horizon):
    # the summary's spectrum is the leading pairs of the basis the solvers
    # step in, so a run, fixed or bisecting, solves exactly one eigenproblem
    import scipy.linalg

    eigh, build = scipy.linalg.eigh, fh.scenario.build_problem_from_config
    calls, problems = [], []

    def counted_eigh(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    def recorded_build(config):
        problems.append(build(config))
        return problems[-1]

    monkeypatch.setattr("scipy.linalg.eigh", counted_eigh)
    monkeypatch.setattr("fracheat.scenario.build_problem_from_config", recorded_build)
    cfg = fh.parse_config(
        json.dumps(
            {"n_x": 20, "n_t": 30, "horizon_mode": horizon, "output_dir": str(tmp_path)}
        )
    )
    summary = fh.run_scenario(cfg)
    assert calls == [(19, 19)]
    (problem,) = problems
    assert summary["lambda"] == problem.op.lumped_basis.eigenvalues[:8].tolist()


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


def test_schema_restates_the_parser_ranges(schema):
    # the schema repeats the parser's bounds by hand, so the two must agree
    config = schema["properties"]["resolved_config"]["properties"]
    assert (config["s"]["minimum"], config["s"]["maximum"]) == (S_MIN, S_MAX)
    for key in ("n_x", "n_t"):
        least = config[key]["minimum"]
        assert getattr(fh.parse_config(json.dumps({key: least})), key) == least
        with pytest.raises(fh.ConfigError, match=f"^{key}:"):
            fh.parse_config(json.dumps({key: least - 1}))


def test_minimal_time_requires_nonneg_control(tmp_path):
    outdir = tmp_path / "x"
    cfg_text = json.dumps(
        {
            "n_x": 10,
            "n_t": 30,
            "horizon_mode": {"minimal_time": {"bracket": [0.2, 0.9], "tol": 0.3}},
            "constraints": {"nonneg_control": False},
            "output_dir": str(outdir),
        }
    )
    # a config-only rule: parsing rejects it, before any directory exists
    with pytest.raises(fh.ConfigError, match=r"^constraints\.nonneg_control: minimal_time"):
        fh.parse_config(cfg_text)
    assert not outdir.exists()


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
    summary = fh.run_scenario(fh.parse_config(cfg_text))
    assert summary["feasible"] is True
    # the sup-norm solver may go negative; the files are still complete
    assert _listing(tmp_path / "unc") == ["control.csv", "summary.json", "trajectory.csv"]


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
    summary = fh.run_scenario(fh.parse_config(cfg_text))
    traj = np.loadtxt(tmp_path / "unc" / "trajectory.csv", delimiter=",", skiprows=1)
    assert traj[:, 2].min() == pytest.approx(-2.49, abs=0.01)
    assert summary["final_residual"] <= 1e-5
    assert summary["feasible"] is (not nonneg_state)


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
        summary = fh.run_scenario(fh.parse_config(json.dumps(cfg)))
        written = np.loadtxt(
            tmp_path / name / "trajectory.csv", delimiter=",", skiprows=1
        )[:, 2].reshape(31, 11)[:, 1:-1]
        if name == "mt":
            assert len(simulated) == len(solved) > 2
            T_hi = summary["T_hi"]
            reported = [o for o in solved if o.feasible and o.trajectory.times[-1] == T_hi]
            assert np.array_equal(written, reported[-1].trajectory.states)
        else:
            # a fixed run simulates its control exactly once
            assert len(simulated) == 1
            assert np.array_equal(written, simulated[0].states)


@pytest.mark.parametrize(
    "horizon", [{"fixed": 0.9}, {"minimal_time": {"bracket": [0.7, 0.9], "tol": 0.1}}]
)
def test_impulses_sit_on_the_written_control_cells(tmp_path, horizon):
    # summary.json's impulses and control.csv read one map of the control's
    # cells, so each impulse is a cell the CSV writes, to the last bit
    cfg = {"case_preset": "case1", "horizon_mode": horizon, "output_dir": str(tmp_path)}
    summary = fh.run_scenario(fh.parse_config(json.dumps(cfg)))
    written = np.loadtxt(tmp_path / "control.csv", delimiter=",", skiprows=1)
    t_col, x_col = set(written[:, 0].tolist()), set(written[:, 1].tolist())
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    impulses = on_disk["atomicity"]["top_impulses"]
    assert summary["resolved_config"]["n_x"] == 20 and len(impulses) == 10
    for imp in impulses:
        assert imp["x"] in x_col and imp["t"] in t_col


@pytest.fixture
def plot_run(tmp_path):
    """The output directory of a run that emits plot.py."""
    cfg = {**json.loads(FAST_FIXED), "emit_plots": True, "output_dir": str(tmp_path / "plots")}
    fh.run_scenario(fh.parse_config(json.dumps(cfg)))
    return tmp_path / "plots"


PNGS = ["control_heatmap.png", "impulse_map.png", "state_evolution.png"]


def _render(run_dir, env=None) -> list[str]:
    assert _listing(run_dir) == ["control.csv", "plot.py", "summary.json", "trajectory.csv"]
    proc = subprocess.run(
        [sys.executable, "plot.py"],
        cwd=run_dir,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return sorted(p.name for p in run_dir.glob("*.png"))


def test_emit_plots_scripts_render(plot_run):
    pytest.importorskip("matplotlib")
    assert _render(plot_run) == PNGS


# a matplotlib whose axes do nothing and whose savefig creates the file, so
# that plot.py runs on every machine, matplotlib installed or not
_STUB_PYPLOT = """
class _Anything:
    def __getattr__(self, name):
        return lambda *args, **kwargs: None


class _Figure(_Anything):
    def savefig(self, path, **kwargs):
        open(path, "wb").close()


def subplots(*args, **kwargs):
    return _Figure(), _Anything()
"""


def test_emit_plots_script_runs_on_stub_matplotlib(plot_run, tmp_path):
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("def use(backend):\n    pass\n")
    (stub / "pyplot.py").write_text(_STUB_PYPLOT)
    path = os.pathsep.join(filter(None, [str(stub.parent), os.environ.get("PYTHONPATH")]))
    assert _render(plot_run, env={**os.environ, "PYTHONPATH": path}) == PNGS


def test_emit_plots_scripts_compile(plot_run):
    # runs without matplotlib, unlike the render tests above
    compile((plot_run / "plot.py").read_text(), "plot.py", "exec")


def test_scipy_optimize_loads_only_for_the_lp(tmp_path):
    # scipy.optimize costs about 0.2 s to import in a fresh process that
    # has scipy.linalg loaded, and only the L-infinity LP needs it;
    # scipy.linalg costs more than that and only the Cholesky factor in
    # simulate and the eigensolve need it, so the package import and the
    # observability estimate load no scipy at all.  Nor do they load
    # numpy.polynomial, which only the stiffness assembly's quadrature
    # rules need, built on the first assembly and not at import
    script = """
import contextlib, io, json, sys
import fracheat as fh
from fracheat.control import BASES
import fracheat.cli

def deferred_modules():
    return [m for m in sys.modules
            if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "polynomial"]]

after_import = deferred_modules()
with contextlib.redirect_stdout(io.StringIO()):
    code = fracheat.cli.main(["obs-curve", "--s", "0.8", "--tmin", "0.1",
                              "--tmax", "1", "--points", "3", "--kmax", "4"])
after_obs_curve = deferred_modules()
loaded = ["scipy.optimize" in sys.modules]
cfg = fh.parse_config(json.dumps({
    "n_x": 8, "n_t": 20, "horizon_mode": {"fixed": 0.9}, "output_dir": sys.argv[1],
}))
fh.run_scenario(cfg)
loaded.append("scipy.optimize" in sys.modules)
linalg_after_run = "scipy.linalg" in sys.modules
polynomial_after_run = "numpy.polynomial" in sys.modules
fh.solve_unconstrained_Linf(fh.build_problem_from_config(cfg), 0.9, 20)
loaded.append("scipy.optimize" in sys.modules)
print(json.dumps({"loaded": loaded, "after_import": after_import, "code": code,
                  "after_obs_curve": after_obs_curve,
                  "linalg_after_run": linalg_after_run,
                  "polynomial_after_run": polynomial_after_run}))
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
    assert out["linalg_after_run"] and out["polynomial_after_run"]


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
