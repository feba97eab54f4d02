"""Command line interface: exit codes, output contracts, overrides."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracheat.cli import main

FAST_CONFIG = {
    "n_x": 10,
    "n_t": 30,
    "horizon_mode": {"fixed": 0.9},
}

REPO_ROOT = Path(__file__).resolve().parents[1]

FROZEN_LAMBDA_UNIT = [
    6.4909867238284784,
    21.652165024006944,
    42.696484132362919,
    68.998078124604675,
    100.2108371031818,
    136.35361477772733,
    177.56808646401046,
    224.18903992533615,
]


def write_config(tmp_path, extra=None, name="config.json"):
    cfg = dict(FAST_CONFIG)
    cfg["output_dir"] = str(tmp_path / "out")
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def stderr_record(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


def test_run_success(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line["feasible"] is True
    assert "final_residual" in line
    summary = json.loads(open(line["summary_json"]).read())
    assert summary["resolved_config"]["n_x"] == 10
    for name in ("trajectory.csv", "control.csv", "summary.json"):
        assert (tmp_path / "out" / name).is_file()


def test_run_minimal_time_prints_estimate(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {"horizon_mode": {"minimal_time": {"bracket": [0.2, 0.9], "tol": 0.3}}},
    )
    assert main(["run", "--config", str(path)]) == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert 0.2 <= line["T_min_estimate"] <= 0.9


def test_run_config_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"s": 3.0}')
    assert main(["run", "--config", str(bad)]) == 2
    record = stderr_record(capsys)
    assert record == {
        "error": "ConfigError",
        "message": "s: must be <= 0.99, got 3.0",
        "exit_code": 2,
    }


def test_run_rejects_a_mesh_too_coarse_for_the_summary(tmp_path, capsys):
    # the summary's gap statistics need three eigenvalues, and the control
    # region needs a node: both are config errors, not internal ones
    for extra, field in (({"n_x": 3}, "n_x"), ({"n_x": 4, "omega": [0.1, 0.2]}, "omega")):
        path = write_config(tmp_path, extra)
        assert main(["run", "--config", str(path)]) == 2
        record = stderr_record(capsys)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"{field}:")
    path = write_config(tmp_path, {"n_x": 4})
    assert main(["run", "--config", str(path)]) == 0


def test_run_state_constraint_needs_positivity_preserving_operator(
    tmp_path, capsys
):
    # at s = 0.2 the stiffness has positive off-diagonals, so nonnegative
    # controls need not keep the state nonnegative
    path = write_config(tmp_path, {"s": 0.2})
    assert main(["run", "--config", str(path)]) == 2
    record = stderr_record(capsys)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("constraints.nonneg_state:")
    assert not (tmp_path / "out" / "summary.json").exists()
    # without the state constraint the same operator runs
    path = write_config(
        tmp_path, {"s": 0.2, "constraints": {"nonneg_state": False}}
    )
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "summary.json").is_file()


def test_run_missing_config_exits_4(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 4
    record = stderr_record(capsys)
    assert record["exit_code"] == 4
    assert "nope.json" in record["message"]


def test_run_solver_error_exits_3(tmp_path, capsys):
    # lower bracket end already feasible: bracket validation fails
    path = write_config(
        tmp_path,
        {"horizon_mode": {"minimal_time": {"bracket": [0.9, 1.1], "tol": 0.05}}},
    )
    assert main(["run", "--config", str(path)]) == 3
    record = stderr_record(capsys)
    assert record["error"] == "SolverError"
    assert "already feasible" in record["message"]


def test_run_seed_override(tmp_path, capsys):
    # a run takes its seed from the config only: --seed is a usage error
    path = write_config(tmp_path, {"seed": 1})
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(path), "--seed", "7"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["run", "--config", str(path)]) == 0
    line = json.loads(capsys.readouterr().out.strip())
    summary = json.loads(open(line["summary_json"]).read())
    assert "seed" not in summary
    assert summary["resolved_config"]["seed"] == 1


def test_run_env_output_dir_override(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path)
    env_dir = tmp_path / "env-out"
    monkeypatch.setenv("FRACHEAT_OUTPUT_DIR", str(env_dir))
    assert main(["run", "--config", str(path)]) == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line["summary_json"].startswith(str(env_dir))
    assert (env_dir / "summary.json").is_file()
    assert not (tmp_path / "out").exists()


def test_spectrum_output(capsys):
    assert main(["spectrum", "--s", "0.8", "--nx", "20"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,lambda"
    assert len(lines) == 9
    ks = [int(ln.split(",")[0]) for ln in lines[1:]]
    lams = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert ks == list(range(1, 9))
    assert lams == pytest.approx(FROZEN_LAMBDA_UNIT, rel=1e-12)


def test_spectrum_symbol_normalization(capsys):
    import fracheat as fh

    assert main(["spectrum", "--s", "0.8", "--nx", "20", "--normalization", "symbol"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    lams = [float(ln.split(",")[1]) for ln in lines[1:]]
    c = fh.normalization_constant(0.8)
    assert lams == pytest.approx([c * v for v in FROZEN_LAMBDA_UNIT], rel=1e-12)


def test_spectrum_validation_exit_2(capsys):
    assert main(["spectrum", "--s", "1.5", "--nx", "20"]) == 2
    assert stderr_record(capsys)["exit_code"] == 2
    assert main(["spectrum", "--s", "0.8", "--nx", "1"]) == 2
    stderr_record(capsys)


def test_obs_curve_output(capsys):
    assert (
        main(
            [
                "obs-curve",
                "--s",
                "0.8",
                "--tmin",
                "0.3",
                "--tmax",
                "1.2",
                "--points",
                "4",
                "--kmax",
                "3",
                "--nrandom",
                "20",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "T,C_lower,C_envelope"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert data.shape == (4, 3)
    assert data[0, 0] == pytest.approx(1.2) and data[-1, 0] == pytest.approx(0.3)
    assert np.all(np.diff(data[:, 0]) < 0)
    # envelope is the running max toward small horizons
    assert np.all(np.diff(data[:, 2]) >= 0)
    assert np.all(data[:, 2] >= data[:, 1])


def test_obs_curve_ignores_seed(capsys):
    # --seed is accepted but has no effect: the estimator is deterministic,
    # down to the last digit and also at K = 2
    outputs = []
    for seed in ("0", "7"):
        argv = ["obs-curve", "--s", "0.8", "--tmin", "0.4", "--tmax", "2.5"]
        argv += ["--points", "3", "--kmax", "2", "--seed", seed]
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_obs_curve_validation_exit_2(capsys):
    assert main(["obs-curve", "--s", "0.8", "--tmin", "1.0", "--tmax", "0.5"]) == 2
    stderr_record(capsys)


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --config is required
    assert exc.value.code == 2


def _declared_script() -> str:
    """The ``fracheat`` entry of ``[project.scripts]`` in ``pyproject.toml``."""
    text = (REPO_ROOT / "pyproject.toml").read_text()
    if sys.version_info >= (3, 11):
        import tomllib

        return tomllib.loads(text)["project"]["scripts"]["fracheat"]
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^fracheat\s*=\s*"([^"]*)"', section, re.MULTILINE)
    assert match is not None, "no fracheat entry in [project.scripts]"
    return match.group(1)


def _check_spectrum_process(cmd, env, cwd):
    proc = subprocess.run(
        cmd + ["spectrum", "--s", "0.8", "--nx", "20", "--kmax", "3"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "k,lambda"
    lams = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert lams == pytest.approx(FROZEN_LAMBDA_UNIT[:3], rel=1e-12)


def test_console_launcher_subprocess(tmp_path):
    # The module form runs the same callable as the installed script, so it
    # tests this checkout's launcher without an install step.
    assert _declared_script() == "fracheat_cli:main"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    _check_spectrum_process([sys.executable, "-m", "fracheat_cli"], env, tmp_path)
    exe = shutil.which("fracheat")
    if exe is not None:
        _check_spectrum_process([exe], env, tmp_path)


def test_launcher_thread_peek():
    import fracheat_cli

    assert fracheat_cli._peek_threads(["run", "--threads", "3"]) == "3"
    assert fracheat_cli._peek_threads(["run", "--threads=2"]) == "2"
    # without the flag the launcher applies the default bound of one
    assert fracheat_cli._peek_threads(["spectrum", "--s", "0.8"]) == "1"
