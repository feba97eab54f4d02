"""Tests of the benchmark itself: small runs, declared names, the checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import verify  # noqa: E402


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in run.SPEC[kind]}


def test_workload_names_match_spec():
    assert list(run.WORKLOADS) == [w["name"] for w in run.SPEC["workloads"]]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_small_run_is_correct_and_reports_declared_metrics(workload):
    out = run.run_workload(workload, seed=3, seconds=0.0, trace=False, small=True, setup_samples=1)
    result = out["result"]
    assert result["correct"], out["record"]["passes"]
    assert result["failed"] == 0 and result["attempted"] == len(run.WORKLOADS[workload](3, small=True))
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert out["record"]["environment"]["one_thread_reached_blas"]


def test_small_traced_run_reports_declared_layers():
    out = run.run_workload("case_studies", seed=3, seconds=0.0, trace=True, small=True)
    result = out["result"]
    assert result["correct"], out["record"]["passes"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("per_layer")
    # cross-module bindings are traced: the target is regenerated from control
    assert metrics["dynamics.generate_target_trajectory.calls"]["value"] > 1
    assert metrics["control.minimal_time_search.probes"]["value"] >= 4
    assert metrics["control.solve_constrained_fixed_time.calls"]["value"] >= 4
    assert metrics["control.control_to_csv.bytes"]["value"] > 0


def _run_small_fixed(tmp_path: Path) -> tuple[dict, Path]:
    config = dict(run.fine_mesh(1, small=True)[0].params, output_dir=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    subprocess.run(
        [sys.executable, "-m", "fracheat_cli", "run", "--config", str(path), "--threads", "1"],
        cwd=run.ROOT, env=run.child_env(traced=False), check=True, capture_output=True, timeout=120,
    )
    return config, tmp_path / "out"


def test_verifier_accepts_the_control_and_rejects_a_scaled_one(tmp_path):
    config, outdir = _run_small_fixed(tmp_path)
    schema = verify.load_schema(run.ROOT)
    verdict = verify.verify_run(config, outdir, schema)
    assert verdict.ok, verdict.errors
    assert 0 < verdict.figures["residual_ratio"] <= 1

    path = outdir / "control.csv"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data[:, 2] *= 0.5
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header="t,x,u", comments="")
    tampered = verify.verify_run(config, outdir, schema)
    assert not tampered.ok
    assert any("exceeds eps_target" in e for e in tampered.errors)


def test_verifier_rejects_a_summary_outside_the_schema(tmp_path):
    config, outdir = _run_small_fixed(tmp_path)
    summary = json.loads((outdir / "summary.json").read_text())
    summary["feasible"] = "yes"
    (outdir / "summary.json").write_text(json.dumps(summary))
    assert not verify.verify_run(config, outdir, verify.load_schema(run.ROOT)).ok


def test_spectrum_and_obs_checks_reject_bad_output():
    assert verify.verify_spectrum("k,lambda\n1,2.0\n2,3.0\n", 2).ok
    assert not verify.verify_spectrum("k,lambda\n1,3.0\n2,2.0\n", 2).ok
    assert not verify.verify_spectrum("k,lambda\n1,-1.0\n2,2.0\n", 2).ok
    T = [float(t) for t in np.geomspace(4, 0.05, 3)]
    good = "T,C_lower,C_envelope\n" + "\n".join(f"{t!r},{c},{c}" for t, c in zip(T, (1.0, 2.0, 3.0)))
    assert verify.verify_obs_curve(good, 0.05, 4, 3).ok
    rising = "T,C_lower,C_envelope\n" + "\n".join(f"{t!r},1.0,{e}" for t, e in zip(T, (3.0, 2.0, 1.0)))
    assert not verify.verify_obs_curve(rising, 0.05, 4, 3).ok
    below = "T,C_lower,C_envelope\n" + "\n".join(f"{t!r},2.0,1.0" for t in T)
    assert not verify.verify_obs_curve(below, 0.05, 4, 3).ok


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "obs_curve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
