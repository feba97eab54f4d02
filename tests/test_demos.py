"""The demo scripts run to completion against this checkout."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / name)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("name", ["spectrum_asymptotics.py", "observability_blowup.py"])
def test_demo_runs(name, tmp_path):
    proc = _run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    if name == "observability_blowup.py":
        csv = tmp_path / "blowup_curve.csv"
        assert csv.is_file() and csv.stat().st_size > 0
