"""The verdict rule of tools/bench_pairs.py, on synthetic paired samples."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_verdict_rules():
    verdict = bench_pairs.verdict
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    # 10 of 10 wins and a gap of 0.2 against a parent IQR of 0.01
    faster = verdict(parent, [p - 0.2 for p in parent], "lower", 0.25)
    assert faster["verdict"] == "gain" and faster["wins"] == 10
    assert faster["parent"]["median"] == 1.0
    assert faster["change"]["median"] == pytest.approx(0.8)
    # 8 of 10 wins is no gain, however large the gap; ties count for neither
    eight = [p - 0.2 for p in parent[:8]] + parent[8:]
    assert verdict(parent, eight, "lower", 0.25)["wins"] == 8
    assert verdict(parent, eight, "lower", 0.25)["verdict"] == "no regression"
    # a higher-is-better metric read the other way
    assert verdict(parent, [p + 0.2 for p in parent], "higher", 0.05)["verdict"] == "gain"
    assert verdict(parent, [p + 0.2 for p in parent], "lower", 0.05)["verdict"] == "worse"
    # 10 of 10 wins by less than the parent's IQR is no gain
    assert verdict(parent, [p - 0.001 for p in parent], "lower", 0.25)["verdict"] == "no regression"
    # worse by 30% against a 25% bound, and by 20% within it
    assert verdict(parent, [1.3 * p for p in parent], "lower", 0.25)["verdict"] == "worse"
    assert verdict(parent, [1.2 * p for p in parent], "lower", 0.25)["verdict"] == "no regression"
    # a parent spread of about 0.5 against a 0.25 bound cannot tell ...
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.6, 1.4, 1.0, 1.0]
    noisy = verdict(wide, wide[::-1], "lower", 0.25)
    assert noisy["parent_spread"] > 0.25 and noisy["verdict"] == "unresolved"
    # ... unless every change run reads better than every parent run
    assert verdict(wide, [0.5] * 10, "lower", 0.25)["verdict"] != "unresolved"
    # one outlying parent run widens the full range past the bound but not
    # the interquartile range: the verdict reads the latter, and the row is
    # flagged because the two readings disagree
    outlier = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.60, 0.99, 1.00, 1.00]
    flagged = verdict(outlier, parent, "lower", 0.25)
    assert flagged["parent_spread"] < 0.25 < flagged["parent_range_spread"]
    assert flagged["verdict"] == "no regression" and flagged["spread_readings_disagree"]
    assert not faster["spread_readings_disagree"] and not noisy["spread_readings_disagree"]
    assert faster["parent_range_spread"] == pytest.approx(0.04)
    # fewer than ten pairs is no gain, even with a zero parent IQR
    assert verdict([1.0], [0.5], "lower", 0.25)["verdict"] == "no regression"
    assert verdict(parent[:5], [0.5] * 5, "lower", 0.25)["verdict"] == "no regression"
    # a constant metric is no regression
    assert verdict([1.0] * 10, [1.0] * 10, "lower", 0.05)["verdict"] == "no regression"
    with pytest.raises(ValueError, match="one parent and one change sample per pair"):
        verdict(parent, parent[:9], "lower", 0.25)
