"""Run the benchmark in alternating parent/change pairs and judge each metric.

Usage, from the root of the repository::

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT [--json PATH]

PARENT_ROOT and CHANGE_ROOT are two checkouts of the repository, say one
unpacked by ``git archive`` from the parent commit and one from the change.
Their ``bench/`` and ``BENCHMARK.json`` must be byte-identical, or nothing
runs: two trees measured by different benchmarks cannot be compared.

Each of ten pairs, i = 0..9, runs every workload of ``BENCHMARK.json``
once per tree with ``python3 bench/run.py --workload W --seed (11 + i)
--trace 0`` in that tree, so each run lasts the benchmark's own
``run_seconds``; the parent goes first in even pairs and the change first
in odd ones.  The JSON result is read from the run's last line of standard
output.  For every workload and end-to-end metric it prints both trees'
medians and quartiles over the pairs, the pairs the change wins (ties
count for neither), and each tree's failed and attempted ops, with one
verdict per row:

* ``gain``: there are at least ten pairs, the change wins at least nine
  tenths of them, and its median is better than the parent's by more
  than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound, a fraction of the parent's median;
* ``unresolved``: the parent's interquartile range, as a fraction of its
  median, is wider than the bound, and not every change run beats every
  parent run (the spread is the interquartile range, not the full range
  of the parent's runs, so one outlying run does not decide it);
* ``no regression`` otherwise.

Each row also gives the parent's full-range spread, (max - min) over its
median, next to the interquartile one, and is marked ``range disagrees``
when the unresolved test would answer differently on the full range: one
outlying parent run then decides whether the metric can be judged.

On a shared machine a ``gain`` row from one set of pairs can be drift: a
change that keeps every output byte-identical and alters no arithmetic
on a workload's path has read as a gain there.  Claim a gain only when a
second, independent set of pairs, run after the first, reads it too.

Nothing under ``bench/`` is changed; each run leaves its record in its
tree's ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

FIRST_SEED = 11
PAIRS = 10
# a gain needs the change to win at least this share of the pairs
GAIN_SHARE = 0.9


def _bench_files(root: Path) -> dict[str, bytes]:
    """Contents of BENCHMARK.json and every file under bench/, by relative
    path, less the byte-code caches that running the benchmark writes."""
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for path in sorted((root / "bench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            files[path.relative_to(root).as_posix()] = path.read_bytes()
    return files


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Judge one metric on one workload from paired samples.

    parent[i] and change[i] come from pair i; better is "lower" or
    "higher"; bound is the largest worsening of the median that is no
    regression, as a fraction of the parent's median.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change sample per pair")
    sign = 1.0 if better == "lower" else -1.0
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    scale = abs(p_med) if p_med != 0.0 else 1.0
    gap = sign * (c_med - p_med)  # > 0: the change reads worse
    spread = (p3 - p1) / scale
    range_spread = (max(parent) - min(parent)) / scale
    separated = max(sign * c for c in change) < min(sign * p for p in parent)
    if len(parent) >= PAIRS and wins >= GAIN_SHARE * len(parent) and -gap > p3 - p1:
        kind = "gain"
    elif gap > bound * scale:
        kind = "worse"
    elif spread > bound and not separated:
        kind = "unresolved"
    else:
        kind = "no regression"
    return {
        "parent": {"median": p_med, "q1": p1, "q3": p3},
        "change": {"median": c_med, "q1": c1, "q3": c3},
        "wins": wins,
        "pairs": len(parent),
        "relative_change": (c_med - p_med) / scale,
        "parent_spread": spread,
        "parent_range_spread": range_spread,
        "spread_readings_disagree": (spread > bound) != (range_spread > bound) and not separated,
        "verdict": kind,
    }


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One benchmark run in root; returns its JSON result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(cmd[1:])} in {root} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        )
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    if _bench_files(roots["parent"]) != _bench_files(roots["change"]):
        print("bench/ or BENCHMARK.json differs between the two roots; nothing run", file=sys.stderr)
        return 2
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]

    samples = {w: {side: [] for side in roots} for w in workloads}
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                samples[w][side].append(run_once(roots[side], w, seed))
            print(f"pair {i + 1}/{PAIRS} seed {seed} {w}: done", file=sys.stderr)

    report = {
        "method": (
            f"{PAIRS} alternating pairs of `python3 bench/run.py --workload W --seed S --trace 0` "
            f"({spec['run_seconds']} s runs), seeds {FIRST_SEED}-{FIRST_SEED + PAIRS - 1}, "
            "the parent first in even pairs; quartiles over the pairs' run medians; the parent's "
            "spread is (q3 - q1) and, as its range spread, (max - min), each over its median"
        ),
        "workloads": {},
    }
    for w in workloads:
        runs = samples[w]
        ops = {
            side: {
                "failed": sum(r["failed"] for r in runs[side]),
                "attempted": sum(r["attempted"] for r in runs[side]),
            }
            for side in roots
        }
        rows = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in roots}
            rows[name] = verdict(values["parent"], values["change"], m["better"], m["bound"])
            rows[name]["samples"] = values
        report["workloads"][w] = {"ops": ops, "metrics": rows}

        print(
            f"{w}: failed/attempted ops parent {ops['parent']['failed']}/{ops['parent']['attempted']}, "
            f"change {ops['change']['failed']}/{ops['change']['attempted']}"
        )
        print(
            f"  {'metric':<20} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
            f"{'wins':>6} {'spread iqr/range':>17}  verdict"
        )
        for name, row in rows.items():
            cells = [
                f"{row[side]['median']:.6g} [{row[side]['q1']:.6g}, {row[side]['q3']:.6g}]"
                for side in ("parent", "change")
            ]
            spreads = f"{row['parent_spread']:.3f}/{row['parent_range_spread']:.3f}"
            flag = " (range disagrees)" if row["spread_readings_disagree"] else ""
            print(
                f"  {name:<20} {cells[0]:>34} {cells[1]:>34} {row['wins']:>3}/{row['pairs']:<2} "
                f"{spreads:>17}  {row['verdict']}{flag}"
            )
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
