"""End-to-end and per-layer benchmark of the ``fracheat`` pipeline.

Usage, from the root of the repository::

    python3 bench/run.py --workload case_studies --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all          # every workload, one table each

Each op of a workload runs through the real entry point, ``python -m
fracheat_cli`` with ``src`` on the path, in a fresh process at one thread.
The benchmark writes every input itself, checks every output with its own
code (``verify.py``) and prints one metric per line with its unit, then a
JSON result as the last line of standard output.  Workloads, metrics and
bounds are declared in ``BENCHMARK.json``; ``bench/README.md`` says why
each exists.

A run repeats the workload's ops back to back ("a pass") until
``--seconds`` have elapsed and reports the median over its passes.  With
``--trace 1`` each op runs plain and then traced (``trace_child.py``); the
traced passes give the per-layer metrics and the difference in wall time
gives ``trace.overhead_s``.

Every run also writes a record with the machine facts, per-op results and
spans to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import uuid
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
# the checks build the operator with the package under test
sys.path.insert(1, str(ROOT / "src"))

import envinfo  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# import probes per run for setup_s; the median is reported
SETUP_SAMPLES = 5
# a run never starts a pass that could end past this many seconds
RUN_LIMIT_S = 165.0
# value of a quality metric on a workload that runs no op producing it
NOT_RUN = 1.0

S = 0.8
OMEGA = [-0.3, 0.8]
CASE1 = {"z0_amplitude": 2.0, "zhat0_amplitude": 0.05, "uhat": 0.2}
CASE2 = {"z0_amplitude": 0.5, "zhat0_amplitude": 6.0, "uhat": 1.0}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: a ``run`` with its explicit config, or a
    ``spectrum``/``obs-curve`` with its flags."""

    name: str
    command: str
    params: dict

    def cli_args(self, config_path: Path) -> list[str]:
        if self.command == "run":
            return ["run", "--config", str(config_path), "--threads", "1"]
        args = [self.command]
        for key, value in self.params.items():
            args += [f"--{key}", str(value)]
        return args


def _run_config(data: dict, n_x: int, n_t: int, horizon: dict, constrained: bool, seed: int) -> dict:
    """A fully explicit run config: no preset, every field written out."""
    return {
        "s": S,
        "n_x": n_x,
        "n_t": n_t,
        "omega": list(OMEGA),
        "normalization": "unit",
        **data,
        "nu": None,
        "horizon_mode": horizon,
        "constraints": {"nonneg_control": constrained, "nonneg_state": constrained},
        "emit_plots": False,
        "seed": seed,
    }


def _min_time(bracket, tol) -> dict:
    return {"minimal_time": {"bracket": list(bracket), "tol": tol}}


def case_studies(seed: int, small: bool = False) -> list[Op]:
    """Both minimal-time bisections and the smoothed-dual L-infinity control."""
    n_x, n_t1, n_t2 = (8, 20, 20) if small else (20, 300, 100)
    case1 = _min_time([0.3, 1.5], 0.6) if small else _min_time([0.7, 0.9], 0.02)
    case2 = _min_time([0.05, 0.6], 0.3) if small else _min_time([0.15, 0.4], 0.02)
    return [
        Op("case1", "run", _run_config(CASE1, n_x, n_t1, case1, True, seed)),
        Op("case2", "run", _run_config(CASE2, n_x, n_t2, case2, True, seed)),
        Op("case1_linf", "run", _run_config(CASE1, n_x, n_t1, {"fixed": 0.9}, False, seed)),
    ]


def fine_mesh(seed: int, small: bool = False) -> list[Op]:
    """One constrained fixed-horizon solve and the spectrum on a fine mesh."""
    n_x, n_t = (40, 30) if small else (800, 300)
    return [
        Op("case1_fixed", "run", _run_config(CASE1, n_x, n_t, {"fixed": 0.9}, True, seed)),
        Op("spectrum", "spectrum", {"s": S, "nx": n_x, "kmax": 8}),
    ]


def obs_curve(seed: int, small: bool = False) -> list[Op]:
    """The observability lower-bound sweep, whose random draws take the seed."""
    points, kmax, nrandom = (3, 4, 2) if small else (9, 8, 200)
    params = {"s": S, "tmin": 0.05, "tmax": 4, "points": points, "kmax": kmax, "nrandom": nrandom, "seed": seed}
    return [Op("obs_curve", "obs-curve", params)]


WORKLOADS = {"case_studies": case_studies, "fine_mesh": fine_mesh, "obs_curve": obs_curve}


@dataclass
class OpResult:
    name: str
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    errors: list[str] = field(default_factory=list)
    figures: dict = field(default_factory=dict)
    spans: list | None = None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.errors


def child_env(traced: bool) -> dict:
    """Environment of an op process.

    Plain ops get no thread variables, so the one-thread setting comes
    from the launcher alone.  Traced ops import the package before the
    launcher runs and get the launcher's setting from here instead.
    """
    drop = set(envinfo.THREAD_VARS) | {"FRACHEAT_OUTPUT_DIR"}
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    if traced:
        env.update({var: "1" for var in envinfo.THREAD_VARS})
    return env


def spawn(cmd: list[str], env: dict, stdout, stderr, limit_s: float):
    """Run one process to its end; return (exit code, wall s, rusage)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
    timer = threading.Timer(max(1.0, limit_s), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


class Runner:
    """Runs ops in fresh processes and checks what they return."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.schema = None
        self.cache: dict = {}
        self.workdir = WORK / uuid.uuid4().hex[:12]

    def execute(self, op: Op, traced: bool) -> OpResult:
        opdir = self.workdir / f"{op.name}-{uuid.uuid4().hex[:8]}"
        opdir.mkdir(parents=True)
        try:
            return self._execute(op, traced, opdir)
        finally:
            shutil.rmtree(opdir, ignore_errors=True)

    def _execute(self, op: Op, traced: bool, opdir: Path) -> OpResult:
        config_path = opdir / "config.json"
        config = None
        if op.command == "run":
            config = dict(op.params, output_dir=str(opdir / "out"))
            config_path.write_text(json.dumps(config), encoding="utf-8")
        args = op.cli_args(config_path)
        spans_path = opdir / "spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "trace_child.py"), str(spans_path), *args]
        else:
            cmd = [sys.executable, "-m", "fracheat_cli", *args]
        with open(opdir / "stdout.txt", "wb") as out, open(opdir / "stderr.txt", "wb") as err:
            code, wall, usage = spawn(cmd, child_env(traced), out, err, self.deadline - time.perf_counter())
        result = OpResult(
            name=op.name,
            exit_code=code,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )
        if code != 0:
            tail = (opdir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
            result.errors.append(f"exit code {code}: {' | '.join(tail)}")
            return result
        try:
            verdict = self._verify(op, config, opdir)
            result.errors += verdict.errors
            result.figures = verdict.figures
            if traced:
                result.spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
        except Exception:  # a broken output must not stop the run
            result.errors.append("check crashed: " + traceback.format_exc(limit=3))
        return result

    def _verify(self, op: Op, config: dict | None, opdir: Path):
        import verify

        if op.command == "run":
            if self.schema is None:
                self.schema = verify.load_schema(ROOT)
            return verify.verify_run(config, opdir / "out", self.schema, self.cache)
        stdout = (opdir / "stdout.txt").read_text(encoding="utf-8")
        p = op.params
        if op.command == "spectrum":
            return verify.verify_spectrum(stdout, p["kmax"])
        return verify.verify_obs_curve(stdout, p["tmin"], p["tmax"], p["points"])

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def pass_metrics(ops: list[Op], results: list[OpResult]) -> dict:
    """End-to-end figures of one pass; quality figures only from verified ops."""
    ok = {r.name: r for r in results if r.ok}
    ratios = [r.figures["residual_ratio"] for r in ok.values() if "residual_ratio" in r.figures]
    figures = {
        "wall_s": sum(r.wall_s for r in results),
        "cpu_s": sum(r.cpu_s for r in results),
        "peak_rss_mb": max(r.peak_rss_mb for r in results),
        "residual_ratio_max": NOT_RUN,
    }
    if any(op.command == "run" for op in ops):
        figures["residual_ratio_max"] = max(ratios) if ratios else None
    names = {r.name for r in results}
    for metric, op_name, key in (
        ("case1_t_hi", "case1", "T"),
        ("case2_t_hi", "case2", "T"),
        ("obs_log10_c_mean", "obs_curve", "log10_c_mean"),
    ):
        if op_name not in names:
            figures[metric] = NOT_RUN
        else:
            figures[metric] = ok[op_name].figures[key] if op_name in ok else None
    return figures


def median_of(dicts: list[dict], key: str):
    values = [d[key] for d in dicts if d.get(key) is not None]
    return statistics.median(values) if values else None


def layer_stats(span_lists: list[list]) -> dict:
    """Per-function counts and self times over the spans of several ops.

    A span's self time is its duration minus the durations of the spans
    it directly caused.
    """
    flat: dict = defaultdict(float)
    budget_hits = infeasible = solves_in_search = 0
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, extras) in enumerate(spans):
            flat[f"{name}.calls"] += 1
            flat[f"{name}.self_s"] += (t1 - t0) - child[i]
            for key, value in (extras or {}).items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    flat[f"{name}.{key}"] += value
            if name == "control.solve_constrained_fixed_time" and extras:
                infeasible += not extras["feasible"]
                budget_hits += (not extras["feasible"]) and extras["iterations"] >= extras["max_iter"]
                if parent >= 0 and spans[parent][0] == "control.minimal_time_search":
                    solves_in_search += 1
    solve_calls = flat["control.solve_constrained_fixed_time.calls"]
    probes = flat["control.minimal_time_search.probes"]
    flat["control.solve_constrained_fixed_time.infeasible_share"] = infeasible / solve_calls if solve_calls else 0.0
    flat["control.solve_constrained_fixed_time.budget_exhausted"] = budget_hits
    flat["control.minimal_time_search.solves_per_probe"] = solves_in_search / probes if probes else 0.0
    return dict(flat)


def measure_setup(samples: int, deadline: float) -> list[float]:
    """Seconds from starting an interpreter until fracheat and its CLI are imported.

    The child prints ``time.perf_counter()`` once the imports finish; that
    clock is the system-wide monotonic clock, shared with this process.
    """
    env = child_env(traced=False)
    code = "import time, fracheat_cli, fracheat.cli; print(repr(time.perf_counter()))"
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-300:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return times


def probe_environment(deadline: float) -> dict:
    """Machine facts, seen from a process started through the launcher."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "envinfo.py")], cwd=ROOT, env=child_env(traced=False),
        capture_output=True, text=True, timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"environment probe failed: {proc.stderr.strip()[-300:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    info["one_thread_reached_blas"] = (
        bool(info["openblas_threads"])
        and all(n == 1 for n in info["openblas_threads"].values())
        and info["process_threads"] == 1
    )
    info["git_commit"] = git_commit()
    return info


def git_commit() -> str | None:
    """HEAD of the repository, or None in a checkout without git."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, small: bool = False, setup_samples: int = SETUP_SAMPLES
) -> dict:
    """One benchmark run of a workload; returns the result and its record.

    ``small`` shrinks every op to a size that finishes in about a second,
    for the benchmark's own tests; measured runs never set it.
    """
    deadline = time.perf_counter() + RUN_LIMIT_S + 10.0
    ops = WORKLOADS[name](seed, small)
    runner = Runner(deadline)
    env = probe_environment(deadline)
    start = time.perf_counter()

    # import probes run between the plain ops, and with tracing each op runs
    # plain and traced back to back, so the slow phases of a shared machine
    # spread over the samples and cancel in trace.overhead_s
    setup: list[float] = []
    passes: list[dict] = []
    try:
        while True:
            t_pass = time.perf_counter()
            plain, traced = [], []
            for op in ops:
                if not trace and len(setup) < setup_samples:
                    setup += measure_setup(1, deadline)
                plain.append(runner.execute(op, traced=False))
                if trace:
                    traced.append(runner.execute(op, traced=True))
            passes.append({"traced": False, "results": plain})
            if trace:
                passes.append({"traced": True, "results": traced})
            elapsed = time.perf_counter() - start
            if elapsed >= seconds or elapsed + (time.perf_counter() - t_pass) > RUN_LIMIT_S:
                break
    finally:
        runner.close()
    if not trace:
        setup += measure_setup(setup_samples - len(setup), deadline)

    all_results = [r for p in passes for r in p["results"]]
    failed = [r for r in all_results if not r.ok]
    plain = [pass_metrics(ops, p["results"]) for p in passes if not p["traced"]]
    measured = {key: median_of(plain, key) for key in plain[0]}
    measured["setup_s"] = statistics.median(setup) if setup else None

    layers = {}
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        per_pass = [layer_stats([r.spans for r in p["results"] if r.spans]) for p in traced_passes]
        keys = sorted({k for d in per_pass for k in d})
        layers = {k: statistics.median(d.get(k, 0.0) for d in per_pass) for k in keys}
        traced_wall = statistics.median(sum(r.wall_s for r in p["results"]) for p in traced_passes)
        layers["trace.overhead_s"] = traced_wall - measured["wall_s"]

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    source = layers if trace else measured
    metrics = {
        m["name"]: {"value": source.get(m["name"], 0.0 if trace else None), "unit": m["unit"]} for m in declared
    }
    result = {
        # a launcher whose thread bound does not reach BLAS invalidates the timings
        "correct": not failed and env["one_thread_reached_blas"],
        "attempted": len(all_results),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "small": small,
        "inputs_deterministic": "run ops take no random input; the seed drives obs-curve draws and is recorded in run configs",
        "environment": env,
        "setup_samples_s": setup,
        "passes": [
            {
                "traced": p["traced"],
                "ops": [
                    {k: v for k, v in vars(r).items() if k != "spans"} for r in p["results"]
                ],
            }
            for p in passes
        ],
        "end_to_end": measured,
        "layers": layers,
        "result": result,
    }
    if trace:
        record["spans"] = {r.name: r.spans for r in passes[-1]["results"]}
    return {"result": result, "record": record}


def write_record(record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    return path


def print_table(record: dict) -> None:
    result, env = record["result"], record["environment"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
        f"passes {len(record['passes'])}  ops {result['attempted']}  failed {result['failed']}"
    )
    declared = {m["name"]: m for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    for name, entry in result["metrics"].items():
        value = entry["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<56} {shown:>14} {entry['unit']:<10} ({declared[name]['better']} is better)")
    for p in record["passes"]:
        for op in p["ops"]:
            if op["errors"]:
                print(f"  FAILED {op['name']}: {'; '.join(op['errors'])}")
    blas = ", ".join(f"{k} {v['name']} {v['version']}" for k, v in env["blas"].items())
    print(
        f"  env: python {env['python']}, {blas}, cpus {env['cpus_usable']}/{env['cpu_count']}, "
        f"one thread reached BLAS: {env['one_thread_reached_blas']}, commit {env['git_commit']}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the harness's own numerics (the checks) stay on one thread as well
    for var in envinfo.THREAD_VARS:
        os.environ.setdefault(var, "1")

    if not (ROOT / "src" / "fracheat_cli.py").is_file():
        print(f"no fracheat sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        path = write_record(out["record"])
        print_table(out["record"])
        print(f"  record: {path.relative_to(ROOT)}")
        results[name] = out["result"]
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
