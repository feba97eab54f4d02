"""Write every benchmark op's outputs, so two source trees diff in one command.

Usage, from the root of the repository::

    python3 tools/snapshot_outputs.py SRC_DIR OUT_DIR

SRC_DIR is the ``src`` directory of the tree under test (it holds
``fracheat`` and ``fracheat_cli.py``).  The ops are the three workloads of
``bench/run.py`` at full size and seed 1, imported from that file and not
changed.  Each op runs once through ``python -m fracheat_cli`` at one
thread, with SRC_DIR alone on ``PYTHONPATH`` and ``OUT_DIR/<op>`` as its
working and output directory.  There the op's files and its standard
output (``stdout.txt``) land; ``summary.json`` loses its
``wall_time_seconds`` entry, the one value that differs between two runs.
So, with a parent tree unpacked by ``git archive`` into ``parent/``::

    python3 tools/snapshot_outputs.py parent/src snap_parent
    python3 tools/snapshot_outputs.py src snap_change
    diff -r snap_parent snap_change

prints nothing when the change leaves every output byte-identical.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def _bench_ops() -> tuple[list, tuple[str, ...]]:
    """The ops of bench/run.py's three workloads at full size, and the
    thread variables its launcher sets."""
    spec = importlib.util.spec_from_file_location("_bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = bench
    spec.loader.exec_module(bench)
    ops = [op for make in bench.WORKLOADS.values() for op in make(SEED)]
    return ops, bench.envinfo.THREAD_VARS


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/snapshot_outputs.py SRC_DIR OUT_DIR", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "fracheat_cli.py").is_file():
        print(f"{src} holds no fracheat_cli.py", file=sys.stderr)
        return 2
    ops, thread_vars = _bench_ops()
    env = {k: v for k, v in os.environ.items() if k != "FRACHEAT_OUTPUT_DIR"}
    env.update({var: "1" for var in thread_vars}, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as configs:
        for op in ops:
            opdir = out / op.name
            opdir.mkdir(parents=True)
            config_path = Path(configs) / f"{op.name}.json"
            if op.command == "run":
                # relative, so the summary's echoed config names no absolute path
                config_path.write_text(json.dumps(dict(op.params, output_dir=".")))
            cmd = [sys.executable, "-m", "fracheat_cli", *op.cli_args(config_path)]
            with open(opdir / "stdout.txt", "wb") as stdout:
                proc = subprocess.run(
                    cmd, cwd=opdir, env=env, stdout=stdout, stderr=subprocess.PIPE
                )
            if proc.returncode != 0:
                sys.stderr.buffer.write(proc.stderr)
                print(f"op {op.name} exited {proc.returncode}", file=sys.stderr)
                return 1
            summary_path = opdir / "summary.json"
            if summary_path.is_file():
                summary = json.loads(summary_path.read_text(encoding="utf-8"))
                del summary["wall_time_seconds"]
                with open(summary_path, "w", encoding="utf-8") as f:
                    json.dump(summary, f, indent=2, sort_keys=True)
                    f.write("\n")
            print(f"{op.name}: {', '.join(sorted(p.name for p in opdir.iterdir()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
