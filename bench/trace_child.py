"""Run one ``fracheat`` CLI op with spans around the package's public functions.

Usage::

    PYTHONPATH=src python3 bench/trace_child.py SPANS.json <fracheat arguments>

Every public function of the traced modules is wrapped at every module
namespace that binds it, so a call such as ``control`` reaching
``generate_target_trajectory`` through its own import is recorded as well.
Spans (name, start, end, parent, extras) stay in memory and are written
to SPANS.json when the op ends, together with the BLAS thread counts.

The parent sets the one-thread environment before starting this script:
the wrappers need the package imported, which loads BLAS, before the
launcher's ``main`` runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import envinfo  # noqa: E402

TRACED_MODULES = ("assembly", "spectral", "dynamics", "control", "observability", "scenario")


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return arguments


def _extras_for(name: str, fn):
    """Counts taken at a span boundary, keyed by the function's name."""
    if name == "dynamics.simulate":
        arguments = _bound(fn)
        return lambda a, k, r: {"steps": int(arguments(a, k)["n_t"])}
    if name == "control.solve_constrained_fixed_time":
        arguments = _bound(fn)
        return lambda a, k, r: {
            "iterations": int(r.iterations),
            "feasible": bool(r.feasible),
            "max_iter": int(arguments(a, k)["max_iter"]),
        }
    if name == "control.minimal_time_search":
        return lambda a, k, r: {"probes": len({T for T, _, _ in r.history})}
    if name in ("dynamics.trajectory_to_csv", "control.control_to_csv"):
        arguments = _bound(fn)
        return lambda a, k, r: {"bytes": os.path.getsize(arguments(a, k)["path"])}
    return None


class Tracer:
    """Spans of wrapped calls, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        extras = _extras_for(name, fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extras is not None:
                span[4] = extras(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the traced modules' public functions everywhere they are bound."""
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"fracheat.{short}")
            public = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
            for attr in public:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fracheat" or mod_name.startswith("fracheat.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def dump(self, path: Path, extra: dict) -> None:
        payload = {"spans": self.spans, **extra}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import fracheat_cli

    code = 1
    try:
        code = fracheat_cli.main(cli_args)
    finally:
        tracer.dump(spans_path, {"exit_code": code, "blas": envinfo.blas_runtime()})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
