"""Machine and library facts recorded with every benchmark result.

Run as a script, it starts a tiny op through the ``fracheat_cli`` launcher,
the way the benchmark starts every op, and then reports how many threads
each loaded OpenBLAS library and the process itself use.  That shows
whether the launcher's one-thread setting reached BLAS::

    PYTHONPATH=src python3 bench/envinfo.py
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_runtime() -> dict:
    """Thread counts of this process and of every OpenBLAS it has loaded."""
    libs = {}
    with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in _GET_THREADS:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                libs[os.path.basename(path)] = fn()
                break
    return {
        "openblas_threads": libs,
        "process_threads": len(os.listdir("/proc/self/task")),
    }


def describe() -> dict:
    """Versions, BLAS build and thread environment of this interpreter."""
    import numpy
    import scipy

    blas = {}
    for mod in (numpy, scipy):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[mod.__name__] = {"name": dep.get("name"), "version": dep.get("version")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        **blas_runtime(),
    }


def main() -> int:
    import fracheat_cli

    # a real op through the launcher, so its thread setting applies first
    code = fracheat_cli.main(["spectrum", "--s", "0.8", "--nx", "4", "--kmax", "1"])
    print(json.dumps(describe(), sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
