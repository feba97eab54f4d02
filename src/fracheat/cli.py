"""Command line interface.

Subcommands
-----------
run
    Execute a scenario described by a JSON config file and write its
    artifacts (trajectory.csv, control.csv, summary.json) to the
    configured output directory.  ``FRACHEAT_OUTPUT_DIR`` overrides the
    config's ``output_dir``; ``--threads`` bounds the numerical
    libraries' internal parallelism (default 1, at least 1).  The console launcher
    :mod:`fracheat_cli` applies that bound, before numpy is first
    imported; :func:`main` itself only accepts the flag.
spectrum
    Print the leading eigenvalues of the discrete operator, the stiffness
    against the lumped mass, as CSV.
obs-curve
    Print lower bounds of the observability constant over a sweep of
    ``--points`` (at least 2) geometrically spaced horizons, with their
    running envelope, as the CSV table that
    :func:`~fracheat.observability.blowup_curve_to_csv` writes.  Each
    bound is the best witness of the Gram-cancellation ladder, whose L1
    norm is taken in closed form between the sum's roots; every
    horizon's witnesses are evaluated in one batch.  The estimator is
    deterministic, so equal arguments print equal output; ``--nrandom``
    and ``--seed`` are still accepted for old command lines and have no
    effect.

Flags are checked with the config's field checkers, so ``--s`` obeys the
rule of the config's ``s`` and fails with the same message, and every
number must be finite.  A rejected flag exits 2 with a message that
starts with the flag's name.

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence,
4 I/O error, 1 unexpected internal error.  Every failure writes a JSON
error record to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .assembly import NORMALIZATIONS, S_MAX, S_MIN
from .config import _DEFAULTS, _check_int, _check_number, _fail, parse_config
from .errors import ConfigError, SolverError

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4
EXIT_INTERNAL = 1


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``fracheat`` command."""
    parser = argparse.ArgumentParser(
        prog="fracheat",
        description="Fractional heat equation: simulation, control, minimal time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a JSON config file")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument(
        "--threads", type=int, default=1, help="internal parallelism bound (default 1)"
    )

    p_spec = sub.add_parser(
        "spectrum", help="print leading eigenvalues (lumped mass) as CSV"
    )
    p_spec.add_argument("--s", type=float, required=True, help="fractional order")
    p_spec.add_argument("--nx", type=int, required=True, help="number of mesh cells")
    p_spec.add_argument("--kmax", type=int, default=8, help="eigenvalues to print")
    p_spec.add_argument(
        "--normalization",
        choices=NORMALIZATIONS,
        default=_DEFAULTS["normalization"],
        help="operator normalization (default %(default)s)",
    )

    p_obs = sub.add_parser(
        "obs-curve", help="print observability lower bounds over a horizon sweep"
    )
    p_obs.add_argument("--s", type=float, required=True, help="fractional order")
    p_obs.add_argument("--tmin", type=float, required=True, help="smallest horizon")
    p_obs.add_argument("--tmax", type=float, required=True, help="largest horizon")
    p_obs.add_argument("--points", type=int, default=9, help="horizons in the sweep, at least 2")
    p_obs.add_argument("--kmax", type=int, default=8, help="exponents used")
    p_obs.add_argument(
        "--nrandom", type=int, default=200, help="no effect; the estimator is deterministic"
    )
    p_obs.add_argument(
        "--seed", type=int, default=0, help="no effect; the estimator is deterministic"
    )
    return parser


def _cmd_run(args) -> int:
    _check_int("threads", args.threads, minimum=1)
    try:
        with open(args.config, "rb") as f:
            text = f.read()
    except OSError as exc:
        raise OSError(f"cannot read config file {args.config!r}: {exc}") from exc
    config = parse_config(text)
    env_dir = os.environ.get("FRACHEAT_OUTPUT_DIR")
    if env_dir:
        config = replace(config, output_dir=env_dir)

    from .scenario import run_scenario

    summary = run_scenario(config)
    line = {
        "summary_json": str(Path(config.output_dir) / "summary.json"),
        "feasible": summary["feasible"],
    }
    for key in ("T_min_estimate", "final_residual"):
        if key in summary:
            line[key] = summary[key]
    print(json.dumps(line, sort_keys=True))
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    _check_number("s", args.s, minimum=S_MIN, maximum=S_MAX)
    _check_int("nx", args.nx, minimum=2)
    _check_int("kmax", args.kmax, minimum=1)

    from .assembly import build_operator
    from .grid import build_grid
    from .spectral import eigendecompose

    grid = build_grid(args.nx)
    op = build_operator(grid, s=args.s, normalization=args.normalization)
    basis = eigendecompose(op, k_max=min(args.kmax, op.n_dof))
    print("k,lambda")
    for k, lam in enumerate(basis.eigenvalues, start=1):
        print(f"{k},{lam:.17g}")
    return EXIT_OK


def _cmd_obs_curve(args) -> int:
    _check_number("s", args.s, minimum=S_MIN, maximum=S_MAX)
    tmin = _check_number("tmin", args.tmin, minimum=1e-12)
    if _check_number("tmax", args.tmax) <= tmin:
        _fail("tmax", f"must be > tmin = {tmin}, got {args.tmax}")
    _check_int("points", args.points, minimum=2)
    _check_int("kmax", args.kmax, minimum=1)

    import numpy as np

    from .observability import blowup_curve, blowup_curve_to_csv
    from .spectral import lambda_asymptotic

    ks = np.arange(1, args.kmax + 1)
    mu = lambda_asymptotic(ks, args.s)
    T_values = np.geomspace(args.tmax, args.tmin, args.points)
    curve = blowup_curve(mu, T_values)
    blowup_curve_to_csv(curve, sys.stdout)
    return EXIT_OK


def _error_record(exc: Exception, code: int) -> int:
    record = {
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "spectrum": _cmd_spectrum,
        "obs-curve": _cmd_obs_curve,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        return _error_record(exc, EXIT_CONFIG)
    except SolverError as exc:
        return _error_record(exc, EXIT_SOLVER)
    except OSError as exc:
        return _error_record(exc, EXIT_IO)
    except Exception as exc:  # pragma: no cover - defensive catch-all
        return _error_record(exc, EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
