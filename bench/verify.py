"""Independent checks of the files and lines that ``fracheat`` writes.

Every check here is the benchmark's own code.  Controls are re-simulated
with a plain lumped implicit-Euler step on the matrices of
``fracheat.build_operator``; none of the package's propagators is used, so
a later change to them cannot hide an error from the check.

Each ``verify_*`` function returns a :class:`Verdict`.  A check that fails
adds a message to ``errors``; the functions raise only on programming
errors of the benchmark itself, which the harness records as failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# the solver's default constraint tolerance
EPS_CONS = 1e-8
# eps_target = TARGET_FRACTION * ||zhat(T)||_M, the solver's feasibility scale
TARGET_FRACTION = 1e-3


@dataclass
class Verdict:
    """Outcome of checking one op's output.

    Attributes
    ----------
    errors : list of str
        One message per failed check; empty when the output is correct.
    figures : dict
        Quality figures measured by the checks, such as ``residual_ratio``
        (terminal residual over eps_target), ``T`` (the horizon of the
        verified control) or ``log10_c_mean``.
    """

    errors: list[str] = field(default_factory=list)
    figures: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.errors.append(message)
        return condition


def interior_nodes(n_x: int) -> np.ndarray:
    """Interior nodes of the uniform grid on (-1, 1) with n_x cells."""
    return -1.0 + 2.0 * np.arange(1, n_x) / n_x


def support_mask(x: np.ndarray, omega) -> np.ndarray:
    """Nodes in the closed control interval."""
    return (x >= omega[0] - 1e-12) & (x <= omega[1] + 1e-12)


class LumpedImplicitEuler:
    """(M + dt K) z_{j+1} = M (z_j + dt u_j) with the lumped mass M."""

    def __init__(self, stiffness: np.ndarray, m: np.ndarray, T: float, n_t: int):
        self.dt = T / n_t
        self.n_t = n_t
        self.m = m
        self.lu = lu_factor(np.diag(m) + self.dt * stiffness)

    def run(self, z0: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, float]:
        """Final state and the smallest state entry; u has shape (n, n_t)."""
        z = z0
        z_min = float(z0.min())
        for j in range(self.n_t):
            z = lu_solve(self.lu, self.m * (z + self.dt * u[:, j]))
            z_min = min(z_min, float(z.min()))
        return z, z_min


def m_norm(v: np.ndarray, m: np.ndarray) -> float:
    return float(np.sqrt(v @ (m * v)))


def _operator(config: dict, cache: dict):
    """Stiffness and lumped mass diagonal from fracheat.build_operator."""
    key = (config["n_x"], config["s"], config["normalization"])
    if key not in cache:
        import fracheat

        op = fracheat.build_operator(
            fracheat.build_grid(config["n_x"]),
            s=config["s"],
            normalization=config["normalization"],
        )
        cache[key] = (np.array(op.stiffness), np.diag(op.mass_lumped).copy())
    return cache[key]


def _read_tail_rows(path: Path, n_rows: int) -> np.ndarray:
    """Last n_rows CSV rows of a file as floats, without parsing the rest."""
    with open(path, "rb") as f:
        f.seek(0, 2)
        size = f.tell()
        chunk = min(size, 128 * (n_rows + 2))
        f.seek(size - chunk)
        lines = f.read().decode("ascii").strip().splitlines()[-n_rows:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def verify_run(config: dict, outdir: Path, schema: dict, cache: dict | None = None) -> Verdict:
    """Check the artifacts of one ``fracheat run``.

    Validates summary.json against the shipped schema and against the
    config that was written, re-simulates control.csv to check the
    terminal residual and the requested sign constraints, and compares the
    last time slice of trajectory.csv with the re-simulated final state.

    Parameters
    ----------
    config : dict
        The explicit config the op was run with.
    outdir : Path
        The op's output directory.
    schema : dict
        ``summary.schema.json`` of the package under test.
    cache : dict, optional
        Operator cache shared between calls.
    """
    import jsonschema

    v = Verdict()
    cache = {} if cache is None else cache
    try:
        summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        v.check(False, f"summary.json unreadable: {exc}")
        return v
    try:
        jsonschema.validate(summary, schema)
    except jsonschema.ValidationError as exc:
        v.check(False, f"summary.json violates the schema: {exc.message}")
        return v

    resolved = summary["resolved_config"]
    v.check(resolved["case_preset"] is None, "a preset was applied")
    for key, value in config.items():
        v.check(resolved.get(key) == value, f"resolved {key}={resolved.get(key)!r}, wrote {value!r}")
    v.check(summary["feasible"] is True, "the run reported an infeasible result")

    n_x, n_t, omega = config["n_x"], config["n_t"], config["omega"]
    horizon = config["horizon_mode"]
    if "fixed" in horizon:
        T = float(horizon["fixed"])
        reported = summary.get("final_residual")
    else:
        bisection = horizon["minimal_time"]
        lo, hi = bisection["bracket"]
        T, T_lo = summary["T_hi"], summary["T_lo"]
        v.check(lo <= T_lo < T <= hi, f"bracket [{T_lo}, {T}] escapes [{lo}, {hi}]")
        v.check(T - T_lo <= bisection["tol"] * (1 + 1e-9), "bisection stopped early")
        at_hi = [h for h in summary["history"] if h["T"] == T and h["feasible"]]
        v.check(bool(at_hi), "no feasible probe recorded at T_hi")
        reported = at_hi[-1]["residual"] if at_hi else None
        v.figures["T_lo"] = T_lo
    v.figures["T"] = T

    x = interior_nodes(n_x)
    mask = support_mask(x, omega)
    n_sup = int(mask.sum())
    try:
        data = np.loadtxt(outdir / "control.csv", delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        v.check(False, f"control.csv unreadable: {exc}")
        return v
    if not v.check(data.shape == (n_t * n_sup, 3), f"control.csv has shape {data.shape}"):
        return v
    dt = T / n_t
    t_mid = (np.arange(n_t) + 0.5) * dt
    v.check(
        np.allclose(data[:, 0].reshape(n_t, n_sup), t_mid[:, None], rtol=1e-12, atol=0),
        "control.csv time cells do not match the horizon",
    )
    v.check(
        np.allclose(data[:, 1].reshape(n_t, n_sup), x[mask][None, :], rtol=0, atol=1e-12),
        "control.csv nodes do not match omega",
    )
    u = np.zeros((x.size, n_t))
    u[mask] = data[:, 2].reshape(n_t, n_sup).T

    stiffness, m = _operator(config, cache)
    stepper = LumpedImplicitEuler(stiffness, m, T, n_t)
    profile = np.cos(np.pi * x / 2.0)
    target_u = np.zeros((x.size, n_t))
    target_u[mask] = config["uhat"]
    zhat_T, _ = stepper.run(config["zhat0_amplitude"] * profile, target_u)
    z_T, z_min = stepper.run(config["z0_amplitude"] * profile, u)

    eps_target = TARGET_FRACTION * m_norm(zhat_T, m)
    residual = m_norm(z_T - zhat_T, m)
    ratio = residual / eps_target
    v.figures["residual_ratio"] = ratio
    v.check(ratio <= 1.0, f"terminal residual {residual:.3e} exceeds eps_target {eps_target:.3e}")
    if reported is not None:
        v.check(
            abs(residual - reported) <= 1e-6 * eps_target,
            f"re-simulated residual {residual:.6e} differs from the reported {reported:.6e}",
        )
    constraints = config["constraints"]
    if constraints["nonneg_control"]:
        v.check(u.min() >= -EPS_CONS, f"control dips to {u.min():.3e}")
    if constraints["nonneg_state"]:
        v.check(z_min >= -EPS_CONS, f"state dips to {z_min:.3e}")

    traj = outdir / "trajectory.csv"
    try:
        with open(traj, "rb") as f:
            header = f.readline().strip()
        last = _read_tail_rows(traj, n_x + 1)
    except (OSError, ValueError) as exc:
        v.check(False, f"trajectory.csv unreadable: {exc}")
        return v
    v.check(header == b"t,x,z", f"trajectory.csv header {header!r}")
    if v.check(last.shape == (n_x + 1, 3), "trajectory.csv final slice is incomplete"):
        v.check(np.allclose(last[:, 0], T, rtol=1e-12, atol=0), "trajectory.csv ends before T")
        scale = 1.0 + float(np.abs(z_T).max())
        v.check(
            np.allclose(last[1:-1, 2], z_T, rtol=0, atol=1e-9 * scale),
            "trajectory.csv final state differs from the re-simulated one",
        )
    return v


def _parse_csv_lines(text: str, header: str, n_cols: int) -> np.ndarray:
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != header:
        raise ValueError(f"expected header {header!r}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if any(len(r) != n_cols for r in rows):
        raise ValueError("ragged CSV rows")
    return np.array(rows, dtype=float).reshape(-1, n_cols)


def verify_spectrum(stdout: str, kmax: int) -> Verdict:
    """Check ``fracheat spectrum`` output: kmax positive increasing eigenvalues."""
    v = Verdict()
    try:
        rows = _parse_csv_lines(stdout, "k,lambda", 2)
    except ValueError as exc:
        v.check(False, f"spectrum output unreadable: {exc}")
        return v
    if not v.check(rows.shape[0] == kmax, f"{rows.shape[0]} eigenvalues, expected {kmax}"):
        return v
    lam = rows[:, 1]
    v.check(np.array_equal(rows[:, 0], np.arange(1, kmax + 1)), "eigenvalue indices out of order")
    v.check(bool(np.isfinite(lam).all() and (lam > 0).all()), "eigenvalues not finite and positive")
    v.check(bool((np.diff(lam) > 0).all()), "eigenvalues not strictly increasing")
    v.figures["lambda_1"] = float(lam[0])
    return v


def verify_obs_curve(stdout: str, tmin: float, tmax: float, points: int) -> Verdict:
    """Check ``fracheat obs-curve`` output.

    C_lower must be finite and positive at every horizon of the sweep, and
    C_envelope must be nonincreasing in T and never below C_lower.
    """
    v = Verdict()
    try:
        rows = _parse_csv_lines(stdout, "T,C_lower,C_envelope", 3)
    except ValueError as exc:
        v.check(False, f"obs-curve output unreadable: {exc}")
        return v
    if not v.check(rows.shape[0] == points, f"{rows.shape[0]} horizons, expected {points}"):
        return v
    T, c, env = rows.T
    v.check(np.allclose(T, np.geomspace(tmax, tmin, points), rtol=1e-12, atol=0), "horizons differ from the sweep")
    if not v.check(bool(np.isfinite(c).all() and (c > 0).all()), "C_lower not finite and positive"):
        return v
    order = np.argsort(T)
    v.check(bool((np.diff(env[order]) <= 0).all()), "C_envelope increases with T")
    v.check(bool((env >= c).all()), "C_envelope below C_lower")
    v.figures["log10_c_mean"] = float(np.mean(np.log10(c)))
    return v


def load_schema(root: Path) -> dict:
    """The summary schema shipped with the package under test."""
    path = root / "src" / "fracheat" / "schemas" / "summary.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))
