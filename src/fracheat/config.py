"""Scenario configuration: JSON parsing, presets, and resolution.

A scenario is described by a JSON object.  Every field is optional; a
``case_preset`` fills in the fields of one of the two shipped case
studies, and explicit fields always win over the preset.  A
``minimal_time`` body without a bracket or tol takes them from the
preset's, else from [0.7, 0.9] and 0.02.  Every number must be finite.
The resolved configuration is fully explicit and is echoed verbatim into
the emitted summary so a run can be reproduced from its artifacts alone.

Accepted keys::

    case_preset     "case1" | "case2"
    s               fractional order, in [0.01, 0.99]
    n_x             number of mesh cells on (-1, 1), >= 4
    n_t             number of time steps, >= 1
    omega           [a, b] control region, -1 < a < b < 1, holding at
                    least one node of the n_x grid
    normalization   "unit" | "symbol"
    z0_amplitude    initial datum amplitude: z0 = A cos(pi x / 2), >= 0
                    when constraints.nonneg_state is true
    zhat0_amplitude target initial amplitude, > 0
    uhat            constant target control level, >= 0
    nu              > 0 or null; recorded only (see below)
    horizon_mode    {"fixed": T} or
                    {"minimal_time": {"bracket": [lo, hi], "tol": t}}
    constraints     {"nonneg_control": bool, "nonneg_state": bool}; the
                    state constraint needs s >= 0.2374, and
                    minimal_time needs the control constraint
    output_dir      directory receiving the result files
    emit_plots      also write plot.py, which renders the artifacts
    seed            >= 0; recorded only (see below)

``nu`` and ``seed`` change no result: they are validated and echoed into
the summary's resolved config, and nothing else reads them.  They are
still accepted because existing configs, the benchmark's among them, set
them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import partial

from .assembly import NORMALIZATIONS, S_MAX, S_MIN
from .errors import ConfigError
from .grid import build_grid, nodes_in_interval

__all__ = [
    "HorizonMode",
    "ScenarioConfig",
    "parse_config",
]

_DEFAULTS: dict = {
    "case_preset": None,
    "s": 0.8,
    "n_x": 20,
    "n_t": 300,
    "omega": (-0.3, 0.8),
    "normalization": "unit",
    "z0_amplitude": 2.0,
    "zhat0_amplitude": 0.05,
    "uhat": 0.2,
    "nu": None,
    "horizon_mode": {"fixed": 0.9},
    "constraints": {"nonneg_control": True, "nonneg_state": True},
    "output_dir": "fracheat-out",
    "emit_plots": False,
    "seed": 42,
}

# case 1's data are the defaults, so its preset sets only the horizon
_PRESETS: dict[str, dict] = {
    "case1": {
        "horizon_mode": {"minimal_time": {"bracket": [0.7, 0.9], "tol": 0.02}},
    },
    "case2": {
        "n_t": 100,
        "z0_amplitude": 0.5,
        "zhat0_amplitude": 6.0,
        "uhat": 1.0,
        "horizon_mode": {"minimal_time": {"bracket": [0.15, 0.4], "tol": 0.02}},
    },
}

_KNOWN_KEYS = frozenset(_DEFAULTS)


@dataclass(frozen=True)
class HorizonMode:
    """Either a fixed-horizon solve or a minimal-time bisection.

    Construction checks the fields of its kind, makes the bracket a tuple,
    and rejects the other kind's fields.

    Attributes
    ----------
    kind : str
        "fixed" or "minimal_time".
    T : float or None
        Horizon of a fixed solve.
    bracket : (float, float) or None
        Bisection bracket (infeasible lower, feasible upper horizon).
    tol : float or None
        Bracket width at which the bisection stops.
    """

    kind: str
    T: float | None = None
    bracket: tuple[float, float] | None = None
    tol: float | None = None

    def __post_init__(self):
        kind, put = self.kind, partial(object.__setattr__, self)
        if kind not in ("fixed", "minimal_time"):
            _fail("horizon_mode", f"unknown mode {kind!r}, expected 'fixed' or 'minimal_time'")
        unused = ("bracket", "tol") if kind == "fixed" else ("T",)
        if any(getattr(self, name) is not None for name in unused):
            _fail("horizon_mode", f"a {kind} horizon has no {' or '.join(unused)}")
        if kind == "fixed":
            put("T", _check_number("horizon_mode.fixed", self.T, minimum=1e-12))
            return
        path = "horizon_mode.minimal_time"
        bracket = self.bracket
        if not isinstance(bracket, (list, tuple)) or len(bracket) != 2:
            _fail(f"{path}.bracket", f"expected [lo, hi], got {bracket!r}")
        lo = _check_number(f"{path}.bracket[0]", bracket[0], minimum=1e-12)
        hi = _check_number(f"{path}.bracket[1]", bracket[1])
        if hi <= lo:
            _fail(f"{path}.bracket", f"needs lo < hi, got [{lo}, {hi}]")
        put("bracket", (lo, hi))
        put("tol", _check_number(f"{path}.tol", self.tol, minimum=1e-12))

    def to_dict(self) -> dict:
        """JSON-ready form mirroring the accepted config syntax."""
        if self.kind == "fixed":
            return {"fixed": self.T}
        return {"minimal_time": {"bracket": list(self.bracket), "tol": self.tol}}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved description of one scenario run.

    Attributes mirror the accepted JSON keys; see the module docstring.
    ``constraints`` is flattened into the two booleans.  Construction
    checks the fields, in order, and coerces them as ``parse_config`` does.
    """

    case_preset: str | None
    s: float
    n_x: int
    n_t: int
    omega: tuple[float, float]
    normalization: str
    z0_amplitude: float
    zhat0_amplitude: float
    uhat: float
    nu: float | None
    horizon: HorizonMode
    nonneg_control: bool
    nonneg_state: bool
    output_dir: str
    emit_plots: bool
    seed: int

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        preset = self.case_preset
        if preset not in (None, *_PRESETS):
            _fail("case_preset", f"expected null or one of {sorted(_PRESETS)}, got {preset!r}")
        put("s", _check_number("s", self.s, minimum=S_MIN, maximum=S_MAX))
        # the summary's gap statistics need three eigenvalues: three interior nodes
        put("n_x", _check_int("n_x", self.n_x, minimum=4))
        put("n_t", _check_int("n_t", self.n_t, minimum=1))
        put("omega", _check_omega("omega", self.omega, self.n_x))
        if self.normalization not in NORMALIZATIONS:
            _fail(
                "normalization", f"expected one of {NORMALIZATIONS}, got {self.normalization!r}"
            )
        for name, least in (("z0_amplitude", None), ("zhat0_amplitude", 1e-300), ("uhat", 0.0)):
            put(name, _check_number(name, getattr(self, name), minimum=least))
        if self.nu is not None:
            put("nu", _check_number("nu", self.nu, minimum=1e-300))
        if not isinstance(self.horizon, HorizonMode):
            _fail("horizon_mode", f"expected a HorizonMode, got {self.horizon!r}")
        _check_bool("constraints.nonneg_control", self.nonneg_control)
        _check_bool("constraints.nonneg_state", self.nonneg_state)
        if self.horizon.kind == "minimal_time" and not self.nonneg_control:
            _fail(
                "constraints.nonneg_control",
                "minimal_time mode requires the control nonnegativity constraint "
                "(without it every horizon is feasible and no transition exists)",
            )
        if self.nonneg_state and self.z0_amplitude < 0:
            # z0 is the first state of every trajectory, so no control can
            # satisfy the state constraint
            _fail(
                "z0_amplitude",
                f"must be >= 0 when constraints.nonneg_state is true, got {self.z0_amplitude}",
            )
        if not isinstance(self.output_dir, str) or not self.output_dir:
            _fail("output_dir", f"expected a nonempty string, got {self.output_dir!r}")
        _check_bool("emit_plots", self.emit_plots)
        put("seed", _check_int("seed", self.seed, minimum=0))

    def to_dict(self) -> dict:
        """Fully explicit JSON-ready form, echoed into the summary."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["omega"] = list(self.omega)
        out["horizon_mode"] = out.pop("horizon").to_dict()
        out["constraints"] = {key: out.pop(key) for key in ("nonneg_control", "nonneg_state")}
        return out


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _check_number(path: str, value, minimum=None, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    v = float(value)
    if not math.isfinite(v):
        _fail(path, f"must be finite, got {value}")
    if minimum is not None and v < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and v > maximum:
        _fail(path, f"must be <= {maximum}, got {value}")
    return v


def _check_int(path: str, value, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return int(value)


def _check_bool(path: str, value) -> None:
    if not isinstance(value, bool):
        _fail(path, f"expected a boolean, got {type(value).__name__}")


def _check_omega(path: str, value, n_x: int) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        _fail(path, f"expected a pair [a, b], got {value!r}")
    a = _check_number(f"{path}[0]", value[0])
    b = _check_number(f"{path}[1]", value[1])
    if not (-1.0 < a < b < 1.0):
        _fail(path, f"must satisfy -1 < a < b < 1, got [{a}, {b}]")
    if not nodes_in_interval(build_grid(n_x), (a, b)).any():
        _fail(path, f"[{a}, {b}] holds no interior node of the n_x = {n_x} grid")
    return (a, b)


def _parse_horizon(value) -> HorizonMode:
    if not isinstance(value, dict) or len(value) != 1:
        _fail(
            "horizon_mode",
            'expected exactly one of {"fixed": T} or {"minimal_time": {...}}, '
            f"got {value!r}",
        )
    (kind, body), = value.items()
    if kind != "minimal_time":
        return HorizonMode(kind, T=body)
    if not isinstance(body, dict):
        _fail("horizon_mode.minimal_time", f"expected an object, got {body!r}")
    extra = set(body) - {"bracket", "tol"}
    if extra:
        _fail("horizon_mode.minimal_time", f"unknown keys {sorted(extra)}")
    return HorizonMode(kind, **body)


def parse_config(text: bytes | str) -> ScenarioConfig:
    """Decode a JSON scenario configuration and resolve it.

    Explicit fields are merged over the preset's when ``case_preset`` is
    given, and those over the built-in defaults; an explicit
    ``minimal_time`` body is merged over the preset's one the same way.
    The merged fields are then checked by :class:`ScenarioConfig` and
    :class:`HorizonMode` as they are built.  The built-in defaults
    reproduce the first case study's discretization with a fixed horizon
    of 0.9.

    Parameters
    ----------
    text : bytes or str
        UTF-8 JSON object.

    Returns
    -------
    ScenarioConfig

    Raises
    ------
    ConfigError
        On malformed JSON, unknown keys, or out-of-range fields; the
        message names the offending field path.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(
            f"top-level value must be a JSON object, got {type(raw).__name__}"
        )
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")

    # an unknown preset merges nothing, and ScenarioConfig rejects it
    preset = raw.get("case_preset")
    preset_fields = _PRESETS.get(preset, {}) if isinstance(preset, str) else {}
    merged = {**_DEFAULTS, **preset_fields, **raw}
    mode = merged.pop("horizon_mode")
    if isinstance(mode, dict) and isinstance(mode.get("minimal_time"), dict):
        # without a preset, a minimal_time body defaults to case 1's bracket and tol
        base = (preset_fields or _PRESETS["case1"])["horizon_mode"]["minimal_time"]
        mode = {**mode, "minimal_time": {**base, **mode["minimal_time"]}}
    horizon = _parse_horizon(mode)
    constraints = merged.pop("constraints")
    if not isinstance(constraints, dict):
        _fail("constraints", f"expected an object, got {constraints!r}")
    extra = set(constraints) - {"nonneg_control", "nonneg_state"}
    if extra:
        _fail("constraints", f"unknown keys {sorted(extra)}")
    constraints = {**_DEFAULTS["constraints"], **constraints}
    return ScenarioConfig(horizon=horizon, **constraints, **merged)
