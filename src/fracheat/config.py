"""Scenario configuration: JSON parsing, presets, and resolution.

A scenario is described by a JSON object.  Every field is optional; a
``case_preset`` fills in the fields of one of the two shipped case
studies, and explicit fields always win over the preset.  The resolved
configuration is fully explicit and is echoed verbatim into the emitted
summary so a run can be reproduced from its artifacts alone.

Accepted keys::

    case_preset     "case1" | "case2"
    s               fractional order, in [0.01, 0.99]
    n_x             number of mesh cells on (-1, 1), >= 4
    n_t             number of time steps, >= 1
    omega           [a, b] control region, -1 < a < b < 1, holding at
                    least two neighbouring nodes of the n_x grid
    normalization   "unit" | "symbol"
    z0_amplitude    initial datum amplitude: z0 = A cos(pi x / 2), >= 0
                    when constraints.nonneg_state is true
    zhat0_amplitude target initial amplitude, > 0
    uhat            constant target control level, >= 0
    nu              > 0 or null; recorded only (see below)
    horizon_mode    {"fixed": T} or
                    {"minimal_time": {"bracket": [lo, hi], "tol": t}}
    constraints     {"nonneg_control": bool, "nonneg_state": bool}; the
                    state constraint needs s of about 0.24 or more
    output_dir      directory receiving the result files
    emit_plots      also write plot scripts
    seed            >= 0; recorded only (see below)

``nu`` and ``seed`` change no result: they are validated and echoed into
the summary's resolved config, and nothing else reads them.  They are
still accepted because existing configs, the benchmark's among them, set
them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .assembly import NORMALIZATIONS, S_MAX, S_MIN
from .errors import ConfigError
from .grid import build_grid, nodes_in_interval, trapezoid_weights

__all__ = [
    "HorizonMode",
    "ScenarioConfig",
    "parse_config",
    "preset_fields",
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

_PRESETS: dict[str, dict] = {
    "case1": {
        "n_t": 300,
        "z0_amplitude": 2.0,
        "zhat0_amplitude": 0.05,
        "uhat": 0.2,
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


def preset_fields(name: str) -> dict:
    """Fields a preset fills in where the user left them unset.

    Parameters
    ----------
    name : str
        "case1" or "case2".

    Returns
    -------
    dict
        A copy of the preset's field overrides.
    """
    if name not in _PRESETS:
        raise ConfigError(
            f"case_preset: unknown preset {name!r}, expected one of "
            f"{sorted(_PRESETS)}"
        )
    return json.loads(json.dumps(_PRESETS[name]))


@dataclass(frozen=True)
class HorizonMode:
    """Either a fixed-horizon solve or a minimal-time bisection.

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

    @classmethod
    def fixed(cls, T: float) -> "HorizonMode":
        """Fixed-horizon mode at time T."""
        return cls(kind="fixed", T=float(T))

    @classmethod
    def minimal_time(cls, bracket: tuple[float, float], tol: float) -> "HorizonMode":
        """Minimal-time mode bisecting the given bracket down to tol."""
        lo, hi = float(bracket[0]), float(bracket[1])
        return cls(kind="minimal_time", bracket=(lo, hi), tol=float(tol))

    def to_dict(self) -> dict:
        """JSON-ready form mirroring the accepted config syntax."""
        if self.kind == "fixed":
            return {"fixed": self.T}
        return {"minimal_time": {"bracket": list(self.bracket), "tol": self.tol}}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved description of one scenario run.

    Attributes mirror the accepted JSON keys; see the module docstring.
    ``constraints`` is flattened into the two booleans.
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
    if v != v:
        _fail(path, "must not be NaN")
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


def _check_bool(path: str, value) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected a boolean, got {type(value).__name__}")
    return bool(value)


def _check_omega(path: str, value, n_x: int) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        _fail(path, f"expected a pair [a, b], got {value!r}")
    a = _check_number(f"{path}[0]", value[0])
    b = _check_number(f"{path}[1]", value[1])
    if not (-1.0 < a < b < 1.0):
        _fail(path, f"must satisfy -1 < a < b < 1, got [{a}, {b}]")
    grid = build_grid(n_x)
    if not nodes_in_interval(grid, (a, b)).any():
        _fail(path, f"[{a}, {b}] holds no interior node of the n_x = {n_x} grid")
    # the quadrature over omega gives a node weight only for a neighbour
    # inside omega too, so a lone node would make every integral over it 0
    if not trapezoid_weights(grid, (a, b)).any():
        _fail(
            path,
            f"[{a}, {b}] holds one node of the n_x = {n_x} grid and no neighbour "
            "of it, so its quadrature weights are all zero",
        )
    return (a, b)


def _parse_horizon(
    value,
    default_bracket: tuple[float, float] = (0.7, 0.9),
    default_tol: float = 0.02,
) -> HorizonMode:
    if not isinstance(value, dict) or len(value) != 1:
        _fail(
            "horizon_mode",
            'expected exactly one of {"fixed": T} or {"minimal_time": {...}}, '
            f"got {value!r}",
        )
    (key, body), = value.items()
    if key == "fixed":
        return HorizonMode.fixed(_check_number("horizon_mode.fixed", body, minimum=1e-12))
    if key == "minimal_time":
        if not isinstance(body, dict):
            _fail("horizon_mode.minimal_time", f"expected an object, got {body!r}")
        extra = set(body) - {"bracket", "tol"}
        if extra:
            _fail("horizon_mode.minimal_time", f"unknown keys {sorted(extra)}")
        bracket = body.get("bracket", list(default_bracket))
        if not isinstance(bracket, (list, tuple)) or len(bracket) != 2:
            _fail("horizon_mode.minimal_time.bracket", f"expected [lo, hi], got {bracket!r}")
        lo = _check_number("horizon_mode.minimal_time.bracket[0]", bracket[0], minimum=1e-12)
        hi = _check_number("horizon_mode.minimal_time.bracket[1]", bracket[1])
        if hi <= lo:
            _fail("horizon_mode.minimal_time.bracket", f"needs lo < hi, got [{lo}, {hi}]")
        tol = _check_number("horizon_mode.minimal_time.tol", body.get("tol", default_tol), minimum=1e-12)
        return HorizonMode.minimal_time((lo, hi), tol)
    _fail("horizon_mode", f"unknown mode {key!r}, expected 'fixed' or 'minimal_time'")


def _parse_constraints(value) -> tuple[bool, bool]:
    if not isinstance(value, dict):
        _fail("constraints", f"expected an object, got {value!r}")
    extra = set(value) - {"nonneg_control", "nonneg_state"}
    if extra:
        _fail("constraints", f"unknown keys {sorted(extra)}")
    return (
        _check_bool("constraints.nonneg_control", value.get("nonneg_control", True)),
        _check_bool("constraints.nonneg_state", value.get("nonneg_state", True)),
    )


def parse_config(text: bytes | str) -> ScenarioConfig:
    """Parse and validate a JSON scenario configuration.

    Resolution order for every field: explicit value, then the preset's
    value when ``case_preset`` is given, then the built-in default.  The
    built-in defaults reproduce the first case study's discretization
    with a fixed horizon of 0.9.

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

    merged = dict(_DEFAULTS)
    preset = raw.get("case_preset")
    if preset is not None:
        if not isinstance(preset, str):
            _fail("case_preset", f"expected a string, got {type(preset).__name__}")
        merged.update(preset_fields(preset))
        merged["case_preset"] = preset
    # explicit fields win over the preset
    for key, value in raw.items():
        if key != "case_preset":
            merged[key] = value

    s = _check_number("s", merged["s"], minimum=S_MIN, maximum=S_MAX)
    # the summary's gap statistics need three eigenvalues, so three
    # interior nodes
    n_x = _check_int("n_x", merged["n_x"], minimum=4)
    n_t = _check_int("n_t", merged["n_t"], minimum=1)
    omega = _check_omega("omega", merged["omega"], n_x)
    normalization = merged["normalization"]
    if normalization not in NORMALIZATIONS:
        _fail("normalization", f"expected one of {NORMALIZATIONS}, got {normalization!r}")
    z0_amp = _check_number("z0_amplitude", merged["z0_amplitude"])
    zhat0_amp = _check_number("zhat0_amplitude", merged["zhat0_amplitude"], minimum=1e-300)
    uhat = _check_number("uhat", merged["uhat"], minimum=0.0)
    nu = merged["nu"]
    if nu is not None:
        nu = _check_number("nu", nu, minimum=1e-300)
    # a user horizon_mode without bracket/tol inherits them from the
    # preset's (or default's) minimal_time settings
    base_raw = _DEFAULTS["horizon_mode"]
    if preset is not None and "horizon_mode" in _PRESETS[preset]:
        base_raw = _PRESETS[preset]["horizon_mode"]
    base = _parse_horizon(base_raw)
    if "horizon_mode" in raw:
        if base.kind == "minimal_time":
            horizon = _parse_horizon(raw["horizon_mode"], base.bracket, base.tol)
        else:
            horizon = _parse_horizon(raw["horizon_mode"])
    else:
        horizon = base
    nonneg_control, nonneg_state = _parse_constraints(merged["constraints"])
    if nonneg_state and z0_amp < 0:
        # z0 is the first state of every trajectory, so no control can
        # satisfy the state constraint
        _fail(
            "z0_amplitude",
            f"must be >= 0 when constraints.nonneg_state is true, got {z0_amp}",
        )
    output_dir = merged["output_dir"]
    if not isinstance(output_dir, str) or not output_dir:
        _fail("output_dir", f"expected a nonempty string, got {output_dir!r}")
    emit_plots = _check_bool("emit_plots", merged["emit_plots"])
    seed = _check_int("seed", merged["seed"], minimum=0)

    return ScenarioConfig(
        case_preset=preset,
        s=s,
        n_x=n_x,
        n_t=n_t,
        omega=omega,
        normalization=normalization,
        z0_amplitude=z0_amp,
        zhat0_amplitude=zhat0_amp,
        uhat=uhat,
        nu=nu,
        horizon=horizon,
        nonneg_control=nonneg_control,
        nonneg_state=nonneg_state,
        output_dir=output_dir,
        emit_plots=emit_plots,
        seed=seed,
    )
