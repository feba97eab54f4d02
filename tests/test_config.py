"""Scenario configuration parsing, presets, and field validation."""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

import fracheat as fh
import fracheat.config
from fracheat.cli import main


def test_empty_object_resolves_to_defaults():
    cfg = fh.parse_config("{}")
    assert cfg.case_preset is None
    assert cfg.s == 0.8
    assert cfg.n_x == 20
    assert cfg.n_t == 300
    assert cfg.omega == (-0.3, 0.8)
    assert cfg.normalization == "unit"
    assert cfg.z0_amplitude == 2.0
    assert cfg.zhat0_amplitude == 0.05
    assert cfg.uhat == 0.2
    assert cfg.nu is None
    assert cfg.horizon == fh.HorizonMode("fixed", T=0.9)
    assert cfg.nonneg_control and cfg.nonneg_state
    assert cfg.output_dir == "fracheat-out"
    assert cfg.emit_plots is False
    assert cfg.seed == 42


def test_case1_preset():
    cfg = fh.parse_config('{"case_preset": "case1"}')
    assert cfg.case_preset == "case1"
    assert cfg.n_t == 300
    assert (cfg.z0_amplitude, cfg.zhat0_amplitude, cfg.uhat) == (2.0, 0.05, 0.2)
    assert cfg.horizon.kind == "minimal_time"
    assert cfg.horizon.bracket == (0.7, 0.9)
    assert cfg.horizon.tol == 0.02


def test_case2_preset():
    cfg = fh.parse_config('{"case_preset": "case2"}')
    assert cfg.n_t == 100
    assert (cfg.z0_amplitude, cfg.zhat0_amplitude, cfg.uhat) == (0.5, 6.0, 1.0)
    assert cfg.horizon.bracket == (0.15, 0.4)


def test_explicit_fields_win_over_preset():
    cfg = fh.parse_config('{"case_preset": "case2", "n_t": 64, "uhat": 0.5}')
    assert cfg.n_t == 64
    assert cfg.uhat == 0.5
    assert cfg.zhat0_amplitude == 6.0


def test_horizon_inherits_bracket_from_preset():
    cfg = fh.parse_config(
        '{"case_preset": "case2", "horizon_mode": {"minimal_time": {}}}'
    )
    assert cfg.horizon.bracket == (0.15, 0.4)
    assert cfg.horizon.tol == 0.02
    cfg = fh.parse_config(
        '{"case_preset": "case2", "horizon_mode": {"minimal_time": {"tol": 0.01}}}'
    )
    assert cfg.horizon.bracket == (0.15, 0.4)
    assert cfg.horizon.tol == 0.01
    # the merge leaves the preset as it was
    assert fh.parse_config('{"case_preset": "case2"}').horizon.tol == 0.02
    # without a preset the built-in bracket applies
    cfg = fh.parse_config('{"horizon_mode": {"minimal_time": {}}}')
    assert cfg.horizon.bracket == (0.7, 0.9)


def test_fixed_horizon_override_on_preset():
    cfg = fh.parse_config('{"case_preset": "case1", "horizon_mode": {"fixed": 0.9}}')
    assert cfg.horizon == fh.HorizonMode("fixed", T=0.9)


def test_bytes_input_and_bad_utf8():
    cfg = fh.parse_config('{"s": 0.5}'.encode())
    assert cfg.s == 0.5
    with pytest.raises(fh.ConfigError, match="UTF-8"):
        fh.parse_config(b'{"s": \xff}')


def test_malformed_json_and_top_level():
    with pytest.raises(fh.ConfigError, match="JSON"):
        fh.parse_config("{not json")
    with pytest.raises(fh.ConfigError, match="object"):
        fh.parse_config("[1, 2]")


def test_unknown_keys_rejected():
    with pytest.raises(fh.ConfigError, match="unknown config keys"):
        fh.parse_config('{"sx": 0.5}')
    with pytest.raises(fh.ConfigError, match="case_preset"):
        fh.parse_config('{"case_preset": "case3"}')
    for preset in ("7", '["case1"]'):
        with pytest.raises(fh.ConfigError, match="^case_preset"):
            fh.parse_config(f'{{"case_preset": {preset}}}')


@pytest.mark.parametrize(
    ("snippet", "path"),
    [
        ('{"s": 1.5}', "s"),
        ('{"s": "big"}', "s"),
        ('{"s": true}', "s"),
        ('{"n_x": 1}', "n_x"),
        ('{"n_x": 3}', "n_x"),
        ('{"n_x": 2.5}', "n_x"),
        ('{"n_t": 0}', "n_t"),
        ('{"omega": [0.5]}', "omega"),
        ('{"omega": [0.8, -0.3]}', "omega"),
        ('{"omega": [-1.0, 0.5]}', "omega"),
        ('{"normalization": "weird"}', "normalization"),
        ('{"z0_amplitude": null}', "z0_amplitude"),
        ('{"z0_amplitude": -1.0}', "z0_amplitude"),
        ('{"case_preset": "case1", "z0_amplitude": -1.0}', "z0_amplitude"),
        ('{"zhat0_amplitude": 0}', "zhat0_amplitude"),
        ('{"uhat": -0.1}', "uhat"),
        ('{"nu": 0}', "nu"),
        ('{"horizon_mode": {"fixed": 0}}', "horizon_mode.fixed"),
        ('{"horizon_mode": {"warp": 1}}', "horizon_mode"),
        ('{"horizon_mode": {"fixed": 1, "minimal_time": {}}}', "horizon_mode"),
        (
            '{"horizon_mode": {"minimal_time": {"bracket": [0.9, 0.7]}}}',
            "horizon_mode.minimal_time.bracket",
        ),
        (
            '{"horizon_mode": {"minimal_time": {"step": 3}}}',
            "horizon_mode.minimal_time",
        ),
        ('{"constraints": {"nonneg": true}}', "constraints"),
        ('{"constraints": 1}', "^constraints: expected an object, got 1"),
        (
            '{"horizon_mode": {"minimal_time": 1}}',
            "^horizon_mode.minimal_time: expected an object, got 1",
        ),
        ('{"constraints": {"nonneg_state": 1}}', "constraints.nonneg_state"),
        ('{"output_dir": ""}', "output_dir"),
        ('{"emit_plots": "yes"}', "emit_plots"),
        ('{"seed": -1}', "seed"),
        ('{"horizon_mode": {"fixed": Infinity}}', "horizon_mode.fixed"),
        ('{"uhat": Infinity}', "uhat"),
        ('{"z0_amplitude": Infinity}', "z0_amplitude"),
        ('{"zhat0_amplitude": Infinity}', "zhat0_amplitude"),
        (
            '{"horizon_mode": {"minimal_time": {"bracket": [0.7, Infinity]}}}',
            "horizon_mode.minimal_time.bracket[1]",
        ),
        ('{"horizon_mode": {"minimal_time": {"tol": Infinity}}}', "horizon_mode.minimal_time.tol"),
        ('{"nu": Infinity}', "nu"),
        ('{"z0_amplitude": -Infinity, "constraints": {"nonneg_state": false}}', "z0_amplitude"),
    ],
)
def test_field_errors_name_the_path(snippet, path):
    with pytest.raises(fh.ConfigError, match=path.replace("[", r"\[")):
        fh.parse_config(snippet)


def test_omega_must_hold_a_grid_node(tmp_path, capsys, monkeypatch):
    # the interior nodes of the n_x = 4 grid are -0.5, 0 and 0.5
    with pytest.raises(fh.ConfigError, match=r"^omega: \[0.1, 0.2\] holds no interior node"):
        fh.parse_config('{"n_x": 4, "omega": [0.1, 0.2]}')
    # one node is enough: it is the control's support, as in ControlProblem
    assert fh.parse_config('{"n_x": 4, "omega": [0.1, 0.5]}').omega == (0.1, 0.5)
    lone = {"n_x": 4, "n_t": 20, "omega": [0.1, 0.55], "horizon_mode": {"fixed": 0.9}}
    config_path = tmp_path / "lone.json"
    config_path.write_text(json.dumps({**lone, "output_dir": str(tmp_path / "out")}))
    monkeypatch.delenv("FRACHEAT_OUTPUT_DIR", raising=False)
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    # beta_hat reads what the lone node x = 0.5 sees of all 3 listed modes
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    op = fh.build_operator(fh.build_grid(4), s=0.8, normalization="unit")
    V = op.lumped_basis.eigenvectors
    assert summary["beta_hat"] == op.grid.h * abs(V[2]).min() > 0.0
    assert fh.parse_config('{"n_x": 4, "omega": [0.0, 0.5]}').omega == (0.0, 0.5)
    # the presets' and the benchmark's omega
    assert fh.parse_config('{"n_x": 20, "omega": [-0.3, 0.8]}').omega == (-0.3, 0.8)


def test_negative_amplitude_parses_without_state_constraint():
    cfg = fh.parse_config(
        '{"z0_amplitude": -1.0, "constraints": {"nonneg_state": false}}'
    )
    assert cfg.z0_amplitude == -1.0 and not cfg.nonneg_state


def test_to_dict_round_trip():
    for text in (
        '{"case_preset": "case2", "seed": 7, "nu": 0.3, "emit_plots": true}',
        "{}",
        '{"case_preset": "case1"}',
        '{"case_preset": "case2"}',
    ):
        cfg = fh.parse_config(text)
        echoed = cfg.to_dict()
        assert fh.parse_config(json.dumps(echoed)) == cfg
        # the echo spells out every key the parser accepts, and no other
        assert set(echoed) == fracheat.config._KNOWN_KEYS


# json.dumps(parse_config(text).to_dict(), sort_keys=True) for each text
FROZEN_ECHOES = {
    "{}": (
        '{"case_preset": null, "constraints": {"nonneg_control": true, "nonneg_state": true}, '
        '"emit_plots": false, "horizon_mode": {"fixed": 0.9}, "n_t": 300, "n_x": 20, '
        '"normalization": "unit", "nu": null, "omega": [-0.3, 0.8], "output_dir": "fracheat-out", '
        '"s": 0.8, "seed": 42, "uhat": 0.2, "z0_amplitude": 2.0, "zhat0_amplitude": 0.05}'
    ),
    '{"case_preset": "case1"}': (
        '{"case_preset": "case1", "constraints": {"nonneg_control": true, "nonneg_state": true}, '
        '"emit_plots": false, "horizon_mode": {"minimal_time": {"bracket": [0.7, 0.9], "tol": 0.02}}, '
        '"n_t": 300, "n_x": 20, "normalization": "unit", "nu": null, "omega": [-0.3, 0.8], '
        '"output_dir": "fracheat-out", "s": 0.8, "seed": 42, "uhat": 0.2, "z0_amplitude": 2.0, '
        '"zhat0_amplitude": 0.05}'
    ),
    '{"case_preset": "case2"}': (
        '{"case_preset": "case2", "constraints": {"nonneg_control": true, "nonneg_state": true}, '
        '"emit_plots": false, "horizon_mode": {"minimal_time": {"bracket": [0.15, 0.4], "tol": 0.02}}, '
        '"n_t": 100, "n_x": 20, "normalization": "unit", "nu": null, "omega": [-0.3, 0.8], '
        '"output_dir": "fracheat-out", "s": 0.8, "seed": 42, "uhat": 1.0, "z0_amplitude": 0.5, '
        '"zhat0_amplitude": 6.0}'
    ),
    # shaped like the benchmark's fully explicit configs; the integer
    # horizon is echoed as a float
    (
        '{"s": 0.8, "n_x": 800, "n_t": 300, "omega": [-0.3, 0.8], "normalization": "unit", '
        '"z0_amplitude": 2.0, "zhat0_amplitude": 0.05, "uhat": 0.2, "nu": null, '
        '"horizon_mode": {"fixed": 1}, "constraints": {"nonneg_control": true, "nonneg_state": true}, '
        '"emit_plots": false, "seed": 1, "output_dir": "out"}'
    ): (
        '{"case_preset": null, "constraints": {"nonneg_control": true, "nonneg_state": true}, '
        '"emit_plots": false, "horizon_mode": {"fixed": 1.0}, "n_t": 300, "n_x": 800, '
        '"normalization": "unit", "nu": null, "omega": [-0.3, 0.8], "output_dir": "out", '
        '"s": 0.8, "seed": 1, "uhat": 0.2, "z0_amplitude": 2.0, "zhat0_amplitude": 0.05}'
    ),
}


def test_echo_is_frozen():
    for text, echo in FROZEN_ECHOES.items():
        assert json.dumps(fh.parse_config(text).to_dict(), sort_keys=True) == echo


def test_env_output_dir_is_echoed_in_the_summary(tmp_path, capsys, monkeypatch):
    # FRACHEAT_OUTPUT_DIR overrides the config's output_dir on the command line
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "n_x": 8, "n_t": 20, "horizon_mode": {"fixed": 0.9},
        "output_dir": str(tmp_path / "configured"),
    }))
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("FRACHEAT_OUTPUT_DIR", str(env_dir))
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    summary = json.loads((env_dir / "summary.json").read_text())
    assert summary["resolved_config"]["output_dir"] == str(env_dir)
    assert not (tmp_path / "configured").exists()


def test_horizon_mode_forms():
    fixed = fh.HorizonMode("fixed", T=0.5)
    assert fixed.to_dict() == {"fixed": 0.5}
    mt = fh.HorizonMode("minimal_time", bracket=(0.1, 0.2), tol=0.01)
    assert mt.to_dict() == {"minimal_time": {"bracket": [0.1, 0.2], "tol": 0.01}}


# a parsed minimal-time config whose every field can be swapped for a bad one
PARSED = fh.parse_config(
    '{"n_x": 10, "horizon_mode": {"minimal_time": {"bracket": [0.3, 0.9], "tol": 0.3}}}'
)


def _change_id(value):
    if isinstance(value, dict):
        return ",".join(f"{key}={v!r}" for key, v in value.items())
    return None


@pytest.mark.parametrize(
    ("changes", "path"),
    [
        ({"case_preset": "case3"}, "case_preset"),
        ({"s": 5}, "s"),
        ({"s": True}, "s"),
        ({"n_x": 3}, "n_x"),
        ({"n_x": 10.0}, "n_x"),
        ({"n_t": 0}, "n_t"),
        ({"omega": (0.5,)}, "omega"),
        ({"omega": (-0.3, float("nan"))}, "omega[1]"),
        ({"omega": (0.8, -0.3)}, "omega"),
        # the interior nodes of the n_x = 10 grid are -0.8, -0.6, ..., 0.8
        ({"omega": (0.05, 0.15)}, "omega"),
        ({"normalization": "weird"}, "normalization"),
        ({"z0_amplitude": -1}, "z0_amplitude"),
        ({"z0_amplitude": float("inf"), "nonneg_state": False}, "z0_amplitude"),
        ({"zhat0_amplitude": 0}, "zhat0_amplitude"),
        ({"uhat": -0.1}, "uhat"),
        ({"nu": 0}, "nu"),
        ({"horizon": {"fixed": 0.9}}, "horizon_mode"),
        ({"nonneg_control": False}, "constraints.nonneg_control"),
        ({"nonneg_control": 1}, "constraints.nonneg_control"),
        ({"nonneg_state": None}, "constraints.nonneg_state"),
        ({"output_dir": ""}, "output_dir"),
        ({"output_dir": None}, "output_dir"),
        ({"emit_plots": "yes"}, "emit_plots"),
        ({"seed": -1}, "seed"),
    ],
    ids=_change_id,
)
def test_replace_keeps_every_config_rule(changes, path):
    # the parsed config is valid, and every swap breaks the named rule alone
    with pytest.raises(fh.ConfigError, match=f"^{re.escape(path)}: "):
        replace(PARSED, **changes)


@pytest.mark.parametrize(
    ("horizon", "changes", "path"),
    [
        (PARSED.horizon, {"tol": 0}, "horizon_mode.minimal_time.tol"),
        (PARSED.horizon, {"bracket": (0.3,)}, "horizon_mode.minimal_time.bracket"),
        (PARSED.horizon, {"bracket": (0.0, 0.9)}, "horizon_mode.minimal_time.bracket[0]"),
        (PARSED.horizon, {"bracket": (0.3, float("inf"))}, "horizon_mode.minimal_time.bracket[1]"),
        (PARSED.horizon, {"bracket": (0.9, 0.3)}, "horizon_mode.minimal_time.bracket"),
        (PARSED.horizon, {"kind": "warp"}, "horizon_mode"),
        # each kind's fields belong to it alone
        (PARSED.horizon, {"kind": "fixed"}, "horizon_mode"),
        (PARSED.horizon, {"T": 0.9}, "horizon_mode"),
        (fh.HorizonMode("fixed", T=0.9), {"T": 0}, "horizon_mode.fixed"),
        (fh.HorizonMode("fixed", T=0.9), {"T": float("nan")}, "horizon_mode.fixed"),
        (fh.HorizonMode("fixed", T=0.9), {"tol": 0.1}, "horizon_mode"),
    ],
    ids=_change_id,
)
def test_replace_keeps_every_horizon_rule(horizon, changes, path):
    with pytest.raises(fh.ConfigError, match=f"^{re.escape(path)}: "):
        replace(horizon, **changes)


def test_replace_coerces_as_parse_config_does():
    cfg = replace(
        PARSED,
        omega=[-0.3, 0.8],
        uhat=1,
        horizon=fh.HorizonMode("fixed", T=1),
        nonneg_control=False,
        output_dir="elsewhere",
    )
    assert cfg.omega == (-0.3, 0.8) and type(cfg.uhat) is float
    assert type(cfg.horizon.T) is float
    assert fh.parse_config(json.dumps(cfg.to_dict())) == cfg
