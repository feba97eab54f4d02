"""Scenario configuration parsing, presets, and field validation."""

from __future__ import annotations

import json

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
    assert cfg.horizon == fh.HorizonMode.fixed(0.9)
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
    # without a preset the built-in bracket applies
    cfg = fh.parse_config('{"horizon_mode": {"minimal_time": {}}}')
    assert cfg.horizon.bracket == (0.7, 0.9)


def test_fixed_horizon_override_on_preset():
    cfg = fh.parse_config('{"case_preset": "case1", "horizon_mode": {"fixed": 0.9}}')
    assert cfg.horizon == fh.HorizonMode.fixed(0.9)


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
    with pytest.raises(fh.ConfigError, match="case_preset"):
        fh.parse_config('{"case_preset": 7}')


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
        ('{"constraints": {"nonneg_state": 1}}', "constraints.nonneg_state"),
        ('{"output_dir": ""}', "output_dir"),
        ('{"emit_plots": "yes"}', "emit_plots"),
        ('{"seed": -1}', "seed"),
    ],
)
def test_field_errors_name_the_path(snippet, path):
    with pytest.raises(fh.ConfigError, match=path.replace("[", r"\[")):
        fh.parse_config(snippet)


def test_omega_must_hold_a_grid_node(tmp_path, capsys):
    # the interior nodes of the n_x = 4 grid are -0.5, 0 and 0.5
    with pytest.raises(fh.ConfigError, match=r"^omega: \[0.1, 0.2\] holds no interior node"):
        fh.parse_config('{"n_x": 4, "omega": [0.1, 0.2]}')
    # a lone node without a neighbour in omega gets zero trapezoid weight,
    # so every integral over omega, beta_hat included, would read 0
    for lone in ('{"n_x": 4, "omega": [0.1, 0.5]}',
                 '{"n_x": 4, "n_t": 20, "omega": [0.1, 0.55], "horizon_mode": {"fixed": 0.9}}'):
        with pytest.raises(fh.ConfigError, match=r"^omega: .* no neighbour"):
            fh.parse_config(lone)
    config_path = tmp_path / "lone.json"
    config_path.write_text(lone)
    assert main(["run", "--config", str(config_path)]) == 2
    assert "omega" in capsys.readouterr().err
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
    fixed = fh.HorizonMode.fixed(0.5)
    assert fixed.to_dict() == {"fixed": 0.5}
    mt = fh.HorizonMode.minimal_time((0.1, 0.2), 0.01)
    assert mt.to_dict() == {"minimal_time": {"bracket": [0.1, 0.2], "tol": 0.01}}


def test_preset_fields_returns_a_copy():
    fields = fh.preset_fields("case1")
    fields["n_t"] = 999
    fields["horizon_mode"]["minimal_time"]["tol"] = 123.0
    cfg = fh.parse_config('{"case_preset": "case1"}')
    assert cfg.n_t == 300
    assert cfg.horizon.tol == 0.02
    with pytest.raises(fh.ConfigError, match="unknown preset"):
        fh.preset_fields("case9")
