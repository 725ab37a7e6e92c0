import re

import pytest

import cavmag
import cavmag.sweep
from cavmag import config, dynamics, model
from cavmag.cli import main
from cavmag.model import internal_to_hz


def test_parse_config_text():
    text = """
    # reference setup
    omega_a_hz = 1.0e10
    kappa_a_hz = 5e6   # amplitude decay
    r = 1.5

    temperature_k = 0.1
    """
    values = config.parse_config_text(text)
    assert values == {"omega_a_hz": 1.0e10, "kappa_a_hz": 5e6,
                      "r": 1.5, "temperature_k": 0.1}


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        config.parse_config_text("bogus = 1\n")


def test_parse_rejects_bad_number():
    with pytest.raises(ValueError, match="not a number"):
        config.parse_config_text("r = fast\n")


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite(raw):
    with pytest.raises(ValueError, match="'temperature_k' must be finite"):
        config.parse_config_text(f"temperature_k = {raw}\n")
    with pytest.raises(ValueError, match="'g1_hz' must be finite"):
        config.parse_overrides([f"g1_hz={raw}"])


def test_parse_rejects_missing_equals():
    with pytest.raises(ValueError, match="^config:1: expected key=value, got 'r 2'$"):
        config.parse_config_text("r 2\n")
    with pytest.raises(ValueError, match="^--set: expected key=value, got 'r'$"):
        config.parse_overrides(["r"])


def test_parse_reports_line_numbers():
    with pytest.raises(ValueError, match=":3:"):
        config.parse_config_text("r = 1\n\nbogus = 2\n")


def test_overrides():
    values = config.parse_overrides(["r=2", "g2_hz=0"])
    assert values == {"r": 2.0, "g2_hz": 0.0}
    with pytest.raises(ValueError, match="key=value"):
        config.parse_overrides(["r"])


def test_merge_precedence():
    merged = config.merge({"r": 1.0, "g1_hz": 1e6}, {"r": 0.5})
    assert merged["r"] == 0.5          # later layer wins
    assert merged["g1_hz"] == 1e6      # file layer kept
    assert merged["kappa_a_hz"] == 5e6  # default kept


def test_defaults_cover_all_keys():
    assert set(config.DEFAULTS) == set(config.CONFIG_KEYS)


def test_system_params_conversion():
    params = config.fixed_from_values().params
    assert params.omega_a == 10000.0
    assert params.kappa_a == 5.0
    assert params.g1 == 20.0


def test_fixed_from_values_of_defaults_is_the_reference_point():
    assert config.fixed_from_values(config.DEFAULTS) == config.fixed_from_values()
    assert type(config.fixed_from_values()) is model.FixedPoint
    assert cavmag.FixedPoint is cavmag.sweep.FixedPoint is model.FixedPoint
    assert cavmag.sweep.fixed_from_values is config.fixed_from_values
    assert cavmag.UnstableSystemError is dynamics.UnstableSystemError


def test_fixed_from_values_builds_a_partial_dict():
    # The keys not given keep their defaults: {"r": 1.0} is the full
    # configuration with r = 1.
    point = config.fixed_from_values({"r": 1.0})
    assert point == config.fixed_from_values(dict(config.DEFAULTS, r=1.0))
    reference = config.fixed_from_values()
    assert point == model.FixedPoint(reference.params, model.DriveParams(1.0, 0.0),
                                     reference.temperature)


def test_fixed_from_values_later_layers_win():
    point = config.fixed_from_values({"r": 1.0, "g1_hz": 1e6, "temperature_k": 0.1},
                                     {"r": 0.5, "g2_hz": 2e6},
                                     {"r": 0.25, "temperature_k": 0.0})
    assert point == config.fixed_from_values(dict(
        config.DEFAULTS, r=0.25, g1_hz=1e6, g2_hz=2e6, temperature_k=0.0))
    assert (point.drive.r, point.params.g1, point.params.g2, point.temperature) == (
        0.25, 1.0, 2.0, 0.0)


@pytest.mark.parametrize("layers", [({"bogus": 1.0},), ({"r": 1.0}, {"bogus": 1.0})])
def test_fixed_from_values_rejects_an_unknown_key(layers):
    with pytest.raises(ValueError, match="^unknown key 'bogus'; valid keys: omega_a_hz, "):
        config.fixed_from_values(*layers)


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("r = 0.5\ntheta_rad = 1.0\n", encoding="utf-8")
    assert config.load_config(path) == {"r": 0.5, "theta_rad": 1.0}


def test_config_that_is_not_utf8_names_its_file(tmp_path, capsys):
    # A UTF-16 file (byte-order mark ff fe) is named as the parser names
    # path:line, and stays a usage error.
    path = tmp_path / "run.cfg"
    path.write_bytes("r = 0.5\n".encode("utf-16"))
    with pytest.raises(ValueError) as info:
        config.load_config(path)
    assert str(info.value).startswith(f"{path}: not UTF-8 text: 'utf-8' codec")
    assert main(["point", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: {path}: not UTF-8 text")


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    # A UTF-8 file saved with a byte-order mark parses as the same file
    # without it; bytes that are not UTF-8 after the mark stay a usage error.
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text("r = 1.5\ntheta_rad = 1.0\n", encoding="utf-8")
    marked.write_text("r = 1.5\ntheta_rad = 1.0\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbfr")
    assert config.load_config(marked) == config.load_config(plain) == {
        "r": 1.5, "theta_rad": 1.0}
    marked.write_bytes(b"\xef\xbb\xbfr = 1.5\xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(marked))}: not UTF-8 text: "):
        config.load_config(marked)
    assert main(["point", "--config", str(marked)]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: {marked}: not UTF-8 text")


def test_default_params_match_defaults():
    params, env = config.default_params()
    for key in config.CONFIG_KEYS:
        if key.endswith("_hz"):
            assert internal_to_hz(getattr(params, key[:-3])) == config.DEFAULTS[key], key
    assert env.temperature == config.DEFAULTS["temperature_k"]
    assert cavmag.default_params is config.default_params
