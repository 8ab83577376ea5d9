import math
from pathlib import Path

import pytest

from capflow.acceptance import tc1_config, tc2_config
from capflow.config import (RunConfig, load_config, num_params, parse_config,
                            phys_params, serialize_config)
from capflow.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_roundtrip_identity():
    cfg = RunConfig(chi=123.456, theta_s_deg=69.8, lam=3.25e-4, controlled=False)
    again = parse_config(serialize_config(cfg))
    assert again == cfg


@pytest.mark.parametrize("out_dir", ["runs#1", " padded ", "trailing\t", "two\nlines",
                                     "carriage\rreturn", "vertical\x0btab"],
                         ids=["hash", "padded", "trailing-tab", "newline", "carriage-return",
                              "vertical-tab"])
def test_value_that_would_not_read_back_is_not_written(out_dir):
    with pytest.raises(ConfigError, match="'out_dir'"):
        serialize_config(RunConfig(out_dir=out_dir))


def test_string_value_with_inner_spaces_reads_back():
    cfg = RunConfig(out_dir="runs of 2017/tc 1")
    assert parse_config(serialize_config(cfg)) == cfg


def test_unknown_key_is_rejected_with_name():
    # the attribute names behind the file keys lambda and theta_s are not keys
    for key in ("bogus_key", "lam", "theta_s_deg"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"{key} = 1.0\n")


def test_bad_value_reported():
    with pytest.raises(ConfigError, match="dt"):
        parse_config("dt = fast\n")


@pytest.mark.parametrize("text, message", [
    ("nu = -1\n", "nu, gamma and g must be positive"),
    ("N1 = 1\n", "N1 and N3 must be at least 2"),
    ("\ndt = nan\n", "line 2: 'dt' must be finite"),
    ("gamma = inf\n", "line 1: 'gamma' must be finite"),
    ("theta_s = 180\n", "theta_s"),
    ("Cs = -0.1\n", "nonnegative"),
    ("radius = 0\n", "radius and init_height must be positive"),
    ("init_height = -1e-5\n", "radius and init_height must be positive"),
    ("T = -1\n", "T must be a positive whole number of time steps dt"),
    ("T = 0\n", "T must be a positive whole number of time steps dt"),
    ("dt = 2e-3\nT = 0.005\n", r"T must be .* T/dt = 2\.5"),
    ("dt = 2e-3\nT = 1e-3\n", r"T must be .* T/dt = 0\.5"),
    ("snapshot_every = -1\n", "snapshot_every must be nonnegative"),
], ids=["negative-nu", "one-cell", "nan-dt", "inf-gamma", "flat-angle", "negative-Cs",
        "zero-radius", "negative-height", "negative-T", "zero-T", "fractional-steps",
        "half-step", "negative-snapshot-cadence"])
def test_invalid_values_are_config_errors(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_final_time_within_roundoff_of_whole_steps_is_accepted():
    # 0.2 / 2e-3 is 100.00000000000001 in floating point
    assert num_params(parse_config("dt = 2e-3\nT = 0.2\n")).T == 0.2
    assert parse_config("snapshot_every = 0\n").snapshot_every == 0


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("dt = 1e-3\ndt = 2e-3\n")


def test_comments_and_blank_lines():
    cfg = parse_config("# heading\n\nradius = 1e-3  # inline\n")
    assert cfg.radius == 1e-3


def test_angle_is_degrees_in_file_radians_internally():
    cfg = parse_config("theta_s = 69.8\n")
    assert cfg.theta_s_deg == 69.8
    assert phys_params(cfg).theta_s == pytest.approx(math.radians(69.8))


def test_lambda_key_maps_to_tikhonov_weight():
    cfg = parse_config("lambda = 0.5\n")
    assert cfg.lam == 0.5
    assert num_params(cfg).lam == 0.5


def test_bool_parsing():
    assert parse_config("controlled = false\n").controlled is False
    assert parse_config("controlled = 1\n").controlled is True
    with pytest.raises(ConfigError):
        parse_config("controlled = maybe\n")


def test_missing_file_reported_with_path():
    with pytest.raises(ConfigError, match="no/such"):
        load_config("no/such/file.cfg")


def test_shipped_configs_match_reference_setups():
    """configs/tcN.cfg, the one way to run a test case from the command line,
    reads back as the case the acceptance checks run and holds exactly what
    serialize_config writes of it, under its comments."""
    for name, config in (("tc1", tc1_config()), ("tc2", tc2_config())):
        path = CONFIG_DIR / f"{name}.cfg"
        assert load_config(path) == config
        lines = [line for line in path.read_text().splitlines(keepends=True)
                 if not line.startswith("#")]
        assert "".join(lines) == serialize_config(config), name
