"""Flat `key = value` run configuration.

Angles are degrees in the file and radians internally.  Defaults reproduce
the first capillary-rise test case; every key may be overridden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields

from .errors import ConfigError
from .fields import NumParams, PhysParams

# wall-slip parameter reproducing the reference transient on the 16x32 grid
CHI_DEFAULT = 850.0


@dataclass(frozen=True)
class RunConfig:
    nu: float = 1.87e-5
    gamma: float = 3.91e-8
    chi: float = CHI_DEFAULT
    theta_s_deg: float = 90.0
    p_bar: float = 9.81e-4
    g: float = 9.81
    radius: float = 5e-4
    init_height: float = 5e-5
    N1: int = 16
    N3: int = 32
    dt: float = 2e-3
    Cs: float = 0.4
    alpha: float = 2.2e7
    lam: float = 0.22
    T: float = 0.2
    controlled: bool = True
    snapshot_every: int = 0
    out_dir: str = "out"


# file key -> attribute (identity unless listed; a listed attribute's name is no key)
_KEY_TO_ATTR = {"lambda": "lam", "theta_s": "theta_s_deg"}
_ATTR_TO_KEY = {v: k for k, v in _KEY_TO_ATTR.items()}


def parse_config(text: str) -> RunConfig:
    """Parse a flat key = value config.  Unknown or malformed keys, non-finite
    numbers and values the parameter records reject raise ConfigError."""
    values = {}
    types = {f.name: type(getattr(RunConfig(), f.name)) for f in dc_fields(RunConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        attr = _KEY_TO_ATTR.get(key, key)
        if attr not in types or key in _ATTR_TO_KEY:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if attr in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            ty = types[attr]
            if ty is bool:
                if val.lower() in ("true", "1", "yes"):
                    values[attr] = True
                elif val.lower() in ("false", "0", "no"):
                    values[attr] = False
                else:
                    raise ValueError(val)
            elif ty is int:
                values[attr] = int(val)
            elif ty is float:
                values[attr] = float(val)
                if not math.isfinite(values[attr]):
                    raise ConfigError(f"line {lineno}: {key!r} must be finite, got {val!r}")
            else:
                values[attr] = val
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {val!r}") from exc
    cfg = RunConfig(**values)
    if not (cfg.radius > 0 and cfg.init_height > 0):
        raise ConfigError("invalid config: radius and init_height must be positive")
    if cfg.snapshot_every < 0:
        raise ConfigError("invalid config: snapshot_every must be nonnegative")
    try:
        phys_params(cfg)
        num_params(cfg)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """The config as parse_config reads it back.  A string value that would
    read back otherwise (one holding '#' or a line break, or with
    whitespace at either end) raises ConfigError naming its key."""
    lines = []
    for f in dc_fields(RunConfig):
        key = _ATTR_TO_KEY.get(f.name, f.name)
        val = getattr(cfg, f.name)
        if isinstance(val, bool):
            text = "true" if val else "false"
        elif isinstance(val, float):
            text = f"{val:.17g}"
        else:
            text = str(val)
            # parse_config cuts a line at '#', splits at every line break
            # and strips each value
            if "#" in text or text != text.strip() or text.splitlines() not in ([], [text]):
                raise ConfigError(f"{key!r} cannot be written so that it reads back: {text!r}")
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def phys_params(cfg: RunConfig) -> PhysParams:
    return PhysParams(nu=cfg.nu, gamma=cfg.gamma, chi=cfg.chi,
                      theta_s=math.radians(cfg.theta_s_deg),
                      p_bar=cfg.p_bar, g=cfg.g)


def num_params(cfg: RunConfig) -> NumParams:
    return NumParams(dt=cfg.dt, Cs=cfg.Cs, N1=cfg.N1, N3=cfg.N3,
                     alpha=cfg.alpha, lam=cfg.lam, T=cfg.T)
