"""Flat key=value run configuration with environment overrides.

Config files hold one KEY=VALUE pair per line; blank lines and lines
starting with # are ignored. Only the keys in KEYS are recognised: an
unknown key in a file is an error, and each key can be overridden by an
environment variable named HGNIDS_<KEY> (upper-cased). No other
environment variable is read.
"""

from __future__ import annotations

import os

ENV_PREFIX = "HGNIDS_"

KEYS = (
    "n_computers",
    "n_epochs",
    "batch_size",
    "attack_frac",
    "adv_per_batch",
    "ballast_size",
    "use_weights",
)


def load_config(path=None, env: dict[str, str] | None = None) -> dict[str, str]:
    values: dict[str, str] = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip().lower()
                if key not in KEYS:
                    known = ", ".join(KEYS)
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}; known keys: {known}")
                values[key] = value.strip()
    source = os.environ if env is None else env
    for key in KEYS:
        name = ENV_PREFIX + key.upper()
        if name in source:
            values[key] = source[name]
    return values


def config_int(cfg: dict[str, str], key: str, default: int) -> int:
    return int(cfg[key]) if key in cfg else default


def config_float(cfg: dict[str, str], key: str, default: float) -> float:
    return float(cfg[key]) if key in cfg else default


def config_bool(cfg: dict[str, str], key: str, default: bool) -> bool:
    if key not in cfg:
        return default
    return cfg[key].strip().lower() in ("1", "true", "yes", "on")
