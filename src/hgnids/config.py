"""Flat key=value run configuration with environment overrides.

Config files hold one KEY=VALUE pair per line, after an optional UTF-8
byte-order mark; blank lines and lines starting with # are ignored.
Only the keys in KEYS are recognised: an unknown key in a file is an
error, and each key can be overridden by an environment variable named
HGNIDS_<KEY> (upper-cased). No other environment variable is read. A
value that does not parse as its key's type is an error naming the key
and where the value was set, from either source, and a file that is not
UTF-8 text is an error naming the file. Every such error is a
ConfigError. Only the simulate and sweep commands load a config.
"""

from __future__ import annotations

import os

ENV_PREFIX = "HGNIDS_"


class ConfigError(ValueError):
    """A config file, environment override or run setting that cannot be used."""


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def parse_bool(text: str) -> bool:
    """1/true/yes/on or 0/false/no/off in any case; any other word is a ValueError."""
    word = text.strip().lower()
    if word not in _BOOL_WORDS:
        raise ValueError(f"expected one of {'/'.join(_BOOL_WORDS)}, got {text!r}")
    return _BOOL_WORDS[word]


# The recognised keys, each with the parser of its value.
KEYS = {
    "n_computers": int,
    "n_epochs": int,
    "batch_size": int,
    "attack_frac": float,
    "adv_per_batch": int,
    "ballast_size": int,
    "use_weights": parse_bool,
}


def _checked(key: str, value: str, where: str) -> str:
    try:
        KEYS[key](value)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from None
    return value


def load_config(path=None, env: dict[str, str] | None = None) -> dict[str, str]:
    values: dict[str, str] = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key not in KEYS:
                known = ", ".join(KEYS)
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; known keys: {known}")
            values[key] = _checked(key, value.strip(), f"{path}:{lineno}")
    source = os.environ if env is None else env
    for key in KEYS:
        name = ENV_PREFIX + key.upper()
        if name in source:
            values[key] = _checked(key, source[name], name)
    return values
