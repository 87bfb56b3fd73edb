"""Flat ``key = value`` run configuration files.

The format is a minimal ini dialect: ``[section]`` headers prefix the keys
that follow (``section.key``), ``#`` starts a comment, values are bare
strings.  Typed access goes through the getters, which raise ConfigError
with the offending key on any malformed value.

Example::

    [phys]
    eps_kappa = 0.01
    gamma = 1.0

    [grid]
    n = 32

    [run]
    dt = 0.001
    t_end = 2.0
    linearized = true
"""

import math

from .errors import ConfigError

_BOOL = {"true": True, "yes": True, "on": True, "1": True,
         "false": False, "no": False, "off": False, "0": False}


def parse_config(text, origin="<config>"):
    """Parse config text into a flat {"section.key": "value"} dict."""
    out = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError(f"{origin}:{lineno}: empty section name")
            continue
        if "=" not in line:
            raise ConfigError(
                f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        full = f"{section}.{key}" if section else key
        if full in out:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {full!r}")
        out[full] = value
    return out


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, origin=str(path))


_MISSING = object()


def _fetch(cfg, key, default):
    if key in cfg:
        return cfg[key]
    if default is _MISSING:
        raise ConfigError(f"missing required config key {key!r}")
    return default


def get_str(cfg, key, default=_MISSING):
    val = _fetch(cfg, key, default)
    return val


def get_int(cfg, key, default=_MISSING):
    val = _fetch(cfg, key, default)
    if isinstance(val, int):
        return val
    try:
        return int(val)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {val!r} is not an integer") from exc


def get_float(cfg, key, default=_MISSING):
    val = _fetch(cfg, key, default)
    if isinstance(val, float):
        return val
    try:
        out = float(val)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {val!r} is not a number") from exc
    if not math.isfinite(out):
        raise ConfigError(f"config key {key!r}: {val!r} is not finite")
    return out


def get_bool(cfg, key, default=_MISSING):
    val = _fetch(cfg, key, default)
    if isinstance(val, bool):
        return val
    try:
        return _BOOL[val.strip().lower()]
    except KeyError as exc:
        raise ConfigError(f"config key {key!r}: {val!r} is not a boolean") from exc


def _get_list(cfg, key, default, get_one):
    """Comma-separated non-empty list, each entry read by a scalar getter."""
    val = _fetch(cfg, key, default)
    if not isinstance(val, str):
        return val
    toks = (tok.strip() for tok in val.split(","))
    out = tuple(get_one({key: tok}, key) for tok in toks if tok)
    if not out:
        raise ConfigError(f"config key {key!r}: {val!r} is an empty list")
    return out


def get_floats(cfg, key, default=_MISSING):
    """Comma-separated list of finite numbers."""
    return _get_list(cfg, key, default, get_float)


def get_ints(cfg, key, default=_MISSING):
    """Comma-separated list of integers."""
    return _get_list(cfg, key, default, get_int)
