"""Flat ``key = value`` run configuration files.

The format is a minimal ini dialect: ``[section]`` headers prefix the keys
that follow (``section.key``), ``#`` starts a comment, values are bare
strings.  Typed access goes through the getters, which raise ConfigError
with the offending key on any malformed value.

A parsed file is a ``Config``: its ``resolved`` mapping records every key a
getter read with the typed value it returned, defaults included, and is the
``[resolved]`` section of the run's manifest.  A command that has read its
keys calls ``Config.reject_unused``, which raises ConfigError for any key it
did not read (a misspelling, or a key this run does not use).

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

import difflib
import math

from .errors import ConfigError

_BOOL = {"true": True, "yes": True, "on": True, "1": True,
         "false": False, "no": False, "off": False, "0": False}


class Config(dict):
    """Parsed config; ``resolved`` maps each key read to its typed value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.resolved = {}

    def reject_unused(self):
        """Raise ConfigError for the first key that no getter has read."""
        for key in self:
            if key not in self.resolved:
                # match the key's own name, a key of its section first: a
                # shared section is no hint
                section, _, name = key.rpartition(".")
                names = {k.rpartition(".")[2]: k for k in sorted(
                    self.resolved, key=lambda k: k.startswith(section + "."))}
                close = difflib.get_close_matches(name, names, n=1)
                hint = f"; did you mean {names[close[0]]!r}?" if close else ""
                raise ConfigError(f"unused config key {key!r}{hint}")


def parse_config(text, origin="<config>"):
    """Parse config text into a flat {"section.key": "value"} Config."""
    out = Config()
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


def _get(cfg, key, default, convert):
    """Read ``key`` through ``convert(key, text)``; a default is not converted."""
    if key in cfg:
        val = convert(key, cfg[key])
    elif default is _MISSING:
        raise ConfigError(f"missing required config key {key!r}")
    else:
        val = default
    cfg.resolved[key] = val
    return val


def number_literal(kind, text):
    """int or float of ``text``: ASCII only, and no underscore separators.

    Python's ``int`` and ``float`` also read ``1_6`` and non-ASCII digits
    such as ``１６``; no file or option of this package is meant to hold
    them.  Raises ValueError.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not an ASCII {kind.__name__} literal")
    return kind(text)


def _int(key, text):
    try:
        return number_literal(int, text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {text!r} is not an integer") from exc


def _float(key, text):
    try:
        out = number_literal(float, text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {text!r} is not a number") from exc
    if not math.isfinite(out):
        raise ConfigError(f"config key {key!r}: {text!r} is not finite")
    return out


def _bool(key, text):
    try:
        return _BOOL[text.lower()]
    except KeyError as exc:
        raise ConfigError(f"config key {key!r}: {text!r} is not a boolean") from exc


def _list(key, text, one):
    """Comma-separated non-empty list, each entry read by ``one``."""
    out = tuple(one(key, tok.strip()) for tok in text.split(",") if tok.strip())
    if not out:
        raise ConfigError(f"config key {key!r}: {text!r} is an empty list")
    return out


def get_str(cfg, key, default=_MISSING):
    return _get(cfg, key, default, lambda key, text: text)


def get_int(cfg, key, default=_MISSING):
    return _get(cfg, key, default, _int)


def get_float(cfg, key, default=_MISSING):
    return _get(cfg, key, default, _float)


def get_bool(cfg, key, default=_MISSING):
    return _get(cfg, key, default, _bool)


def get_floats(cfg, key, default=_MISSING):
    """Comma-separated list of finite numbers."""
    return _get(cfg, key, default, lambda k, t: _list(k, t, _float))


def get_ints(cfg, key, default=_MISSING):
    """Comma-separated list of integers."""
    return _get(cfg, key, default, lambda k, t: _list(k, t, _int))
