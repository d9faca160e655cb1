"""Flat key-value run configuration.

Grammar: one ``key = value`` pair per line; keys are lowercase dotted paths
(``section.name``), values are free text up to the end of line. Blank lines
and lines starting with ``#`` are skipped; ``#`` does not start a comment
inside a value. Duplicate keys are rejected so a run is described by exactly
one binding per name, and a command rejects a key it does not read
(:meth:`Config.check_all_read`), so a misspelled key is an error, not a
silent default.

Typical file:

    # reproduction run
    el.mode   = reference
    el.kind   = fractional
    el.alpha  = 0.3
    el.coeffs = 1.0, 1.0, 1.0
"""

from __future__ import annotations

import hashlib
import math
import re

from .errors import ParseError

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", line=lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ParseError(f"bad config key {key!r}", line=lineno)
        if key in out:
            raise ParseError(f"duplicate config key {key!r}", line=lineno)
        out[key] = value.strip()
    return out


class Config(dict):
    """A parsed config that records which keys a run has read."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.read: set[str] = set()

    def __getitem__(self, key: str) -> str:
        self.read.add(key)
        return super().__getitem__(key)

    def check_all_read(self) -> None:
        """Raise ParseError naming the first key that the run has not read."""
        for key in self:
            if key not in self.read:
                raise ParseError(f"config key {key!r} is not used by this run")


def load_config(path: str) -> tuple[Config, str]:
    """Parse a config file; returns (mapping, sha256 of the raw bytes)."""
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8")
    return Config(parse_config_text(text)), hashlib.sha256(data).hexdigest()


def _missing(key: str):
    raise ParseError(f"missing required config key {key!r}")


def get_str(cfg: dict[str, str], key: str, default: str | None = None) -> str:
    if key not in cfg:
        if default is None:
            _missing(key)
        return default
    return cfg[key]


def get_float(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in cfg:
        if default is None:
            _missing(key)
        return default
    try:
        value = float(cfg[key])
    except ValueError:
        raise ParseError(f"config key {key!r} is not a number: {cfg[key]!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"config key {key!r} is not finite: {cfg[key]!r}")
    return value


def get_int(cfg: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in cfg:
        if default is None:
            _missing(key)
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise ParseError(f"config key {key!r} is not an integer: {cfg[key]!r}") from None


def get_floats(cfg: dict[str, str], key: str, default=None) -> tuple[float, ...]:
    """Comma-separated list of finite numbers."""
    if key not in cfg:
        if default is None:
            _missing(key)
        return tuple(default)
    parts = [p.strip() for p in cfg[key].split(",") if p.strip()]
    if not parts:
        raise ParseError(f"config key {key!r} has no numbers: {cfg[key]!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise ParseError(f"config key {key!r} is not a number list: {cfg[key]!r}") from None
    if not all(map(math.isfinite, values)):
        raise ParseError(f"config key {key!r} has a non-finite entry: {cfg[key]!r}")
    return values
