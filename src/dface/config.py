"""Runtime configuration: INI file, environment fallback, validated defaults."""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING

from .aus import Emotion, check_threshold, check_tie_order
from .errors import ConfigError, DomainError
from .formatting import read_text
from .raster import check_sigma, check_thresholds
from .record import record

if TYPE_CHECKING:
    import configparser

__all__ = ["Config", "load_config", "ENV_VAR", "MAX_SIGMA", "REPORT_FORMATS"]

ENV_VAR = "DFACE_CONFIG"

# Smoothing work per pixel grows with the kernel radius, ceil(3 sigma), so a
# config sigma is capped like a CLI group order; the library functions take
# any sigma whose taps are finite.
MAX_SIGMA = 50.0

_KNOWN = {
    "au": {"threshold", "tie_order"},
    "canny": {"low", "high", "sigma"},
    "report": {"format"},
}

REPORT_FORMATS = ("csv", "svg", "both")


@record
class Config:
    au_threshold: float = 0.05
    canny_low: float = 0.1
    canny_high: float = 0.3
    canny_sigma: float = 1.4
    tie_order: tuple[Emotion, ...] = tuple(Emotion)
    report_format: str = "both"

    def __post_init__(self):
        # Each field passes the check of the library code that reads it.
        try:
            check_threshold(self.au_threshold)
            check_tie_order(self.tie_order)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
        try:
            check_sigma(self.canny_sigma)
            check_thresholds(self.canny_low, self.canny_high)
        except DomainError as exc:
            raise ConfigError(f"canny {exc}") from None
        if self.canny_sigma > MAX_SIGMA:
            raise ConfigError(f"canny sigma must be at most {MAX_SIGMA:g}, got {self.canny_sigma}")
        if self.report_format not in REPORT_FORMATS:
            raise ConfigError(
                f"report format must be one of {', '.join(REPORT_FORMATS)}, got {self.report_format!r}"
            )


def _parse_tie_order(raw: str) -> tuple[Emotion, ...]:
    names = [t.strip() for t in raw.split(",") if t.strip()]
    order = []
    for name in names:
        try:
            order.append(Emotion(name))
        except ValueError:
            raise ConfigError(f"unknown emotion {name!r} in tie_order") from None
    return tuple(order)


def load_config(path: str | Path | None = None) -> Config:
    """Read the INI config at ``path``, falling back to $DFACE_CONFIG, then
    to built-in defaults.  Unknown sections or keys are rejected."""
    if path is None:
        env = os.environ.get(ENV_VAR)
        if not env:
            return Config()
        path = env
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = read_text(path, ConfigError, "config file is ")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    import configparser  # only when a file is given: it adds to every start-up

    cp = configparser.ConfigParser()
    try:
        cp.read_string(text, source=str(path))
        return _config_from(cp)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None


def _config_from(cp: configparser.ConfigParser) -> Config:
    for section in cp.sections():
        if section not in _KNOWN:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp.options(section):
            if key not in _KNOWN[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def grab_float(section: str, key: str, default: float) -> float:
        if cp.has_option(section, key):
            try:
                return cp.getfloat(section, key)
            except ValueError:
                raise ConfigError(
                    f"{section}.{key} must be a number, got {cp.get(section, key)!r}"
                ) from None
        return default

    defaults = Config()
    tie_order = defaults.tie_order
    if cp.has_option("au", "tie_order"):
        tie_order = _parse_tie_order(cp.get("au", "tie_order"))
    fmt = cp.get("report", "format") if cp.has_option("report", "format") else defaults.report_format
    return Config(
        au_threshold=grab_float("au", "threshold", defaults.au_threshold),
        canny_low=grab_float("canny", "low", defaults.canny_low),
        canny_high=grab_float("canny", "high", defaults.canny_high),
        canny_sigma=grab_float("canny", "sigma", defaults.canny_sigma),
        tie_order=tie_order,
        report_format=fmt,
    )
