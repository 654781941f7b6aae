"""Runtime configuration: INI file, environment fallback, validated defaults."""

from __future__ import annotations

import os
from pathlib import Path

from .aus import DEFAULT_THRESHOLD, Emotion, check_threshold, check_tie_order
from .errors import ConfigError, DomainError
from .formatting import read_ini, read_text, shown
from .raster import DEFAULT_CANNY_SIGMA, check_sigma, check_thresholds
from .record import record

ENV_VAR = "DFACE_CONFIG"

# Smoothing work per pixel grows with the kernel radius, ceil(3 sigma), so a
# config sigma is capped like a CLI group order; the library functions take
# any sigma whose taps are finite.
MAX_SIGMA = 50.0

REPORT_FORMATS = ("csv", "svg", "both")


@record
class Config:
    au_threshold: float = DEFAULT_THRESHOLD
    canny_low: float = 0.1
    canny_high: float = 0.3
    canny_sigma: float = DEFAULT_CANNY_SIGMA
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
            raise ConfigError(f"report format must be one of {', '.join(REPORT_FORMATS)}, "
                              f"got {shown(self.report_format)}")


def _parse_tie_order(raw: str) -> tuple[Emotion, ...]:
    names = [t.strip() for t in raw.split(",") if t.strip()]
    order = []
    for name in names:
        try:
            order.append(Emotion(name))
        except ValueError:
            raise ConfigError(f"unknown emotion {name!r} in tie_order") from None
    return tuple(order)


# (section, key) -> (field, reader), read in this order: the first bad value is reported
_FIELDS = {
    ("au", "tie_order"): ("tie_order", _parse_tie_order),
    ("report", "format"): ("report_format", str),
    ("au", "threshold"): ("au_threshold", float),
    ("canny", "low"): ("canny_low", float),
    ("canny", "high"): ("canny_high", float),
    ("canny", "sigma"): ("canny_sigma", float),
}


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
    fields = {}
    for (section, key), raw in read_ini(text, str(path), ConfigError, "config", _FIELDS).items():
        field, read = _FIELDS[section, key]
        try:
            fields[field] = read(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key} must be a number, got {raw!r}") from None
    return Config(**fields)
