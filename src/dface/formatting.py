"""One float format and one float mean for every text artifact, so reruns
are byte-identical, and one reader for every text input.

The one deliberate exception is ``dface classify``, which prints emotion
scores with ``%.3f`` (``Happiness,1.000,rank=1``); changing it would change
the bytes that command has always printed.
"""

from pathlib import Path

__all__ = ["fmt", "ordered_mean", "read_text"]


def fmt(value: float) -> str:
    """Nine significant digits, shortest form ("%.9g")."""
    return "%.9g" % value


def ordered_mean(values: list[float]) -> float:
    """Mean of a non-empty list, added left to right from 0.0.

    This is what ``sum`` does up to Python 3.11; from 3.12 ``sum`` compensates
    its rounding, which changes low bits and so printed scores."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def read_text(path: str | Path, error: type[Exception], subject: str = "") -> str:
    """The UTF-8 text of the file at ``path``; other bytes raise ``error``
    with the message ``<subject>not UTF-8 text: <reason>``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{subject}not UTF-8 text: {exc.reason}") from None
