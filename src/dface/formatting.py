"""One float format and one float mean for every text artifact, so reruns
are byte-identical; one reader each for text files and INI files; one
writer for every file; one check each for "a finite number" and "ASCII
decimal digits"; one way to show a refused value in an error message; and
``np``, the one handle through which the package loads numpy.

The one deliberate exception is ``dface classify``, which prints emotion
scores with ``%.3f`` (``Happiness,1.000,rank=1``); changing it would change
the bytes that command has always printed.
"""

import math
import os
from collections.abc import Collection
from pathlib import Path


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


def finite(*values) -> bool:
    """True when every value is a number that a float holds and is finite: a
    non-number, an int past the float range, inf and nan all give False."""
    try:
        return all(map(math.isfinite, values))
    except (TypeError, OverflowError):
        return False


def shown(value, text=repr) -> str:
    """``text(value)`` for an error message.  Python refuses to print an int
    of more than 4,300 digits; such an int is named by its bit length."""
    try:
        return text(value)
    except ValueError:  # the digit limit, for the value or an int inside it
        if isinstance(value, int):
            return f"<{'negative ' * (value < 0)}int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} holding an int too long to print>"


def ascii_int(text: str | bytes) -> int | None:
    """The value of ``text``, a str or bytes, if it is ASCII decimal digits,
    else None."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


def read_text(path: str | Path, error: type[Exception], subject: str = "") -> str:
    """The UTF-8 text of the file at ``path``; other bytes raise ``error``
    with the message ``<subject>not UTF-8 text: <reason>``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{subject}not UTF-8 text: {exc.reason}") from None


def write_file(path: str | Path, data: str | bytes) -> None:
    """Write ``data``, text as UTF-8, to ``path`` whole or not at all, by way
    of the sibling ``.<name>.<pid>.tmp``.  A symlink stays a link to the new
    file; a device or a FIFO is written in place.  An error names ``path``."""
    data = data.encode("utf-8") if isinstance(data, str) else data
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as file:
            file.write(data)
        return
    target = os.path.realpath(path) if os.path.islink(path) else os.fspath(path)
    head, name = os.path.split(target)
    temporary = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as file:
            file.write(data)
        os.replace(temporary, target)
    except BaseException as exc:
        if os.path.lexists(temporary):
            os.remove(temporary)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def read_ini(text: str, source: str, error: type[Exception], name: str,
             keys: Collection[tuple[str, str]]) -> dict[tuple[str, str], str]:
    """The value of each ``(section, key)`` of ``keys`` that the INI ``text``,
    read from ``source``, sets.  Any other section or key, ``[DEFAULT]``
    included, and text that configparser refuses raise ``error``."""
    import configparser  # only when a file is given: it adds to every start-up

    # no header can name the section "", so [DEFAULT] is a section like any
    # other instead of defaults that leak into every section
    cp = configparser.ConfigParser(default_section="")
    try:
        cp.read_string(text, source=source)
        for section in cp.sections():
            if section not in {s for s, _ in keys}:
                raise error(f"unknown {name} section [{section}]")
            for key in cp.options(section):
                if (section, key) not in keys:
                    raise error(f"unknown key {key!r} in section [{section}]")
        # values are interpolated as they are read, which can fail too
        return {(s, k): cp.get(s, k) for s, k in keys if cp.has_option(s, k)}
    except configparser.Error as exc:
        raise error(f"malformed {name}: {exc}") from None


class _Numpy:
    """numpy, imported on the first attribute read rather than at start-up,
    which it would slow by about 100 ms for the commands that never use it.

    Each attribute read is stored on the handle, so only the first read of a
    name comes here; threads that race on it store the same object.
    """

    def __getattr__(self, name: str):
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()
