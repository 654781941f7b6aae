"""One float format for every text artifact, so reruns are byte-identical.

The one deliberate exception is ``dface classify``, which prints emotion
scores with ``%.3f`` (``Happiness,1.000,rank=1``); changing it would change
the bytes that command has always printed.
"""

__all__ = ["fmt"]


def fmt(value: float) -> str:
    """Nine significant digits, shortest form ("%.9g")."""
    return "%.9g" % value
