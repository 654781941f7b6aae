"""Exception hierarchy shared by all modules.

Every error carries a stable ``code`` string, which the CLI prints as the
error-code prefix, and an ``exit_status``, which the CLI returns: 3 for a
data problem, 2 for :class:`UsageError` and :class:`ConfigError`.
"""


class DfaceError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"
    exit_status = 3


class DomainError(DfaceError):
    """An argument is outside the operation's domain."""

    code = "domain"


class UnsupportedOrderError(DomainError):
    """A dihedral operation was requested for an order it does not support."""

    code = "unsupported-order"


class SchemaError(DfaceError):
    """Data violates the canonical 24-point schema."""

    code = "schema"


class FrameParseError(SchemaError):
    """A key-point CSV record set could not be parsed."""

    code = "parse"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InsufficientDataError(DfaceError):
    code = "insufficient-data"


class InsufficientPairsError(InsufficientDataError):
    code = "insufficient-pairs"


class InsufficientFramesError(InsufficientDataError):
    code = "insufficient-frames"


class MissingPointError(InsufficientDataError):
    """Coordinates of an absent key point were consumed."""

    code = "missing-point"


class DegenerateFaceError(DfaceError):
    code = "degenerate-face"


class UnrecoverablePointError(DfaceError):
    """Occluded points whose mirror counterparts cannot supply them."""

    code = "unrecoverable-point"

    def __init__(self, ids):
        self.ids = tuple(sorted(ids))
        joined = ",".join(str(i) for i in self.ids)
        super().__init__(f"cannot reconstruct point ids {joined}")


class ImageFormatError(DfaceError):
    """Malformed or unsupported PGM/PPM data."""

    code = "image-format"


class RasterShapeError(DfaceError):
    """An image or kernel has an unusable shape."""

    code = "shape"


class UsageError(DfaceError):
    """A command line argument is malformed or out of range."""

    code = "usage"
    exit_status = 2


class ConfigError(DfaceError):
    code = "config"
    exit_status = 2
