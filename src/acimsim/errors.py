"""Exception hierarchy shared by every module, and the one integer rule."""

import operator


class AcimError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(AcimError):
    """Operands have incompatible or invalid shapes."""


class DomainError(AcimError):
    """A value lies outside the mathematically valid domain of an operation."""


class ConfigError(AcimError):
    """A configuration is inconsistent or cannot be parsed."""


class DataError(AcimError):
    """Input data is malformed or cannot be loaded."""


class CheckpointError(AcimError):
    """A checkpoint file is missing, corrupt, or incompatible."""


class TrainingError(AcimError):
    """Training failed (for example the loss diverged)."""


def check_int(value, name: str, error: type, low, high=None) -> int:
    """`value` as an int, else `error` naming `name`. An integer is what
    operator.index accepts (Python and numpy ints, not floats); it lies in
    [low, high], or is >= low when high is None. A low of None checks the
    type alone."""
    try:
        v = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if high is not None and not low <= v <= high:
        raise error(f"{name} must be in [{low}, {high}], got {v}")
    if low is not None and v < low:
        raise error(f"{name} must be >= {low}, got {v}")
    return v
