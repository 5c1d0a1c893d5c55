"""Exception hierarchy shared across the package."""

import operator


class BlocknormError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BlocknormError, ValueError):
    """An argument to a distribution function is outside its domain."""


class ConfigurationError(BlocknormError, ValueError):
    """Invalid sizes, parameters, or an inconsistent run configuration."""


class DataError(BlocknormError, ValueError):
    """Input data has the wrong shape or cannot be parsed."""


class DegenerateDenominatorError(BlocknormError, ArithmeticError):
    """The self-normalizing denominator of a statistic is exactly zero.

    Raised instead of returning an infinity so that callers can tell a
    degenerate draw apart from numeric overflow.
    """


class DegenerateRateError(BlocknormError, RuntimeError):
    """Too many degenerate draws in a Monte Carlo run.

    Under every continuous model shipped with the package a degenerate
    draw has probability zero, so crossing the tolerated rate signals a
    bug or a pathological configuration rather than bad luck.
    """


def as_index(value, what: str, error: type[BlocknormError]) -> int:
    """value as a Python int (numpy integers too); a bool or a non-integer raises error naming what."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")
