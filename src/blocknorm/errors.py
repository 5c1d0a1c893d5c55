"""Exception hierarchy shared across the package, `as_index`, the one check of integer inputs, and
`as_real_array`, the one conversion and check of real-valued inputs, which `as_real` narrows to one number.

as_index's two messages: "<what> must be an integer, got <value>" and "<what> must be >= <lo>, got <value>".
as_real_array's: "<what> must be a rectangular array of real numbers: <numpy's reason>", so a string (numeric
or not), a complex number, an integer beyond double range or a ragged list is rejected wherever a real number,
grid or sample enters; and, where the caller asks, "<what> must be <ndim>-D, got shape <shape>",
"<what> must be nonempty, got shape <shape>" and "<what> must be finite, got <first bad value>".
as_real adds "<what> must be a real number, got shape <shape>" for an array.
"""

import operator

import numpy as np


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


def as_index(value, what: str, error: type[BlocknormError], lo: int | None = None) -> int:
    """value as a Python int (numpy integers too), at least lo if given; anything else raises error naming what."""
    if not isinstance(value, bool):
        try:
            index = operator.index(value)
        except TypeError:
            pass
        else:
            if lo is None or index >= lo:
                return index
            raise error(f"{what} must be >= {lo}, got {index}")
    raise error(f"{what} must be an integer, got {value!r}")


def as_real_array(
    data, what: str, error: type[BlocknormError], ndim: int | None = None, finite: bool = False
) -> np.ndarray:
    """data as a float ndarray (0-d for a scalar); string, non-numeric, ragged or complex data raises error naming
    what, as do, given ndim, another number of axes or no element, and, given finite, a non-finite value."""
    try:
        x = np.asarray(data)
        if np.iscomplexobj(x):
            raise TypeError("got complex values")
        real = x.astype(float, copy=False)
        if x.dtype.kind in "US":  # after the conversion, so a string that does not parse keeps numpy's reason
            raise TypeError("got strings")
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must be a rectangular array of real numbers: {exc}") from None
    if ndim is not None and real.ndim != ndim:
        raise error(f"{what} must be {ndim}-D, got shape {real.shape}")
    if ndim is not None and not real.size:
        raise error(f"{what} must be nonempty, got shape {real.shape}")
    if finite and not np.isfinite(real).all():
        raise error(f"{what} must be finite, got {float(real[~np.isfinite(real)][0])!r}")
    return real


def as_real(value, what: str, error: type[BlocknormError], finite: bool = False) -> float:
    """value as a Python float (numpy scalars and 0-d arrays too), finite if asked; else error naming what."""
    x = as_real_array(value, what, error, finite=finite)
    if x.ndim:
        raise error(f"{what} must be a real number, got shape {x.shape}")
    return float(x)
