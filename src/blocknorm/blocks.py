"""Block index schemes and block sums.

Every scheme states its layout once: a period and the windows laid
into each period, as (tag, offset, length) tuples with offsets counted
from the period start. A length-n sample holds k = floor(n / period)
whole periods:

* big-small ``BigSmall(m1, m2)``: period m1 + m2, windows ``big``
  [0, m1) and ``small`` [m1, m1 + m2); the big blocks carry the
  statistic and the small blocks separate them.
* interlacing ``Interlace(m)``: period 2m, one window ``odd`` [0, m),
  so half the data is discarded. These are exactly the big blocks of
  ``BigSmall(m, m)``.
* batch ``Batch(m)``: period 2m, two windows ``batch`` [0, m) and
  [m, 2m), so the 2k blocks are consecutive.

Indices are reported 1-based inclusive. Observations past the last full
period are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigurationError, DataError, as_index, as_real, as_real_array

Layout = tuple[int, tuple[tuple[str, int, int], ...]]  # (period, windows)


def _store_sizes(scheme, *names: str) -> None:
    """Store each named block size as a Python int; a bool, a non-integer or a size below 1 raises."""
    for name in names:
        size = as_index(getattr(scheme, name), f"block size {name}", ConfigurationError, lo=1)
        object.__setattr__(scheme, name, size)


@dataclass(frozen=True)
class BigSmall:
    """Alternating big/small block scheme with sizes m1 >= m2 >= 1."""

    m1: int
    m2: int

    def __post_init__(self) -> None:
        _store_sizes(self, "m1", "m2")
        if self.m1 < self.m2:
            raise ConfigurationError(f"need m1 >= m2, got m1={self.m1}, m2={self.m2}")

    def layout(self) -> Layout:
        return self.m1 + self.m2, (("big", 0, self.m1), ("small", self.m1, self.m2))

    def as_dict(self) -> dict:
        return {"scheme": "big-small", "m1": self.m1, "m2": self.m2}


@dataclass(frozen=True)
class Interlace:
    """Equal-block scheme using only the odd blocks of size m on stride 2m."""

    m: int

    def __post_init__(self) -> None:
        _store_sizes(self, "m")

    def layout(self) -> Layout:
        return 2 * self.m, (("odd", 0, self.m),)

    def as_dict(self) -> dict:
        return {"scheme": "interlace", "m": self.m}


@dataclass(frozen=True)
class Batch:
    """Consecutive non-overlapping blocks of size m (batch means)."""

    m: int

    def __post_init__(self) -> None:
        _store_sizes(self, "m")

    def layout(self) -> Layout:
        return 2 * self.m, (("batch", 0, self.m), ("batch", self.m, self.m))

    def as_dict(self) -> dict:
        return {"scheme": "batch", "m": self.m}


BlockScheme = Union[BigSmall, Interlace, Batch]


@dataclass(frozen=True)
class Block:
    """One index block, 1-based inclusive endpoints."""

    start: int
    end: int
    tag: str

    def __len__(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class BlockPartition:
    """A validated list of disjoint blocks over 1..n with scheme metadata."""

    blocks: tuple[Block, ...]
    k: int
    scheme: BlockScheme
    n: int

    def tagged(self, tag: str) -> tuple[Block, ...]:
        return tuple(b for b in self.blocks if b.tag == tag)


@dataclass(frozen=True)
class BlockSums:
    """Per-block sums for one tag of a partition."""

    values: np.ndarray
    block_length: int
    k: int


def exponents_to_sizes(n: int, alpha1: float, alpha2: float) -> tuple[int, int]:
    """Block sizes m1 = floor(n**alpha1), m2 = floor(n**alpha2)."""
    n = as_index(n, "sample length n", ConfigurationError, lo=1)
    alpha1 = as_real(alpha1, "alpha1", ConfigurationError)
    alpha2 = as_real(alpha2, "alpha2", ConfigurationError)
    if not (0.0 < alpha2 <= alpha1 < 1.0):
        raise ConfigurationError(
            f"exponents must satisfy 0 < alpha2 <= alpha1 < 1, got ({alpha1}, {alpha2})"
        )
    return math.floor(n**alpha1), math.floor(n**alpha2)  # n**alpha >= 1 for n >= 1, so both are >= 1


def periods(scheme: BlockScheme, n: int) -> int:
    """Number k of whole periods of the scheme in n observations; k >= 1."""
    n = as_index(n, "sample length n", ConfigurationError)
    period = scheme.layout()[0]
    if period > n:
        raise ConfigurationError(f"the {scheme.as_dict()['scheme']} period {period} exceeds n = {n}")
    return n // period


def partition(scheme: BlockScheme, n: int) -> BlockPartition:
    """Every window of every whole period, in index order."""
    k = periods(scheme, n)
    period, windows = scheme.layout()
    blocks = tuple(
        Block(j * period + offset + 1, j * period + offset + length, tag)
        for j in range(k)
        for tag, offset, length in windows
    )
    return BlockPartition(blocks, k, scheme, n)


def bbsb_partition(n: int, m1: int, m2: int) -> BlockPartition:
    """Alternating big/small partition; pair j starts at (j-1)(m1+m2)+1."""
    return partition(BigSmall(m1, m2), n)


def interlace_partition(n: int, m: int) -> BlockPartition:
    """Odd blocks of size m on stride 2m; the even gaps stay unassigned."""
    return partition(Interlace(m), n)


def batch_partition(n: int, m: int) -> BlockPartition:
    """2k consecutive blocks of size m, k = floor(n / (2m))."""
    return partition(Batch(m), n)


def tagged_sums(x: np.ndarray, scheme: BlockScheme, k: int, tag: str) -> np.ndarray:
    """The tag's window sums in the first k periods of each row of x, in index order; overflow is a DataError."""
    period, windows = scheme.layout()
    cut = x[:, : k * period].reshape(x.shape[0], k, period)
    with np.errstate(over="ignore"):
        sums = [cut[:, :, offset : offset + length].sum(axis=2) for t, offset, length in windows if t == tag]
    if not sums:
        raise ConfigurationError(f"tag {tag!r} does not exist in scheme {scheme.as_dict()['scheme']!r}")
    y = np.stack(sums, axis=2).reshape(x.shape[0], -1)
    if not np.isfinite(y).all():
        raise DataError("block sums overflow double range")
    return y


def unit_scale(y: np.ndarray) -> np.ndarray:
    """Scale each row of block sums in place by 2^-e, e putting its largest |Y| in [0.5, 1); return e.

    The scaling is exact, so a scale-free statistic of the scaled sums keeps
    its bits, and the sum of their squares can neither overflow nor
    underflow. An all-zero row gets e = 0.
    """
    e = np.frexp(np.abs(y).max(axis=-1))[1]
    np.ldexp(y, -e[..., np.newaxis], out=y)
    return e


def interlace_sums_matrix(x: np.ndarray, m: int, k: int) -> np.ndarray:
    """Odd-block sums for each row of x; shape (rows, k)."""
    return tagged_sums(x, Interlace(m), k, "odd")


def block_sums(series, partition: BlockPartition, tag: str) -> BlockSums:
    """Sum a 1-D finite series over every block carrying the given tag."""
    x = as_real_array(series, "series", DataError, ndim=1, finite=True)
    if x.size != partition.n:
        raise DataError(f"series has length {x.size} but the partition was built for n={partition.n}")
    values = tagged_sums(x[np.newaxis, :], partition.scheme, partition.k, tag)[0]
    length = next(w[2] for w in partition.scheme.layout()[1] if w[0] == tag)
    return BlockSums(values=values, block_length=length, k=values.shape[0])
