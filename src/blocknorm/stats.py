"""Normalized block statistics for one and two samples.

Six statistics, all scale-free by construction:

* ``Wn`` / ``In``: the raw self-normalized sum of big-block (resp. odd
  interlaced) sums, sum(Y) / sqrt(sum(Y^2)).
* ``WnStar`` / ``InStar``: the one-sample Student t statistic of the
  block sums against a hypothesized per-observation mean mu, i.e.
  (mean(Y) - m*mu) * sqrt(k) / sd(Y).  Under independent normal block
  sums this is exactly t distributed with k-1 degrees of freedom.
* ``TnStar``: the same t statistic computed from all 2k consecutive
  batch sums, exactly t with 2k-1 degrees of freedom in the independent
  normal case.
* ``TwoSampleW``: the difference of per-block-count-scaled big-block
  sums of two independent samples over the root of the summed squared
  scales.

With k the number of block sums a statistic uses (StatValue.k; for
TnStar that counts all the batch sums), WnStar, InStar and TnStar
equal sqrt((k-1)/k) times the unscaled ratio
sum(Y - m*mu) / sqrt(sum((Y - mean(Y))^2)): the Student form divides
that ratio by sqrt(k/(k-1)).

Block sums are scaled by the power of two that brings each row's
largest |Y| below 1 before they are squared (one power for both samples
of TwoSampleW). The scaling is exact, so the statistics keep their bits
and stay finite on data near the ends of double range.

Every statistic raises DegenerateDenominatorError, not an infinity, when
its denominator vanishes (all block sums zero, or all equal for the
centered versions), so Monte Carlo callers can count such draws.

Series are 1-D arrays of finite floats; batches of series are 2-D with
one series per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import (
    Batch,
    BigSmall,
    BlockScheme,
    Interlace,
    finite_array,
    periods,
    scale_exponent,
    tagged_sums,
)
from .dist import NORMAL, RefDist, student_t
from .errors import ConfigurationError, DegenerateDenominatorError

# kind: (CLI flag, block scheme, studentized)
KINDS = {
    "Wn": ("w", BigSmall, False),
    "WnStar": ("w-star", BigSmall, True),
    "In": ("i", Interlace, False),
    "InStar": ("i-star", Interlace, True),
    "TnStar": ("t-star", Batch, True),
}
STAT_KIND_BY_FLAG = {flag: kind for kind, (flag, _, _) in KINDS.items()}


@dataclass(frozen=True)
class StatValue:
    """A computed statistic with its recommended reference distribution."""

    kind: str
    value: float
    k: int
    ref: RefDist


@dataclass(frozen=True)
class TwoSampleData:
    """Two independent samples; both must be nonempty."""

    x1: np.ndarray
    x2: np.ndarray


def _selfnorm_rows(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum(Y)/sqrt(sum(Y^2)) per row, with an all-zero degeneracy mask; scales y in place."""
    np.ldexp(y, -scale_exponent(y)[:, np.newaxis], out=y)
    degenerate = np.all(y == 0.0, axis=1)
    num = y.sum(axis=1)
    den = np.sqrt((y * y).sum(axis=1))
    values = np.divide(num, den, out=np.zeros_like(num), where=~degenerate)
    return values, degenerate


def _student_rows(y: np.ndarray, hyp_block_mean: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sample t statistic per row of block sums; degenerate when all sums tie. Scales y in place."""
    k = y.shape[1]
    e = scale_exponent(y)
    np.ldexp(y, -e[:, np.newaxis], out=y)
    hyp_block_mean = np.ldexp(hyp_block_mean, -e)
    degenerate = y.max(axis=1) == y.min(axis=1)
    sd = y.std(axis=1, ddof=1)
    num = (y.mean(axis=1) - hyp_block_mean) * np.sqrt(k)
    values = np.divide(num, sd, out=np.zeros_like(num), where=~degenerate)
    return values, degenerate


@dataclass(frozen=True)
class StatKernel:
    """Vectorized evaluator of one statistic kind for fixed (scheme, n).

    Built once per run; `values` maps a (rows, n) batch of series to the
    statistic values plus a degeneracy mask. The scalar operations below
    run through the same kernel, so batched and one-at-a-time evaluation
    agree bit for bit. A statistic uses the windows tagged like the
    scheme's first window, over k whole periods.
    """

    kind: str
    scheme: BlockScheme
    n: int
    k: int
    tag: str
    n_sums: int
    block_length: int
    studentized: bool
    ref: RefDist

    def sums(self, x: np.ndarray) -> np.ndarray:
        return tagged_sums(x, self.scheme, self.k, self.tag)

    def values(self, x: np.ndarray, mu0: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        y = self.sums(x)
        if self.studentized:
            return _student_rows(y, self.block_length * mu0)
        if mu0 != 0.0:
            y = y - self.block_length * mu0
        return _selfnorm_rows(y)


def make_kernel(kind: str, scheme: BlockScheme, n: int, mu0: float = 0.0) -> StatKernel:
    """Validate a (statistic, scheme, n, mu0) combination and build its kernel.

    mu0 is in range when 2*m*|mu0|*sqrt(n_sums) is finite, so the centered
    block sums cannot overflow; their squares cannot either, because each
    row of sums is scaled by a power of two before it is squared.
    """
    if kind not in KINDS:
        raise ConfigurationError(f"unknown statistic kind {kind!r}")
    _, scheme_class, studentized = KINDS[kind]
    if not isinstance(scheme, scheme_class):
        raise ConfigurationError(f"statistic {kind} requires the {scheme_class.__name__} scheme")
    k = periods(scheme, n)
    windows = scheme.layout()[1]
    tag, _, length = windows[0]
    n_sums = k * sum(w[0] == tag for w in windows)

    if studentized:
        if n_sums < 2:
            raise ConfigurationError(f"statistic {kind} needs at least 2 block sums, got {n_sums}")
        ref = student_t(n_sums - 1)
    else:
        ref = student_t(n_sums)
    if not math.isfinite(2.0 * length * abs(float(mu0)) * math.sqrt(n_sums)):
        raise ConfigurationError(
            f"mu0 = {mu0:g} is out of range for {kind} with {n_sums} block sums of length {length}"
        )
    return StatKernel(
        kind=kind,
        scheme=scheme,
        n=n,
        k=k,
        tag=tag,
        n_sums=n_sums,
        block_length=length,
        studentized=studentized,
        ref=ref,
    )


def _scalar(kind: str, scheme: BlockScheme, series, mu0: float = 0.0) -> StatValue:
    x = finite_array(series, 1, "series")
    kernel = make_kernel(kind, scheme, x.size, mu0)
    values, degenerate = kernel.values(x[np.newaxis, :], mu0)
    if degenerate[0]:
        raise DegenerateDenominatorError(
            f"{kernel.kind}: block sums leave no spread to normalize by"
        )
    return StatValue(kind=kernel.kind, value=float(values[0]), k=kernel.n_sums, ref=kernel.ref)


def w_n(series, m1: int, m2: int) -> StatValue:
    """Self-normalized sum of the big-block sums, sum(Y)/sqrt(sum(Y^2))."""
    return _scalar("Wn", BigSmall(m1, m2), series)


def w_n_star(series, m1: int, m2: int, mu: float = 0.0) -> StatValue:
    """Student t statistic of the big-block sums against block mean m1*mu."""
    return _scalar("WnStar", BigSmall(m1, m2), series, float(mu))


def i_n(series, m: int) -> StatValue:
    """Self-normalized sum of the odd interlaced block sums.

    Identical to w_n with m1 = m2 = m: the odd blocks of the interlacing
    scheme are exactly the big blocks of the equal-size big-small scheme.
    """
    return _scalar("In", Interlace(m), series)


def i_n_star(series, m: int, mu: float = 0.0) -> StatValue:
    """Student t statistic of the odd interlaced block sums."""
    return _scalar("InStar", Interlace(m), series, float(mu))


def t_n_star(series, m: int) -> StatValue:
    """Student t statistic of all 2k consecutive batch sums.

    The denominator is the batch-means estimate of the long-run scale,
    so this is the batch-means studentized mean.
    """
    return _scalar("TnStar", Batch(m), series)


def two_sample_w(data: TwoSampleData, m1: int, m2: int) -> StatValue:
    """Two-sample statistic comparing big-block sums of independent samples.

    Each sample l is cut by the big-small scheme into k_l big-block sums
    with sum S_l and sum of squares V_l^2; the statistic is
    (S_1/k_1 - S_2/k_2) / sqrt(V_1^2/k_1^2 + V_2^2/k_2^2).

    When sizes are driven by exponents, m1 and m2 should be computed
    from the combined length n1 + n2 (see exponents_to_sizes).
    """
    x1 = finite_array(data.x1, 1, "x1")
    x2 = finite_array(data.x2, 1, "x2")
    scheme = BigSmall(m1, m2)
    period = scheme.layout()[0]
    k1, k2 = x1.size // period, x2.size // period
    if k1 < 1 or k2 < 1:
        raise ConfigurationError(
            f"each sample needs at least one full block pair: k1={k1}, k2={k2}"
        )
    y1 = tagged_sums(x1[np.newaxis, :], scheme, k1, "big")[0]
    y2 = tagged_sums(x2[np.newaxis, :], scheme, k2, "big")[0]
    e = max(scale_exponent(y1), scale_exponent(y2))  # one power for both keeps their ratio
    np.ldexp(y1, -e, out=y1)
    np.ldexp(y2, -e, out=y2)
    v1_sq = float((y1 * y1).sum())
    v2_sq = float((y2 * y2).sum())
    if v1_sq == 0.0 and v2_sq == 0.0:
        raise DegenerateDenominatorError("TwoSampleW: both samples have all-zero block sums")
    value = (y1.sum() / k1 - y2.sum() / k2) / np.sqrt(v1_sq / k1**2 + v2_sq / k2**2)
    k_min = min(k1, k2)
    # No finite-sample reference law is established for the two-sample
    # statistic; t(min(k)-1) is a package convention, with the normal
    # limit as fallback when that df would drop below 1.
    ref = student_t(k_min - 1) if k_min >= 2 else NORMAL
    return StatValue(kind="TwoSampleW", value=float(value), k=k_min, ref=ref)
