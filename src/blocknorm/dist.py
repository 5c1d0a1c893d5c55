"""Exact standard normal and Student t reference distributions.

Everything downstream (tail tables, Monte Carlo ratios, confidence
intervals) compares against these two families, so the tails have to be
accurate to full double precision: a tail ratio at x = 4 divides by
probabilities as small as 3e-5 and needs ten good significant digits.

`ref_upper` and `ref_cdf` are the front door: they alone check that x
is finite, and `RefDist` alone checks df. `normal_upper`, `normal_cdf`,
`t_upper` and `t_cdf` are the same calls with `NORMAL` or
`student_t(df)`, so they take arrays too and raise the same errors.

The normal CDF is evaluated through the complementary error function and
the t CDF through the regularized incomplete beta function, computed by
a modified Lentz continued fraction. Quantiles invert the CDFs with
bracketed bisection refined by Newton steps, and each (distribution, p)
is inverted once: `ref_quantile` memoizes its results (failures are
never cached). Bisection also stops where no double lies between its
ends, as happens beyond |x| of about 1e14. A quantile whose CDF is
exactly 0 or 1 in double precision (t1 at p = 1e-300 lies near -3e299,
past the 1.3e154 where x * x overflows) raises `DomainError`. Degrees of
freedom are integers of any integer type (numpy's too) but not bools,
and are stored as a Python int.

Array inputs. `ref_upper` and `ref_cdf` also take an ndarray or list and
return an ndarray of its shape (a non-finite entry raises
`DomainError`); a scalar is evaluated as a one-element list. Each t
tail's z = df / (df + x^2), its z = 0 and z = 1 cases, front factor,
branch, complement and sign are computed per element with `math`, not
numpy, whose log, log1p and exp differ from the C library's in the last
bit on some inputs. Only the continued fraction is batched, per branch:
up to `_LOOP_LANES` lanes run `_beta_cont_frac` once each, more run
`_beta_cont_frac_array`, which performs the same operations in the same
order per lane and leaves each lane at the step where the scalar loop
returns. `_LOOP_LANES` sits in the measured crossover, 48 to 96 lanes by
df and branch (2 cores, numpy 2.4.6, Python 3.11.7).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_index

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOOP_LANES = 64  # continued-fraction lanes run one scalar loop each up to here; see above


@dataclass(frozen=True)
class RefDist:
    """Reference distribution: standard normal (df=None) or Student t(df)."""

    df: int | None = None

    def __post_init__(self) -> None:
        if self.df is None:
            return
        df = as_index(self.df, "degrees of freedom", DomainError)
        if df < 1:
            raise DomainError(f"degrees of freedom must be >= 1, got {df}")
        object.__setattr__(self, "df", df)  # a Python int, so labels and cache keys do not depend on its type

    @property
    def is_normal(self) -> bool:
        return self.df is None

    def label(self) -> str:
        return "normal" if self.df is None else f"t{self.df}"


NORMAL = RefDist()


def student_t(df: int) -> RefDist:
    """Student t reference with integer degrees of freedom df >= 1."""
    return RefDist(df=df)


def _require_finite(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    return x


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta integral (modified Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 801):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def _beta_cont_frac_array(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """_beta_cont_frac for each element of x, with the same operations per lane.

    A lane leaves the iteration at the step its scalar loop returns, so
    every result is bit-identical to the scalar one.
    """
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    lane = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
    h = d
    for m in range(1, 801):
        if not lane.size:
            return out
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            d = np.where(np.abs(d) < tiny, tiny, d)
            c = 1.0 + aa / c
            c = np.where(np.abs(c) < tiny, tiny, c)
            d = 1.0 / d
            delta = d * c
            h = h * delta
        done = np.abs(delta - 1.0) < 1e-16
        if done.any():
            out[lane[done]] = h[done]
            live = ~done
            lane, x, c, d, h = lane[live], x[live], c[live], d[live], h[live]
    if lane.size:
        raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x[0]})")
    return out


def _cont_frac(a: float, b: float, zs: list[float]) -> list[float]:
    """_beta_cont_frac at each z: one scalar loop per lane up to _LOOP_LANES lanes, one array loop above."""
    if len(zs) <= _LOOP_LANES:
        return [_beta_cont_frac(a, b, z) for z in zs]
    return _beta_cont_frac_array(a, b, np.array(zs)).tolist()


def _t_upper(xs: list[float], df: int) -> list[float]:
    """P(T >= x) for each finite x, through I_z(df/2, 1/2) with z = df / (df + x^2)."""
    a, b = 0.5 * df, 0.5
    ln_c = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    split = (a + 1.0) / (a + b + 2.0)
    upper = [0.5] * len(xs)  # z = 1: x = 0, or x * x underflows
    direct, complement = ([], [], []), ([], [], [])  # lanes, z, fronts: no tuple per lane to collect
    for i, x in enumerate(xs):
        z = df / (df + x * x)
        if z <= 0.0:  # x * x overflows
            upper[i] = 0.0
        elif z < 1.0:
            lanes, zs, fronts = direct if z < split else complement
            lanes.append(i)
            zs.append(z)
            fronts.append(math.exp(ln_c + a * math.log(z) + b * math.log1p(-z)))
    lanes, zs, fronts = direct
    if lanes:
        for i, front, cf in zip(lanes, fronts, _cont_frac(a, b, zs)):
            upper[i] = 0.5 * (front * cf / a)
    lanes, zs, fronts = complement
    if lanes:
        for i, front, cf in zip(lanes, fronts, _cont_frac(b, a, [1.0 - z for z in zs])):
            upper[i] = 0.5 * (1.0 - front * cf / b)
    return [u if x >= 0.0 else 1.0 - u for x, u in zip(xs, upper)]


def _is_array(x) -> bool:
    return isinstance(x, (np.ndarray, list, tuple))


def _upper(dist: RefDist, xs: list[float]) -> list[float]:
    if dist.is_normal:
        return [0.5 * math.erfc(x / _SQRT2) for x in xs]
    return _t_upper(xs, dist.df)


def ref_cdf(dist: RefDist, x):
    """Distribution function of a reference distribution.

    A scalar x gives a float; an array (or list) gives an ndarray of its shape.
    """
    if _is_array(x):
        return ref_upper(dist, -np.asarray(x, dtype=float))
    return ref_upper(dist, -_require_finite(x))


def ref_upper(dist: RefDist, x):
    """Upper tail probability P(X >= x) of a reference distribution.

    A scalar x gives a float; an array (or list) gives an ndarray of its
    shape, bit-identical to scalar calls made per element.
    """
    if not _is_array(x):
        return _upper(dist, [_require_finite(x)])[0]
    x = np.asarray(x, dtype=float)
    bad = x[~np.isfinite(x)]
    if bad.size:
        raise DomainError(f"argument must be finite, got {bad[0]!r}")
    upper = _upper(dist, x.ravel().tolist())
    return np.array(upper, dtype=float).reshape(x.shape)


def normal_cdf(x):
    """Standard normal distribution function: ref_cdf(NORMAL, x)."""
    return ref_cdf(NORMAL, x)


def normal_upper(x):
    """Upper tail of the standard normal: ref_upper(NORMAL, x)."""
    return ref_upper(NORMAL, x)


def t_cdf(x, df: int):
    """Student t distribution function: ref_cdf(student_t(df), x)."""
    return ref_cdf(student_t(df), x)


def t_upper(x, df: int):
    """Upper tail P(T >= x) of the Student t: ref_upper(student_t(df), x)."""
    return ref_upper(student_t(df), x)


def _ref_pdf(dist: RefDist, x: float) -> float:
    if dist.is_normal:
        return math.exp(-0.5 * x * x - _LOG_SQRT_2PI)
    df = dist.df
    ln_c = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
    return math.exp(ln_c - 0.5 * (df + 1) * math.log1p(x * x / df))


_QUANTILE_CACHE_SIZE = 256


def ref_quantile(dist: RefDist, p: float) -> float:
    """Quantile of a reference distribution.

    Brackets the root, bisects until the interval is small or no double
    lies between its ends, then runs Newton steps on the CDF; any Newton
    step that leaves the bracket or misbehaves falls back to a bisection
    step. A result whose CDF is exactly 0 or 1 lies beyond double range
    and raises DomainError. Results are memoized per (dist, p); a bad p
    raises on every call.
    """
    p = float(p)
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise DomainError(f"probability must lie strictly in (0, 1), got {p!r}")
    return _invert(dist, p)


@functools.lru_cache(maxsize=_QUANTILE_CACHE_SIZE)
def _invert(dist: RefDist, p: float) -> float:
    if p == 0.5:
        return 0.0

    lo, hi = -1.0, 1.0
    while ref_cdf(dist, lo) >= p:
        lo *= 2.0
    while ref_cdf(dist, hi) <= p:
        hi *= 2.0

    while hi - lo > 1e-2:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # no double lies between the ends (|x| beyond about 1e14)
            break
        if ref_cdf(dist, mid) < p:
            lo = mid
        else:
            hi = mid

    x = 0.5 * (lo + hi)
    for _ in range(100):
        err = ref_cdf(dist, x) - p
        if err > 0.0:
            hi = x
        elif err < 0.0:
            lo = x
        pdf = _ref_pdf(dist, x)
        step_ok = pdf > 0.0
        if step_ok:
            x_new = x - err / pdf
            step_ok = math.isfinite(x_new) and lo <= x_new <= hi
        if not step_ok:
            x_new = 0.5 * (lo + hi)
        converged = abs(x_new - x) <= 1e-12 + 4e-16 * abs(x_new)
        x = x_new
        if converged:
            break
    if ref_cdf(dist, x) in (0.0, 1.0):
        raise DomainError(f"the {dist.label()} quantile at p = {p!r} lies beyond double range")
    return x
