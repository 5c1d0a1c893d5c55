"""Exact standard normal and Student t reference distributions.

Everything downstream (tail tables, Monte Carlo ratios, confidence
intervals) compares against these two families, so the tails have to be
accurate to full double precision: a tail ratio at x = 4 divides by
probabilities as small as 3e-5 and needs ten good significant digits.

The normal CDF is evaluated through the complementary error function and
the t CDF through the regularized incomplete beta function, computed by
a modified Lentz continued fraction. Quantiles invert the CDFs with
bracketed bisection refined by Newton steps. Degrees of freedom are
integers only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class RefDist:
    """Reference distribution: standard normal (df=None) or Student t(df)."""

    df: int | None = None

    def __post_init__(self) -> None:
        if self.df is not None:
            _check_df(self.df)

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


def normal_cdf(x: float) -> float:
    """Standard normal distribution function."""
    return normal_upper(-_require_finite(x))


def normal_upper(x: float) -> float:
    """Upper tail of the standard normal, accurate deep into the tail."""
    x = _require_finite(x)
    return 0.5 * math.erfc(x / _SQRT2)


def _normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x - _LOG_SQRT_2PI)


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
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def _t_upper_nonneg(x: float, df: int) -> float:
    """P(T >= x) for x >= 0; the continued fraction runs on its fast branch here."""
    if x == 0.0:
        return 0.5
    return 0.5 * _reg_inc_beta(0.5 * df, 0.5, df / (df + x * x))


def _check_df(df: int) -> int:
    if not isinstance(df, int) or isinstance(df, bool):
        raise DomainError(f"degrees of freedom must be an integer, got {df!r}")
    if df < 1:
        raise DomainError(f"degrees of freedom must be >= 1, got {df}")
    return df


def t_cdf(x: float, df: int) -> float:
    """Student t distribution function with integer degrees of freedom."""
    return t_upper(-_require_finite(x), df)


def t_upper(x: float, df: int) -> float:
    """Upper tail P(T >= x) of the Student t, accurate deep into the tail."""
    x = _require_finite(x)
    df = _check_df(df)
    if x >= 0.0:
        return _t_upper_nonneg(x, df)
    return 1.0 - _t_upper_nonneg(-x, df)


def _t_pdf(x: float, df: int) -> float:
    ln_c = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
    return math.exp(ln_c - 0.5 * (df + 1) * math.log1p(x * x / df))


def ref_cdf(dist: RefDist, x: float) -> float:
    """Distribution function of a reference distribution."""
    return ref_upper(dist, -_require_finite(x))


def ref_upper(dist: RefDist, x: float) -> float:
    """Upper tail probability P(X >= x) of a reference distribution."""
    if dist.is_normal:
        return normal_upper(x)
    return t_upper(x, dist.df)


def _ref_pdf(dist: RefDist, x: float) -> float:
    if dist.is_normal:
        return _normal_pdf(x)
    return _t_pdf(x, dist.df)


def ref_quantile(dist: RefDist, p: float) -> float:
    """Quantile of a reference distribution.

    Brackets the root, bisects until the interval is small, then runs
    Newton steps on the CDF; any Newton step that leaves the bracket or
    misbehaves falls back to a bisection step.
    """
    p = float(p)
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise DomainError(f"probability must lie strictly in (0, 1), got {p!r}")
    if p == 0.5:
        return 0.0

    lo, hi = -1.0, 1.0
    while ref_cdf(dist, lo) >= p:
        lo *= 2.0
    while ref_cdf(dist, hi) <= p:
        hi *= 2.0

    while hi - lo > 1e-2:
        mid = 0.5 * (lo + hi)
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
        if abs(x_new - x) <= 1e-12 + 4e-16 * abs(x_new):
            return x_new
        x = x_new
    return x
