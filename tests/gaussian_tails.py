"""Exact upper tails of the block statistics under Gaussian AR(1) data (test-only; needs scipy).

Under a stationary Gaussian AR(1) series the block sums Y = B X are jointly
normal with covariance Sigma = B Gamma B^T, where Gamma_ij = rho^|i-j| / (1 - rho^2)
and B is the scheme's summing matrix. At mu0 = 0 every statistic is odd in Y,
so for x > 0

    P(T >= x) = P(Y^T A Y > 0) / 2,

with A = 11^T/k - x^2/(k-1) (I - 11^T/k) for the studentized kinds and
A = 11^T - x^2 I for the raw ones (k block sums). Y^T A Y is a weighted sum of
independent chi^2_1 variables whose weights are the eigenvalues lambda of
L^T A L (Sigma = L L^T), and Imhof's integral (Biometrika 1961) gives

    P(Y^T A Y > 0) = 1/2 + (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du,
    theta(u) = 1/2 sum(arctan(lambda u)),  rho(u) = prod(1 + lambda^2 u^2)^(1/4).

The weights are divided by their largest magnitude first, which leaves the
sign of the form, and so the probability, unchanged.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from blocknorm.blocks import tagged_sums
from blocknorm.stats import KINDS, make_kernel

# tolerances the integral reaches without an IntegrationWarning at rho up to 0.9
QUAD_OPTIONS = {"epsabs": 1e-13, "epsrel": 1e-11, "limit": 500}


@lru_cache(maxsize=None)
def block_sum_covariance(kind: str, scheme, n: int, rho: float) -> np.ndarray:
    """Sigma = B Gamma B^T of the kernel's block sums for a stationary AR(1) path of length n."""
    kernel = make_kernel(kind, scheme, n)
    b = tagged_sums(np.eye(n), scheme, kernel.k, kernel.tag)  # B^T: row i, the sums of the i-th unit path
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    gamma = rho**lags / (1.0 - rho * rho)
    return b.T @ gamma @ b


def form_weights(kind: str, scheme, n: int, rho: float, x: float) -> np.ndarray:
    """The chi^2_1 weights of Y^T A Y, scaled to largest magnitude 1."""
    sigma = block_sum_covariance(kind, scheme, n, rho)
    k = sigma.shape[0]
    ones = np.full((k, k), 1.0 / k)
    if KINDS[kind][2]:  # studentized
        a = ones - x * x / (k - 1) * (np.eye(k) - ones)
    else:
        a = k * ones - x * x * np.eye(k)
    low = np.linalg.cholesky(sigma)
    lam = np.linalg.eigvalsh(low.T @ a @ low)
    return lam / np.abs(lam).max()


def imhof_integrand(u: float, lam: np.ndarray) -> float:
    theta = 0.5 * np.arctan(lam * u).sum()
    log_rho = 0.25 * np.log1p((lam * u) ** 2).sum()
    return math.sin(theta) / (u * math.exp(log_rho))


def upper_tail(kind: str, scheme, n: int, rho: float, x: float) -> float:
    """P(T >= x) for x > 0 under Gaussian AR(1) data with coefficient rho and mu0 = 0."""
    lam = form_weights(kind, scheme, n, rho, x)
    integral = quad(imhof_integrand, 0.0, math.inf, args=(lam,), **QUAD_OPTIONS)[0]
    return 0.25 + integral / (2.0 * math.pi)
