"""The exact Gaussian AR(1) tails of tests/gaussian_tails.py against known laws and the schemes' ratios."""

import math

import pytest

pytest.importorskip("scipy.integrate")

from gaussian_tails import form_weights, upper_tail  # noqa: E402

from blocknorm.blocks import Batch, BigSmall, Interlace  # noqa: E402
from blocknorm.dist import ref_upper  # noqa: E402
from blocknorm.stats import make_kernel  # noqa: E402

N = 1000
SCHEMES = {"TnStar": Batch(50), "InStar": Interlace(50), "WnStar": BigSmall(43, 7)}


def _ratio(kind: str, rho: float, x: float) -> float:
    """The exact tail over the kernel's t tail."""
    scheme = SCHEMES[kind]
    return upper_tail(kind, scheme, N, rho, x) / ref_upper(make_kernel(kind, scheme, N).ref, x)


class TestGaussianAR1Tails:
    @pytest.mark.parametrize("x", [1.6, 2.0, 4.0, 6.0])
    @pytest.mark.parametrize("kind", list(SCHEMES))
    def test_independent_data_gives_the_kernels_t_law(self, kind, x):
        assert _ratio(kind, 0.0, x) == pytest.approx(1.0, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("x", [1.6, 2.0, 4.0, 6.0])
    def test_interlaced_blocks_50_steps_apart_stay_t9_at_rho_one_half(self, x):
        assert make_kernel("InStar", SCHEMES["InStar"], N).ref.df == 9
        assert _ratio("InStar", 0.5, x) == pytest.approx(1.0, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize(
        "kind, ratios",
        [("TnStar", (1.321, 1.469, 2.545)), ("WnStar", (1.185, 1.264, 1.753)), ("InStar", (1.001, 1.002, 1.004))],
    )
    def test_schemes_under_strong_dependence(self, kind, ratios):
        # n = 1000, rho = 0.9: batch means overstate the tail most, interlacing keeps the t9 law
        assert tuple(round(_ratio(kind, 0.9, x), 3) for x in (1.6, 2.0, 4.0)) == ratios

    def test_integral_matches_mpmath_at_30_digits(self):
        mpmath = pytest.importorskip("mpmath")
        kind, rho, x = "WnStar", 0.9, 4.0
        lam = [mpmath.mpf(float(v)) for v in form_weights(kind, SCHEMES[kind], N, rho, x)]

        def integrand(u):
            theta = sum(mpmath.atan(v * u) for v in lam) / 2
            return mpmath.sin(theta) / (u * mpmath.exp(sum(mpmath.log1p((v * u) ** 2) for v in lam) / 4))

        with mpmath.workdps(30):
            exact = mpmath.mpf(1) / 4 + mpmath.quad(integrand, [0, 1, 10, 100, mpmath.inf]) / (2 * mpmath.pi)
        assert math.isclose(upper_tail(kind, SCHEMES[kind], N, rho, x), float(exact), rel_tol=1e-12)
