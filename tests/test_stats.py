"""Statistic values, degeneracy handling and invariance properties.

Hand oracles use the series 1..8 with block size 2, whose block sums
are easy to carry by hand: odd/big sums (3, 11), batch sums
(3, 7, 11, 15).
"""

import math
import warnings

import numpy as np
import pytest

import blocknorm.stats as stats
from blocknorm.blocks import Batch, BigSmall, Interlace
from blocknorm.errors import ConfigurationError, DataError, DegenerateDenominatorError
from blocknorm.stats import (
    TwoSampleData,
    i_n,
    i_n_star,
    make_kernel,
    t_n_star,
    two_sample_w,
    w_n,
    w_n_star,
)

SERIES = np.arange(1.0, 9.0)


class TestHandOracles:
    def test_w_n(self):
        # big sums (3, 11): 14 / sqrt(9 + 121)
        got = w_n(SERIES, 2, 2)
        assert got.value == pytest.approx(14.0 / math.sqrt(130.0), abs=1e-12)
        assert got.k == 2

    def test_i_n_equals_w_n_exactly(self):
        assert i_n(SERIES, 2).value == w_n(SERIES, 2, 2).value

    def test_w_n_star_student(self):
        # sums (3, 11), mean 7, sample sd sqrt(32): t = sqrt(2) * 7 / sqrt(32) = 7/4
        got = w_n_star(SERIES, 2, 2, 0.0)
        assert got.value == pytest.approx(1.75, abs=1e-12)
        assert got.ref.df == 1

    def test_i_n_star_student(self):
        assert i_n_star(SERIES, 2, 0.0).value == pytest.approx(1.75, abs=1e-12)

    def test_t_n_star_student(self):
        # batch sums (3, 7, 11, 15), mean 9, sample sd sqrt(80/3):
        # t = 2 * 9 / sqrt(80/3)
        got = t_n_star(SERIES, 2)
        assert got.value == pytest.approx(18.0 / math.sqrt(80.0 / 3.0), abs=1e-12)
        assert got.ref.df == 3

    def test_two_sample_hand_value(self):
        got = two_sample_w(TwoSampleData(SERIES, np.zeros(8)), 2, 2)
        assert got.value == pytest.approx(7.0 / math.sqrt(32.5), abs=1e-12)

    def test_two_sample_identical_samples_zero(self):
        x = np.arange(1.0, 13.0)
        got = two_sample_w(TwoSampleData(x, x.copy()), 3, 1)
        assert got.value == 0.0


class TestReferenceRecommendations:
    def test_interlace_design_df(self):
        x = np.sin(np.arange(1000.0)) + np.linspace(0, 1, 1000)
        got = i_n_star(x, 50)
        assert got.k == 10
        assert got.ref.label() == "t9"

    def test_batch_design_df(self):
        x = np.sin(np.arange(1000.0)) + np.linspace(0, 1, 1000)
        got = t_n_star(x, 50)
        assert got.k == 20
        assert got.ref.label() == "t19"

    def test_unstarred_df_is_block_count(self):
        x = np.sin(np.arange(100.0))
        assert w_n(x, 10, 10).ref.label() == "t5"
        assert i_n(x, 10).ref.label() == "t5"

    def test_two_sample_df_convention(self):
        x1, x2 = np.arange(40.0) ** 1.3, np.arange(28.0) * 0.7
        got = two_sample_w(TwoSampleData(x1, x2), 3, 1)
        assert got.k == min(40 // 4, 28 // 4)
        assert got.ref.df == got.k - 1

    def test_two_sample_normal_fallback_single_block(self):
        got = two_sample_w(TwoSampleData(np.arange(5.0), np.arange(5.0) * 2 + 1), 3, 2)
        assert got.k == 1
        assert got.ref.is_normal


class TestDegenerateAndErrors:
    def test_constant_series_starred_degenerate(self):
        const = np.full(12, 3.0)
        with pytest.raises(DegenerateDenominatorError):
            w_n_star(const, 2, 2, 0.0)
        with pytest.raises(DegenerateDenominatorError):
            i_n_star(const, 2, 0.0)
        with pytest.raises(DegenerateDenominatorError):
            t_n_star(const, 2)

    def test_zero_series_raw_degenerate(self):
        with pytest.raises(DegenerateDenominatorError):
            w_n(np.zeros(12), 2, 2)
        with pytest.raises(DegenerateDenominatorError):
            i_n(np.zeros(12), 2)

    def test_constant_positive_series_raw_value(self):
        # big sums all equal m*c > 0: value is sqrt(k) exactly
        got = w_n(np.full(20, 2.0), 3, 2)
        assert got.value == pytest.approx(math.sqrt(4), abs=1e-12)

    def test_two_sample_both_constant_zero(self):
        with pytest.raises(DegenerateDenominatorError):
            two_sample_w(TwoSampleData(np.zeros(10), np.zeros(10)), 2, 2)

    def test_two_sample_zero_block_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            two_sample_w(TwoSampleData(np.arange(10.0), np.arange(10.0)), 0, 0)

    def test_starred_needs_two_blocks(self):
        with pytest.raises(ConfigurationError):
            w_n_star(np.arange(5.0), 3, 2, 0.0)  # k = 1

    def test_non_finite_series_rejected(self):
        bad = np.array([1.0, np.nan, 2.0, 3.0])
        with pytest.raises(DataError):
            i_n(bad, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: w_n(x, 3, 1),
            lambda x: w_n_star(x, 3, 1),
            lambda x: i_n(x, 2),
            lambda x: i_n_star(x, 2),
            lambda x: t_n_star(x, 2),
        ],
        ids=["w_n", "w_n_star", "i_n", "i_n_star", "t_n_star"],
    )
    def test_one_kernel_per_scalar_call(self, monkeypatch, call):
        built = []

        def counting_kernel(*args):
            built.append(args)
            return make_kernel(*args)

        monkeypatch.setattr(stats, "make_kernel", counting_kernel)
        call(np.arange(1.0, 17.0))
        assert len(built) == 1

    def test_numpy_integer_block_sizes_are_plain_ints(self):
        x = np.random.default_rng(3).standard_normal(1000)
        assert i_n_star(x, np.int64(50)) == i_n_star(x, 50)
        assert w_n_star(x, np.int32(30), np.uint8(10)) == w_n_star(x, 30, 10)
        assert type(Interlace(np.int64(50)).m) is int

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda x: i_n_star(x, 2.5), "block size m must be an integer, got 2.5"),
            (lambda x: t_n_star(x, True), "block size m must be an integer, got True"),
            (lambda x: w_n(x, 3, 1.0), "block size m2 must be an integer, got 1.0"),
        ],
        ids=["float-m", "bool-m", "float-m2"],
    )
    def test_non_integer_block_sizes_name_the_field(self, call, message):
        with pytest.raises(ConfigurationError, match=message):
            call(np.arange(1.0, 17.0))

    def test_mu0_out_of_range_rejected(self):
        x = np.arange(1.0, 101.0)
        with pytest.raises(ConfigurationError, match="mu0 = 1e\\+307 is out of range for WnStar"):
            w_n_star(x, 12, 3, mu=1e307)
        assert math.isfinite(w_n_star(x, 12, 3, mu=1e300).value)

    def test_nan_mu_is_rejected_as_not_finite(self):
        with pytest.raises(ConfigurationError, match="mu must be finite, got nan"):
            i_n_star(np.arange(1.0, 101.0), 10, mu=float("nan"))

    def test_raw_kernel_takes_a_mu0_whose_square_overflows(self):
        # (2 * m * mu0 * sqrt(k))**2 = (20e155 * sqrt(5))**2 overflows; the scaled sums do not
        kernel = make_kernel("In", Interlace(10), 100, 1e155)
        values, degenerate = kernel.values(np.arange(1.0, 101.0)[np.newaxis, :])
        assert not degenerate[0]
        assert values[0] == pytest.approx(-math.sqrt(5.0), rel=1e-12)

    @pytest.mark.parametrize(
        "series",
        [["a"] * 10, [[1.0], [1.0, 2.0]], np.array([1 + 2j] * 10)],
        ids=["non-numeric", "ragged", "complex"],
    )
    def test_non_real_series_is_a_data_error(self, series):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning: the imaginary parts are not dropped
            with pytest.raises(DataError, match="series must be a rectangular array of real numbers"):
                i_n(series, 1)

    def test_two_sample_needs_a_block_pair_in_each_sample(self):
        with pytest.raises(ConfigurationError, match="at least one full block pair: k1=3, k2=0"):
            two_sample_w(TwoSampleData(np.arange(18.0), np.arange(5.0)), 4, 2)

    def test_two_sample_errors_name_the_sample(self):
        with pytest.raises(DataError, match="x2 must be finite, got inf"):
            two_sample_w(TwoSampleData(np.arange(10.0), np.array([1.0, np.inf])), 2, 1)

    def test_kernel_scheme_mismatch(self):
        with pytest.raises(ConfigurationError):
            make_kernel("InStar", BigSmall(3, 2), 100)
        with pytest.raises(ConfigurationError):
            make_kernel("Wn", Batch(5), 100)
        with pytest.raises(ConfigurationError):
            make_kernel("nope", Interlace(5), 100)


def _random_case(rng):
    n = int(rng.integers(8, 300))
    m = int(rng.integers(1, n // 2 + 1))
    x = rng.standard_normal(n) * float(rng.uniform(0.1, 10))
    return n, m, x


class TestInvarianceProperties:
    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600], ids=["2^600", "2^-600"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x, c: w_n(x, 12, 4),
            lambda x, c: w_n_star(x, 12, 4, 0.1 * c),
            lambda x, c: i_n(x, 10),
            lambda x, c: i_n_star(x, 10, 0.1 * c),
            lambda x, c: t_n_star(x, 10),
            lambda x, c: two_sample_w(TwoSampleData(x[:120], x[120:] + c), 12, 4),
            lambda x, c: two_sample_w(TwoSampleData(x[:120], 2.0**40 * x[120:]), 12, 4),
        ],
        ids=["w_n", "w_n_star", "i_n", "i_n_star", "t_n_star", "two_sample_w", "two_sample_w-2^40-apart"],
    )
    def test_exact_invariance_at_extreme_scales(self, call, scale):
        # squared block sums of such data leave double range; scaling by a power of two does not
        x = np.random.default_rng(43).standard_normal(240)
        assert call(scale * x, scale).value == call(x, 1.0).value

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: w_n(x, 12, 4),
            lambda x: w_n_star(x, 12, 4),
            lambda x: i_n(x, 10),
            lambda x: i_n_star(x, 10),
            lambda x: t_n_star(x, 10),
            lambda x: two_sample_w(TwoSampleData(x[:120], x[120:]), 12, 4),
        ],
        ids=["w_n", "w_n_star", "i_n", "i_n_star", "t_n_star", "two_sample_w"],
    )
    def test_finite_data_whose_block_sums_overflow_is_a_data_error(self, call):
        # same-sign data near 2^1021: each value is finite, every block sum of 10 or 12 is not
        x = (np.abs(np.random.default_rng(43).standard_normal(240)) + 1.0) * 2.0**1020
        with pytest.raises(DataError, match="block sums overflow double range"):
            call(x)

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n, m, x = _random_case(rng)
            if n // (2 * m) < 2:
                continue
            c = float(rng.uniform(0.01, 100))
            mu = float(rng.standard_normal())
            assert i_n(c * x, m).value == pytest.approx(i_n(x, m).value, abs=1e-9)
            assert t_n_star(c * x, m).value == pytest.approx(t_n_star(x, m).value, abs=1e-9)
            assert i_n_star(c * x, m, c * mu).value == pytest.approx(
                i_n_star(x, m, mu).value, abs=1e-9
            )

    def test_odd_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n, m, x = _random_case(rng)
            if n // (2 * m) < 2:
                continue
            mu = float(rng.standard_normal())
            assert i_n(-x, m).value == pytest.approx(-i_n(x, m).value, abs=1e-10)
            assert i_n_star(-x, m, -mu).value == pytest.approx(-i_n_star(x, m, mu).value, abs=1e-10)
            assert t_n_star(-x, m).value == pytest.approx(-t_n_star(x, m).value, abs=1e-10)

    def test_shift_invariance_of_starred(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n, m, x = _random_case(rng)
            if n // (2 * m) < 2:
                continue
            shift = float(rng.standard_normal() * 5)
            mu = float(rng.standard_normal())
            assert i_n_star(x + shift, m, mu + shift).value == pytest.approx(
                i_n_star(x, m, mu).value, abs=1e-8
            )
            assert w_n_star(x + shift, m, m, mu + shift).value == pytest.approx(
                w_n_star(x, m, m, mu).value, abs=1e-8
            )

    def test_two_sample_scale_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            x1 = rng.standard_normal(int(rng.integers(8, 60)))
            x2 = rng.standard_normal(int(rng.integers(8, 60)))
            c = float(rng.uniform(0.1, 10))
            base = two_sample_w(TwoSampleData(x1, x2), 2, 1).value
            scaled = two_sample_w(TwoSampleData(c * x1, c * x2), 2, 1).value
            assert scaled == pytest.approx(base, abs=1e-9)

    def test_zero_numerator_starred(self):
        # choosing mu as the block-sum mean over m makes the numerator vanish
        x = np.arange(1.0, 17.0)
        m = 2
        sums = x[: 4 * (2 * m)].reshape(4, 2 * m)[:, :m].sum(axis=1)
        mu = sums.mean() / m
        assert i_n_star(x, m, mu).value == pytest.approx(0.0, abs=1e-12)
