"""Simultaneous intervals and mean-vector tests on panels."""

import json
import math

import numpy as np
import pytest

import blocknorm.infer as infer
from blocknorm.dist import ref_quantile, student_t
from blocknorm.errors import ConfigurationError, DataError, as_real_array
from blocknorm.infer import (
    ci_text_table,
    default_block_length,
    mean_test,
    read_panel_csv,
    simultaneous_ci,
)
from blocknorm.procgen import derive_rep_seed, generator
from blocknorm.stats import i_n_star


def _panel(n=400, p=5, seed=2):
    return generator(seed).standard_normal((n, p))


class TestIntervalConstruction:
    def test_default_block_length(self):
        assert default_block_length(2000) == 7
        assert default_block_length(1000) == 6

    def test_normal_quantile_p1(self):
        z = _panel(p=1)
        ci = simultaneous_ci(z, alpha=0.05, m=10, use_t=False)
        y = z[:, 0][: 20 * 20].reshape(20, 20)[:, :10].sum(axis=1)
        spread = np.sqrt(((y - y.mean()) ** 2).sum())
        expected_half = 1.9599639845400545 * spread / (20 * 10)
        assert ci.halfwidths[0] == pytest.approx(expected_half, rel=1e-9)
        assert ci.centers[0] == pytest.approx(y.mean() / 10, rel=1e-9)

    def test_zero_spread_coordinate_gives_point_interval(self):
        z = _panel()
        z[:, 2] = 4.0
        ci = simultaneous_ci(z, alpha=0.05, m=8)
        assert ci.halfwidths[2] == 0.0
        assert ci.centers[2] == pytest.approx(4.0, abs=1e-12)

    def test_k_too_small(self):
        with pytest.raises(ConfigurationError):
            simultaneous_ci(_panel(n=30), alpha=0.05, m=10)
        with pytest.raises(ConfigurationError):
            simultaneous_ci(_panel(n=10), alpha=0.05, m=8)

    def test_block_length_must_be_an_integer(self):
        with pytest.raises(ConfigurationError, match="block size m must be an integer, got 2.5"):
            simultaneous_ci(_panel(), alpha=0.05, m=2.5)
        ci = simultaneous_ci(_panel(), alpha=0.05, m=np.int64(8))
        assert type(ci.m) is int and ci.as_dict() == simultaneous_ci(_panel(), alpha=0.05, m=8).as_dict()

    def test_alpha_range(self):
        with pytest.raises(ConfigurationError):
            simultaneous_ci(_panel(), alpha=0.0, m=8)

    def test_high_dimension_warns(self):
        z = generator(1).standard_normal((90, 200))
        with pytest.warns(UserWarning):
            simultaneous_ci(z, alpha=0.05, m=5)


class TestIntervalProperties:
    def test_bonferroni_monotone_in_p(self):
        z = _panel(p=8)
        widths = []
        for p in (1, 3, 8):
            ci = simultaneous_ci(z[:, :p], alpha=0.05, m=8)
            widths.append(ci.halfwidths[0])
        assert widths[0] < widths[1] < widths[2]

    def test_coordinate_isolation(self):
        z = _panel(p=4)
        ci_full = simultaneous_ci(z, alpha=0.05, m=8)
        changed = z.copy()
        changed[:, 3] *= 10.0
        ci_changed = simultaneous_ci(changed, alpha=0.05, m=8)
        np.testing.assert_allclose(ci_changed.centers[:3], ci_full.centers[:3], atol=1e-13)
        np.testing.assert_allclose(ci_changed.halfwidths[:3], ci_full.halfwidths[:3], atol=1e-13)

    def test_affine_equivariance(self):
        z = _panel(p=3)
        ci = simultaneous_ci(z, alpha=0.1, m=8)
        c, d = 2.5, -1.2
        mapped = z.copy()
        mapped[:, 1] = c * z[:, 1] + d
        ci2 = simultaneous_ci(mapped, alpha=0.1, m=8)
        assert ci2.centers[1] == pytest.approx(c * ci.centers[1] + d, rel=1e-12)
        assert ci2.halfwidths[1] == pytest.approx(c * ci.halfwidths[1], rel=1e-12)

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600], ids=["2^600", "2^-600"])
    def test_exact_equivariance_at_extreme_scales(self, scale):
        z = _panel(p=3)
        ci = simultaneous_ci(z, alpha=0.05, m=8)
        scaled = simultaneous_ci(scale * z, alpha=0.05, m=8)
        assert np.array_equal(scaled.centers, scale * ci.centers)
        assert np.array_equal(scaled.halfwidths, scale * ci.halfwidths)

    def test_finite_panel_whose_block_sums_overflow_is_a_data_error(self):
        z = (np.abs(_panel(p=2)) + 1.0) * 2.0**1020
        with pytest.raises(DataError, match="block sums overflow double range"):
            simultaneous_ci(z, alpha=0.05, m=8)

    def test_interval_bounds_that_overflow_are_a_data_error(self):
        # the block sums 1.7e308 and -1.7e308 are finite, but the t1 halfwidth about them is not
        z = np.array([[1.7e308], [0.0], [-1.7e308], [0.0]])
        with pytest.raises(DataError, match="interval bounds overflow double range"):
            simultaneous_ci(z, alpha=0.05, m=1)

    def test_halfwidth_is_the_student_interval_times_sqrt_k_minus_1_over_k(self):
        # Known defect, pinned so that its fix changes this test on purpose: the halfwidth
        # q * sqrt(sum (Y - mean Y)^2) / (k*m) is sqrt((k-1)/k) times the interval that
        # inverts i_n_star against t(k-1), so at its edges |i_n_star| = sqrt((k-1)/k) * q
        # and mean_test rejects in a band where i_n_star does not.
        z = _panel(n=600, p=1, seed=9)
        m, k, alpha = 12, 25, 0.05
        ci = simultaneous_ci(z, alpha=alpha, m=m)
        q = ref_quantile(student_t(k - 1), 1.0 - alpha / 2.0)
        for edge in (ci.lower()[0], ci.upper()[0]):
            stat = abs(i_n_star(z[:, 0], m, edge).value)
            assert stat == pytest.approx(math.sqrt((k - 1) / k) * q, rel=1e-12)
            assert stat < q

    def test_matches_univariate_studentized_statistic(self):
        # for p = 1 the test rejects exactly when |t| exceeds the t quantile
        z = _panel(n=600, p=1, seed=9)
        m = 12
        k = 600 // (2 * m)
        alpha = 0.05
        crit = ref_quantile(student_t(k - 1), 1.0 - alpha / 2.0)
        for mu0 in (-0.3, -0.05, 0.0, 0.02, 0.3):
            stat = abs(i_n_star(z[:, 0], m, mu0).value)
            rejected = mean_test(z, np.array([mu0]), alpha=alpha, m=m).reject
            assert rejected == (stat > crit)


class TestMeanTest:
    def test_centers_never_rejected(self):
        z = _panel()
        ci = simultaneous_ci(z, alpha=0.05, m=8)
        result = mean_test(z, ci.centers, alpha=0.05, m=8)
        assert not result.reject
        assert result.violating_coordinates == ()

    def test_displaced_coordinate_detected(self):
        z = _panel()
        ci = simultaneous_ci(z, alpha=0.05, m=8)
        mu0 = ci.centers.copy()
        mu0[3] += 1.5 * ci.halfwidths[3] + 1e-9
        result = mean_test(z, mu0, alpha=0.05, m=8)
        assert result.reject
        assert result.violating_coordinates == (3,)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            mean_test(_panel(p=5), np.zeros(4), alpha=0.05, m=8)

    @pytest.mark.parametrize("alpha", [np.float32(0.05), np.array(0.05)], ids=["float32", "0-d"])
    def test_result_holds_alpha_as_a_python_float(self, alpha):
        result = mean_test(_panel(p=5), np.zeros(5), alpha=alpha, m=8)
        assert type(result.alpha) is float and result.alpha == float(alpha)
        json.dumps(result.as_dict())

    def test_panel_passed_over_once(self, monkeypatch):
        checked = []

        def counting_check(data, what, error, **rule):
            checked.append(what)
            return as_real_array(data, what, error, **rule)

        monkeypatch.setattr(infer, "as_real_array", counting_check)
        mean_test(_panel(p=5), np.zeros(5), alpha=0.05, m=8)
        assert checked == ["panel", "mu0"]

    def test_errors_come_panel_then_alpha_then_mu0(self):
        bad_mu0 = np.zeros(4)
        with pytest.raises(DataError, match="panel must be finite, got nan"):
            mean_test(np.full((40, 5), np.nan), bad_mu0, alpha=2.0, m=8)
        with pytest.raises(ConfigurationError, match="alpha"):
            mean_test(_panel(p=5), bad_mu0, alpha=2.0, m=8)
        with pytest.raises(DataError, match="mu0 has shape"):
            mean_test(_panel(p=5), bad_mu0, alpha=0.05, m=8)

    def test_mu0_whose_distance_from_a_center_overflows_is_outside(self):
        result = mean_test(np.full((8, 1), -1e308), np.array([1e308]), alpha=0.05, m=1)
        assert result.reject and result.violating_coordinates == (0,)

    def test_non_finite_mu0_names_the_coordinates(self):
        mu0 = np.array([0.0, np.nan, 0.0, np.inf, -np.inf])
        with pytest.raises(DataError, match="coordinates 1, 3, 4"):
            mean_test(_panel(p=5), mu0, alpha=0.05, m=8)

    def test_null_level_small_monte_carlo(self):
        # 300 replications at alpha = 0.1: rejection rate must stay near or
        # below the nominal level (Bonferroni with t quantiles is conservative)
        rejections = 0
        for r in range(300):
            z = generator(derive_rep_seed(4242, r)).standard_normal((240, 4))
            if mean_test(z, np.zeros(4), alpha=0.1, m=4).reject:
                rejections += 1
        assert rejections / 300 <= 0.1 + 0.05


class TestPanelCSV:
    def test_reads_with_and_without_header(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("a,b\n1,2\n3,4\n")
        np.testing.assert_allclose(read_panel_csv(str(f)), [[1, 2], [3, 4]])
        f.write_text("1,2\n3,4\n")
        np.testing.assert_allclose(read_panel_csv(str(f)), [[1, 2], [3, 4]])

    def test_ragged_row_names_location(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("1,2\n3\n")
        with pytest.raises(DataError, match="row 2"):
            read_panel_csv(str(f))

    def test_bad_cell_names_location(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("1,2\n3,oops\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            read_panel_csv(str(f))

    def test_empty_file(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("")
        with pytest.raises(DataError):
            read_panel_csv(str(f))

    def test_header_only(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("a,b\n")
        with pytest.raises(DataError):
            read_panel_csv(str(f))

    def test_text_table_renders(self):
        ci = simultaneous_ci(_panel(p=3), alpha=0.05, m=8)
        text = ci_text_table(ci)
        assert "95%" in text
        assert text.count("\n") == ci.p + 2
