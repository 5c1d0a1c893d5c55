"""Reference distribution tests.

The frozen 25-row tail table is the primary known-answer oracle; on top
of that the CDFs are checked against independent routes (closed forms
for 1 and 2 degrees of freedom, Simpson quadrature of the densities,
scipy when it is installed) and the quantiles against a plain bisection
oracle. The array path is checked bit for bit against the scalar one,
and the four named accessors against ref_upper and ref_cdf.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blocknorm
from blocknorm import dist
from blocknorm.dist import (
    NORMAL,
    RefDist,
    normal_cdf,
    normal_upper,
    ref_cdf,
    ref_quantile,
    ref_upper,
    student_t,
    t_cdf,
    t_upper,
)
from blocknorm.errors import DomainError

# (x, normal upper tail, t19 upper tail, t9 upper tail, t9/normal ratio)
REFERENCE_TAIL_TABLE = (
    (1.6, 0.05480, 0.06305, 0.07203, 1.31446),
    (1.7, 0.04457, 0.05272, 0.06167, 1.38389),
    (1.8, 0.03593, 0.04388, 0.05270, 1.46660),
    (1.9, 0.02872, 0.03636, 0.04494, 1.56509),
    (2.0, 0.02275, 0.03000, 0.03828, 1.68247),
    (2.1, 0.01786, 0.02466, 0.03256, 1.82257),
    (2.2, 0.01390, 0.02019, 0.02767, 1.99017),
    (2.3, 0.01072, 0.01648, 0.02350, 2.19130),
    (2.4, 0.00820, 0.01340, 0.01995, 2.43353),
    (2.5, 0.00621, 0.01087, 0.01693, 2.72654),
    (2.6, 0.00466, 0.00879, 0.01437, 3.08271),
    (2.7, 0.00347, 0.00709, 0.01220, 3.51801),
    (2.8, 0.00256, 0.00571, 0.01036, 4.05315),
    (2.9, 0.00187, 0.00459, 0.00880, 4.71520),
    (3.0, 0.00135, 0.00368, 0.00748, 5.53981),
    (3.1, 0.00097, 0.00295, 0.00636, 6.57421),
    (3.2, 0.00069, 0.00236, 0.00542, 7.88146),
    (3.3, 0.00048, 0.00188, 0.00461, 9.54639),
    (3.4, 0.00034, 0.00150, 0.00394, 11.68395),
    (3.5, 0.00023, 0.00120, 0.00336, 14.45115),
    (3.6, 0.00016, 0.00095, 0.00287, 18.06411),
    (3.7, 0.00011, 0.00076, 0.00246, 22.82270),
    (3.8, 0.00007, 0.00060, 0.00211, 29.14637),
    (3.9, 0.00005, 0.00048, 0.00181, 37.62668),
    (4.0, 0.00003, 0.00038, 0.00156, 49.10493),
)


def _simpson_cdf(pdf, x: float, points: int = 4001) -> float:
    """CDF at x >= 0 by composite Simpson on [0, x]; independent oracle."""
    xs = np.linspace(0.0, x, points)
    weights = np.ones(points)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integral = float((pdf(xs) * weights).sum() * (xs[1] - xs[0]) / 3.0)
    return 0.5 + integral


def _t_pdf_vec(df: int):
    ln_c = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
    return lambda xs: np.exp(ln_c - 0.5 * (df + 1) * np.log1p(xs * xs / df))


def _normal_pdf_vec(xs):
    return np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)


class TestKnownAnswers:
    def test_reference_tail_table_five_decimals(self):
        for x, phi_u, t19_u, t9_u, ratio in REFERENCE_TAIL_TABLE:
            assert round(normal_upper(x), 5) == pytest.approx(phi_u, abs=1.1e-5)
            assert round(t_upper(x, 19), 5) == pytest.approx(t19_u, abs=1.1e-5)
            assert round(t_upper(x, 9), 5) == pytest.approx(t9_u, abs=1.1e-5)
            assert round(t_upper(x, 9) / normal_upper(x), 5) == pytest.approx(ratio, abs=1.1e-5)

    def test_normal_center_and_spot_values(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(2.0) == pytest.approx(0.97725, abs=5e-6)
        assert ref_upper(NORMAL, 2.5) == pytest.approx(0.00621, abs=5e-6)
        assert ref_upper(NORMAL, 0.0) == 0.5

    def test_t_spot_values(self):
        assert t_cdf(0.0, 9) == 0.5
        assert 1.0 - t_cdf(1.6, 19) == pytest.approx(0.06305, abs=5e-6)
        assert 1.0 - t_cdf(4.0, 9) == pytest.approx(0.00156, abs=5e-6)
        assert ref_upper(student_t(9), 2.5) == pytest.approx(0.01693, abs=5e-6)


class TestIndependentOracles:
    def test_t_cdf_against_closed_forms(self):
        # df=1: 1/2 + atan(x)/pi; df=2: 1/2 + x / (2 sqrt(2 + x^2))
        for x in (-5.0, -1.3, -0.2, 0.0, 0.4, 1.0, 2.7, 6.0):
            assert t_cdf(x, 1) == pytest.approx(0.5 + math.atan(x) / math.pi, abs=1e-14)
            assert t_cdf(x, 2) == pytest.approx(0.5 + x / (2.0 * math.sqrt(2.0 + x * x)), abs=1e-14)

    @pytest.mark.parametrize("df", [3, 9, 19, 37])
    def test_t_cdf_against_quadrature(self, df):
        for x in (0.5, 1.6, 2.4, 4.0):
            assert t_cdf(x, df) == pytest.approx(_simpson_cdf(_t_pdf_vec(df), x), abs=1e-11)

    def test_normal_cdf_against_quadrature(self):
        for x in (0.3, 1.0, 2.0, 3.7):
            assert normal_cdf(x) == pytest.approx(_simpson_cdf(_normal_pdf_vec, x), abs=1e-12)

    def test_t_quantile_against_bisection_oracle(self):
        lo, hi = 0.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if t_cdf(mid, 9) < 0.95:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert ref_quantile(student_t(9), 0.95) == pytest.approx(oracle, abs=1e-10)
        assert t_cdf(ref_quantile(student_t(9), 0.95), 9) == pytest.approx(0.95, abs=1e-12)


class TestProperties:
    def test_grid_bounds_monotonicity_symmetry(self):
        # integer offsets keep the grid exactly sign-symmetric
        xs = (np.arange(1601) - 800) * 0.01
        for df in range(1, 201):
            values = np.array([t_cdf(float(x), df) for x in xs])
            assert np.all((values >= 0.0) & (values <= 1.0))
            assert np.all(np.diff(values) >= 0.0)
            # symmetry: cdf(-x) + cdf(x) = 1 pairing the reversed grid
            assert np.max(np.abs(values + values[::-1] - 1.0)) < 1e-13

    def test_normal_symmetry_grid(self):
        xs = (np.arange(1601) - 800) * 0.01
        values = np.array([normal_cdf(float(x)) for x in xs])
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert np.all(np.diff(values) >= 0.0)
        assert np.max(np.abs(values + values[::-1] - 1.0)) < 1e-15

    @pytest.mark.parametrize("dist", [NORMAL, student_t(1), student_t(9), student_t(19), student_t(120)])
    def test_quantile_round_trip(self, dist):
        for x in np.arange(-6.0, 6.0 + 1e-12, 0.25):
            p = ref_cdf(dist, float(x))
            assert abs(ref_quantile(dist, p) - x) < 1e-8

    @pytest.mark.parametrize("dist", [NORMAL, student_t(9)])
    def test_upper_quantile_round_trip_relative(self, dist):
        for q in (0.3, 0.1, 0.025, 1e-3, 1e-6, 1e-9):
            x = ref_quantile(dist, 1.0 - q)
            assert ref_upper(dist, x) == pytest.approx(q, rel=1e-10)

    def test_t_converges_to_normal(self):
        for x in (-5.0, -2.0, -0.5, 0.7, 2.2, 5.0):
            assert abs(t_cdf(x, 10_000) - normal_cdf(x)) < 1e-4

    def test_normal_complement_identity(self):
        for x in (-6.0, -1.0, 0.0, 0.5, 3.0, 6.0):
            assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) <= 1e-15


class TestDomainErrors:
    def test_non_finite_arguments(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                normal_cdf(bad)
            with pytest.raises(DomainError):
                t_cdf(bad, 9)

    def test_bad_degrees_of_freedom(self):
        with pytest.raises(DomainError):
            t_cdf(1.0, 0)
        with pytest.raises(DomainError):
            t_cdf(1.0, -3)
        with pytest.raises(DomainError):
            RefDist(df=0)
        with pytest.raises(DomainError):
            student_t(-1)

    def test_non_integer_degrees_of_freedom(self):
        with pytest.raises(DomainError, match="degrees of freedom must be an integer, got 2.5"):
            student_t(2.5)
        with pytest.raises(DomainError, match="degrees of freedom must be an integer, got True"):
            student_t(True)

    def test_numpy_integer_degrees_of_freedom(self):
        d = student_t(np.int64(9))
        assert type(d.df) is int and d == student_t(9) and d.label() == "t9"
        assert t_upper(2.0, np.int32(9)) == t_upper(2.0, 9)
        assert ref_quantile(student_t(np.uint8(9)), 0.975) == ref_quantile(student_t(9), 0.975)

    def test_bad_probabilities(self):
        for p in (0.0, 1.0, -0.2, 1.7, math.nan):
            with pytest.raises(DomainError):
                ref_quantile(NORMAL, p)

    def test_quantile_median_and_monotone(self):
        assert ref_quantile(NORMAL, 0.5) == 0.0
        qs = [ref_quantile(student_t(9), p) for p in (0.05, 0.3, 0.5, 0.8, 0.99)]
        assert qs == sorted(qs)
        assert ref_quantile(NORMAL, 0.97725) == pytest.approx(2.0, abs=1e-4)


ARRAY_DISTS = [NORMAL] + [student_t(df) for df in (1, 2, 9, 19, 141, 100_000)]
# both signs, exact zeros, subnormal and tiny |x| (x * x underflows), both
# continued-fraction branches, and |x| large enough that x * x overflows
_EDGES = [0.0, -0.0, 5e-324, 1e-300, 1e-160, 1e-8, 0.5, 1.5, 3.0, 37.6, 1e3, 1e8, 1e154, 1e200]
ARRAY_X = np.concatenate([
    np.arange(-3000, 3001) * 0.01,
    np.random.default_rng(4).standard_cauchy(2000),
    _EDGES,
    [-v for v in _EDGES],
])


def _scalar_loop(fn, d, xs):
    return np.array([fn(d, float(x)) for x in xs])


class TestArrayPath:
    @pytest.mark.parametrize("d", ARRAY_DISTS, ids=lambda d: d.label())
    def test_bit_identical_to_scalar_loop(self, d):
        assert np.array_equal(ref_upper(d, ARRAY_X), _scalar_loop(ref_upper, d, ARRAY_X))
        assert np.array_equal(ref_cdf(d, ARRAY_X), _scalar_loop(ref_cdf, d, ARRAY_X))

    @pytest.mark.parametrize("df", [1, 2, 9, 19, 141])
    def test_grid_reaches_both_continued_fraction_branches(self, df):
        r = np.abs(ARRAY_X[ARRAY_X != 0.0])
        with np.errstate(over="ignore"):
            x_beta = df / (df + r * r)
        a = 0.5 * df
        inside = x_beta[(x_beta > 0.0) & (x_beta < 1.0)]
        low = inside < (a + 1.0) / (a + 0.5 + 2.0)
        assert low.any() and (~low).any()
        # and the lanes that skip it: x = 0, x * x underflowing, x * x overflowing
        assert (x_beta == 1.0).any() and (x_beta == 0.0).any()

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-threshold", "above"])
    @pytest.mark.parametrize("df", [9, 141])
    def test_lane_threshold_bit_identical_to_scalar_calls(self, monkeypatch, df, extra):
        # up to _LOOP_LANES lanes of one branch run the scalar loop, one more runs the array loop
        lanes = dist._LOOP_LANES + extra
        array_calls = []
        array_loop = dist._beta_cont_frac_array
        monkeypatch.setattr(dist, "_beta_cont_frac_array", lambda *a: array_calls.append(a) or array_loop(*a))
        d = student_t(df)
        # |x| >= 2 keeps every lane on the direct branch, 0 < |x| <= 0.1 on the complement branch
        for xs in (np.linspace(2.0, 6.0, lanes), np.linspace(-0.1, -0.01, lanes)):
            assert np.array_equal(ref_upper(d, xs), [ref_upper(d, float(x)) for x in xs])
        assert len(array_calls) == 2 * extra

    @pytest.mark.parametrize("d", [NORMAL, student_t(9)], ids=lambda d: d.label())
    def test_shapes(self, d):
        empty = ref_upper(d, np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,) and empty.dtype == float
        assert ref_cdf(d, []).shape == (0,)
        zero_d = ref_upper(d, np.array(1.5))
        assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
        assert zero_d == ref_upper(d, 1.5)
        listed = ref_cdf(d, [-1.0, 0.0, 2.5])
        assert isinstance(listed, np.ndarray)
        assert listed.tolist() == [ref_cdf(d, -1.0), ref_cdf(d, 0.0), ref_cdf(d, 2.5)]
        grid = np.linspace(-4.0, 4.0, 12).reshape(3, 4)
        assert np.array_equal(ref_upper(d, grid), ref_upper(d, grid.ravel()).reshape(3, 4))

    @pytest.mark.parametrize("d", [NORMAL, student_t(9)], ids=lambda d: d.label())
    def test_scalar_input_keeps_the_scalar_path(self, d):
        for x in (1.5, 2, np.float64(1.5)):
            assert type(ref_upper(d, x)) is float
            assert type(ref_cdf(d, x)) is float

    @pytest.mark.parametrize("d", [NORMAL, student_t(9)], ids=lambda d: d.label())
    def test_non_finite_entries_raise(self, d):
        for bad in (math.nan, math.inf, -math.inf):
            for fn in (ref_upper, ref_cdf):
                with pytest.raises(DomainError):
                    fn(d, np.array([0.0, 1.0, bad]))
                with pytest.raises(DomainError):
                    fn(d, [[bad]])


def _accessors(d):
    """The named accessors of d as functions of x alone: (upper, cdf)."""
    if d.is_normal:
        return normal_upper, normal_cdf
    return (lambda x: t_upper(x, d.df)), (lambda x: t_cdf(x, d.df))


def _error_text(fn, *args) -> str:
    with pytest.raises(DomainError) as info:
        fn(*args)
    return str(info.value)


class TestFrontDoor:
    """normal_upper, normal_cdf, t_upper and t_cdf are ref_upper and ref_cdf under other names."""

    @pytest.mark.parametrize("d", ARRAY_DISTS, ids=lambda d: d.label())
    def test_bit_identical_to_the_front_door(self, d):
        upper, cdf = _accessors(d)
        for accessor, front in ((upper, ref_upper), (cdf, ref_cdf)):
            expected = front(d, ARRAY_X)
            assert np.array_equal(accessor(ARRAY_X), expected)
            assert np.array_equal(accessor(ARRAY_X.tolist()), expected)
            scalars = [accessor(float(x)) for x in ARRAY_X]
            assert all(type(v) is float for v in scalars)
            assert np.array_equal(scalars, expected)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_x_raises_the_front_door_text(self, bad):
        for d in (NORMAL, student_t(9)):
            upper, cdf = _accessors(d)
            for accessor, front in ((upper, ref_upper), (cdf, ref_cdf)):
                for x in (bad, np.array([0.0, bad])):
                    assert _error_text(accessor, x) == _error_text(front, d, x)

    @pytest.mark.parametrize("df", [0, -3, 2.5, True])
    def test_bad_df_raises_the_refdist_text(self, df):
        expected = _error_text(RefDist, df)
        for accessor in (t_upper, t_cdf):
            assert _error_text(accessor, 1.0, df) == expected
            assert _error_text(accessor, math.nan, df) == expected  # df is checked before x


class TestQuantileRange:
    def test_inversion_ends_past_1e14_and_raises_past_double_range(self):
        # in a subprocess with a timeout: a bisection that cannot end must fail the test, not hang it
        code = (
            "import math\n"
            "from blocknorm.dist import ref_cdf, ref_quantile, student_t\n"
            "from blocknorm.errors import DomainError\n"
            "for df, p in ((1, 1e-16), (5, 1e-300), (1, 1.0 - 2.0**-53)):\n"
            "    x = ref_quantile(student_t(df), p)\n"
            "    assert math.isclose(ref_cdf(student_t(df), x), p, rel_tol=1e-12), (df, p, x)\n"
            "try:\n"
            "    ref_quantile(student_t(1), 1e-300)\n"
            "except DomainError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(blocknorm.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "the t1 quantile at p = 1e-300 lies beyond double range\n"


class TestScipyOracle:
    @pytest.mark.parametrize("df", range(1, 20))
    def test_t_upper_tail_against_scipy(self, df):
        stats = pytest.importorskip("scipy.stats")
        x = np.linspace(0.1, 20.0, 400)
        # 5e-14, not 5e-15: from df = 5 up the tail loses about a digit near
        # x = 1.5 (worst 2.7e-14 on this grid, df 12; mpmath puts the error
        # here, scipy is within 1.4e-15). Mending it changes every t tail.
        np.testing.assert_allclose(ref_upper(student_t(df), x), stats.t.sf(x, df), rtol=5e-14, atol=0.0)


class TestQuantileMemo:
    @pytest.mark.parametrize("d", [NORMAL, student_t(9), student_t(141)], ids=lambda d: d.label())
    def test_memoized_value_equals_fresh_inversion(self, d):
        for p in (0.5, 0.975, 1.0 - 0.05 / 40, 1e-6):
            first = ref_quantile(d, p)
            assert ref_quantile(d, p) == first
            assert first == dist._invert.__wrapped__(d, p)

    def test_repeat_calls_hit_the_cache(self):
        d = student_t(141)
        ref_quantile(d, 0.999)
        hits = dist._invert.cache_info().hits
        for _ in range(5):
            ref_quantile(d, 0.999)
        assert dist._invert.cache_info().hits == hits + 5
        assert dist._invert.cache_info().maxsize == dist._QUANTILE_CACHE_SIZE

    def test_bad_probability_raises_on_every_call(self):
        for _ in range(3):
            for p in (0.0, 1.0, math.nan, 2.0):
                with pytest.raises(DomainError):
                    ref_quantile(student_t(9), p)
