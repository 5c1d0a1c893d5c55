"""Monte Carlo engine: determinism, worker invariance, tables, KS."""

import json

import numpy as np
import pytest

import blocknorm.mc as mc
from blocknorm.blocks import Batch, BigSmall, Interlace
from blocknorm.dist import NORMAL, normal_upper, ref_cdf, ref_quantile, student_t, t_upper
from blocknorm.errors import ConfigurationError, DataError, DegenerateRateError, DomainError
from blocknorm.mc import (
    DEFAULT_X_GRID,
    SimConfig,
    estimate_tail,
    ks_distance,
    ratio_grid,
    ratio_grid_csv,
    simulate_stats,
    table1,
    table1_csv,
    tail_table_csv,
    tail_table_payload,
)
from blocknorm.procgen import AR1, ARCH1, IIDNormal


def _config(**overrides):
    base = dict(
        process=IIDNormal(),
        n=200,
        scheme=Interlace(10),
        stat_kind="InStar",
        reps=2000,
        master_seed=31,
        x_grid=(1.0, 1.5, 2.0, 2.5),
    )
    base.update(overrides)
    return SimConfig(**base)


class TestConfigValidation:
    def test_x_grid_must_increase(self):
        with pytest.raises(ConfigurationError):
            _config(x_grid=(2.0, 1.0))

    def test_x_grid_must_be_nonempty(self):
        with pytest.raises(ConfigurationError, match="x_grid must be nonempty"):
            _config(x_grid=())

    def test_reps_positive(self):
        with pytest.raises(ConfigurationError):
            _config(reps=0)

    def test_stat_scheme_mismatch(self):
        with pytest.raises(ConfigurationError):
            _config(scheme=BigSmall(5, 2))

    def test_one_kernel_per_config(self, monkeypatch):
        built = []
        real_kernel = mc.make_kernel

        def counting_kernel(*args):
            built.append(args)
            return real_kernel(*args)

        monkeypatch.setattr(mc, "make_kernel", counting_kernel)
        cfg = _config(reps=100)
        estimate_tail(cfg, workers=2)
        simulate_stats(cfg)
        assert len(built) == 1
        assert cfg.kernel.kind == "InStar" and cfg.kernel.n == cfg.n

    def test_kernel_is_not_part_of_equality_or_repr(self):
        assert _config() == _config()
        assert "kernel" not in repr(_config())

    def test_mu0_must_be_finite(self):
        for mu0 in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigurationError, match="mu0"):
                _config(mu0=mu0)

    def test_mu0_out_of_range_rejected(self):
        # 2 * m * |mu0| * sqrt(k) = 20 * 1e307 * sqrt(5) overflows
        with pytest.raises(ConfigurationError, match="mu0 = 1e\\+307 is out of range for In"):
            _config(stat_kind="In", n=100, mu0=1e307)

    def test_mu0_in_range_keeps_its_values(self):
        # every centered odd-block sum is about -10 * 1e150, so In = -sqrt(5) on every path
        values = simulate_stats(_config(stat_kind="In", n=100, reps=50, mu0=1e150))
        np.testing.assert_allclose(values, -np.sqrt(5.0), rtol=1e-12)

    def test_master_seed_must_fit_64_bits(self):
        for seed in (-1, 2**64, 2**65 - 1):
            with pytest.raises(ConfigurationError, match="64-bit"):
                _config(master_seed=seed)
        assert _config(master_seed=2**64 - 1).master_seed == 2**64 - 1

    def test_workers_positive(self):
        with pytest.raises(ConfigurationError):
            estimate_tail(_config(reps=10), workers=0)


class TestDeterminismAndWorkers:
    def test_single_rep_reproducible(self):
        cfg = _config(reps=1)
        t1, t2 = estimate_tail(cfg), estimate_tail(cfg)
        assert np.array_equal(t1.mc_tail, t2.mc_tail)
        assert set(np.unique(t1.mc_tail)) <= {0.0, 1.0}

    def test_same_config_same_table(self):
        cfg = _config()
        t1, t2 = estimate_tail(cfg), estimate_tail(cfg)
        for field in ("mc_tail", "ref_tail", "ratio", "mc_se"):
            assert np.array_equal(getattr(t1, field), getattr(t2, field))

    def test_worker_count_never_changes_results(self):
        # reps > chunk size so several chunks are in flight
        cfg = _config(reps=9000, process=AR1(0.4))
        t1 = estimate_tail(cfg, workers=1)
        t8 = estimate_tail(cfg, workers=8)
        assert np.array_equal(t1.mc_tail, t8.mc_tail)
        assert np.array_equal(t1.ratio, t8.ratio)
        assert t1.degenerate_count == t8.degenerate_count
        v1 = simulate_stats(cfg, workers=1)
        v8 = simulate_stats(cfg, workers=8)
        assert np.array_equal(v1, v8)

    def test_monotone_tail(self):
        table = estimate_tail(_config(reps=5000, x_grid=tuple(np.linspace(0, 3, 13))))
        assert np.all(np.diff(table.mc_tail) <= 0.0)

    def test_values_count(self):
        cfg = _config(reps=4321)
        assert simulate_stats(cfg).size == 4321


class TestAgainstExactNull:
    def test_iid_interlace_ratio_near_one(self):
        # under iid data the interlaced studentized statistic is exactly t(k-1)
        cfg = _config(n=1000, scheme=Interlace(50), reps=20_000, x_grid=(2.0,), master_seed=3)
        table = estimate_tail(cfg)
        se_rel = 4.0 * table.mc_se[0] / table.ref_tail[0]
        assert table.ratio[0] == pytest.approx(1.0, abs=max(se_rel, 0.06))
        assert table.ref.label() == "t9"

    def test_ref_override(self):
        cfg = _config(reps=100, ref=NORMAL)
        assert estimate_tail(cfg).ref.is_normal

    def test_statistic_values_match_scalar_api(self):
        from blocknorm.procgen import derive_rep_seed, gen_iid_normal
        from blocknorm.stats import i_n_star

        cfg = _config(reps=64)
        values = simulate_stats(cfg)
        for r in (0, 13, 63):
            path = gen_iid_normal(cfg.n, derive_rep_seed(cfg.master_seed, r))
            assert values[r] == i_n_star(path, 10).value


class TestDegenerateHandling:
    def test_all_degenerate_aborts(self, monkeypatch):
        monkeypatch.setattr(mc, "generate_paths", lambda process, n, seeds: np.ones((len(seeds), n)))
        with pytest.raises(DegenerateRateError):
            estimate_tail(_config(reps=100))

    def test_rare_degenerates_excluded_from_both_sides(self, monkeypatch):
        real_kernel = mc.make_kernel

        class _Kernel:
            def __init__(self, inner):
                self.inner = inner
                self.ref = inner.ref

            def values(self, paths, mu0):
                values, degenerate = self.inner.values(paths, mu0)
                degenerate = degenerate.copy()
                degenerate[:1] = True  # first replication of each chunk
                return values, degenerate

        monkeypatch.setattr(mc, "make_kernel", lambda *a: _Kernel(real_kernel(*a)))
        cfg = _config(reps=2000, x_grid=(-1e9,))
        table = estimate_tail(cfg)
        assert table.degenerate_count == 1
        # every retained draw exceeds -1e9, so exclusion from both sides gives exactly 1
        assert table.mc_tail[0] == 1.0

    def test_standard_error_counts_only_retained_draws(self, monkeypatch):
        real_generate = mc.generate_paths

        def generate(process, n, seeds):
            paths = np.array(real_generate(process, n, seeds))
            paths[:2] = 1.0  # constant paths: zero denominator, degenerate
            return paths

        monkeypatch.setattr(mc, "generate_paths", generate)
        cfg = _config(reps=3000, x_grid=(0.0, 1.0, 2.0))
        table = estimate_tail(cfg)
        assert table.degenerate_count == 2
        values = simulate_stats(cfg)
        assert values.size == 2998
        for i, x in enumerate(cfg.x_grid):
            p = np.count_nonzero(values >= x) / 2998
            assert 0.0 < p < 1.0
            assert table.mc_tail[i] == p
            assert table.mc_se[i] == np.sqrt(p * (1.0 - p) / 2998)


class TestReferenceTailUnderflow:
    def test_underflowing_thresholds_are_named_before_any_draw(self, monkeypatch):
        def no_draws(process, n, seeds):
            raise AssertionError("paths were drawn for an undefined ratio")

        monkeypatch.setattr(mc, "generate_paths", no_draws)
        cfg = _config(reps=100, ref=NORMAL, x_grid=(2.0, 37.5, 38.0, 40.0))
        with pytest.raises(DomainError) as info:
            estimate_tail(cfg)
        message = str(info.value)
        assert "normal" in message
        assert "x = 38, 40" in message

    def test_smallest_normal_reference_tail_is_kept(self):
        # the normal tail at 37.5 is about 4.6e-308, still a normal double
        table = estimate_tail(_config(reps=100, ref=NORMAL, x_grid=(2.0, 37.5)))
        assert np.isfinite(table.ratio).all()
        assert table.ratio[1] == 0.0


class TestKSDistance:
    def test_single_point_against_normal(self):
        assert ks_distance([0.0], NORMAL) == pytest.approx(0.5, abs=1e-12)

    def test_quantile_construction(self):
        n = 200
        dist = student_t(9)
        sample = [ref_quantile(dist, (i - 0.5) / n) for i in range(1, n + 1)]
        assert ks_distance(sample, dist) <= 0.5 / n + 1e-9

    def test_sample_from_reference(self):
        from blocknorm.procgen import generator

        sample = generator(99).standard_normal(100_000)
        assert ks_distance(sample, NORMAL) < 0.006

    def test_empty_sample_rejected(self):
        with pytest.raises(DataError):
            ks_distance([], NORMAL)

    @pytest.mark.parametrize("dist", [NORMAL, student_t(9), student_t(141)], ids=lambda d: d.label())
    def test_equals_scalar_cdf_loop(self, dist):
        sample = np.sort(np.random.default_rng(8).standard_t(9, 3000))
        n = sample.size
        cdf = np.array([ref_cdf(dist, float(v)) for v in sample])
        steps = np.arange(1, n + 1) / n
        expected = float(max((steps - cdf).max(), (cdf - steps + 1.0 / n).max()))
        assert ks_distance(sample[::-1], dist) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_value_raises(self, bad):
        for dist in (NORMAL, student_t(9)):
            with pytest.raises(DomainError):
                ks_distance([0.1, bad, -0.3], dist)


class TestTable1:
    def test_shape_and_spot_rows(self):
        t = table1()
        assert t.shape == (25, 5)
        by_x = {round(row[0], 1): row for row in t}
        np.testing.assert_allclose(
            np.round(by_x[3.0][1:], 5), (0.00135, 0.00368, 0.00748, 5.53981), atol=1.1e-5
        )
        np.testing.assert_allclose(
            by_x[1.6][1:3], (0.05480, 0.06305), atol=5.1e-6
        )

    def test_columns_equal_the_scalar_tails(self):
        xs = (0.0, 0.7, 1.6, 2.55, 4.0, 9.5)
        expected = [
            (x, normal_upper(x), t_upper(x, 19), t_upper(x, 9), t_upper(x, 9) / normal_upper(x)) for x in xs
        ]
        assert np.array_equal(table1(xs), np.array(expected))

    def test_vanishing_normal_tail_is_a_domain_error(self):
        with pytest.raises(DomainError, match="normal upper tail is 0"):
            table1((2.0, 40.0))

    def test_csv_rounding(self):
        lines = table1_csv().strip().splitlines()
        assert lines[0].startswith("x,")
        assert len(lines) == 26
        row = dict(zip(lines[0].split(","), lines[11].split(",")))
        assert row["x"] == "2.6"
        assert (row["normal_upper"], row["t19_upper"], row["t9_upper"], row["t9_over_normal"]) == (
            "0.00466", "0.00879", "0.01437", "3.08271",
        )


class TestGridsAndSerialization:
    def test_single_point_grid(self):
        grid = ratio_grid(_config(process=AR1(0.0), reps=500), [0.3])
        assert grid.param_name == "rho"
        assert grid.param_values == (0.3,)
        assert grid.ratios.shape == (4, 1)

    def test_grid_layout_and_csv(self):
        cfg = _config(process=ARCH1(b=0.0), reps=300, x_grid=(1.6, 2.0))
        grid = ratio_grid(cfg, [0.0, 0.5])
        assert grid.param_name == "b"
        assert grid.ratios.shape == (2, 2)
        lines = ratio_grid_csv(grid).strip().splitlines()
        assert lines[0] == "x,b=0,b=0.5,full:b=0,full:b=0.5"
        assert len(lines) == 3

    def test_grid_needs_parameter_values(self):
        with pytest.raises(ConfigurationError, match="parameter grid must be nonempty"):
            ratio_grid(_config(process=AR1(0.0)), [])

    def test_grid_requires_parametric_process(self):
        with pytest.raises(ConfigurationError):
            ratio_grid(_config(), [0.1])

    def test_tail_table_csv_columns(self):
        table = estimate_tail(_config(reps=200))
        lines = tail_table_csv(table).strip().splitlines()
        assert lines[0] == "x,ratio,ratio_full,mc_tail,ref_tail,mc_se,degenerate_count"
        assert len(lines) == 5

    def test_payload_metadata(self):
        table = estimate_tail(_config(reps=100))
        payload = tail_table_payload(table)
        meta = payload["metadata"]
        assert meta["master_seed"] == 31
        assert "philox" in meta["rng_algorithm"]
        assert meta["reps"] == 100
        assert meta["config"]["stat"] == "i-star"
        assert json.dumps(payload)  # JSON-serializable
        assert len(payload["rows"]["x"]) == 4

    def test_default_grid_is_25_levels(self):
        assert len(DEFAULT_X_GRID) == 25
        assert DEFAULT_X_GRID[0] == 1.6
        assert DEFAULT_X_GRID[-1] == 4.0


class TestBatchSchemeEngine:
    def test_t_star_run(self):
        cfg = _config(scheme=Batch(10), stat_kind="TnStar", reps=3000, x_grid=(2.0,), master_seed=8)
        table = estimate_tail(cfg)
        assert table.ref.label() == "t19"  # 2k - 1 sums with k = 200 // 20
        assert 0.5 < table.ratio[0] < 1.6

    def test_w_star_run(self):
        cfg = _config(
            scheme=BigSmall(8, 2), stat_kind="WnStar", reps=3000, x_grid=(2.0,), master_seed=8
        )
        table = estimate_tail(cfg)
        assert table.ref.label() == "t19"
        assert 0.5 < table.ratio[0] < 1.6

    def test_mu0_passes_through_to_the_statistic(self):
        import dataclasses

        from blocknorm.procgen import derive_rep_seed, gen_iid_normal
        from blocknorm.stats import i_n_star

        cfg0 = _config(reps=50, x_grid=(0.0,))
        cfg1 = dataclasses.replace(cfg0, mu0=0.3)
        v0, v1 = simulate_stats(cfg0), simulate_stats(cfg1)
        path0 = gen_iid_normal(cfg0.n, derive_rep_seed(cfg0.master_seed, 0))
        assert v0[0] == i_n_star(path0, 10, 0.0).value
        assert v1[0] == i_n_star(path0, 10, 0.3).value
        assert v0[0] != v1[0]


class TestRatioGridValidation:
    def test_invalid_cell_fails_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(mc, "generate_paths", lambda process, n, seeds: drawn.append(process))
        cfg = SimConfig(AR1(0.0), 100, Interlace(5), "InStar", 5000, 0)
        with pytest.raises(ConfigurationError, match="rho=1.0"):
            ratio_grid(cfg, [0.0, 0.5, 1.0])
        assert drawn == []


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, maps serially."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestWorkerThreadBound:
    # three chunks, the last one row
    CFG = dict(n=40, scheme=Interlace(10), reps=2 * mc._CHUNK_REPS + 1, x_grid=(1.0, 2.0))

    @pytest.mark.parametrize("workers, cpus, expected", [
        (10**6, 8, [3]),  # one thread per chunk
        (10**6, 2, [2]),  # one thread per CPU
        (2, 8, [2]),
        (10**6, 1, []),  # a single thread runs the chunks in the caller
        (10**6, None, []),  # unknown CPU count counts as one
    ])
    def test_threads_are_clamped(self, monkeypatch, workers, cpus, expected):
        sizes = []
        monkeypatch.setattr(_RecordingPool, "sizes", sizes)
        monkeypatch.setattr(mc, "ThreadPoolExecutor", _RecordingPool)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
        table = estimate_tail(_config(**self.CFG), workers=workers)
        assert sizes == expected
        assert np.array_equal(table.mc_tail, estimate_tail(_config(**self.CFG), workers=1).mc_tail)
