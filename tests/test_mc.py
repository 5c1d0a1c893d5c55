"""Monte Carlo engine: determinism, worker invariance, tables, KS."""

import gc
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest

import blocknorm.mc as mc
from blocknorm.blocks import Batch, BigSmall, Interlace
from blocknorm.cli import main as cli_main
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
from blocknorm.procgen import AR1, ARCH1, HDLinear, IIDNormal, derive_rep_seed


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

    @pytest.mark.parametrize(
        "field, value, shown",
        [("master_seed", 2.9, "2.9"), ("reps", True, "True"), ("n", 100.0, "100.0"), ("reps", "10", "'10'")],
    )
    def test_integer_fields_reject_other_types(self, field, value, shown):
        name = {"master_seed": "master seed", "n": "path length n"}.get(field, field)
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer, got {shown}"):
            _config(**{field: value})

    def test_numpy_integers_become_python_ints(self):
        cfg = _config(n=np.int32(200), reps=np.int64(2000), master_seed=np.uint64(2**64 - 1))
        assert [type(v) for v in (cfg.n, cfg.reps, cfg.master_seed)] == [int, int, int]
        assert cfg.as_dict()["master_seed"] == 2**64 - 1

    def test_workers_positive(self):
        cfg = _config(reps=10, process=AR1(0.5))
        calls = [
            lambda w: estimate_tail(cfg, workers=w),
            lambda w: simulate_stats(cfg, workers=w),
            lambda w: ratio_grid(cfg, [0.5], workers=w),
        ]
        for call in calls:
            for workers in (True, 1.5, "2"):
                with pytest.raises(ConfigurationError, match=f"workers must be an integer, got {workers!r}"):
                    call(workers)
            with pytest.raises(ConfigurationError, match="workers must be >= 1, got 0"):
                call(0)

    def test_process_must_draw_scalar_paths(self):
        with pytest.raises(ConfigurationError, match="does not generate scalar paths"):
            _config(process=HDLinear(2, 0.5))


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

    def test_each_chunk_derives_its_seeds_in_one_call(self, monkeypatch):
        calls = []
        real = mc.derive_rep_seed

        def counting(master, reps):
            calls.append(reps)
            return real(master, reps)

        monkeypatch.setattr(mc, "derive_rep_seed", counting)
        cfg = _config(reps=2 * mc._CHUNK_REPS + 1)
        values = simulate_stats(cfg)
        chunks = [(0, mc._CHUNK_REPS), (mc._CHUNK_REPS, 2 * mc._CHUNK_REPS), (2 * mc._CHUNK_REPS, cfg.reps)]
        assert calls == [range(lo, hi) for lo, hi in chunks]
        monkeypatch.setattr(mc, "derive_rep_seed", real)
        assert np.array_equal(values, simulate_stats(cfg))

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
        from blocknorm.procgen import gen_iid_normal
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
        class _Kernel:
            def __init__(self, inner, lo):
                self.inner, self.lo = inner, lo
                self.ref = inner.ref

            def values(self, paths):
                values, degenerate = self.inner.values(paths)
                degenerate = degenerate.copy()
                if self.lo == 0:  # replication 0, whatever the chunk size
                    degenerate[0] = True
                return values, degenerate

        real_chunk = mc._run_chunk
        monkeypatch.setattr(
            mc, "_run_chunk",
            lambda config, kernel, grid, bounds, collect: real_chunk(
                config, _Kernel(kernel, bounds[0]), grid, bounds, collect
            ),
        )
        cfg = _config(reps=2000, x_grid=(-1e9,))
        table = estimate_tail(cfg)
        assert table.degenerate_count == 1
        # every retained draw exceeds -1e9, so exclusion from both sides gives exactly 1
        assert table.mc_tail[0] == 1.0

    def test_standard_error_counts_only_retained_draws(self, monkeypatch):
        cfg = _config(reps=3000, x_grid=(0.0, 1.0, 2.0))
        constant = {derive_rep_seed(cfg.master_seed, r) for r in (0, 1)}
        real_generate = mc.generate_paths

        def generate(process, n, seeds):
            paths = np.array(real_generate(process, n, seeds))
            # replications 0 and 1, whatever the chunk size: zero denominator, degenerate
            paths[[row for row, seed in enumerate(seeds) if seed in constant]] = 1.0
            return paths

        monkeypatch.setattr(mc, "generate_paths", generate)
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

    @pytest.mark.parametrize("sample", [
        np.array([[0.3], [-1.2], [2.0], [0.1], [-0.4]]),  # once 0.977, not its distance 0.182
        np.zeros((2, 3)),
        np.array(0.3),
    ], ids=["column", "2x3", "scalar"])
    def test_a_sample_that_is_not_1d_is_a_data_error(self, sample):
        with pytest.raises(DataError, match=re.escape(f"1-D array, got shape {sample.shape}")):
            ks_distance(sample, NORMAL)


    @pytest.mark.parametrize("sample, reason", [
        (["a", "b"], "could not convert string to float"),
        ([[0.1], [0.2, 0.3]], "inhomogeneous"),
        ([1 + 2j, 0.5], "got complex values"),
    ], ids=["string", "ragged", "complex"])
    def test_a_sample_of_non_real_values_is_a_data_error(self, sample, reason):
        with pytest.raises(DataError, match=f"^sample must be a rectangular array of real numbers: .*{reason}"):
            ks_distance(sample, NORMAL)


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

    @pytest.mark.parametrize("grid", [[[1.6, 1.7]], [[1.6], [1.7]], 1.6], ids=["row", "column", "scalar"])
    def test_a_grid_that_is_not_1d_is_a_configuration_error(self, grid):
        shape = np.shape(grid)
        for fn in (table1, table1_csv):
            with pytest.raises(ConfigurationError, match=re.escape(f"x grid must be 1-D, got shape {shape}")):
                fn(grid)

    @pytest.mark.parametrize("grid, reason", [
        (["x"], "could not convert string to float"),
        ([1.6, 2 + 1j], "got complex values"),
    ], ids=["string", "complex"])
    def test_a_grid_of_non_real_values_is_a_configuration_error(self, grid, reason):
        for fn in (table1, table1_csv):
            with pytest.raises(ConfigurationError, match=f"^x grid must be a rectangular array of real numbers: .*{reason}"):
                fn(grid)

    def test_csv_rounding(self):
        lines = table1_csv().strip().splitlines()
        assert lines[0].startswith("x,")
        assert len(lines) == 26
        row = dict(zip(lines[0].split(","), lines[11].split(",")))
        assert row["x"] == "2.6"
        assert (row["normal_upper"], row["t19_upper"], row["t9_upper"], row["t9_over_normal"]) == (
            "0.00466", "0.00879", "0.01437", "3.08271",
        )

    def test_csv_x_labels_read_back_as_their_x(self):
        xs = [1.65, 1.66, 1.649]  # .1f would print 1.6, 1.7, 1.6
        rows = table1_csv(xs).strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1.65", "1.66", "1.649"]


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

    def test_csv_labels_read_back_as_their_values(self):
        xs = (2.0, 2.0000001, 2.0000002)  # :g would print 2 for each
        labels = ["2", "2.0000001", "2.0000002"]
        table = estimate_tail(_config(reps=100, x_grid=xs))
        assert [row.split(",")[0] for row in tail_table_csv(table).strip().splitlines()[1:]] == labels
        grid = ratio_grid(_config(process=AR1(0.0), reps=100, x_grid=xs), [0.1, 0.1000001])
        lines = ratio_grid_csv(grid).strip().splitlines()
        assert lines[0] == "x,rho=0.1,rho=0.1000001,full:rho=0.1,full:rho=0.1000001"
        assert [row.split(",")[0] for row in lines[1:]] == labels

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

        from blocknorm.procgen import gen_iid_normal
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


@pytest.fixture
def fresh_pool():
    """No worker pool before or after the test, so that a pool it makes is forked from its own state."""
    mc._close_pool()
    yield
    mc._close_pool()


def _live_children() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _allow_cpus(monkeypatch, cpus):
    """Make the worker clamp count `cpus` CPUs; None: a platform that reports no affinity and no count."""
    if cpus is None:
        monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


class TestWorkerThreadBound:
    # three chunks, the last one row
    CFG = dict(n=40, scheme=Interlace(10), reps=2 * mc._CHUNK_REPS + 1, x_grid=(1.0, 2.0))

    @pytest.mark.parametrize("workers, cpus, expected", [
        (10**6, 8, [3]),  # one worker process per chunk
        (10**6, 2, [2]),  # one worker process per CPU
        (2, 8, [2]),
        (10**6, 1, []),  # a single worker runs the chunks in the caller, with no pool
        (10**6, None, []),  # unknown CPU count counts as one
    ])
    def test_threads_are_clamped(self, monkeypatch, fresh_pool, workers, cpus, expected):
        sizes = []
        real_pool = mc._worker_pool

        def recording_pool(size):
            sizes.append(size)
            return real_pool(size)

        monkeypatch.setattr(mc, "_worker_pool", recording_pool)
        _allow_cpus(monkeypatch, cpus)
        table = estimate_tail(_config(**self.CFG), workers=workers)
        assert sizes == expected
        assert len(_live_children()) == (expected[0] if expected else 0)
        assert np.array_equal(table.mc_tail, estimate_tail(_config(**self.CFG), workers=1).mc_tail)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_a_one_cpu_affinity_runs_in_the_caller(self):
        code = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "os.cpu_count = lambda: 8  # the machine's count, which the affinity set overrides\n"
            "from blocknorm import IIDNormal, Interlace, SimConfig, estimate_tail\n"
            f"estimate_tail(SimConfig(IIDNormal(), 40, Interlace(10), 'InStar', {2 * mc._CHUNK_REPS}, 0), workers=2)\n"
            "assert 'multiprocessing' not in sys.modules, 'a worker pool was started'\n"
        )
        src = str(Path(mc.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr


class TestChunkSize:
    """The chunk size bounds a worker's memory; no result depends on it."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("process", [IIDNormal(), AR1(0.7), ARCH1(b=0.6)], ids=["iid", "ar1", "arch1"])
    def test_results_do_not_depend_on_chunk_size(self, monkeypatch, fresh_pool, process, workers):
        _allow_cpus(monkeypatch, 2)
        cfg = _config(process=process, n=60, reps=2500, x_grid=(0.5, 1.0, 2.0))
        table, values = estimate_tail(cfg, workers=workers), simulate_stats(cfg, workers=workers)
        for size in (1000, 4096):
            monkeypatch.setattr(mc, "_CHUNK_REPS", size)
            other = estimate_tail(cfg, workers=workers)
            for field in ("mc_tail", "ref_tail", "ratio", "mc_se"):
                assert np.array_equal(getattr(other, field), getattr(table, field))
            assert other.degenerate_count == table.degenerate_count
            assert np.array_equal(simulate_stats(cfg, workers=workers), values)

    def test_one_worker_memory_does_not_grow_with_the_chunk_count(self, monkeypatch):
        monkeypatch.setattr(mc, "_CHUNK_REPS", 1)
        few, many = (_config(n=20, scheme=Interlace(5), reps=reps, x_grid=(1.0, 2.0)) for reps in (200, 2000))
        estimate_tail(few)  # first-use allocations are not the run's

        def peak(cfg):
            tracemalloc.start()
            try:
                estimate_tail(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 50 bytes for each of the 1,800 extra chunks; holding every chunk's bounds or results takes hundreds
        assert peak(many) < peak(few) + 50 * 1800


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


class TestWorkerPool:
    CFG = TestWorkerThreadBound.CFG

    def test_same_size_reuses_the_pool_and_another_size_replaces_it(self, monkeypatch, fresh_pool):
        _allow_cpus(monkeypatch, 4)
        cfg = _config(**self.CFG)
        first = estimate_tail(cfg, workers=2)
        pool, pids = mc._pool, _live_children()
        assert pool[0] == 2 and len(pids) == 2
        again = simulate_stats(cfg, workers=2)
        assert mc._pool is pool and _live_children() == pids
        third = estimate_tail(cfg, workers=3)
        assert mc._pool[0] == 3 and mc._pool is not pool
        assert len(_live_children()) == 3 and not _live_children() & pids  # the old workers have exited
        assert np.array_equal(first.mc_tail, third.mc_tail)
        assert np.array_equal(again, simulate_stats(cfg, workers=1))

    def test_spawned_workers_match_one_worker(self, monkeypatch, fresh_pool):
        # get_context(None) is the platform default, fork on Linux, so spawn is forced here
        real_context, spawned = multiprocessing.get_context, []
        tracker = resource_tracker._resource_tracker
        tracker_was_running = tracker._fd is not None

        def spawn_context(method=None):
            spawned.append(method)
            return real_context("spawn")

        monkeypatch.setattr(multiprocessing, "get_context", spawn_context)
        _allow_cpus(monkeypatch, 2)
        cfg = _config(**dict(self.CFG, process=ARCH1(b=0.6)))
        table = estimate_tail(cfg, workers=2)
        assert spawned and mc._pool[0] == 2
        one = estimate_tail(cfg, workers=1)
        for field in ("mc_tail", "ref_tail", "ratio", "mc_se"):
            assert np.array_equal(getattr(table, field), getattr(one, field))
        # spawn starts the resource tracker, which would outlive the test: stop it once the
        # pool's semaphores are gone, so that none of them starts it again
        mc._close_pool()
        gc.collect()
        if not tracker_was_running:
            tracker._stop()

    @needs_fork
    def test_a_dead_worker_is_a_configuration_error_and_the_next_run_succeeds(self, monkeypatch, capsys, fresh_pool):
        argv = ["simulate", "--process", "iid", "--n", "40", "--stat", "i-star", "--m", "10",
                "--reps", str(2 * mc._CHUNK_REPS), "--format", "json", "--workers", "2"]
        _allow_cpus(monkeypatch, 2)
        real_chunk = mc._run_chunk

        def dying_chunk(config, kernel, grid, bounds, collect):
            if bounds[0] > 0:  # the second chunk's worker is killed mid-run
                os.kill(os.getpid(), signal.SIGKILL)
            return real_chunk(config, kernel, grid, bounds, collect)

        with monkeypatch.context() as patch:
            # the pool is forked after this, so its workers run the patched chunk
            patch.setattr(mc, "_run_chunk", dying_chunk)
            assert cli_main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("blocknorm: configuration error: ")
        assert "worker process died" in err and "workers = 2" in err
        assert mc._pool is None and _live_children() == set()
        assert cli_main(argv) == 0
        assert json.loads(capsys.readouterr().out)["rows"]["x"] == list(DEFAULT_X_GRID)

    @needs_fork
    def test_an_error_surfaces_and_the_queued_chunks_never_run(self, monkeypatch, fresh_pool, tmp_path):
        _allow_cpus(monkeypatch, 2)
        monkeypatch.setattr(mc, "_CHUNK_REPS", 1)
        ran = tmp_path / "ran"
        real_chunk = mc._run_chunk

        def logged_chunk(config, kernel, grid, bounds, collect):
            with open(ran, "a") as fh:
                fh.write(f"{bounds[0]}\n")
            if bounds[0] == 0:
                raise ArithmeticError("chunk 0 failed")
            time.sleep(0.01)
            return real_chunk(config, kernel, grid, bounds, collect)

        # the pool is forked after this, so its workers run the logged chunk
        monkeypatch.setattr(mc, "_run_chunk", logged_chunk)
        with pytest.raises(ArithmeticError, match="chunk 0 failed"):
            estimate_tail(_config(n=40, reps=200), workers=2)
        mc._close_pool()  # waits for the chunks already running
        chunks = ran.read_text().split()
        assert "0" in chunks and len(chunks) < 50

    @needs_fork
    def test_at_most_two_chunks_per_worker_are_in_flight(self, monkeypatch, fresh_pool):
        from concurrent.futures.process import ProcessPoolExecutor

        _allow_cpus(monkeypatch, 2)
        submitted = []
        real_submit, real_chunk = ProcessPoolExecutor.submit, mc._run_chunk

        def spying_submit(executor, fn, *args):
            submitted.append(args)
            if len(submitted) > 100:  # a pool that takes every chunk up front stops here
                raise RuntimeError(f"{len(submitted)} chunks submitted before the first result")
            return real_submit(executor, fn, *args)

        def first_chunk_fails(config, kernel, grid, bounds, collect):
            if bounds[0] == 0:
                raise ArithmeticError("chunk 0 failed")
            return real_chunk(config, kernel, grid, bounds, collect)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", spying_submit)
        # the pool is forked after this, so its workers run the failing chunk
        monkeypatch.setattr(mc, "_run_chunk", first_chunk_fails)
        # about 10^9 chunks; the first result, an error, ends the run
        with pytest.raises(ArithmeticError, match="chunk 0 failed"):
            estimate_tail(_config(n=40, reps=10**12), workers=2)
        size = mc._CHUNK_REPS
        assert [args[1] for args in submitted] == [(lo, lo + size) for lo in range(0, 4 * size, size)]

    @needs_fork
    def test_runs_on_threads_with_other_worker_counts_match_one_worker(self, monkeypatch, fresh_pool):
        # each run replaces the other's pool between its submissions
        _allow_cpus(monkeypatch, 3)
        monkeypatch.setattr(mc, "_CHUNK_REPS", 64)
        cfg = _config(n=40, reps=64 * 12)
        expected = simulate_stats(cfg, workers=1)
        results, errors = {2: [], 3: []}, []

        def run(workers):
            try:
                for _ in range(4):
                    results[workers].append(simulate_stats(cfg, workers=workers))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(workers,)) for workers in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads) and errors == []
        for runs in results.values():
            assert len(runs) == 4 and all(np.array_equal(values, expected) for values in runs)

    @pytest.mark.parametrize("end, exit_code", [
        ("", 0),
        # killed, the caller cannot shut its pool down: the workers notice and exit
        ("os.kill(os.getpid(), signal.SIGKILL)\n", -signal.SIGKILL),
    ], ids=["exits", "is-killed"])
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    def test_workers_are_gone_once_the_caller_is(self, end, exit_code):
        code = (
            "import os, signal, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from blocknorm import IIDNormal, Interlace, SimConfig, cli, estimate_tail\n"
            # a run that never starts a pool does not import the modules a pool needs
            "assert 'multiprocessing' not in sys.modules and 'concurrent.futures' not in sys.modules\n"
            f"estimate_tail(SimConfig(IIDNormal(), 40, Interlace(10), 'InStar', {2 * mc._CHUNK_REPS}, 0), workers=2)\n"
            "import multiprocessing\n"
            "print(*(p.pid for p in multiprocessing.active_children()), flush=True)\n"
            + end
        )
        src = str(Path(mc.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == exit_code, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        alive = pids
        while alive and time.monotonic() < deadline:
            alive = [pid for pid in alive if _running(pid)]
            time.sleep(0.05)
        assert alive == []

    @needs_fork
    def test_a_forked_process_makes_its_own_pool(self, monkeypatch, fresh_pool):
        _allow_cpus(monkeypatch, 2)
        cfg = _config(**self.CFG)
        expected = simulate_stats(cfg, workers=2)  # this process now has a pool
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_put_values, args=(queue, cfg))
        child.start()
        try:
            values = queue.get(timeout=60)
            child.join(timeout=30)  # the child closes its own pool as it exits
            assert not child.is_alive() and child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert np.array_equal(values, expected)


def _put_values(queue, cfg):
    queue.put(simulate_stats(cfg, workers=2))


def _running(pid: int) -> bool:
    """Whether pid names a process that has not exited; a zombie waiting to be reaped has."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
