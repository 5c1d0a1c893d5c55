"""Process generators: determinism, moments, seed derivation."""

import math
import tracemalloc

import numpy as np
import pytest

import blocknorm.procgen as procgen
from blocknorm.blocks import Interlace
from blocknorm.errors import ConfigurationError
from blocknorm.mc import _CHUNK_REPS, SimConfig, estimate_tail
from blocknorm.procgen import (
    _BAND,
    _TILE,
    AR1,
    ARCH1,
    ARCH_BURN_IN,
    HDLinear,
    IIDNormal,
    banded_mixing_matrix,
    derive_rep_seed,
    gen_ar1,
    gen_arch1,
    gen_hd_linear,
    gen_iid_normal,
    generate_paths,
    generator,
    splitmix64,
)


def _splitmix64_vec(z: np.ndarray) -> np.ndarray:
    """Vectorized mirror of splitmix64 for bulk injectivity checks."""
    with np.errstate(over="ignore"):
        z = z + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


class TestSeedDerivation:
    def test_reference_vectors(self):
        # first outputs of the canonical SplitMix64 stream started at 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert derive_rep_seed(0, 0) == 0xE220A8397B1DCDAF
        assert derive_rep_seed(0, 1) == 0x6E789E6AA1B965F4

    def test_deterministic(self):
        assert derive_rep_seed(12345, 678) == derive_rep_seed(12345, 678)

    def test_vectorized_mirror_matches_scalar(self):
        rng = np.random.default_rng(0)
        zs = rng.integers(0, 2**64, size=1000, dtype=np.uint64)
        vec = _splitmix64_vec(zs.copy())
        for z, v in zip(zs[:100].tolist(), vec[:100].tolist()):
            assert splitmix64(z) == v

    def test_injective_over_a_million_indices(self):
        master = np.uint64(907856)
        idx = np.arange(1_000_000, dtype=np.uint64)
        with np.errstate(over="ignore"):
            states = master + idx * np.uint64(0x9E3779B97F4A7C15)
        derived = _splitmix64_vec(states)
        assert np.unique(derived).size == idx.size
        assert derive_rep_seed(907856, 0) != derive_rep_seed(907856, 1)
        for r in (0, 1, 17, 999_999):
            assert derive_rep_seed(907856, r) == int(derived[r])

    def test_masters_do_not_share_seed_sets(self):
        # different masters must not recycle each other's derived-seed sets
        a = {derive_rep_seed(7, r) for r in range(4096)}
        b = {derive_rep_seed(42, r) for r in range(4096)}
        assert not (a & b)

    def test_negative_rep_rejected(self):
        with pytest.raises(ConfigurationError):
            derive_rep_seed(1, -1)


class TestDeterminism:
    def test_same_seed_same_output(self):
        assert np.array_equal(gen_iid_normal(500, 7), gen_iid_normal(500, 7))
        assert np.array_equal(gen_ar1(500, 0.6, 7), gen_ar1(500, 0.6, 7))
        assert np.array_equal(gen_arch1(300, 1.0, 0.4, 7), gen_arch1(300, 1.0, 0.4, 7))
        spec = HDLinear(p=3, decay=0.5, lag_cap=50)
        assert np.array_equal(gen_hd_linear(200, spec, 7), gen_hd_linear(200, spec, 7))

    def test_different_seeds_differ(self):
        assert not np.array_equal(gen_iid_normal(100, 1), gen_iid_normal(100, 2))

    def test_batch_rows_match_scalar_calls(self):
        seeds = [derive_rep_seed(42, r) for r in range(5)]
        batch = generate_paths(AR1(0.7), 120, seeds)
        for row, seed in enumerate(seeds):
            assert np.array_equal(batch[row], gen_ar1(120, 0.7, seed))
        batch = generate_paths(ARCH1(b=0.5), 80, seeds)
        for row, seed in enumerate(seeds):
            assert np.array_equal(batch[row], gen_arch1(80, 1.0, 0.5, seed))


def _reference_paths(process, n, seeds):
    """generate_paths the plain way: one generator per row, one time step per loop."""
    draws = {AR1: n + 1, ARCH1: n + 1 + ARCH_BURN_IN}.get(type(process), n)
    eps = np.empty((len(seeds), draws))
    for row, seed in enumerate(seeds):
        eps[row] = generator(seed).standard_normal(draws)
    if isinstance(process, IIDNormal):
        return eps
    x = np.empty((len(seeds), n))
    if isinstance(process, AR1):
        rho = process.rho
        state = eps[:, 0] / math.sqrt(1.0 - rho * rho)
        for i in range(n):
            state = rho * state + eps[:, i + 1]
            x[:, i] = state
        return x
    a, b = process.a, process.b
    state = eps[:, 0] * (a / math.sqrt(1.0 - b * b))
    for i in range(ARCH_BURN_IN + n):
        state = np.sqrt(a * a + (b * b) * state * state) * eps[:, i + 1]
        if i >= ARCH_BURN_IN:
            x[:, i - ARCH_BURN_IN] = state
    return x


_SEEDS = [derive_rep_seed(2718, r) for r in range(7)]


class TestAgainstReferenceLoops:
    """Batched generation must equal the per-row, per-step loops bit for bit."""

    @pytest.mark.parametrize("n", [1, _TILE - 1, _TILE, _TILE + 1, 130])
    @pytest.mark.parametrize(
        "process", [IIDNormal(), AR1(0.7), ARCH1(b=0.5)], ids=["iid", "ar1", "arch1"]
    )
    def test_lengths_around_the_time_tile(self, process, n):
        batch = generate_paths(process, n, _SEEDS)
        assert batch.shape == (len(_SEEDS), n)
        assert np.array_equal(batch, _reference_paths(process, n, _SEEDS))

    def test_arch_burn_in_ends_mid_tile(self):
        # recursion steps run from column 1, so the first emitted step sits
        # ARCH_BURN_IN % _TILE steps into its tile
        assert ARCH_BURN_IN % _TILE != 0
        for n in (1, _TILE - ARCH_BURN_IN % _TILE, 200):
            batch = generate_paths(ARCH1(b=0.8), n, _SEEDS)
            assert np.array_equal(batch, _reference_paths(ARCH1(b=0.8), n, _SEEDS))

    @pytest.mark.parametrize(
        "process",
        [AR1(-0.6), AR1(0.0), ARCH1(b=0.0, a=2.5), ARCH1(b=0.7, a=0.3)],
        ids=["rho<0", "rho=0", "b=0,a=2.5", "b=0.7,a=0.3"],
    )
    def test_parameter_edges(self, process):
        batch = generate_paths(process, 90, _SEEDS)
        assert np.array_equal(batch, _reference_paths(process, 90, _SEEDS))

    def test_rows_across_copy_bands(self):
        seeds = [derive_rep_seed(99, r) for r in range(_BAND + 37)]
        for process in (AR1(0.9), ARCH1(b=0.9)):
            batch = generate_paths(process, _TILE + 3, seeds)
            assert np.array_equal(batch, _reference_paths(process, _TILE + 3, seeds))

    @pytest.mark.parametrize(
        "process", [IIDNormal(), AR1(0.5), ARCH1(b=0.5)], ids=["iid", "ar1", "arch1"]
    )
    def test_single_seed_and_no_seeds(self, process):
        one = generate_paths(process, 70, [_SEEDS[3]])
        assert np.array_equal(one, _reference_paths(process, 70, [_SEEDS[3]]))
        none = generate_paths(process, 70, [])
        assert none.shape == (0, 70)

    def test_worker_count_never_changes_an_arch_table(self):
        cfg = SimConfig(
            process=ARCH1(b=0.6),
            n=60,
            scheme=Interlace(5),
            stat_kind="InStar",
            reps=2 * _CHUNK_REPS + 1,  # three chunks, the last one row
            master_seed=17,
            x_grid=(1.0, 2.0, 3.0),
        )
        one, three = estimate_tail(cfg, workers=1), estimate_tail(cfg, workers=3)
        for field in ("mc_tail", "ref_tail", "ratio", "mc_se"):
            assert np.array_equal(getattr(one, field), getattr(three, field))
        assert one.degenerate_count == three.degenerate_count


class TestArchSegments:
    """ARCH(1) draws its burn-in, then its emitted innovations, into one buffer of rows."""

    @pytest.mark.parametrize("n", [1, ARCH_BURN_IN - 1, ARCH_BURN_IN, ARCH_BURN_IN + 1, 1500])
    @pytest.mark.parametrize("process", [ARCH1(b=0.9), ARCH1(b=0.5, a=0.5)], ids=["b=0.9", "b=0.5,a=0.5"])
    def test_lengths_around_the_burn_in(self, process, n):
        batch = generate_paths(process, n, _SEEDS)
        assert batch.shape == (len(_SEEDS), n)
        assert np.array_equal(batch, _reference_paths(process, n, _SEEDS))

    def test_rows_across_copy_bands_past_the_burn_in(self):
        seeds = [derive_rep_seed(7, r) for r in range(_BAND + 37)]
        batch = generate_paths(ARCH1(b=0.9), 1500, seeds)
        assert np.array_equal(batch, _reference_paths(ARCH1(b=0.9), 1500, seeds))

    def test_single_seed_and_no_seeds_past_the_burn_in(self):
        one = generate_paths(ARCH1(b=0.9), 1500, [_SEEDS[5]])
        assert np.array_equal(one, _reference_paths(ARCH1(b=0.9), 1500, [_SEEDS[5]]))
        assert generate_paths(ARCH1(b=0.9), 1500, []).shape == (0, 1500)

    def test_a_misread_state_is_refused(self, monkeypatch):
        # the saved stops are checked against the public state getter
        monkeypatch.setattr(
            procgen, "_state_views", lambda bitgen: (np.zeros(4, np.uint64), np.zeros(5, np.uint64))
        )
        with pytest.raises(RuntimeError, match="not laid out"):
            generate_paths(ARCH1(b=0.9), 20, _SEEDS)


@pytest.mark.parametrize(
    "process, n, widest",
    [
        (IIDNormal(), 1500, 1500),
        (AR1(0.7), 1500, 1501),
        (ARCH1(b=0.9), 500, 1 + ARCH_BURN_IN),  # the burn-in segment is the wider
        (ARCH1(b=0.9), 1500, 1501),  # the emitted segment is the wider
    ],
    ids=["iid", "ar1", "arch1-short", "arch1-long"],
)
def test_paths_hold_one_segment_of_draws_at_a_time(process, n, widest):
    seeds = [derive_rep_seed(11, r) for r in range(256)]
    generate_paths(process, n, seeds[:2])  # one-time allocations do not count
    tracemalloc.start()
    try:
        generate_paths(process, n, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the recursions' tile buffer and scratch row hold (_TILE + 2) floats per path whatever n is
    scratch = (procgen._TILE + 2) * len(seeds) * 8
    assert peak <= 1.1 * (len(seeds) * widest * 8 + scratch)


class TestMoments:
    def test_iid_mean_and_variance(self):
        x = gen_iid_normal(1_000_000, 2024)
        assert abs(x.mean()) < 0.004  # 3 standard errors
        assert abs(x.var() - 1.0) < 0.005

    def test_ar1_stationary_variance(self):
        x = gen_ar1(1_000_000, 0.9, 55)
        assert x.var() == pytest.approx(1.0 / (1.0 - 0.81), rel=0.05)

    def test_ar1_lag_one_autocorrelation(self):
        x = gen_ar1(1_000_000, 0.5, 56)
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert r1 == pytest.approx(0.5, abs=0.01)

    def test_ar1_stationary_from_the_first_index(self):
        # marginal variance at index 0 matches index -1 across replications
        seeds = [derive_rep_seed(5150, r) for r in range(10_000)]
        paths = generate_paths(AR1(0.8), 40, seeds)
        v_first, v_last = paths[:, 0].var(), paths[:, -1].var()
        assert v_first == pytest.approx(v_last, rel=0.1)
        assert v_first == pytest.approx(1.0 / (1.0 - 0.64), rel=0.1)

    def test_arch_second_moment(self):
        x = gen_arch1(1_000_000, 1.0, 0.5, 57)
        assert x.var() == pytest.approx(1.0 / (1.0 - 0.25), rel=0.05)
        se = np.sqrt(x.var() / x.size)
        assert abs(x.mean()) < 3 * se

    def test_arch_b_zero_is_iid_scaled(self):
        x = gen_arch1(500_000, 2.5, 0.0, 58)
        assert x.var() == pytest.approx(2.5**2, rel=0.05)
        assert np.isfinite(x).all()

    def test_arch_heavy_parameter_stays_finite(self):
        x = gen_arch1(200_000, 1.0, 0.9, 59)
        assert np.isfinite(x).all()


class TestHDLinear:
    def test_mixing_matrix_rows_unit_norm(self):
        a0 = banded_mixing_matrix(6)
        np.testing.assert_allclose(np.linalg.norm(a0, axis=1), 1.0, atol=1e-12)
        assert a0[0, 2] == 0.0

    def test_decay_zero_rows_iid(self):
        spec = HDLinear(p=4, decay=0.0, lag_cap=10)
        z = gen_hd_linear(50_000, spec, 11)
        # each row is A0 @ eta_i: unit marginal variance, no serial correlation
        assert z.var(axis=0) == pytest.approx(np.ones(4), rel=0.05)
        lag1 = np.mean(z[:-1, 0] * z[1:, 0])
        assert abs(lag1) < 0.02

    def test_univariate_geometric_variance(self):
        decay = 0.7
        z = gen_hd_linear(1_000_000, HDLinear(p=1, decay=decay, lag_cap=200), 13)
        assert z.var() == pytest.approx(1.0 / (1.0 - decay**2), rel=0.05)

    def test_shape_and_finiteness(self):
        z = gen_hd_linear(123, HDLinear(p=7, decay=0.9, lag_cap=60), 3)
        assert z.shape == (123, 7)
        assert np.isfinite(z).all()


class TestParameterValidation:
    def test_ar1_rho_range(self):
        with pytest.raises(ConfigurationError):
            AR1(rho=1.0)
        with pytest.raises(ConfigurationError):
            AR1(rho=-1.2)

    def test_arch_ranges(self):
        with pytest.raises(ConfigurationError):
            ARCH1(b=1.0)
        with pytest.raises(ConfigurationError):
            ARCH1(b=-0.1)
        with pytest.raises(ConfigurationError):
            ARCH1(b=0.5, a=0.0)
        for a in (float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match="finite"):
                ARCH1(b=0.5, a=a)

    def test_arch_scale_edges(self):
        # a*a must be a normal double, and U*U must stay finite while |U|/a reaches 2^12
        for a in (2.0**-511, math.nextafter(2.0**500, 0.0)):
            assert ARCH1(b=0.5, a=a).a == a
        for a in (math.nextafter(2.0**-511, 0.0), 2.0**500):
            with pytest.raises(ConfigurationError, match="2\\^-511 <= a < 2\\^500"):
                ARCH1(b=0.5, a=a)

    def test_hd_linear_ranges(self):
        with pytest.raises(ConfigurationError):
            HDLinear(p=0, decay=0.5)
        with pytest.raises(ConfigurationError):
            HDLinear(p=2, decay=1.0)
        with pytest.raises(ConfigurationError):
            HDLinear(p=2, decay=0.5, lag_cap=0)

    def test_generate_paths_needs_series_process(self):
        with pytest.raises(ConfigurationError):
            generate_paths(HDLinear(p=2, decay=0.5), 10, [1])
        with pytest.raises(ConfigurationError):
            generate_paths(IIDNormal(), 0, [1])
