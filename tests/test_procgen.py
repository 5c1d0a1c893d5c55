"""Process generators: determinism, moments, seed derivation."""

import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

import blocknorm.procgen as procgen
from blocknorm.blocks import Interlace
from blocknorm.errors import ConfigurationError
from blocknorm.mc import _BAND_BYTES, _CHUNK_REPS, SimConfig, _chunk_bounds, estimate_tail
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

    @pytest.mark.parametrize("master", [0, 1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("reps", [
        range(0, 1024),  # r * stride passes 2^64 from r = 2 on
        range(2**63 - 3, 2**63 + 3),
        range(2**64 - 3, 2**64 + 3),  # r itself passes 2^64
        range(5, 40, 3),
        range(30, 2, -7),
        range(7, 7),
    ], ids=["chunk", "near-2^63", "r-wraps", "step-3", "step-minus-7", "empty"])
    def test_a_range_gives_the_scalar_seeds(self, master, reps):
        seeds = derive_rep_seed(master, reps)
        assert seeds == [derive_rep_seed(master, r) for r in reps]
        assert all(type(seed) is int for seed in seeds)

    @pytest.mark.parametrize("reps", [range(-1, 5), range(3, -2, -1)], ids=["start", "descending"])
    def test_a_range_with_a_negative_index_is_rejected(self, reps):
        with pytest.raises(ConfigurationError, match="replication index must be >= 0, got -1"):
            derive_rep_seed(1, reps)

    def test_a_range_checks_the_master(self):
        for master in (-1, 2**64, 1.0):
            with pytest.raises(ConfigurationError, match="master seed must be"):
                derive_rep_seed(master, range(3))


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

    @pytest.mark.parametrize("tile", [8, 40, _TILE])
    def test_tile_edges_of_the_per_tile_run(self, monkeypatch, tile):
        # at tiles 8 and 40, which divide ARCH_BURN_IN, the first kept ARCH(1) column opens a tile;
        # the first n leaves ARCH(1) a last tile one step long (n = 25 at a 64-step tile)
        assert tile == _TILE or ARCH_BURN_IN % tile == 0
        monkeypatch.setattr(procgen, "_TILE", tile)
        for n in ((1 - ARCH_BURN_IN) % tile, tile + 1, 2 * tile):
            for process in (AR1(0.7), ARCH1(b=0.8)):
                batch = generate_paths(process, n, _SEEDS)
                assert np.array_equal(batch, _reference_paths(process, n, _SEEDS))

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

    @pytest.mark.parametrize("rows", [1, 131, _CHUNK_REPS])  # one path, one iid band at n = 1000, one chunk
    @pytest.mark.parametrize("n", [1, 7, 999, 1000, 1001])
    @pytest.mark.parametrize(
        "process", [IIDNormal(), AR1(0.9), ARCH1(b=0.9)], ids=["iid", "ar1", "arch1"]
    )
    def test_chunk_rows_and_lengths(self, process, n, rows):
        seeds = derive_rep_seed(31, range(rows))
        assert np.array_equal(generate_paths(process, n, seeds), _reference_paths(process, n, seeds))

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
    """ARCH(1) draws each row's n + 1001 normals in one call, then recurs through the burn-in without write-back."""

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

    @pytest.mark.parametrize("n", [500, 1500])
    def test_rows_across_chunk_edges(self, n):
        seeds = [derive_rep_seed(8, r) for r in range(_CHUNK_REPS + 37)]
        # chunked as a Monte Carlo run chunks its replications
        chunks = [generate_paths(ARCH1(b=0.9), n, seeds[lo:hi]) for lo, hi in _chunk_bounds(len(seeds))]
        batch = np.concatenate(chunks)
        assert np.array_equal(batch, _reference_paths(ARCH1(b=0.9), n, seeds))


class TestRecurOverGivenDraws:
    """A recursion turns any given draws into paths, as a per-step float loop over the same numbers would."""

    @staticmethod
    def _float_loop(process, row):
        """The path from one row of draws, one Python float operation at a time."""
        first, *innovations = row.tolist()
        steps = []
        if isinstance(process, AR1):
            rho = process.rho
            state = first / math.sqrt(1.0 - rho * rho)
            for eps in innovations:
                state = rho * state + eps
                steps.append(state)
        else:
            a, b = process.a, process.b
            state = first * (a / math.sqrt(1.0 - b * b))
            for eps in innovations:
                state = math.sqrt(a * a + b * b * state * state) * eps
                steps.append(state)
        return steps[process.lead - 1 :]

    @pytest.mark.parametrize("n", [1, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1])
    @pytest.mark.parametrize(
        "process",
        [AR1(-0.6), AR1(0.9), ARCH1(b=0.0, a=2.5), ARCH1(b=0.9)],
        ids=["rho<0", "rho=0.9", "b=0,a=2.5", "b=0.9"],
    )
    def test_recur_matches_a_float_loop(self, process, n):
        # three rows of hand-made draws in [-1, 1], no generator involved
        cols = process.lead + n
        x = ((np.arange(3 * cols).reshape(3, cols) * 37 + 11) % 201 - 100) / 100.0
        draws = x.copy()
        assert process.recur(x) is None
        for row in range(3):
            assert x[row, process.lead :].tolist() == self._float_loop(process, draws[row])


@pytest.mark.parametrize(
    "process, n, widest",
    [
        (IIDNormal(), 1500, 1500),
        (AR1(0.7), 1500, 1501),
        (ARCH1(b=0.9), 500, 500 + 1 + ARCH_BURN_IN),
        (ARCH1(b=0.9), 1500, 1500 + 1 + ARCH_BURN_IN),
    ],
    ids=["iid", "ar1", "arch1-short", "arch1-long"],
)
def test_paths_hold_one_segment_of_draws_at_a_time(process, n, widest):
    seeds = [derive_rep_seed(11, r) for r in range(256)]
    generate_paths(process, n, seeds[:2])  # one-time allocations do not count
    tracemalloc.start()
    try:
        paths = generate_paths(process, n, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # tracemalloc does not see a draw buffer in a memory map, so its width is checked here
    drawn = paths if paths.base is None else paths.base
    assert drawn.nbytes == len(seeds) * widest * 8
    # the recursions' tile buffer and scratch row hold (_TILE + 2) floats per path whatever n is
    scratch = (procgen._TILE + 2) * len(seeds) * 8
    assert peak <= 1.1 * (len(seeds) * widest * 8 + scratch)


@pytest.mark.parametrize("process", [IIDNormal(), AR1(0.7), ARCH1(b=0.9)], ids=["iid", "ar1", "arch1"])
def test_draw_buffers_hold_one_chunk_at_most(monkeypatch, process):
    # tracemalloc cannot see a buffer in the memory map, so the requests are checked
    shapes = []
    real_buffer = procgen._draw_buffer

    def spy(rows, cols):
        shapes.append((rows, cols))
        return real_buffer(rows, cols)

    monkeypatch.setattr(procgen, "_draw_buffer", spy)
    cfg = SimConfig(process, 1000, Interlace(50), "InStar", 2 * _CHUNK_REPS + 1, 0, x_grid=(1.0,))
    estimate_tail(cfg, workers=1)
    rows = [r for r, _ in shapes]
    if hasattr(process, "recur"):  # the recursion runs across a whole chunk's rows
        assert rows == [_CHUNK_REPS, _CHUNK_REPS, 1]
    else:  # one band of at most _BAND_BYTES of draws at a time
        band = _BAND_BYTES // (8 * 1000)
        assert max(rows) == band and sum(rows) == cfg.reps and len(rows) == 2 * -(-_CHUNK_REPS // band) + 1
        assert max(r * c * 8 for r, c in shapes) <= _BAND_BYTES


class TestDrawBuffers:
    """Draw buffers of 1 to 32 MiB reuse one memory map per thread once no array uses it."""

    ROWS, COLS = 300, 1001  # 2.4 MB

    def test_a_dropped_buffer_is_reused(self):
        def addresses():  # in a new thread, which starts with no map
            first = procgen._draw_buffer(self.ROWS, self.COLS)
            out = [first.ctypes.data]
            del first
            second = procgen._draw_buffer(self.ROWS, self.COLS - 1)
            assert second.shape == (self.ROWS, self.COLS - 1) and second.flags.writeable
            out.append(second.ctypes.data)
            del second
            out.append(procgen._draw_buffer(self.ROWS, self.COLS + 1).ctypes.data)  # too large for the map
            return out

        seen = []
        thread = threading.Thread(target=lambda: seen.append(addresses()))
        thread.start()
        thread.join()
        first, second, larger = seen[0]
        assert second == first and larger != first

    def test_paths_still_in_use_are_not_overwritten(self):
        seeds = [derive_rep_seed(3, r) for r in range(self.ROWS)]
        kept = generate_paths(AR1(0.5), self.COLS - 1, seeds)
        view = generate_paths(ARCH1(b=0.9), self.COLS - 1, seeds)[:5, :7]  # a view holds its buffer too
        before = kept.copy(), view.copy()
        later = generate_paths(IIDNormal(), self.COLS - 1, seeds)
        assert not np.shares_memory(later, kept) and not np.shares_memory(later, view)
        assert np.array_equal(kept, before[0]) and np.array_equal(view, before[1])

    def test_each_thread_has_its_own_map(self):
        mine = procgen._draw_buffer(self.ROWS, self.COLS)
        address = mine.ctypes.data
        del mine
        seen = []
        thread = threading.Thread(target=lambda: seen.append(procgen._draw_buffer(self.ROWS, self.COLS).ctypes.data))
        thread.start()
        thread.join()
        assert seen and seen[0] != address
        assert procgen._draw_buffer(self.ROWS, self.COLS).ctypes.data == address

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_writes_its_own_copy(self):
        mine = procgen._draw_buffer(self.ROWS, self.COLS)
        mine[:] = 1.0
        address = mine.ctypes.data
        del mine
        pid = os.fork()
        if pid == 0:  # the child reuses the map it inherited
            try:
                procgen._draw_buffer(self.ROWS, self.COLS)[:] = 2.0
            finally:
                os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
        again = procgen._draw_buffer(self.ROWS, self.COLS)
        assert again.ctypes.data == address and (again == 1.0).all()

    @pytest.mark.parametrize("rows, cols", [(2, 10), (1, (32 << 20) // 8 + 1)], ids=["small", "over-32MiB"])
    def test_other_sizes_are_ordinary_arrays(self, rows, cols):
        assert procgen._draw_buffer(rows, cols).flags.owndata


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

    def test_hd_linear_sizes_are_integers(self):
        for field in ("p", "lag_cap"):
            for value in (2.5, True, 3.0):
                with pytest.raises(ConfigurationError, match=f"{field} must be an integer, got {value!r}"):
                    HDLinear(**{"p": 2, "decay": 0.5, field: value})
        spec = HDLinear(p=np.int64(3), decay=0.5, lag_cap=np.uint8(9))
        assert (type(spec.p), type(spec.lag_cap)) == (int, int)

    @pytest.mark.parametrize(
        "call",
        [
            lambda seed: gen_iid_normal(4, seed),
            lambda seed: gen_ar1(4, 0.5, seed),
            lambda seed: gen_arch1(4, 1.0, 0.5, seed),
            lambda seed: gen_hd_linear(4, HDLinear(p=2, decay=0.5, lag_cap=3), seed),
            lambda seed: generate_paths(IIDNormal(), 4, [1, seed]),
            lambda seed: generate_paths(ARCH1(b=0.5), 4, [1, seed]),
            lambda seed: derive_rep_seed(seed, 0),
        ],
        ids=["iid", "ar1", "arch1", "hd-linear", "generate_paths", "arch1-paths", "derive_rep_seed"],
    )
    def test_seeds_are_64_bit_unsigned_integers(self, call):
        for seed in (2.9, True, 2.0, "3"):
            with pytest.raises(ConfigurationError, match="must be an integer"):
                call(seed)
        for seed in (-1, 2**64):
            with pytest.raises(ConfigurationError, match="64-bit unsigned"):
                call(seed)
        assert np.array_equal(call(np.uint64(2**64 - 1)), call(2**64 - 1))

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: gen_iid_normal(n, 1),
            lambda n: gen_ar1(n, 0.5, 1),
            lambda n: gen_arch1(n, 1.0, 0.5, 1),
            lambda n: gen_hd_linear(n, HDLinear(p=2, decay=0.5, lag_cap=3), 1),
            lambda n: generate_paths(IIDNormal(), n, [1]),
            lambda n: generate_paths(AR1(0.5), n, [1]),
            lambda n: generate_paths(ARCH1(b=0.5), n, [1]),
        ],
        ids=["iid", "ar1", "arch1", "hd-linear", "generate_paths", "ar1-paths", "arch1-paths"],
    )
    def test_lengths_are_integers(self, call):
        for n in (4.0, True, 2.5):
            with pytest.raises(ConfigurationError, match=f"length n must be an integer, got {n!r}"):
                call(n)
        for n in (0, -1):
            with pytest.raises(ConfigurationError, match=f"length n must be >= 1, got {n}"):
                call(n)
        assert np.array_equal(call(np.int16(4)), call(4))

    def test_replication_index_is_an_integer(self):
        for rep in (1.0, True, 0.5):
            with pytest.raises(ConfigurationError, match=f"replication index must be an integer, got {rep!r}"):
                derive_rep_seed(1, rep)
        assert derive_rep_seed(np.uint64(0), np.int8(1)) == 0x6E789E6AA1B965F4

    def test_generate_paths_needs_series_process(self):
        with pytest.raises(ConfigurationError):
            generate_paths(HDLinear(p=2, decay=0.5), 10, [1])
        with pytest.raises(ConfigurationError):
            generate_paths(IIDNormal(), 0, [1])
