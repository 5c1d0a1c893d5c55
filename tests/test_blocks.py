"""Block scheme construction, validation and block sums."""

import numpy as np
import pytest

from blocknorm.blocks import (
    Batch,
    BigSmall,
    Interlace,
    batch_partition,
    bbsb_partition,
    block_sums,
    exponents_to_sizes,
    interlace_partition,
)
from blocknorm.errors import ConfigurationError, DataError, as_real_array


class TestExponents:
    def test_examples(self):
        assert exponents_to_sizes(1000, 0.5, 0.5) == (31, 31)
        assert exponents_to_sizes(1000, 0.25, 0.25) == (5, 5)
        assert exponents_to_sizes(16, 0.5, 0.25) == (4, 2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            exponents_to_sizes(1000, 0.25, 0.5)  # alpha1 < alpha2
        with pytest.raises(ConfigurationError):
            exponents_to_sizes(0, 0.5, 0.5)
        with pytest.raises(ConfigurationError):
            exponents_to_sizes(1000, 1.0, 0.5)
        for n in (10.5, True):
            with pytest.raises(ConfigurationError, match=f"sample length n must be an integer, got {n!r}"):
                exponents_to_sizes(n, 0.5, 0.5)

    def test_smallest_n_gives_unit_blocks(self):
        # n**alpha >= 1 whenever n >= 1, so no accepted n leaves a block size below 1
        assert exponents_to_sizes(1, 0.9, 1e-300) == (1, 1)
        assert exponents_to_sizes(2, 0.5, 0.01) == (1, 1)


class TestBigSmallPartition:
    def test_design_1000_43_7(self):
        part = bbsb_partition(1000, 43, 7)
        assert part.k == 20
        bigs, smalls = part.tagged("big"), part.tagged("small")
        assert (bigs[0].start, bigs[0].end) == (1, 43)
        assert (smalls[0].start, smalls[0].end) == (44, 50)
        assert (bigs[19].start, bigs[19].end) == (951, 993)
        assert max(b.end for b in part.blocks) == 1000

    def test_small_example(self):
        part = bbsb_partition(10, 3, 2)
        assert part.k == 2
        assert [(b.start, b.end) for b in part.tagged("big")] == [(1, 3), (6, 8)]
        assert [(b.start, b.end) for b in part.tagged("small")] == [(4, 5), (9, 10)]

    def test_degenerate(self):
        with pytest.raises(ConfigurationError):
            bbsb_partition(4, 3, 2)
        with pytest.raises(ConfigurationError):
            bbsb_partition(10, 2, 3)  # m1 < m2
        with pytest.raises(ConfigurationError):
            BigSmall(3, 0)
        for n in (10.0, "10", True):
            with pytest.raises(ConfigurationError, match=f"sample length n must be an integer, got {n!r}"):
                bbsb_partition(n, 3, 2)


@pytest.mark.parametrize("scheme", [Interlace, Batch])
def test_equal_block_schemes_need_positive_size(scheme):
    with pytest.raises(ConfigurationError, match="block size m must be >= 1, got 0"):
        scheme(0)


class TestInterlacePartition:
    def test_design_1000_50(self):
        part = interlace_partition(1000, 50)
        assert part.k == 10
        blocks = part.tagged("odd")
        assert (blocks[0].start, blocks[0].end) == (1, 50)
        assert (blocks[1].start, blocks[1].end) == (101, 150)

    def test_small_examples(self):
        for n in (10, 8):
            part = interlace_partition(n, 2)
            assert part.k == 2
            assert [(b.start, b.end) for b in part.blocks] == [(1, 2), (5, 6)]

    def test_degenerate(self):
        with pytest.raises(ConfigurationError):
            interlace_partition(3, 2)
        for n in (10.0, "10", True):
            with pytest.raises(ConfigurationError, match=f"sample length n must be an integer, got {n!r}"):
                interlace_partition(n, 2)


class TestBatchPartition:
    def test_design_1000_50(self):
        part = batch_partition(1000, 50)
        assert len(part.blocks) == 20
        assert all(len(b) == 50 for b in part.blocks)

    def test_small_example(self):
        part = batch_partition(8, 2)
        assert [(b.start, b.end) for b in part.blocks] == [(1, 2), (3, 4), (5, 6), (7, 8)]

    def test_degenerate(self):
        with pytest.raises(ConfigurationError):
            batch_partition(3, 2)
        for n in (10.0, "10", True):
            with pytest.raises(ConfigurationError, match=f"sample length n must be an integer, got {n!r}"):
                batch_partition(n, 2)


class TestBlockSums:
    def test_interlace_hand_example(self):
        series = np.arange(1.0, 9.0)
        part = interlace_partition(8, 2)
        sums = block_sums(series, part, "odd")
        assert sums.values.tolist() == [3.0, 11.0]
        assert sums.block_length == 2
        assert sums.k == 2

    def test_batch_hand_example(self):
        series = np.arange(1.0, 9.0)
        sums = block_sums(series, batch_partition(8, 2), "batch")
        assert sums.values.tolist() == [3.0, 7.0, 11.0, 15.0]

    def test_zero_series(self):
        part = bbsb_partition(12, 3, 1)
        sums = block_sums(np.zeros(12), part, "big")
        assert np.all(sums.values == 0.0)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            block_sums(np.zeros(9), bbsb_partition(10, 3, 2), "big")

    def test_unknown_tag(self):
        with pytest.raises(ConfigurationError):
            block_sums(np.zeros(10), bbsb_partition(10, 3, 2), "odd")

    def test_non_finite_series_rejected(self):
        series = [1.0, 2.0, np.nan, 4.0, 5.0, np.inf, 7.0, 8.0]
        with pytest.raises(DataError, match="series must be finite, got nan"):
            block_sums(series, interlace_partition(8, 2), "odd")

    def test_finite_series_whose_sums_overflow_rejected(self):
        with pytest.raises(DataError, match="block sums overflow double range"):
            block_sums(np.full(8, 2.0**1023), interlace_partition(8, 2), "odd")

    def test_batch_of_one_row_rejected(self):
        with pytest.raises(DataError, match=r"series must be 1-D, got shape \(1, 8\)"):
            block_sums(np.zeros((1, 8)), interlace_partition(8, 2), "odd")

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x, z = rng.standard_normal(40), rng.standard_normal(40)
        part = batch_partition(40, 4)
        left = block_sums(3.0 * x - 2.0 * z, part, "batch").values
        right = 3.0 * block_sums(x, part, "batch").values - 2.0 * block_sums(z, part, "batch").values
        np.testing.assert_allclose(left, right, atol=1e-12)


class TestFiniteArray:
    """The array rule of `errors.as_real_array` as series and panels take it: n axes, nonempty, finite."""

    def test_returns_float_array(self):
        x = as_real_array([[1, 2], [3, 4]], "panel", DataError, ndim=2, finite=True)
        assert x.dtype == float and x.shape == (2, 2)

    @pytest.mark.parametrize(
        "data, ndim, message",
        [
            ([1.0, 2.0], 2, r"panel must be 2-D, got shape \(2,\)"),
            (np.zeros((0, 3)), 2, r"panel must be nonempty, got shape \(0, 3\)"),
            ([[1.0, -np.inf]], 2, "panel must be finite, got -inf"),
            (["a"] * 10, 1, "panel must be a rectangular array of real numbers: could not convert"),
            ([[1.0], [1.0, 2.0]], 2, "panel must be a rectangular array of real numbers: .*inhomogeneous"),
            (np.array([1 + 2j] * 10), 1, "panel must be a rectangular array of real numbers: got complex"),
        ],
        ids=["rank", "empty", "non-finite", "non-numeric", "ragged", "complex"],
    )
    def test_errors_name_the_input(self, data, ndim, message):
        with pytest.raises(DataError, match=message):
            as_real_array(data, "panel", DataError, ndim=ndim, finite=True)


def _assert_valid_partition(part):
    seen = set()
    for block in part.blocks:
        assert 1 <= block.start <= block.end <= part.n
        idx = set(range(block.start, block.end + 1))
        assert not (idx & seen)
        seen |= idx
    for tag in {b.tag for b in part.blocks}:
        tagged = part.tagged(tag)
        assert all(a.end < b.start for a, b in zip(tagged, tagged[1:]))


class TestInvariants:
    def test_fuzzed_partitions_disjoint_ordered_in_range(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            n = int(rng.integers(2, 200))
            m2 = int(rng.integers(1, max(2, n // 2)))
            m1 = int(rng.integers(m2, max(m2 + 1, n - m2 + 1)))
            if m1 + m2 <= n:
                part = bbsb_partition(n, m1, m2)
                _assert_valid_partition(part)
                assert all(len(b) == m1 for b in part.tagged("big"))
                assert all(len(b) == m2 for b in part.tagged("small"))
            m = int(rng.integers(1, n))
            if 2 * m <= n:
                _assert_valid_partition(interlace_partition(n, m))
                _assert_valid_partition(batch_partition(n, m))

    def test_equal_block_identity(self):
        # the odd interlaced blocks are the big blocks of the equal big-small scheme
        for n, m in ((1000, 50), (37, 3), (8, 2), (100, 25)):
            inter = interlace_partition(n, m).tagged("odd")
            bigs = bbsb_partition(n, m, m).tagged("big")
            assert [(b.start, b.end) for b in inter] == [(b.start, b.end) for b in bigs]

    def test_batch_sum_consistency(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(103)
        part = batch_partition(103, 10)
        sums = block_sums(x, part, "batch")
        np.testing.assert_allclose(sums.values.sum(), x[:100].sum(), atol=1e-10)
