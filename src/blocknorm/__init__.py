"""Self-normalized block statistics for weakly dependent time series.

The package bundles:

* exact normal / Student t reference distributions (``dist``),
* the big-small, interlacing and batch block schemes (``blocks``),
* the normalized block statistics (``stats``),
* seeded dependent-process generators (``procgen``),
* a reproducible Monte Carlo tail engine (``mc``),
* simultaneous mean inference for panels (``infer``),
* a command-line front end (``blocknorm``; see ``cli``).
"""

import types as _types

from .blocks import (
    Batch,
    BigSmall,
    Block,
    BlockPartition,
    BlockSums,
    Interlace,
    batch_partition,
    bbsb_partition,
    block_sums,
    exponents_to_sizes,
    interlace_partition,
)
from .dist import (
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
from .errors import (
    BlocknormError,
    ConfigurationError,
    DataError,
    DegenerateDenominatorError,
    DegenerateRateError,
    DomainError,
)
from .infer import CiSet, TestResult, mean_test, read_panel_csv, simultaneous_ci
from .mc import (
    DEFAULT_REPS,
    DEFAULT_X_GRID,
    RatioGrid,
    SimConfig,
    TailTable,
    estimate_tail,
    ks_distance,
    ratio_grid,
    simulate_stats,
    table1,
    table1_csv,
)
from .procgen import (
    AR1,
    ARCH1,
    HDLinear,
    IIDNormal,
    derive_rep_seed,
    gen_ar1,
    gen_arch1,
    gen_hd_linear,
    gen_iid_normal,
    splitmix64,
)
from .stats import (
    StatValue,
    TwoSampleData,
    i_n,
    i_n_star,
    t_n_star,
    two_sample_w,
    w_n,
    w_n_star,
)

__version__ = "0.1.0"

# binding a public name in this file is what exports it: __all__ is every name
# bound above without a leading underscore that is not a submodule
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
