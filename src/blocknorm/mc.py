"""Reproducible Monte Carlo engine for tail probabilities and ratio tables.

Replication r of a run draws its path from derive_rep_seed(master, r),
so the result depends only on the configuration: chunking and worker
count change the schedule, never the numbers. Chunks have a fixed size
and exceedance counts are merged by integer addition, which is exact
and order-free.

Degenerate draws (statistic denominator exactly zero) are counted and
excluded from both the numerator and denominator of the tail estimate
and from the count behind its standard error; they have probability
zero under every continuous model here, so more than 0.1% of them
aborts the run as a configuration bug. A threshold whose reference
tail underflows double precision (below the smallest normal float, as
the normal tail does past x = 37.5) has no meaningful ratio and is
rejected before any path is drawn. So is a mu0 whose centering could
overflow: with m the block length and k the block-sum count,
2*m*|mu0|*sqrt(k) must be finite.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dist import NORMAL, RefDist, ref_cdf, ref_upper, student_t
from .errors import ConfigurationError, DataError, DegenerateRateError, DomainError
from .procgen import RNG_ALGORITHM, ProcessSpec, Seed, derive_rep_seed, generate_paths
from .stats import KINDS, StatKernel, make_kernel
from .blocks import BlockScheme

DEFAULT_X_GRID: tuple[float, ...] = tuple(round(1.6 + 0.1 * i, 10) for i in range(25))
DEFAULT_REPS = 100_000

_CHUNK_REPS = 4096  # fixed so that worker count cannot influence results

TABLE1_COLUMNS = ("x", "normal_upper", "t19_upper", "t9_upper", "t9_over_normal")


@dataclass(frozen=True)
class SimConfig:
    """Everything that determines a tail-estimation run."""

    process: ProcessSpec
    n: int
    scheme: BlockScheme
    stat_kind: str
    reps: int
    master_seed: Seed
    x_grid: tuple[float, ...] = DEFAULT_X_GRID
    mu0: float = 0.0
    ref: RefDist | None = None
    kernel: StatKernel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_grid", tuple(float(x) for x in self.x_grid))
        if self.reps < 1:
            raise ConfigurationError(f"need reps >= 1, got {self.reps}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigurationError(f"master seed must be a 64-bit unsigned integer, got {self.master_seed}")
        if not math.isfinite(self.mu0):
            raise ConfigurationError(f"mu0 must be finite, got {self.mu0}")
        if len(self.x_grid) < 1:
            raise ConfigurationError("x_grid must be nonempty")
        grid = np.asarray(self.x_grid, dtype=float)
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ConfigurationError("x_grid must be strictly increasing")
        # fail fast on mismatches and on an unrepresentable mu0, and keep the kernel for the run
        object.__setattr__(self, "kernel", make_kernel(self.stat_kind, self.scheme, self.n, self.mu0))

    def as_dict(self) -> dict:
        d = {
            "n": self.n,
            "stat": KINDS[self.stat_kind][0],
            "reps": self.reps,
            "master_seed": self.master_seed,
            "mu0": self.mu0,
            "x_grid": list(self.x_grid),
        }
        d.update(self.process.as_dict())
        d.update(self.scheme.as_dict())
        if self.ref is not None:
            d["ref"] = self.ref.label()
        return d


@dataclass(frozen=True)
class TailTable:
    """Per-x Monte Carlo tail estimates against a reference distribution."""

    x: np.ndarray
    mc_tail: np.ndarray
    ref_tail: np.ndarray
    ratio: np.ndarray
    mc_se: np.ndarray
    degenerate_count: int
    ref: RefDist
    config: SimConfig


@dataclass(frozen=True)
class RatioGrid:
    """Tail tables for one process parameter grid, column per parameter."""

    param_name: str
    param_values: tuple[float, ...]
    tables: tuple[TailTable, ...]

    @property
    def x(self) -> np.ndarray:
        return self.tables[0].x

    @property
    def ratios(self) -> np.ndarray:
        """Matrix of ratios, rows indexed by x, columns by parameter value."""
        return np.column_stack([t.ratio for t in self.tables])


def _chunk_bounds(reps: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _CHUNK_REPS, reps)) for lo in range(0, reps, _CHUNK_REPS)]


def _run_chunk(
    config: SimConfig,
    kernel: StatKernel,
    grid: np.ndarray,
    bounds: tuple[int, int],
    collect: bool,
) -> tuple[np.ndarray, int, np.ndarray | None]:
    lo, hi = bounds
    seeds = [derive_rep_seed(config.master_seed, r) for r in range(lo, hi)]
    paths = generate_paths(config.process, config.n, seeds)
    values, degenerate = kernel.values(paths, config.mu0)
    good = values[~degenerate]
    if not np.isfinite(good).all():
        raise ArithmeticError(
            f"non-finite statistic values in replications [{lo}, {hi}) — this is a bug"
        )
    counts = (good[:, np.newaxis] >= grid[np.newaxis, :]).sum(axis=0)
    return counts.astype(np.int64), int(degenerate.sum()), (good if collect else None)


def _run(config: SimConfig, workers: int, collect: bool):
    if workers < 1:
        raise ConfigurationError(f"need workers >= 1, got {workers}")
    grid = np.asarray(config.x_grid, dtype=float)
    bounds = _chunk_bounds(config.reps)
    threads = min(workers, len(bounds), os.cpu_count() or 1)  # one per chunk and per CPU at most

    if threads == 1:
        results = [_run_chunk(config, config.kernel, grid, b, collect) for b in bounds]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(lambda b: _run_chunk(config, config.kernel, grid, b, collect), bounds)
            )

    counts = np.sum([r[0] for r in results], axis=0)
    degenerate = sum(r[1] for r in results)
    if degenerate > 0.001 * config.reps:
        raise DegenerateRateError(
            f"{degenerate} of {config.reps} replications were degenerate "
            f"(> 0.1%): check the process/statistic configuration"
        )
    values = np.concatenate([r[2] for r in results]) if collect else None
    return counts, degenerate, values


def simulate_stats(config: SimConfig, workers: int = 1) -> np.ndarray:
    """The statistic values themselves, one per non-degenerate replication."""
    _, _, values = _run(config, workers, collect=True)
    return values


def estimate_tail(config: SimConfig, workers: int = 1) -> TailTable:
    """Estimate P(statistic >= x) over the x grid and compare to the reference."""
    ref = config.ref if config.ref is not None else config.kernel.ref
    grid = np.asarray(config.x_grid, dtype=float)
    ref_tail = ref_upper(ref, grid)
    underflow = grid[ref_tail < np.finfo(float).tiny]
    if underflow.size:
        raise DomainError(
            f"the {ref.label()} upper tail underflows double precision at x = "
            f"{', '.join(f'{x:g}' for x in underflow)}, so its ratio is undefined"
        )
    counts, degenerate, _ = _run(config, workers, collect=False)
    effective = config.reps - degenerate
    mc_tail = counts / effective
    ratio = mc_tail / ref_tail
    mc_se = np.sqrt(mc_tail * (1.0 - mc_tail) / effective)
    return TailTable(
        x=grid,
        mc_tail=mc_tail,
        ref_tail=ref_tail,
        ratio=ratio,
        mc_se=mc_se,
        degenerate_count=degenerate,
        ref=ref,
        config=config,
    )


def ratio_grid(config: SimConfig, params: Sequence[float], workers: int = 1) -> RatioGrid:
    """One tail table per parameter value, assembled column-wise."""
    if len(params) < 1:
        raise ConfigurationError("parameter grid must be nonempty")
    name = getattr(config.process, "param", None)
    if name is None:
        raise ConfigurationError("parameter grids exist for AR(1) (over rho) and ARCH(1) (over b)")
    # every cell is built, and so validated, before any cell draws a path
    cells = [
        dataclasses.replace(config, process=dataclasses.replace(config.process, **{name: value}))
        for value in params
    ]
    tables = tuple(estimate_tail(cell, workers=workers) for cell in cells)
    return RatioGrid(param_name=name, param_values=tuple(float(v) for v in params), tables=tables)


def ks_distance(sample, ref: RefDist) -> float:
    """Sup distance between the empirical CDF of the sample and ref's CDF.

    ref's CDF is evaluated in one array call over the sorted sample; a
    non-finite sample value raises DomainError.
    """
    s = np.sort(np.asarray(sample, dtype=float))
    n = s.size
    if n < 1:
        raise DataError("sample must be nonempty")
    cdf = ref_cdf(ref, s)
    steps = np.arange(1, n + 1) / n
    return float(max((steps - cdf).max(), (cdf - steps + 1.0 / n).max()))


def table1(x_grid: Sequence[float] = DEFAULT_X_GRID) -> np.ndarray:
    """Reference tails at each x: normal, t19, t9, and the t9/normal ratio.

    Returns a (len(x_grid), 5) array in full precision with columns
    TABLE1_COLUMNS; the CSV writer rounds to five decimals.
    """
    x = np.asarray(x_grid, dtype=float)
    nu = ref_upper(NORMAL, x)
    if not nu.all():
        raise DomainError(
            f"the normal upper tail is 0 at x = {x[nu == 0.0][0]:g}, so t9/normal is undefined"
        )
    t9 = ref_upper(student_t(9), x)
    return np.column_stack([x, nu, ref_upper(student_t(19), x), t9, t9 / nu])


def table1_csv(x_grid: Sequence[float] = DEFAULT_X_GRID) -> str:
    """The reference tail table as CSV, five decimal places."""
    lines = [",".join(TABLE1_COLUMNS)]
    for x, nu, t19u, t9u, ratio in table1(x_grid):
        lines.append(f"{x:.1f},{nu:.5f},{t19u:.5f},{t9u:.5f},{ratio:.5f}")
    return "\n".join(lines) + "\n"


def tail_table_csv(table: TailTable) -> str:
    """Single tail table as CSV: 2-decimal ratio column plus full precision."""
    lines = ["x,ratio,ratio_full,mc_tail,ref_tail,mc_se,degenerate_count"]
    for i, x in enumerate(table.x):
        lines.append(
            f"{x:g},{table.ratio[i]:.2f},{table.ratio[i]:.17g},"
            f"{table.mc_tail[i]:.17g},{table.ref_tail[i]:.17g},"
            f"{table.mc_se[i]:.17g},{table.degenerate_count}"
        )
    return "\n".join(lines) + "\n"


def ratio_grid_csv(grid: RatioGrid) -> str:
    """Grid as CSV: x, one 2-decimal column per parameter, then full columns."""
    name = grid.param_name
    short = [f"{name}={v:g}" for v in grid.param_values]
    header = ["x"] + short + [f"full:{c}" for c in short]
    lines = [",".join(header)]
    ratios = grid.ratios
    for i, x in enumerate(grid.x):
        row = [f"{x:g}"]
        row += [f"{r:.2f}" for r in ratios[i]]
        row += [f"{r:.17g}" for r in ratios[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def run_metadata(config: SimConfig) -> dict:
    """Reproducibility metadata attached to JSON outputs."""
    return {
        "master_seed": config.master_seed,
        "rng_algorithm": RNG_ALGORITHM,
        "numpy_version": np.__version__,
        "reps": config.reps,
        "config": config.as_dict(),
    }


def tail_table_payload(table: TailTable) -> dict:
    """Full-precision JSON-ready payload for one tail table."""
    meta = run_metadata(table.config)
    meta["ref"] = table.ref.label()
    meta["degenerate_count"] = table.degenerate_count
    return {
        "metadata": meta,
        "rows": {
            "x": table.x.tolist(),
            "mc_tail": table.mc_tail.tolist(),
            "ref_tail": table.ref_tail.tolist(),
            "ratio": table.ratio.tolist(),
            "mc_se": table.mc_se.tolist(),
        },
    }


def ratio_grid_payload(grid: RatioGrid) -> dict:
    """Full-precision JSON-ready payload for a parameter grid."""
    return {
        "param_name": grid.param_name,
        "param_values": list(grid.param_values),
        "tables": [tail_table_payload(t) for t in grid.tables],
    }
