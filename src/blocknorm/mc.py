"""Reproducible Monte Carlo engine for tail probabilities and ratio tables.

Replication r of a run draws its path from derive_rep_seed(master, r),
so the result depends only on the configuration: chunking and worker
count change the schedule, never the numbers. Chunks have a fixed size
and exceedance counts are merged by integer addition, which is exact
and order-free.

A run with one worker computes its chunks in the caller. A run with p
workers, p = min(workers, chunks, CPUs the process may run on) >= 2,
sends its chunks to a pool of p worker processes (forked where the
platform offers fork). The pool lives for the Python process: later runs
with the same p reuse it, a run with another p replaces it, and it is
shut down at exit. Either way one loop folds in each chunk's results in
chunk order as they arrive, so a one-worker run holds one chunk at a
time. Of its paths it holds all at once only for a process with a
recursion, which runs vectorized across the chunk's rows; an iid chunk,
whose rows share nothing, is drawn and evaluated one band of at most
_BAND_BYTES (1 MiB) of draws at a time, and the bands' values are
joined in row order, so no result depends on the band size either.
A pool run keeps at most 2p chunks in flight, submitting the next
as each result is taken, so its memory does not grow with the
replication count either; an error or an interrupt drops the chunks
still queued.
Workers ignore SIGINT, so Ctrl-C interrupts only the caller, and exit
within a second of their caller if it is killed. A worker
that dies (for example at the hands of the out-of-memory killer) ends
the run with a ConfigurationError; the next run starts a new pool.

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

import collections
import dataclasses
import itertools
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .dist import NORMAL, RefDist, ref_cdf, ref_upper, student_t
from .errors import ConfigurationError, DataError, DegenerateRateError, DomainError, as_index, as_real, as_real_array
from .procgen import RNG_ALGORITHM, ProcessSpec, Seed, as_seed, derive_rep_seed, generate_paths
from .stats import KINDS, StatKernel, make_kernel
from .blocks import BlockScheme

DEFAULT_X_GRID: tuple[float, ...] = tuple(round(1.6 + 0.1 * i, 10) for i in range(25))
DEFAULT_REPS = 100_000

_CHUNK_REPS = 1024  # bounds each worker's AR(1) and ARCH(1) path memory; results never depend on it
# bounds the draws of one band of a chunk without a time recursion: 131 rows at n = 1000 (512 KiB measured slower)
_BAND_BYTES = 1 << 20

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
        grid = as_real_array(self.x_grid, "x_grid", ConfigurationError, ndim=1, finite=True)
        object.__setattr__(self, "x_grid", tuple(grid.tolist()))
        object.__setattr__(self, "n", as_index(self.n, "path length n", ConfigurationError, lo=1))
        object.__setattr__(self, "reps", as_index(self.reps, "reps", ConfigurationError, lo=1))
        object.__setattr__(self, "master_seed", as_seed(self.master_seed, "master seed"))
        object.__setattr__(self, "mu0", as_real(self.mu0, "mu0", ConfigurationError, finite=True))
        if not hasattr(self.process, "lead"):
            raise ConfigurationError(f"process {self.process!r} does not generate scalar paths")
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


def _chunk_bounds(reps: int) -> Iterator[tuple[int, int]]:
    return ((lo, min(lo + _CHUNK_REPS, reps)) for lo in range(0, reps, _CHUNK_REPS))


def _run_chunk(
    config: SimConfig,
    kernel: StatKernel,
    grid: np.ndarray,
    bounds: tuple[int, int],
    collect: bool,
) -> tuple[np.ndarray, int, np.ndarray | None]:
    lo, hi = bounds
    seeds = derive_rep_seed(config.master_seed, range(lo, hi))
    # a recursion runs vectorized across the chunk's rows; rows without one are drawn a band at a time
    band = len(seeds) if hasattr(config.process, "recur") else max(1, _BAND_BYTES // (8 * config.n))
    parts = [
        kernel.values(generate_paths(config.process, config.n, seeds[i : i + band]))
        for i in range(0, len(seeds), band)
    ]
    values, degenerate = map(np.concatenate, zip(*parts))
    good = values[~degenerate]
    if not np.isfinite(good).all():
        raise ArithmeticError(
            f"non-finite statistic values in replications [{lo}, {hi}) — this is a bug"
        )
    counts = (good[:, np.newaxis] >= grid[np.newaxis, :]).sum(axis=0)
    return counts.astype(np.int64), int(degenerate.sum()), (good if collect else None)


def _chunk_task(
    config: SimConfig, bounds: tuple[int, int], collect: bool
) -> tuple[np.ndarray, int, np.ndarray | None]:
    """One chunk in a pool worker; module level, so that it pickles by name."""
    return _run_chunk(config, config.kernel, np.asarray(config.x_grid, dtype=float), bounds, collect)


def _init_worker(caller: int) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C interrupts only the caller
    threading.Thread(target=_exit_with_caller, args=(caller,), daemon=True).start()


def _exit_with_caller(caller: int) -> None:
    # a caller killed before it could shut its pool down (SIGTERM, SIGKILL)
    # would leave its workers waiting for chunks forever
    while os.getppid() == caller:
        time.sleep(1.0)
    os._exit(1)


_pool_lock = threading.RLock()
_pool = None  # (size, executor) of this process's worker pool, or None
_exit_hooked = False


def _forget_pool() -> None:
    # a forked child shares neither the parent's pool nor a lock another thread held
    global _pool, _pool_lock, _exit_hooked
    _pool, _pool_lock, _exit_hooked = None, threading.RLock(), False


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _close_pool() -> None:
    """Shut the worker pool down and wait for its workers, if there is a pool."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool[1].shutdown()
            _pool = None


def _worker_pool(size: int):
    """The pool of `size` worker processes, made on first use; call with _pool_lock held."""
    global _pool, _exit_hooked
    if _pool is not None and _pool[0] == size:
        return _pool[1]
    _close_pool()
    # imported here: a run that never starts a pool does not pay for these modules
    import multiprocessing
    import multiprocessing.util
    from concurrent.futures.process import ProcessPoolExecutor

    if not _exit_hooked:
        # interpreter shutdown closes the pool, but a multiprocessing child joins
        # its children before that, and would wait on the workers forever; priority
        # 100 closes the pool before its queues' own exit hooks (priority 10) close them
        multiprocessing.util.Finalize(None, _close_pool, exitpriority=100)
        _exit_hooked = True
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    executor = ProcessPoolExecutor(
        size, mp_context=multiprocessing.get_context(method),
        initializer=_init_worker, initargs=(os.getpid(),),
    )
    _pool = (size, executor)
    return executor


def _pool_results(size: int, tasks: Iterator[tuple]) -> Iterator:
    """The chunks' results in chunk order, computed by the pool of `size` workers.

    At most 2 * size chunks are in flight: the next is submitted as each result is taken.
    """
    from concurrent.futures.process import BrokenProcessPool

    executor = None

    def submit(args: tuple):
        nonlocal executor
        with _pool_lock:  # make the pool, and make it again if another thread's run replaced it
            if _pool is None or _pool[1] is not executor:
                executor = _worker_pool(size)
            return executor.submit(_chunk_task, *args)

    window = collections.deque()
    try:
        window.extend(map(submit, itertools.islice(tasks, 2 * size)))
        while window:
            yield window.popleft().result()
            window.extend(map(submit, itertools.islice(tasks, 1)))
    except BrokenProcessPool:
        _close_pool()
        raise ConfigurationError(
            f"a worker process died (workers = {size}); if it ran out of memory, "
            f"use fewer workers: each holds at most one chunk of {_CHUNK_REPS} paths"
        ) from None
    finally:  # an error or an interrupt drops the chunks still queued
        for future in window:
            future.cancel()


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity set, where the platform reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run(config: SimConfig, workers: int, collect: bool):
    workers = as_index(workers, "workers", ConfigurationError, lo=1)
    size = min(workers, -(-config.reps // _CHUNK_REPS), _cpu_count())  # one per chunk and per CPU at most
    tasks = zip(itertools.repeat(config), _chunk_bounds(config.reps), itertools.repeat(collect))
    results = itertools.starmap(_chunk_task, tasks) if size == 1 else _pool_results(size, tasks)
    counts, degenerate, values = 0, 0, []
    for chunk_counts, chunk_degenerate, chunk_values in results:
        counts = counts + chunk_counts
        degenerate += chunk_degenerate
        if collect:
            values.append(chunk_values)
    if degenerate > 0.001 * config.reps:
        raise DegenerateRateError(
            f"{degenerate} of {config.reps} replications were degenerate "
            f"(> 0.1%): check the process/statistic configuration"
        )
    return counts, degenerate, (np.concatenate(values) if collect else None)


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
    params = as_real_array(params, "parameter grid", ConfigurationError, ndim=1, finite=True).tolist()
    name = getattr(config.process, "param", None)
    if name is None:
        raise ConfigurationError("parameter grids exist for AR(1) (over rho) and ARCH(1) (over b)")
    # every cell is built, and so validated, before any cell draws a path
    cells = [
        dataclasses.replace(config, process=dataclasses.replace(config.process, **{name: value}))
        for value in params
    ]
    tables = tuple(estimate_tail(cell, workers=workers) for cell in cells)
    return RatioGrid(param_name=name, param_values=tuple(params), tables=tables)


_KS_STRIDE = 12  # of 6, 8, 10, 12, 14, 16, 24, 32 and 48, 12 and 14 were fastest on 8,192-value t samples
# ks_distance is exact while the computed CDF falls by at most this between sample values.
# RefDist takes df up to 10^8, where the computed t CDF never falls between neighbours
# of a 20,001-point grid of [-8, 8] or of [-0.01, 0.01] at 2,001 points (see the dist docstring);
# past it the CDF could fall (by up to 6.8e-6 at 10^15).
_KS_SLACK = 1e-6


def ks_distance(sample, ref: RefDist) -> float:
    """Sup distance between the empirical CDF of the sample and ref's CDF.

    The sample is a nonempty 1-D array of real, finite numbers (else
    DataError naming it). ref's CDF is evaluated in two array calls over
    the sorted sample: at every _KS_STRIDE-th value and the last, then at
    every value of each gap between those where the distance, bounded
    through the CDF's values at the gap's ends, could reach the largest
    found less _KS_SLACK. Each element's CDF has the same bits in any
    batch, so the result equals the distance over every value whenever
    the computed CDF falls by at most _KS_SLACK between sample values.
    """
    s = np.sort(as_real_array(sample, "sample", DataError, ndim=1, finite=True))
    n = s.size
    steps = np.arange(1, n + 1) / n

    def largest(k: np.ndarray, cdf: np.ndarray) -> float:  # the distance over sorted indices k
        return max((steps[k] - cdf).max(initial=0.0), (cdf - steps[k] + 1.0 / n).max(initial=0.0))

    coarse = np.append(np.arange(0, n - 1, _KS_STRIDE), n - 1)
    cdf = ref_cdf(ref, s[coarse])
    best = largest(coarse, cdf)
    # the CDF is nondecreasing, so a value skipped between coarse indices i < j has its CDF in [cdf[i], cdf[j]]
    i, j = coarse[:-1], coarse[1:]
    bound = np.maximum(steps[j - 1] - cdf[:-1], cdf[1:] - steps[i + 1] + 1.0 / n)
    starts = i[(j - i > 1) & (bound >= best - _KS_SLACK)]
    fine = (starts[:, np.newaxis] + np.arange(1, _KS_STRIDE)).ravel()
    fine = fine[fine < n - 1]
    return float(max(best, largest(fine, ref_cdf(ref, s[fine]))))


def table1(x_grid: Sequence[float] = DEFAULT_X_GRID) -> np.ndarray:
    """Reference tails at each x: normal, t19, t9, and the t9/normal ratio.

    Returns a (len(x_grid), 5) array in full precision with columns
    TABLE1_COLUMNS; the CSV writer rounds to five decimals.
    """
    x = as_real_array(x_grid, "x grid", ConfigurationError, ndim=1, finite=True)
    nu = ref_upper(NORMAL, x)
    if not nu.all():
        raise DomainError(
            f"the normal upper tail is 0 at x = {x[nu == 0.0][0]:g}, so t9/normal is undefined"
        )
    t9 = ref_upper(student_t(9), x)
    return np.column_stack([x, nu, ref_upper(student_t(19), x), t9, t9 / nu])


def _label(value: float, spec: str) -> str:
    """value in format spec where that reads back as the same float, else its repr."""
    text = format(value, spec)
    return text if float(text) == value else repr(float(value))


def table1_csv(x_grid: Sequence[float] = DEFAULT_X_GRID) -> str:
    """The reference tail table as CSV, five decimal places."""
    lines = [",".join(TABLE1_COLUMNS)]
    for x, nu, t19u, t9u, ratio in table1(x_grid):
        lines.append(f"{_label(x, '.1f')},{nu:.5f},{t19u:.5f},{t9u:.5f},{ratio:.5f}")
    return "\n".join(lines) + "\n"


def tail_table_csv(table: TailTable) -> str:
    """Single tail table as CSV: 2-decimal ratio column plus full precision."""
    lines = ["x,ratio,ratio_full,mc_tail,ref_tail,mc_se,degenerate_count"]
    for i, x in enumerate(table.x):
        lines.append(
            f"{_label(x, 'g')},{table.ratio[i]:.2f},{table.ratio[i]:.17g},"
            f"{table.mc_tail[i]:.17g},{table.ref_tail[i]:.17g},"
            f"{table.mc_se[i]:.17g},{table.degenerate_count}"
        )
    return "\n".join(lines) + "\n"


def ratio_grid_csv(grid: RatioGrid) -> str:
    """Grid as CSV: x, one 2-decimal column per parameter, then full columns."""
    name = grid.param_name
    short = [f"{name}={_label(v, 'g')}" for v in grid.param_values]
    header = ["x"] + short + [f"full:{c}" for c in short]
    lines = [",".join(header)]
    ratios = grid.ratios
    for i, x in enumerate(grid.x):
        row = [_label(x, "g")]
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
