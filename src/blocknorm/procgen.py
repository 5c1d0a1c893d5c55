"""Seeded generators for the synthetic dependent processes.

Reproducibility contract
------------------------
Every generator is a pure function of (parameters, seed). A seed is a
64-bit unsigned integer that keys a Philox4x64 counter-based bit
generator (low key word = seed, high word = 0, counter starting at
zero); normal variates come from numpy's ziggurat standard_normal.
Replication r of a run with master seed s takes the r-th output of the
canonical SplitMix64 stream started at s:

    derive_rep_seed(s, r) = splitmix64((s + r * 0x9E3779B97F4A7C15) mod 2**64)

where splitmix64 is the standard 64-bit avalanche function (add
0x9E3779B97F4A7C15; xor-shift 30, multiply 0xBF58476D1CE4E5B9;
xor-shift 27, multiply 0x94D049BB133111EB; xor-shift 31). It is a
bijection and the stride is odd, so distinct replications of one run
never share a seed; distinct masters walk disjoint stretches of the
stream (an XOR-based mix was rejected: it hands different masters
largely the same *set* of derived seeds, merely reordered, so
independent runs would share their Monte Carlo noise).
Reference values from the stream at s = 0: derive_rep_seed(0, 0) =
0xE220A8397B1DCDAF, derive_rep_seed(0, 1) = 0x6E789E6AA1B965F4.
Given a range of replication indices, derive_rep_seed(s, range(lo, hi))
returns the list [derive_rep_seed(s, r) for r in range(lo, hi)], bit for
bit, from one pass of the same steps over uint64 arrays (which wrap
mod 2**64 as the scalar form's masks do); a Monte Carlo chunk derives
its seeds in one such call. The scalar form stays the specification.

Draw protocol per path (fixed; changing it would change all outputs);
lead, a class attribute, counts the draws before the first observation:

* iid normal, lead 0: n draws.
* AR(1), lead 1: draw 0 scaled by 1/sqrt(1-rho^2) starts the
  recursion at its exact stationary law, draws 1..n are innovations.
* ARCH(1), lead 1001: draw 0 scaled by a/sqrt(1-b^2) initializes, the
  next 1000 innovations are burned in, the last n are emitted.
* high-dimensional linear: an (n+lag_cap) x p block of draws, filled
  row-major, combined with geometric lag weights.

Batching. generate_paths draws, then recurs. It draws lead + n normals
per path for a chunk of paths through one Generator: before each row it
re-keys the Philox to the exact state of a fresh Philox(key=seed) (key
[seed, 0], counter 0, empty output buffer). A counter-based generator's
stream is a pure function of its key and counter, so each row equals
what a generator built for its seed alone would draw. A process with a
recursion (AR(1), ARCH(1)) then turns the given draws into paths with
its recur(x): it scales column 0 and runs the recursion time-major and
in place, in one pass per chunk, with the same floating-point operations
in the same order as the step-by-step loops. The pass hands each time
tile to the process in one call, which steps through the tile with its
constants (rho; a*a and b*b) bound once per chunk as arrays one value
per row, so a time step costs only its ufunc calls. The pass copies back
only the time tiles that reach column lead, the first a path keeps. The
returned columns from lead on are bit-identical to single-path
generation, but a view into a wider array of draws.
"""

from __future__ import annotations

import math
import mmap
import threading
import weakref
from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

import numpy as np

from .errors import ConfigurationError, as_index, as_real

Seed = int

_MASK64 = (1 << 64) - 1

# splitmix64's stride, shifts and multipliers as numpy uint64: with a Python-int
# operand, numpy 1.24 can promote a uint64 array to float64
_SPLITMIX64_U64 = tuple(
    np.uint64(c) for c in (0x9E3779B97F4A7C15, 30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)
)

RNG_ALGORITHM = "philox4x64(key=splitmix64-stream(master)[rep])+numpy-ziggurat-normal"

ARCH_BURN_IN = 1000

# draw buffers from 1 MiB up to glibc's largest mmap threshold (32 MiB)
# reuse one memory map per thread: (map, weak reference to the last array made from it)
_MAPPED_BYTES = (1 << 20, 32 << 20)
_maps = threading.local()


def splitmix64(z: int) -> int:
    """64-bit avalanche mix (bijective); see the module docstring for the steps."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def as_seed(value, what: str = "seed") -> Seed:
    """value as a Python int in [0, 2^64); anything else raises a ConfigurationError naming what."""
    seed = as_index(value, what, ConfigurationError)
    if not 0 <= seed <= _MASK64:
        raise ConfigurationError(f"{what} must be a 64-bit unsigned integer, got {seed}")
    return seed


def derive_rep_seed(master: Seed, rep_index: int | range) -> Seed | list[Seed]:
    """Per-replication seed: output rep_index of the SplitMix64 stream at master.

    A range of indices gives the list [derive_rep_seed(master, r) for r in
    rep_index], bit for bit, computed in one uint64 numpy pass; a chunk
    derives its seeds in one call. Its smallest index must be >= 0.
    """
    master = as_seed(master, "master seed")
    if isinstance(rep_index, range):
        return _rep_seeds(master, rep_index)
    rep_index = as_index(rep_index, "replication index", ConfigurationError, lo=0)
    return splitmix64((master + rep_index * 0x9E3779B97F4A7C15) & _MASK64)


def _rep_seeds(master: Seed, reps: range) -> list[Seed]:
    """splitmix64 of master + r * stride, mod 2^64, for each r in reps, in uint64 arrays."""
    if reps:
        as_index(min(reps[0], reps[-1]), "replication index", ConfigurationError, lo=0)
    gamma, s30, m1, s27, m2, s31 = _SPLITMIX64_U64
    with np.errstate(over="ignore"):  # uint64 arithmetic wraps mod 2^64, as the masks do
        r = np.arange(len(reps), dtype=np.uint64) * np.uint64(reps.step & _MASK64)
        z = np.uint64(master) + (r + np.uint64(reps.start & _MASK64)) * gamma + gamma
        z = (z ^ (z >> s30)) * m1
        z = (z ^ (z >> s27)) * m2
        return (z ^ (z >> s31)).tolist()


def generator(seed: Seed) -> np.random.Generator:
    """The package-wide bit generator for a given 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=as_seed(seed)))


def _draw_buffer(rows: int, cols: int) -> np.ndarray:
    """An uninitialized (rows, cols) float64 array for a chunk's draws.

    malloc serves a buffer of 1 to 32 MiB from its heap once glibc has
    raised its mmap threshold to the size of the first such block freed,
    and a small allocation that lands in a freed buffer makes the next one
    extend the heap by a whole buffer, at a call that depends on what else
    the process allocated: its peak memory would differ from run to run by
    a chunk's draws. So a buffer in that range is a view of this thread's
    own memory map, which is reused, with its pages already touched, once
    no array made from it is alive, and replaced otherwise. mc draws an
    iid chunk in bands of at most 1 MiB (one row, where a row holds more),
    and a band below 1 MiB comes from np.empty.
    """
    nbytes = rows * cols * 8
    lo, hi = _MAPPED_BYTES
    if not lo <= nbytes <= hi:
        return np.empty((rows, cols))
    last = getattr(_maps, "last", None)
    # every view of a buffer holds the flat array it was shaped from
    if last is not None and last[1]() is None and len(last[0]) >= nbytes:
        pages = last[0]
    elif hasattr(mmap, "MAP_PRIVATE"):  # a forked child copies the pages it writes
        pages = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    else:  # Windows: anonymous memory is private, and there is no fork
        pages = mmap.mmap(-1, nbytes)
    flat = np.frombuffer(pages, np.float64, rows * cols)
    _maps.last = (pages, weakref.ref(flat))
    return flat.reshape(rows, cols)


@dataclass(frozen=True)
class IIDNormal:
    """Independent standard normal observations."""

    lead: ClassVar[int] = 0  # draws before a path's first observation; no recursion, so rows share nothing

    def as_dict(self) -> dict:
        return {"process": "iid"}


@dataclass(frozen=True)
class AR1:
    """X_i = rho * X_{i-1} + eps_i with standard normal innovations, |rho| < 1."""

    param: ClassVar[str] = "rho"  # the parameter a ratio grid varies
    lead: ClassVar[int] = 1  # draws before a path's first observation: the stationary start
    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", as_real(self.rho, "rho", ConfigurationError))
        if not abs(self.rho) < 1.0:
            raise ConfigurationError(f"AR(1) needs |rho| < 1, got rho={self.rho}")

    def recur(self, x: np.ndarray) -> None:
        """Turn a (rows, lead + n) buffer of draws into AR(1) paths, in place from column lead on."""
        rho = np.full(len(x), self.rho)
        mul, add = np.multiply, np.add

        def run(slots, tmp):
            for prev, cur in zip(slots, slots[1:]):
                add(mul(rho, prev, tmp), cur, cur)

        x[:, 0] /= math.sqrt(1.0 - self.rho * self.rho)
        _recur_in_place(x, run, self.lead)

    def as_dict(self) -> dict:
        return {"process": "ar1", "rho": self.rho}


@dataclass(frozen=True)
class ARCH1:
    """U_i = sqrt(a^2 + b^2 * U_{i-1}^2) * eps_i with 2^-511 <= a < 2^500 and 0 <= b < 1.

    The statistics downstream are scale-free, so a only sets the units;
    it defaults to 1. The bounds on a come from the recursion, which
    squares a and U: a*a must be a normal double (a >= 2^-511), and U*U
    must stay finite while |U|/a reaches 2^12, the headroom granted to the
    heavy ARCH tails (a * 2^12 < 2^512, so a < 2^500, about 3.3e150).
    """

    param: ClassVar[str] = "b"  # the parameter a ratio grid varies
    lead: ClassVar[int] = 1 + ARCH_BURN_IN  # draws before a path's first observation: start and burn-in
    b: float
    a: float = 1.0

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            object.__setattr__(self, name, as_real(getattr(self, name), name, ConfigurationError, finite=True))
        if not 2.0**-511 <= self.a < 2.0**500:
            raise ConfigurationError(
                f"ARCH(1) needs 2^-511 <= a < 2^500 so that a*a is a normal double with 2^12 "
                f"headroom for |U|/a, got a={self.a:g}"
            )
        if not 0.0 <= self.b < 1.0:
            raise ConfigurationError(f"ARCH(1) needs 0 <= b < 1, got b={self.b}")

    def recur(self, x: np.ndarray) -> None:
        """Turn a (rows, lead + n) buffer of draws into ARCH(1) paths, in place from column lead on."""
        a, b = self.a, self.b
        aa, bb = np.full(len(x), a * a), np.full(len(x), b * b)
        mul, add, sqrt = np.multiply, np.add, np.sqrt

        def run(slots, tmp):
            for prev, cur in zip(slots, slots[1:]):
                u2 = mul(mul(bb, prev, tmp), prev, tmp)
                mul(sqrt(add(aa, u2, tmp), tmp), cur, cur)

        x[:, 0] *= a / math.sqrt(1.0 - b * b)
        _recur_in_place(x, run, self.lead)

    def as_dict(self) -> dict:
        return {"process": "arch1", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class HDLinear:
    """p-dimensional linear process Z_i = sum_j decay^j * A0 @ eta_{i-j}.

    A0 is the fixed banded mixing matrix (unit diagonal, first
    off-diagonals one half, rows rescaled to unit Euclidean norm); the
    lag sum is truncated at lag_cap, which leaves a relative truncation
    error of decay^(lag_cap+1) in the marginal scale.
    """

    p: int
    decay: float
    lag_cap: int = 200

    def __post_init__(self) -> None:
        for name in ("p", "lag_cap"):
            object.__setattr__(self, name, as_index(getattr(self, name), name, ConfigurationError, lo=1))
        object.__setattr__(self, "decay", as_real(self.decay, "decay", ConfigurationError))
        if not 0.0 <= self.decay < 1.0:
            raise ConfigurationError(f"decay must lie in [0, 1), got {self.decay}")

    def as_dict(self) -> dict:
        return {"process": "hd-linear", "p": self.p, "decay": self.decay, "lag_cap": self.lag_cap}


ProcessSpec = Union[IIDNormal, AR1, ARCH1, HDLinear]


_TILE = 64  # time steps per tile of the recursions
_BAND = 256  # rows per piece of a tile's transposed copy


def _draws(seeds: Sequence[Seed], n: int, lead: int) -> np.ndarray:
    """Check the path length n and return a (len(seeds), lead + n) buffer; row r gets seeds[r]'s normals.

    One Generator serves every row: before each row its Philox is re-keyed to a fresh Philox(key=seed).
    """
    out = _draw_buffer(len(seeds), lead + as_index(n, "path length n", ConfigurationError, lo=1))
    gen = generator(0)
    bitgen, draw = gen.bit_generator, gen.standard_normal  # called positionally: numpy parses out= slower
    key = [0, 0]  # with key[0] set to a seed, state is that of a fresh Philox(key=seed)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for row, seed in enumerate(seeds):
        key[0] = as_seed(seed)
        bitgen.state = state
        draw(None, np.float64, out[row])
    return out


def _recur_in_place(x: np.ndarray, run, keep: int) -> None:
    """Run a process's time recursion over x's columns 1, 2, ... in one pass; x holds them from column keep on.

    Time runs in tiles of _TILE steps. Each tile is copied transposed,
    _BAND rows at a time so the copy stays in cache, into a small buffer
    whose rows are time steps, so every step works on contiguous memory.
    run(slots, tmp) is called once per tile with the buffer's rows for the
    tile's width + 1 time points, slot 0 holding the last step of the tile
    before; it sets each slots[t] from slots[t-1] and its own draws, in
    order, computing intermediate results into tmp, one scratch row.
    Only the tiles that reach column keep are copied back, so columns
    before keep may still hold their inputs.
    """
    rows, cols = x.shape
    tmp = np.empty(rows)
    buf = np.empty((_TILE + 1, rows))
    slots = list(buf)  # one view per time step of the buffer
    buf[0] = x[:, 0]
    for lo in range(1, cols, _TILE):
        width = min(_TILE, cols - lo)
        for r in range(0, rows, _BAND):
            buf[1 : width + 1, r : r + _BAND] = x[r : r + _BAND, lo : lo + width].T
        run(slots[: width + 1], tmp)
        if lo + width > keep:
            for r in range(0, rows, _BAND):
                x[r : r + _BAND, lo : lo + width] = buf[1 : width + 1, r : r + _BAND].T
        buf[0] = buf[width]


def generate_paths(process: ProcessSpec, n: int, seeds: Sequence[Seed]) -> np.ndarray:
    """One path per seed, stacked as rows of an (len(seeds), n) array.

    Draws, then runs the process's recursion if it has one; the result,
    the columns from lead on, is a view of the draws (see Batching in the
    module docstring). Row r is bit-identical to the single-path
    generator called with seeds[r].
    """
    if not hasattr(process, "lead"):
        raise ConfigurationError(f"process {process!r} does not generate scalar paths")
    x = _draws(seeds, n, process.lead)
    if hasattr(process, "recur"):
        process.recur(x)
    return x[:, process.lead :]


def gen_iid_normal(n: int, seed: Seed) -> np.ndarray:
    """n independent standard normal draws."""
    return generate_paths(IIDNormal(), n, [seed])[0]


def gen_ar1(n: int, rho: float, seed: Seed) -> np.ndarray:
    """A stationary AR(1) path of length n (exact stationary start)."""
    return generate_paths(AR1(rho), n, [seed])[0]


def gen_arch1(n: int, a: float, b: float, seed: Seed) -> np.ndarray:
    """An ARCH(1) path of length n after a 1000-step burn-in."""
    return generate_paths(ARCH1(b=b, a=a), n, [seed])[0]


def banded_mixing_matrix(p: int) -> np.ndarray:
    """Row-normalized banded matrix: diagonal 1, first off-diagonals 1/2."""
    a0 = np.eye(p) + 0.5 * (np.eye(p, k=1) + np.eye(p, k=-1))
    return a0 / np.linalg.norm(a0, axis=1, keepdims=True)


def gen_hd_linear(n: int, spec: HDLinear, seed: Seed) -> np.ndarray:
    """An (n, p) panel from the truncated geometric-lag linear process."""
    n = as_index(n, "panel length n", ConfigurationError, lo=1)
    lag = spec.lag_cap
    eta = generator(seed).standard_normal((n + lag, spec.p))
    weights = spec.decay ** np.arange(lag + 1)
    # moving average over the lag window: M[i] = sum_j weights[j] * eta[i - j]
    windows = np.lib.stride_tricks.sliding_window_view(eta, lag + 1, axis=0)
    mixed = np.einsum("ipl,l->ip", windows, weights[::-1])
    return mixed @ banded_mixing_matrix(spec.p).T
