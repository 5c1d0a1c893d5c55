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

Draw protocol per path (fixed; changing it would change all outputs):

* iid normal: n draws.
* AR(1): n+1 draws; draw 0 scaled by 1/sqrt(1-rho^2) starts the
  recursion at its exact stationary law, draws 1..n are innovations.
* ARCH(1): n+1001 draws; draw 0 scaled by a/sqrt(1-b^2) initializes,
  the next 1000 innovations are burned in, the last n are emitted.
* high-dimensional linear: an (n+lag_cap) x p block of draws, filled
  row-major, combined with geometric lag weights.

Batching. generate_paths draws a chunk of paths through one Generator:
before each row it re-keys the Philox to the exact state of a fresh
Philox(key=seed) (key [seed, 0], counter 0, empty output buffer). A
counter-based generator's stream is a pure function of its key and
counter, so each row equals what a generator built for its seed alone
would draw. The AR(1) and ARCH(1) recursions then run time-major and in
place over the draws, with the same floating-point operations in the
same order as the step-by-step loops; the returned rows are therefore
bit-identical to single-path generation, but they may be views into a
wider array of draws rather than a contiguous array of their own.

ARCH(1) draws each path in two segments into one buffer of
max(1 + 1000, n + 1) columns, so a chunk never holds all n + 1001 draws
of its paths. The first pass draws every row's initialization and
burn-in and saves where the row's stream stopped: the Philox counter,
its buffered output words and the position in them. The burn-in
recursion then reduces those columns to U_1000 without writing them
back, and the second pass restores each row's saved state and draws the
n emitted innovations over them, with U_1000 in column 0. Restoring the
counter, buffer and position resumes the stream exactly where it
stopped, so every row draws the same n + 1001 normals in the same order
as in one pass, and the protocol above is unchanged.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

import numpy as np

from .errors import ConfigurationError

Seed = int

_MASK64 = (1 << 64) - 1

RNG_ALGORITHM = "philox4x64(key=splitmix64-stream(master)[rep])+numpy-ziggurat-normal"

ARCH_BURN_IN = 1000


def splitmix64(z: int) -> int:
    """64-bit avalanche mix (bijective); see the module docstring for the steps."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_rep_seed(master: Seed, rep_index: int) -> Seed:
    """Per-replication seed: output rep_index of the SplitMix64 stream at master."""
    if rep_index < 0:
        raise ConfigurationError(f"replication index must be >= 0, got {rep_index}")
    return splitmix64((int(master) + int(rep_index) * 0x9E3779B97F4A7C15) & _MASK64)


def generator(seed: Seed) -> np.random.Generator:
    """The package-wide bit generator for a given 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


@dataclass(frozen=True)
class IIDNormal:
    """Independent standard normal observations."""

    def paths(self, n: int, seeds: Sequence[Seed]) -> np.ndarray:
        out = np.empty((len(seeds), n))
        _innovations(seeds, out)
        return out

    def as_dict(self) -> dict:
        return {"process": "iid"}


@dataclass(frozen=True)
class AR1:
    """X_i = rho * X_{i-1} + eps_i with standard normal innovations, |rho| < 1."""

    param: ClassVar[str] = "rho"  # the parameter a ratio grid varies
    rho: float

    def __post_init__(self) -> None:
        if not abs(self.rho) < 1.0:
            raise ConfigurationError(f"AR(1) needs |rho| < 1, got rho={self.rho}")

    def paths(self, n: int, seeds: Sequence[Seed]) -> np.ndarray:
        rho = self.rho

        def step(prev, cur, tmp):
            np.add(np.multiply(rho, prev, tmp), cur, cur)

        eps = np.empty((len(seeds), n + 1))
        _innovations(seeds, eps)
        eps[:, 0] /= math.sqrt(1.0 - rho * rho)
        _recur_in_place(eps, step)
        return eps[:, 1:]

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
    b: float
    a: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.a < math.inf:
            raise ConfigurationError(f"ARCH(1) needs a finite a > 0, got a={self.a}")
        if not 2.0**-511 <= self.a < 2.0**500:
            raise ConfigurationError(
                f"ARCH(1) needs 2^-511 <= a < 2^500 so that a*a is a normal double with 2^12 "
                f"headroom for |U|/a, got a={self.a:g}"
            )
        if not 0.0 <= self.b < 1.0:
            raise ConfigurationError(f"ARCH(1) needs 0 <= b < 1, got b={self.b}")

    def paths(self, n: int, seeds: Sequence[Seed]) -> np.ndarray:
        a, b = self.a, self.b

        def step(prev, cur, tmp):
            u2 = np.multiply(np.multiply(b * b, prev, tmp), prev, tmp)
            np.multiply(np.sqrt(np.add(a * a, u2, tmp), tmp), cur, cur)

        # one buffer holds the burn-in draws, then U_1000 and the n emitted innovations
        x = np.empty((len(seeds), max(1 + ARCH_BURN_IN, n + 1)))
        if not len(seeds):
            return x[:, 1 : n + 1]
        burn = x[:, : 1 + ARCH_BURN_IN]
        gen, stops = _innovations(seeds, burn, keep_stops=True)
        burn[:, 0] *= a / math.sqrt(1.0 - b * b)
        x[:, 0] = _recur_in_place(burn, step, write_back=False)
        _resume_innovations(gen, seeds, x[:, 1 : n + 1], stops)
        _recur_in_place(x[:, : n + 1], step)
        return x[:, 1 : n + 1]

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
        if self.p < 1:
            raise ConfigurationError(f"dimension p must be >= 1, got {self.p}")
        if not 0.0 <= self.decay < 1.0:
            raise ConfigurationError(f"decay must lie in [0, 1), got {self.decay}")
        if self.lag_cap < 1:
            raise ConfigurationError(f"lag_cap must be >= 1, got {self.lag_cap}")

    def as_dict(self) -> dict:
        return {"process": "hd-linear", "p": self.p, "decay": self.decay, "lag_cap": self.lag_cap}


ProcessSpec = Union[IIDNormal, AR1, ARCH1, HDLinear]


_TILE = 64  # time steps per tile of the recursions
_BAND = 256  # rows per piece of a tile's transposed copy


def _fresh_state() -> dict:
    """A Philox state dict; with key[0] set to a seed it is the state of a fresh Philox(key=seed)."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


_LAYOUT_ERROR = "numpy's Philox state is not laid out as procgen reads it"


def _state_views(bitgen: np.random.Philox) -> tuple[np.ndarray, np.ndarray]:
    """Read-only views, in place, of a Philox's counter and of the five words that hold its buffer.

    numpy gives the address of a bit generator's C state struct
    (bitgen.ctypes.state_address), while its state getter copies the
    fields into three new arrays and two dicts; once per row, under two
    threads, that getter slowed a 4,096-path ARCH(1) chunk by about 15%,
    more than the shorter buffer saved, and redrawing each row's burn-in
    in the second pass, with no saved state, slowed a 2-worker ARCH(1)
    call by about 28%. Philox's struct is
    {uint64 (*ctr)[4]; uint64 (*key)[2]; int buffer_pos; uint64 buffer[4];
    ...}: the counter lies behind the first pointer, and the five words from
    byte 16 hold buffer_pos (in their first four bytes) and the buffer. Both
    must lie inside the Philox object (CPython's id is its address), and
    _innovations checks what the views read against the getter.
    """
    lo, hi = id(bitgen), id(bitgen) + type(bitgen).__basicsize__
    addr = bitgen.ctypes.state_address
    if lo <= addr <= hi - 56:
        ctr = ctypes.c_void_p.from_address(addr).value
        if ctr is not None and lo <= ctr <= hi - 32:
            words = ((ctypes.c_uint64 * 4).from_address(ctr), (ctypes.c_uint64 * 5).from_address(addr + 16))
            return tuple(np.ctypeslib.as_array(w) for w in words)
    raise RuntimeError(_LAYOUT_ERROR)


def _unpack_stops(counters: np.ndarray, tails: np.ndarray) -> tuple[list, list, list]:
    """Counter, buffer_pos and buffer per row, as lists, from words read through _state_views."""
    return counters.tolist(), tails[:, :1].view(np.int32)[:, 0].tolist(), tails[:, 1:].tolist()


def _innovations(seeds: Sequence[Seed], out: np.ndarray, keep_stops: bool = False):
    """Fill row r of out with the first standard normals of seeds[r]'s stream.

    One Generator serves every row: before each row its Philox is re-keyed
    to a fresh Philox(key=seed). Returns the Generator and, with keep_stops,
    where each row's stream stopped: (counters, tails), uint64 arrays with a
    row per seed of the words _state_views reads.
    """
    if not len(seeds):
        return None, None
    gen = generator(seeds[0])
    bitgen, draw = gen.bit_generator, gen.standard_normal  # called positionally: numpy parses out= slower
    state = _fresh_state()
    key = state["state"]["key"]
    stops = None
    if keep_stops:
        counter, tail = _state_views(bitgen)
        stops = counters, tails = np.empty((len(seeds), 4), np.uint64), np.empty((len(seeds), 5), np.uint64)
    for row, seed in enumerate(seeds):
        key[0] = int(seed) & _MASK64
        bitgen.state = state
        draw(None, np.float64, out[row])
        if keep_stops:
            counters[row] = counter
            tails[row] = tail
    if keep_stops:  # the views must read what the public getter reports
        last = bitgen.state
        seen = _unpack_stops(counters[-1:], tails[-1:])
        if seen != ([last["state"]["counter"].tolist()], [last["buffer_pos"]], [last["buffer"].tolist()]):
            raise RuntimeError(_LAYOUT_ERROR)
    return gen, stops


def _resume_innovations(gen: np.random.Generator, seeds: Sequence[Seed], out: np.ndarray, stops) -> None:
    """Fill row r of out with the normals that follow, in seeds[r]'s stream, where stops says it stopped."""
    bitgen, draw = gen.bit_generator, gen.standard_normal
    state = _fresh_state()
    inner, key = state["state"], state["state"]["key"]
    counters, positions, buffers = _unpack_stops(*stops)
    for row, seed in enumerate(seeds):
        key[0] = int(seed) & _MASK64
        inner["counter"] = counters[row]
        state["buffer_pos"] = positions[row]
        state["buffer"] = buffers[row]
        bitgen.state = state
        draw(None, np.float64, out[row])


def _recur_in_place(x: np.ndarray, step, write_back: bool = True) -> np.ndarray:
    """Overwrite x[:, t] with step(x[:, t-1], x[:, t], tmp) for t = 1, 2, ... in turn; return the last column.

    Time runs in tiles of _TILE steps. Each tile is copied transposed,
    _BAND rows at a time so the copy stays in cache, into a small buffer
    whose rows are time steps, so every step works on contiguous memory.
    Without write_back, x keeps its inputs and only the returned last
    column (a view of that buffer) holds a result. A step computes its
    intermediate results into tmp, one scratch row.
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
        for t in range(1, width + 1):
            step(slots[t - 1], slots[t], tmp)
        if write_back:
            for r in range(0, rows, _BAND):
                x[r : r + _BAND, lo : lo + width] = buf[1 : width + 1, r : r + _BAND].T
        buf[0] = buf[width]
    return buf[0]


def generate_paths(process: ProcessSpec, n: int, seeds: Sequence[Seed]) -> np.ndarray:
    """One path per seed, stacked as rows of an (len(seeds), n) array.

    Row r is bit-identical to the single-path generator called with
    seeds[r]; batching exists only to let the time recursions run
    vectorized across paths. For AR(1) and ARCH(1) the result is a view
    of the draws (see Batching in the module docstring).
    """
    if n < 1:
        raise ConfigurationError(f"path length must be >= 1, got n={n}")
    if not hasattr(process, "paths"):
        raise ConfigurationError(f"process {process!r} does not generate scalar paths")
    return process.paths(n, seeds)


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
    if n < 1:
        raise ConfigurationError(f"panel length must be >= 1, got n={n}")
    lag = spec.lag_cap
    eta = generator(seed).standard_normal((n + lag, spec.p))
    weights = spec.decay ** np.arange(lag + 1)
    # moving average over the lag window: M[i] = sum_j weights[j] * eta[i - j]
    windows = np.lib.stride_tricks.sliding_window_view(eta, lag + 1, axis=0)
    mixed = np.einsum("ipl,l->ip", windows, weights[::-1])
    return mixed @ banded_mixing_matrix(spec.p).T
