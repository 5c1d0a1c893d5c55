"""The benchmark's three workloads: what one pass runs and how it is checked.

A pass is a fixed amount of work built only from the seed and the sizes,
so every pass of a run computes the same outputs; the run compares each
pass with the first. An operation is one CLI call (tail-dep), one
statistic (null-law) or one panel (panel-coverage). Each operation
carries a SHA-256 digest of its checked output.

``tracer.span`` opens a span around the benchmark's own calls into the
package when the pass is traced; on untraced passes it is a no-op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from blocknorm import cli, infer, mc, procgen
from blocknorm.blocks import Batch, BigSmall, Interlace
from blocknorm.dist import student_t

perf = time.perf_counter

DEFAULT_SEED = 0

# tail-dep compares these row columns; keys added to the rows later do not
# change the digests
ROW_KEYS = ("x", "mc_tail", "ref_tail", "ratio", "mc_se")

# the three acceptance statistics: (CLI flag, kind, scheme, block flags)
STATS = (
    ("t-star", "TnStar", Batch(50), ["--m", "50"]),
    ("i-star", "InStar", Interlace(50), ["--m", "50"]),
    ("w-star", "WnStar", BigSmall(43, 7), ["--m1", "43", "--m2", "7"]),
)

# tail-dep cells: (group, process flags, workers)
TAIL_CELLS = (
    ("ar1", ["--process", "ar1", "--rho", "0.9"], 2),
    ("arch1", ["--process", "arch1", "--b", "0.9"], 2),
    ("arch1_1w", ["--process", "arch1", "--b", "0.9"], 1),
)

PANEL_ALPHA = 0.05
# rejections may exceed alpha by this many binomial standard deviations
# before the coverage check fails (about 3e-5 one-sided under the null)
PANEL_FWER_SIGMAS = 4.0
# the KS check fails with probability about 1e-9 when the law is exact
KS_LEVEL = 1e-9


@dataclass(frozen=True)
class Sizes:
    n: int = 1000            # path length for tail-dep and null-law
    cell_reps: int = 8192    # replications per tail-dep CLI call (two 4096-rep chunks)
    null_reps: int = 8192    # replications per null-law statistic
    panels: int = 2000       # panels per panel-coverage pass
    panel_rows: int = 2000
    panel_cols: int = 20


STANDARD = Sizes()
# smoke-test sizes: two chunks per tail-dep call, so two workers still split the work
TINY = Sizes(n=200, cell_reps=4100, null_reps=512, panels=60, panel_rows=200, panel_cols=20)


@dataclass
class Op:
    name: str
    group: str
    seconds: float
    reps: int
    digest: str = ""
    error: str | None = None
    compare: str = ""  # what must be bit-identical across worker counts


@dataclass
class PassResult:
    wall_s: float
    ops: list[Op]
    problems: list[tuple[int | None, str]] = field(default_factory=list)  # (op index or None, message)
    digest: str = ""  # of the whole pass, where ops have no digest of their own worth recording


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _all_finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# -- tail-dep ----------------------------------------------------------------

def _tail_argv(seed: int, sizes: Sizes, stat: tuple, cell: tuple) -> list[str]:
    flag, _, _, block_flags = stat
    _, process_flags, workers = cell
    return (
        ["simulate", *process_flags, "--n", str(sizes.n), "--stat", flag, *block_flags,
         "--reps", str(sizes.cell_reps), "--seed", str(seed), "--format", "json",
         "--workers", str(workers)]
    )


def tail_dep(seed: int, sizes: Sizes, tracer) -> PassResult:
    ops = []
    started = perf()
    for cell in TAIL_CELLS:
        for stat in STATS:
            argv = _tail_argv(seed, sizes, stat, cell)
            op = Op(f"{cell[0]}/{stat[0]}", cell[0], 0.0, sizes.cell_reps)
            buf = io.StringIO()
            t0 = perf()
            try:
                with tracer.span("cli.main") as attrs, contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                    attrs["output_bytes"] = len(buf.getvalue())
                op.seconds = perf() - t0
                if code != 0:
                    op.error = f"exit code {code}"
                else:
                    payload = json.loads(buf.getvalue())
                    rows = {k: payload["rows"][k] for k in ROW_KEYS}
                    if not all(_all_finite(rows[k]) for k in ROW_KEYS):
                        op.error = "non-finite value in rows"
                    canonical = json.dumps(rows, sort_keys=True).encode()
                    op.digest = _sha(canonical)
                    op.compare = _sha(canonical + json.dumps(payload["metadata"], sort_keys=True).encode())
            except Exception as exc:  # an operation's failure is counted, the run goes on
                op.seconds = perf() - t0
                op.error = f"{type(exc).__name__}: {exc}"
            ops.append(op)
    result = PassResult(perf() - started, ops)
    check_worker_identity(result)
    return result


def check_worker_identity(result: PassResult) -> None:
    """Reproducibility contract: one worker and two give bit-identical output."""
    by_name = {op.name: i for i, op in enumerate(result.ops)}
    for stat in STATS:
        two, one = by_name[f"arch1/{stat[0]}"], by_name[f"arch1_1w/{stat[0]}"]
        if result.ops[two].compare != result.ops[one].compare:
            msg = f"{stat[0]}: ARCH(1) output at 1 worker differs from 2 workers"
            result.problems += [(two, msg), (one, msg)]


# -- null-law ----------------------------------------------------------------

def _null_df(kind: str, scheme, n: int) -> int:
    """Degrees of freedom of the exact t null law, from the block counts."""
    if kind == "TnStar":
        return 2 * (n // (2 * scheme.m)) - 1
    if kind == "InStar":
        return n // (2 * scheme.m) - 1
    return n // (scheme.m1 + scheme.m2) - 1


def ks_critical(size: int) -> float:
    """DKW bound: P(KS > this) <= KS_LEVEL when the reference law is exact."""
    return math.sqrt(math.log(2.0 / KS_LEVEL) / (2.0 * size))


def null_law(seed: int, sizes: Sizes, tracer) -> PassResult:
    ops = []
    started = perf()
    for flag, kind, scheme, _ in STATS:
        op = Op(flag, "iid", 0.0, sizes.null_reps)
        t0 = perf()
        try:
            config = mc.SimConfig(
                process=procgen.IIDNormal(), n=sizes.n, scheme=scheme, stat_kind=kind,
                reps=sizes.null_reps, master_seed=seed,
            )
            with tracer.span("mc.simulate_stats", workers=1, reps=sizes.null_reps):
                values = mc.simulate_stats(config, workers=1)
            with tracer.span("dist.ks"):
                ks = mc.ks_distance(values, student_t(_null_df(kind, scheme, sizes.n)))
            op.seconds = perf() - t0
            op.digest = _sha(np.ascontiguousarray(values, dtype="<f8").tobytes())
            if values.size != sizes.null_reps:
                op.error = f"{sizes.null_reps - values.size} degenerate replications"
            elif not np.isfinite(values).all():
                op.error = "non-finite statistic value"
            elif not ks < ks_critical(values.size):
                op.error = f"KS distance {ks:.5f} to the exact t law exceeds {ks_critical(values.size):.5f}"
        except Exception as exc:  # an operation's failure is counted, the run goes on
            op.seconds = perf() - t0
            op.error = f"{type(exc).__name__}: {exc}"
        ops.append(op)
    return PassResult(perf() - started, ops)


# -- panel-coverage ------------------------------------------------------------

def panel_coverage(seed: int, sizes: Sizes, tracer) -> PassResult:
    ops = []
    shape = (sizes.panel_rows, sizes.panel_cols)
    mu0 = np.zeros(sizes.panel_cols)
    rejections = np.zeros(sizes.panels, dtype=np.uint8)
    started = perf()
    for r in range(sizes.panels):
        op = Op(str(r), "panel", 0.0, 1)
        t0 = perf()
        try:
            rep_seed = procgen.derive_rep_seed(seed, r)
            with tracer.span("procgen.panel_draw"):
                panel = procgen.generator(rep_seed).standard_normal(shape)
            with tracer.span("infer.mean_test"):
                result = infer.mean_test(panel, mu0, alpha=PANEL_ALPHA, m=None, use_t=True)
            op.seconds = perf() - t0
            rejections[r] = result.reject
            op.digest = "1" if result.reject else "0"
        except Exception as exc:  # an operation's failure is counted, the run goes on
            op.seconds = perf() - t0
            op.error = f"{type(exc).__name__}: {exc}"
        ops.append(op)
    result = PassResult(perf() - started, ops, digest=_sha(rejections.tobytes()))
    limit = PANEL_ALPHA + PANEL_FWER_SIGMAS * math.sqrt(PANEL_ALPHA * (1 - PANEL_ALPHA) / sizes.panels)
    fwer = rejections.sum() / sizes.panels
    if fwer > limit:
        result.problems.append((None, f"family-wise error {fwer:.4f} over {sizes.panels} panels exceeds {limit:.4f}"))
    return result


WORKLOADS = {
    "tail-dep": tail_dep,
    "null-law": null_law,
    "panel-coverage": panel_coverage,
}


def pass_digests(workload: str, result: PassResult) -> dict[str, str]:
    """The digests recorded in golden.json for the default seed."""
    if workload == "panel-coverage":
        return {"rejections": result.digest}
    return {op.name: op.digest for op in result.ops}


def compare_to_reference(result: PassResult, reference: PassResult) -> None:
    """Every pass of a run recomputes the first pass's outputs exactly."""
    for i, (op, ref) in enumerate(zip(result.ops, reference.ops)):
        if op.digest != ref.digest:
            result.problems.append((i, f"op {op.name}: output differs from the run's first pass"))


def check_golden(workload: str, result: PassResult, golden: dict) -> None:
    expected = golden.get(workload, {})
    got = pass_digests(workload, result)
    index = {op.name: i for i, op in enumerate(result.ops)}
    for name, digest in got.items():
        if expected.get(name) != digest:
            result.problems.append((index.get(name), f"{name}: digest {digest[:12]} does not match golden.json"))


def failed_ops(result: PassResult) -> set[int]:
    failed = {i for i, op in enumerate(result.ops) if op.error}
    for index, _ in result.problems:
        if index is None:
            return set(range(len(result.ops)))
        failed.add(index)
    return failed


def messages(result: PassResult) -> list[str]:
    out = [f"op {op.name}: {op.error}" for op in result.ops if op.error]
    return out + [msg for _, msg in result.problems]


# first call made by a fresh interpreter when measuring setup_s, per workload
SETUP_CALLS = {
    "tail-dep": (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = blocknorm.cli.main(['simulate', '--process', 'arch1', '--b', '0.9', '--n', '200',"
        " '--stat', 't-star', '--m', '50', '--reps', '64', '--format', 'json', '--workers', '2'])\n"
        "if code != 0:\n"
        "    raise SystemExit(f'first call exited {code}')\n"
    ),
    "null-law": (
        "from blocknorm.mc import SimConfig\n"
        "v = blocknorm.simulate_stats(SimConfig(blocknorm.IIDNormal(), 200, blocknorm.Batch(50), 'TnStar', 64, 0))\n"
        "blocknorm.ks_distance(v, blocknorm.student_t(3))\n"
    ),
    "panel-coverage": (
        "import numpy as np\n"
        "from blocknorm.procgen import generator\n"
        "z = generator(blocknorm.derive_rep_seed(0, 0)).standard_normal((2000, 20))\n"
        "blocknorm.mean_test(z, np.zeros(20), alpha=0.05, m=None, use_t=True)\n"
    ),
}
