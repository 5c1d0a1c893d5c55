"""Timed and traced runs of one workload, and the metrics they report.

A timed run (``--trace 0``) measures set-up in fresh interpreters, then
repeats the workload's pass, closed loop with one client, until the time
is used, and reports the end-to-end metrics over the timed passes. The
first pass fixes the reference outputs that every later pass must
reproduce. A traced run
(``--trace 1``) alternates untraced and traced passes and reports the
per-layer metrics, medians over traced passes, plus the tracing
overhead: the traced minus the untraced pass wall time.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import spans
import workloads
from blocknorm import cli, infer, mc, procgen, stats

perf = time.perf_counter

# name -> (unit, better); BENCHMARK.json lists the same names
E2E = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "reps_per_s": ("reps/s", "higher"),
    "call_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "procgen.seed_s": ("s", "lower"),
    "procgen.seeds": ("count", "lower"),
    "procgen.rng_setup_s": ("s", "lower"),
    "procgen.generators": ("count", "lower"),
    "procgen.draw_s": ("s", "lower"),
    "procgen.draws": ("count", "lower"),
    "procgen.draws_per_s": ("1/s", "higher"),
    "procgen.recursion_s": ("s", "lower"),
    "procgen.bytes_computed": ("bytes", "lower"),
    "procgen.panel_draw_s": ("s", "lower"),
    "blocks.sums_s": ("s", "lower"),
    "stats.kernel_s": ("s", "lower"),
    "stats.degenerate": ("count", "lower"),
    "stats.useful_ratio": ("ratio", "higher"),
    "mc.count_s": ("s", "lower"),
    "mc.collect_s": ("s", "lower"),
    "mc.chunks": ("count", "lower"),
    "mc.chunk_p50_ms": ("ms", "lower"),
    "mc.chunk_p99_ms": ("ms", "lower"),
    "mc.worker_busy_share": ("ratio", "higher"),
    "mc.parallel_eff": ("ratio", "higher"),
    "dist.ks_s": ("s", "lower"),
    "dist.cdf_evals": ("count", "lower"),
    "dist.ref_tail_s": ("s", "lower"),
    "dist.quantile_s": ("s", "lower"),
    "dist.quantile_calls": ("count", "lower"),
    "infer.mean_test_self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "ar1_reps_per_s": ("reps/s", "higher"),
    "arch1_reps_per_s": ("reps/s", "higher"),
    "arch1_reps_per_s_1w": ("reps/s", "higher"),
    "panel_p50_ms": ("ms", "lower"),
    "panel_p99_ms": ("ms", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overlap_s": ("s", "higher"),
    "trace.missing_hooks": ("count", "lower"),
}

SETUP_REPEATS = 9
MIN_PASSES = 3
# spans must cover all but this share of a traced pass
MAX_UNATTRIBUTED_SHARE = 0.10
# 2-worker groups that make up tail-dep's reps_per_s
PARALLEL_GROUPS = ("ar1", "arch1")

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import blocknorm
if not blocknorm.__file__.startswith(sys.argv[1]):
    raise SystemExit(f"imported {blocknorm.__file__}, not the checkout's package")
import blocknorm.cli
exec(sys.argv[2], {"blocknorm": blocknorm})
print(repr(time.perf_counter() - t0))
"""


# -- environment ---------------------------------------------------------------

def _git_commit(root: Path) -> str:
    """HEAD of a git checkout, read from .git directly; 'unknown' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "blocknorm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "platform": platform.platform(),
    }


# -- helpers ---------------------------------------------------------------------

def tail_percentile(samples) -> dict:
    """Median plus the highest of p99.9/p99/p90/p75 with ten samples beyond it."""
    values = np.asarray(samples, dtype=float)
    out = {"samples": int(values.size), "p50": float(np.median(values)) if values.size else 0.0}
    for q in (99.9, 99.0, 90.0, 75.0):
        if values.size * (1.0 - q / 100.0) >= 10:
            out["tail_percentile"] = q
            out["tail"] = float(np.percentile(values, q))
            break
    return out


def group_rates(results) -> dict[str, float]:
    """Replications per second of each op group, over all the given passes."""
    reps, secs = defaultdict(int), defaultdict(float)
    for result in results:
        for op in result.ops:
            reps[op.group] += op.reps
            secs[op.group] += op.seconds
    return {g: reps[g] / secs[g] for g in reps if secs[g] > 0}


def rate_parts(name: str, result: workloads.PassResult) -> tuple[int, float]:
    """(replications, seconds) of a pass that count towards reps_per_s."""
    if name == "tail-dep":
        ops = [op for op in result.ops if op.group in PARALLEL_GROUPS]
        return sum(op.reps for op in ops), sum(op.seconds for op in ops)
    return sum(op.reps for op in result.ops), result.wall_s


def measure_setup(root: Path, name: str) -> float:
    env = {k: v for k, v in os.environ.items() if k != "BLOCKNORM_WORKERS"}
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(root / "src"), workloads.SETUP_CALLS[name]],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, result: workloads.PassResult) -> None:
        self.attempted += len(result.ops)
        self.failed += len(workloads.failed_ops(result))
        self.messages += workloads.messages(result)


def _checked_pass(name, seed, sizes, golden, tally, reference) -> workloads.PassResult:
    """Run one pass; the first pass of a run is the reference the others must reproduce."""
    result = workloads.WORKLOADS[name](seed, sizes, spans.NullTracer())
    if reference is not None:
        workloads.compare_to_reference(result, reference)
    elif seed == workloads.DEFAULT_SEED and sizes == workloads.STANDARD:
        workloads.check_golden(name, result, golden)
    tally.add(result)
    return result


def _keep_going(started: float, seconds: float, walls: list[float], done: int, minimum: int) -> bool:
    """Start another pass only if it is expected to end within the budget."""
    if done < minimum:
        return True
    return perf() - started + statistics.median(walls) <= seconds


# -- timed run -------------------------------------------------------------------

def timed_run(name: str, seed: int, seconds: float, sizes, golden: dict, root: Path):
    tally = Tally()
    setup = [measure_setup(root, name) for _ in range(SETUP_REPEATS)]
    # keep only small per-pass summaries, so that peak RSS does not grow with the pass count
    reference = None
    walls, parts, call_p50s, latencies, groups = [], [], [], [], []
    started = perf()
    while _keep_going(started, seconds, walls, len(walls), MIN_PASSES):
        result = _checked_pass(name, seed, sizes, golden, tally, reference)
        if reference is None:
            reference = result
        walls.append(result.wall_s)
        parts.append(rate_parts(name, result))
        calls_ms = np.array([op.seconds for op in result.ops]) * 1e3
        call_p50s.append(float(np.median(calls_ms)))
        latencies.append(calls_ms)
        groups.append(group_rates([result]))

    # Means over passes, not medians: the host's speed drifts in phases
    # of ~10 s, and a median jumps between phases where a mean averages them.
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(walls),
        "reps_per_s": sum(r for r, _ in parts) / sum(t for _, t in parts),
        "call_p50_ms": statistics.fmean(call_p50s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "passes": len(walls),
        "pass_wall_s": walls,
        "setup_runs_s": setup,
        "call_latency_ms": tail_percentile(np.concatenate(latencies)),
        "group_reps_per_s": {g: statistics.fmean(r[g] for r in groups) for g in groups[0]},
        "digests": workloads.pass_digests(name, reference),
    }
    return tally, metrics, details


# -- traced run ------------------------------------------------------------------

def _traced_pass(name, seed, sizes):
    tracer = spans.Tracer()
    spans.install(tracer, (mc, procgen, stats, infer, cli))
    try:
        with tracer.span("bench.pass", workload=name):
            result = workloads.WORKLOADS[name](seed, sizes, tracer)
    finally:
        tracer.uninstall()
    return tracer, result


def probe_draws(probe_inputs: dict) -> dict:
    """Time draws and recursion apart for each distinct chunk of paths.

    Not a function-call boundary: for a chunk's seeds, time the process
    itself, then generate_paths(IIDNormal(), n_draws, seeds) with the
    protocol's draw count, then the generators alone, one after another
    on this thread. Draws = iid time minus generator set-up; recursion =
    process time minus iid time. Both are derived, not traced.
    """
    out = {}
    for key, (process, n, seeds) in probe_inputs.items():
        if type(process).__name__ == "IIDNormal":
            continue
        n_draws = spans.protocol_draws(process, n, procgen.ARCH_BURN_IN)
        t0 = perf()
        procgen.generate_paths(process, n, seeds)
        t1 = perf()
        procgen.generate_paths(procgen.IIDNormal(), n_draws, seeds)
        t2 = perf()
        for s in seeds:
            procgen.generator(s)
        t3 = perf()
        out[key] = (t1 - t0, t2 - t1, t3 - t2)
    return out


def layer_metrics(all_spans: list, acc: dict, probes: dict) -> dict:
    """Per-layer figures of one traced pass."""
    by = defaultdict(list)
    for s in all_spans:
        by[s.name].append(s)

    def busy(n):
        return sum(s.busy for s in by[n])

    def self_(n):
        return sum(s.self_s for s in by[n])

    def calls(n):
        return sum(s.calls for s in by[n])

    draw = recursion = 0.0
    draws = nbytes = 0
    for s in by["procgen.generate_paths"]:
        a = s.attrs
        draws += a["rows"] * a["n_draws"]
        if a["process"] == "IIDNormal":
            draw += s.self_s
            nbytes += a["path_bytes"]
        else:
            t_proc, t_iid, t_setup = probes[a["probe_key"]]
            draw += t_iid - t_setup
            recursion += t_proc - t_iid
            nbytes += a["rows"] * a["n_draws"] * 8 + a["path_bytes"]

    chunks = by["mc.chunk"]
    rows = sum(c.attrs["rows"] for c in chunks)
    degenerate = sum(c.attrs["degenerate"] for c in chunks)
    chunk_ms = [c.busy * 1e3 for c in chunks]
    regions = by["mc.estimate_tail"] + by["mc.simulate_stats"]
    capacity = sum(r.attrs["workers"] * r.busy for r in regions)
    return {
        "procgen.seed_s": busy("procgen.seed"),
        "procgen.seeds": calls("procgen.seed"),
        "procgen.rng_setup_s": busy("procgen.generator"),
        "procgen.generators": calls("procgen.generator"),
        "procgen.draw_s": draw,
        "procgen.draws": draws,
        "procgen.draws_per_s": draws / draw if draw > 0 else 0.0,
        "procgen.recursion_s": recursion,
        "procgen.bytes_computed": nbytes,
        "procgen.panel_draw_s": busy("procgen.panel_draw"),
        "blocks.sums_s": self_("blocks.sums"),
        "stats.kernel_s": self_("stats.values"),
        "stats.degenerate": degenerate,
        "stats.useful_ratio": (rows - degenerate) / rows if rows else 0.0,
        "mc.count_s": sum(c.self_s for c in chunks if not c.attrs["collect"]) + self_("mc.estimate_tail"),
        "mc.collect_s": sum(c.self_s for c in chunks if c.attrs["collect"]) + self_("mc.simulate_stats"),
        "mc.chunks": len(chunks),
        "mc.chunk_p50_ms": float(np.median(chunk_ms)) if chunk_ms else 0.0,
        "mc.chunk_p99_ms": float(np.percentile(chunk_ms, 99)) if chunk_ms else 0.0,
        "mc.worker_busy_share": sum(c.busy for c in chunks) / capacity if capacity else 0.0,
        "dist.ks_s": busy("dist.ks"),
        "dist.cdf_evals": calls("dist.cdf"),
        "dist.ref_tail_s": busy("dist.upper"),
        "dist.quantile_s": busy("dist.quantile"),
        "dist.quantile_calls": calls("dist.quantile"),
        "infer.mean_test_self_s": self_("infer.mean_test"),
        "cli.self_s": self_("cli.main"),
        "cli.output_bytes": sum(s.attrs.get("output_bytes", 0) for s in by["cli.main"]),
        "trace.unattributed_s": acc["unattributed_s"],
        "trace.overlap_s": acc["overlap_s"],
    }


def traced_run(name: str, seed: int, seconds: float, sizes, golden: dict):
    tally = Tally()
    untraced: list[workloads.PassResult] = []
    traced = []  # (tracer, result, accounting)
    problems = []
    started = perf()
    while _keep_going(started, seconds, [p.wall_s + t[1].wall_s for p, t in zip(untraced, traced)], len(traced), 1):
        untraced.append(_checked_pass(name, seed, sizes, golden, tally, untraced[0] if untraced else None))
        tracer, result = _traced_pass(name, seed, sizes)
        workloads.compare_to_reference(result, untraced[0])
        tally.add(result)
        acc = spans.account(tracer.spans)
        problems += spans.check_accounting(acc, MAX_UNATTRIBUTED_SHARE)
        traced.append((tracer, result, acc))

    probes = probe_draws(traced[0][0].probe_inputs)
    per_pass = [layer_metrics(t.spans, acc, probes) for t, _, acc in traced]
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}

    traced_wall = statistics.median(acc["wall_s"] for _, _, acc in traced)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    rates = group_rates(untraced)
    panel_ms = [op.seconds * 1e3 for p in untraced for op in p.ops] if name == "panel-coverage" else []
    panel = tail_percentile(panel_ms) if panel_ms else {"p50": 0.0}
    one_worker = rates.get("arch1_1w", 0.0)
    metrics.update({
        "mc.parallel_eff": rates["arch1"] / (2.0 * one_worker) if one_worker else 0.0,
        "ar1_reps_per_s": rates.get("ar1", 0.0),
        "arch1_reps_per_s": rates.get("arch1", 0.0),
        "arch1_reps_per_s_1w": one_worker,
        "panel_p50_ms": panel["p50"],
        "panel_p99_ms": float(np.percentile(panel_ms, 99)) if panel_ms else 0.0,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_share": (traced_wall - untraced_wall) / untraced_wall,
        "trace.missing_hooks": len(traced[0][0].missing),
    })
    metrics = {key: metrics[key] for key in PER_LAYER}
    details = {
        "traced_passes": len(traced),
        "missing_hooks": traced[0][0].missing,
        "accounting": [acc for _, _, acc in traced],
        "accounting_problems": problems,
        "panel_latency_ms": panel,
        "digests": workloads.pass_digests(name, untraced[0]),
    }
    return tally, metrics, details, traced


def write_trace(out_dir: Path, name: str, run_id: str, traced, metrics: dict) -> None:
    """Write the first traced pass's spans and the per-layer table once the run has ended."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer, _, acc = traced[0]
    # the first traced pass only: a panel-coverage pass alone has ~10,000 spans
    with open(out_dir / "spans.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.as_dict(name, run_id)) + "\n")
    lines = [
        f"# Per-layer self time, {name}, run {run_id}, first traced pass",
        "",
        f"Traced wall {acc['wall_s']:.4f} s; parallel overlap {acc['overlap_s']:.4f} s "
        "(self times are thread-seconds, so they sum to wall + overlap).",
        "",
        "| layer | self s | share of wall | spans |",
        "|---|---|---|---|",
    ]
    for layer, secs, count in spans.layer_table(tracer.spans, acc):
        lines.append(f"| {layer} | {secs:.4f} | {secs / acc['wall_s']:.1%} | {count} |")
    lines += ["", "| metric | value | unit |", "|---|---|---|"]
    for key, value in metrics.items():
        lines.append(f"| {key} | {value:.6g} | {PER_LAYER[key][0]} |")
    lines += ["", "procgen.draw_s and procgen.recursion_s are derived for AR(1)/ARCH(1) paths (see README)."]
    (out_dir / "layers.md").write_text("\n".join(lines) + "\n")
