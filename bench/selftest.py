"""Smoke test of the benchmark itself, at tiny sizes.

    python3 bench/selftest.py

For each workload it runs a short timed and a short traced run and checks
that every metric BENCHMARK.json names is emitted with its unit, that
the metrics each workload exists for are non-zero there, that no
operation fails, and that the traced self times account for the traced
wall time (the unattributed remainder is printed). It also checks that
the output checks fire on tampered outputs and that the benchmark exits
non-zero, printing no result, where the package source is absent.
Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3

# per-layer metrics that must be non-zero on the workload they exist for
APPLIES = {
    "tail-dep": (
        "procgen.seed_s", "procgen.rng_setup_s", "procgen.draw_s", "procgen.recursion_s",
        "procgen.bytes_computed", "blocks.sums_s", "stats.kernel_s", "mc.count_s", "mc.chunks",
        "mc.worker_busy_share", "mc.parallel_eff", "dist.ref_tail_s", "cli.self_s", "cli.output_bytes",
        "ar1_reps_per_s", "arch1_reps_per_s", "arch1_reps_per_s_1w",
    ),
    "null-law": (
        "procgen.seed_s", "procgen.rng_setup_s", "procgen.draw_s", "procgen.draws_per_s",
        "blocks.sums_s", "stats.kernel_s", "mc.collect_s", "dist.ks_s", "dist.cdf_evals",
    ),
    "panel-coverage": (
        "procgen.seed_s", "procgen.panel_draw_s", "blocks.sums_s", "dist.quantile_s",
        "dist.quantile_calls", "infer.mean_test_self_s", "panel_p50_ms", "panel_p99_ms",
    ),
}
# and these must be exactly zero where the layer is not on the path
ABSENT = {
    "tail-dep": ("dist.ks_s", "dist.quantile_calls", "mc.collect_s", "procgen.panel_draw_s"),
    "null-law": ("procgen.recursion_s", "cli.self_s", "dist.quantile_calls", "mc.count_s"),
    "panel-coverage": ("mc.chunks", "cli.self_s", "dist.cdf_evals", "procgen.recursion_s"),
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_declared() -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    check(e2e == harness.E2E, "BENCHMARK.json end_to_end matches the metrics the harness emits")
    check(layers == harness.PER_LAYER, "BENCHMARK.json per_layer matches the metrics the harness emits")
    check(sorted(w["name"] for w in declared["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json workloads match the harness")
    return declared


def check_metrics(name: str, metrics: dict, units: dict, kind: str) -> None:
    check(list(metrics) == list(units), f"{name}: every {kind} metric is emitted")
    check(all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values()),
          f"{name}: every {kind} metric is a finite number")


def check_timed(name: str) -> None:
    tally, metrics, details = harness.timed_run(name, SEED, 0.5, workloads.TINY, {}, ROOT)
    check_metrics(name, metrics, harness.E2E, "end-to-end")
    check(all(v > 0 for v in metrics.values()), f"{name}: every end-to-end metric is non-zero")
    check(tally.failed == 0 and tally.attempted > 0, f"{name}: timed run, {tally.attempted} ops, none failed")
    latency = details["call_latency_ms"]
    print(f"     call latency p50 {latency['p50']:.3f} ms over {latency['samples']} calls")


def check_traced(name: str) -> None:
    tally, metrics, details, traced = harness.traced_run(name, SEED, 0.5, workloads.TINY, {})
    check_metrics(name, metrics, harness.PER_LAYER, "per-layer")
    check(tally.failed == 0, f"{name}: traced run, {tally.attempted} ops, none failed")
    check(all(metrics[k] > 0 for k in APPLIES[name]), f"{name}: the metrics the workload exists for are non-zero")
    check(all(metrics[k] == 0 for k in ABSENT[name]), f"{name}: layers off its path read zero")
    check(metrics["trace.missing_hooks"] == 0, f"{name}: every traced name was found")
    for acc in details["accounting"]:
        problems = spans.check_accounting(acc, harness.MAX_UNATTRIBUTED_SHARE)
        check(not problems, f"{name}: self times account for the traced wall {'; '.join(problems)}")
        print(f"     traced wall {acc['wall_s']:.4f} s, unattributed {acc['unattributed_s']:.4f} s "
              f"({acc['unattributed_s'] / acc['wall_s']:.2%}), parallel overlap {acc['overlap_s']:.4f} s")


def check_checks_fire() -> None:
    result = workloads.tail_dep(SEED, workloads.TINY, spans.NullTracer())
    check(not workloads.failed_ops(result), "tail-dep: 1-worker and 2-worker outputs agree")
    result.ops[3].compare = "tampered"
    workloads.check_worker_identity(result)
    check(len(workloads.failed_ops(result)) == 2, "tail-dep: a 1-vs-2-worker difference fails both ops")

    result = workloads.null_law(SEED, workloads.TINY, spans.NullTracer())
    workloads.check_golden("null-law", result, {"null-law": {"t-star": "0" * 64}})
    check(len(workloads.failed_ops(result)) == 3, "null-law: digests that do not match golden.json fail")

    result = workloads.panel_coverage(SEED, workloads.TINY, spans.NullTracer())
    reference = workloads.panel_coverage(SEED, workloads.TINY, spans.NullTracer())
    reference.ops[0].digest = "1" if result.ops[0].digest == "0" else "0"
    workloads.compare_to_reference(result, reference)
    check(workloads.failed_ops(result) == {0}, "panel-coverage: a pass that differs from the first fails")


def check_bare_directory(declared: dict) -> None:
    """Where only BENCHMARK.json and the bench files exist, exit non-zero, no result."""
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            declared["command"] + ["--workload", "null-law", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"without the package source the benchmark exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    declared = check_declared()
    for name in workloads.WORKLOADS:
        check_timed(name)
        check_traced(name)
    check_checks_fire()
    check_bare_directory(declared)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
