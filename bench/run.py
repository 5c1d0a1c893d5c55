"""Benchmark of blocknorm: one workload, timed or traced, with checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload tail-dep --seed 0 --seconds 25 --trace 0

Workloads: tail-dep, null-law, panel-coverage (see bench/README.md).
The package is imported from the checkout's own ``src/``; without it the
benchmark exits with code 2 and prints no result. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``); the line before it
holds the environment record and run details, also written with the
traced spans under bench/out/<run id>/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("tail-dep", "null-law", "panel-coverage")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="master seed the inputs are built from (default 0)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run with per-layer metrics")
    return parser.parse_args(argv)


def load_package(root: Path):
    """Import blocknorm from root/src and nowhere else, or return None."""
    src = root / "src"
    if not (src / "blocknorm" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import blocknorm

    if not Path(blocknorm.__file__).resolve().is_relative_to(src.resolve()):
        return None
    return blocknorm


def main(argv=None) -> int:
    args = parse_args(argv)
    # the worker count is always passed explicitly; the environment must not change the schedule
    os.environ.pop("BLOCKNORM_WORKERS", None)
    if load_package(ROOT) is None:
        sys.stderr.write(f"bench: no blocknorm package under {ROOT / 'src'}; nothing to measure\n")
        return 2

    import harness
    import workloads

    golden = json.loads((Path(__file__).parent / "golden.json").read_text())
    env = harness.environment(ROOT)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    out_dir = ROOT / "bench" / "out" / run_id
    if args.trace:
        tally, metrics, details, traced = harness.traced_run(
            args.workload, args.seed, args.seconds, workloads.STANDARD, golden
        )
        harness.write_trace(out_dir, args.workload, run_id, traced, metrics)
        units = harness.PER_LAYER
    else:
        tally, metrics, details = harness.timed_run(
            args.workload, args.seed, args.seconds, workloads.STANDARD, golden, ROOT
        )
        units = harness.E2E
    env["loadavg_end"] = list(os.getloadavg())

    for message in tally.messages[:20]:
        sys.stderr.write(f"bench: check failed: {message}\n")
    for problem in details.get("accounting_problems", []):
        sys.stderr.write(f"bench: trace accounting: {problem}\n")
    record = {"run_id": run_id, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "details": details}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(json.dumps({**record, "result": result}, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
