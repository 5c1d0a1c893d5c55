"""The public names and the module-level names the benchmark tracer rebinds."""

import importlib.util
from pathlib import Path

import numpy as np

import blocknorm
from blocknorm import IIDNormal, Interlace, SimConfig, cli, infer, mc, procgen, stats


def _spans_module():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_name_resolves():
    missing = [name for name in blocknorm.__all__ if not hasattr(blocknorm, name)]
    assert missing == []


def test_tracer_finds_and_restores_every_hook():
    spans = _spans_module()
    originals = (mc.generate_paths, stats.StatKernel.sums, infer.interlace_sums_matrix, cli.estimate_tail)
    tracer = spans.Tracer()
    spans.install(tracer, (mc, procgen, stats, infer, cli))
    try:
        assert tracer.missing == []
        # the hooked names are the ones the package really calls through
        with tracer.span("bench.pass"):
            mc.simulate_stats(SimConfig(IIDNormal(), 40, Interlace(5), "InStar", 8, 0))
            infer.simultaneous_ci(np.arange(80.0).reshape(40, 2) % 7, alpha=0.1, m=5)
        names = [s.name for s in tracer.spans]
        assert names.count("blocks.sums") == 2
        assert {"procgen.generate_paths", "mc.chunk", "stats.values", "procgen.seed"} <= set(names)
    finally:
        tracer.uninstall()
    assert (mc.generate_paths, stats.StatKernel.sums, infer.interlace_sums_matrix, cli.estimate_tail) == originals
