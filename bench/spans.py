"""In-memory span tracer for the traced benchmark run.

The tracer records spans only from the benchmark's side: it rebinds the
module-level names through which one blocknorm module calls another
(for example ``blocknorm.mc.generate_paths``) and the benchmark opens
spans around its own calls into the package. The package's source is
not touched, and `uninstall` restores every name it rebound.

A span records its name, start, end, parent span, thread, workload and
run id. Functions called once per replication or per point
(seed derivation, generator construction, scalar CDF/tail calls) are
not given a span per call: their calls are summed into one aggregate
span per enclosing span (one per chunk), which keeps ``busy`` (the
summed call time) and ``calls``.

Self time of a span is its duration minus its children. Children on the
span's own thread run one after another, so their busy times are
subtracted; children on other threads (Monte Carlo chunks on pool
threads) may overlap each other, so the union of their intervals is
subtracted, and the surplus is reported as parallel overlap.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

perf = time.perf_counter

# span name -> layer (module of src/blocknorm) for the per-layer table
LAYER_OF = {
    "bench.pass": "bench",
    "procgen.seed": "procgen",
    "procgen.generator": "procgen",
    "procgen.generate_paths": "procgen",
    "procgen.panel_draw": "procgen",
    "blocks.sums": "blocks",
    "stats.values": "stats",
    "mc.chunk": "mc",
    "mc.estimate_tail": "mc",
    "mc.simulate_stats": "mc",
    "dist.ks": "dist",
    "dist.cdf": "dist",
    "dist.upper": "dist",
    "dist.quantile": "dist",
    "infer.mean_test": "infer",
    "cli.main": "cli",
}


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "busy", "calls", "attrs", "aggs", "self_s")

    def __init__(self, id_, name, parent, thread, start):
        self.id = id_
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = start
        self.busy = 0.0
        self.calls = 1
        self.attrs = {}
        self.aggs = {}
        self.self_s = 0.0

    def as_dict(self, workload: str, run_id: str) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "busy": self.busy,
            "calls": self.calls,
            "self_s": self.self_s,
            "workload": workload,
            "run": run_id,
            "attrs": {k: v for k, v in self.attrs.items() if isinstance(v, (int, float, str, bool))},
        }


class NullTracer:
    """Stands in for a Tracer on untraced passes; every span is a no-op."""

    @contextmanager
    def span(self, name, **attrs):
        yield attrs


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.probe_inputs: dict[tuple, tuple] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] | None = None
        self._hooks: list[tuple] = []
        self.burn_in = 0

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _parent(self, stack: list[Span]) -> Span | None:
        if stack:
            return stack[-1]
        # a pool thread's first span was caused by the main thread's open call
        main = self._main_stack
        return main[-1] if main else None

    @contextmanager
    def span(self, name, **attrs):
        stack = self._stack()
        parent = self._parent(stack)
        span = Span(next(self._ids), name, parent.id if parent else None, threading.get_ident(), perf())
        span.attrs.update(attrs)
        stack.append(span)
        try:
            yield span.attrs
        finally:
            span.end = perf()
            span.busy = span.end - span.start
            stack.pop()
            self._finish(span)

    def _finish(self, span: Span) -> None:
        done = [span]
        for name, (first, last, busy, calls) in span.aggs.items():
            agg = Span(next(self._ids), name, span.id, span.thread, first)
            agg.end, agg.busy, agg.calls = last, busy, calls
            done.append(agg)
        span.aggs = {}
        with self._lock:
            self.spans.extend(done)

    def _count_call(self, name: str, t0: float, t1: float) -> None:
        stack = self._stack()
        if stack:
            self._add_call(stack[-1], name, t0, t1)
            return
        parent = self._parent(stack)
        if parent is not None:
            with self._lock:  # the parent span belongs to another thread
                self._add_call(parent, name, t0, t1)

    @staticmethod
    def _add_call(parent: Span, name: str, t0: float, t1: float) -> None:
        agg = parent.aggs.get(name)
        if agg is None:
            parent.aggs[name] = [t0, t1, t1 - t0, 1]
        else:
            agg[1] = t1
            agg[2] += t1 - t0
            agg[3] += 1

    # -- rebinding the names modules call each other through ------------

    def _rebind(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._hooks.append((owner, attr, original))

    def wrap_span(self, owner, attr: str, name: str, on_return=None) -> None:
        """Give each call of owner.attr its own span."""

        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name) as attrs:
                    out = original(*args, **kwargs)
                    if on_return is not None:
                        on_return(self, attrs, args, kwargs, out)
                    return out

            return wrapper

        self._rebind(owner, attr, make)

    def wrap_calls(self, owner, attr: str, name: str) -> None:
        """Sum the calls of owner.attr into one aggregate span per enclosing span."""

        def make(original):
            def wrapper(*args, **kwargs):
                t0 = perf()
                try:
                    return original(*args, **kwargs)
                finally:
                    self._count_call(name, t0, perf())

            return wrapper

        self._rebind(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._hooks):
            setattr(owner, attr, original)
        self._hooks = []


def install(tracer: Tracer, blocknorm_modules) -> None:
    """Rebind the names each caller module uses to reach another layer."""
    mc, procgen, stats, infer, cli = blocknorm_modules
    tracer.burn_in = procgen.ARCH_BURN_IN
    tracer.wrap_calls(mc, "derive_rep_seed", "procgen.seed")
    tracer.wrap_calls(procgen, "derive_rep_seed", "procgen.seed")
    tracer.wrap_calls(procgen, "generator", "procgen.generator")
    tracer.wrap_span(mc, "generate_paths", "procgen.generate_paths", _paths_attrs)
    tracer.wrap_span(mc, "_run_chunk", "mc.chunk", _chunk_attrs)
    tracer.wrap_span(stats.StatKernel, "values", "stats.values")
    tracer.wrap_span(stats.StatKernel, "sums", "blocks.sums")
    tracer.wrap_span(infer, "interlace_sums_matrix", "blocks.sums")
    tracer.wrap_calls(mc, "ref_cdf", "dist.cdf")
    tracer.wrap_calls(mc, "ref_upper", "dist.upper")
    tracer.wrap_span(infer, "ref_quantile", "dist.quantile")
    tracer.wrap_span(cli, "estimate_tail", "mc.estimate_tail", _estimate_attrs)


def protocol_draws(process, n: int, burn_in: int) -> int:
    """Normals drawn per path under the procgen draw protocol."""
    kind = type(process).__name__
    if kind == "AR1":
        return n + 1
    if kind == "ARCH1":
        return n + 1 + burn_in
    return n


def _paths_attrs(tracer, attrs, args, kwargs, out):
    process, n, seeds = args[0], args[1], list(args[2])
    attrs["process"] = type(process).__name__
    attrs["rows"] = len(seeds)
    attrs["n"] = n
    attrs["n_draws"] = protocol_draws(process, n, tracer.burn_in)
    attrs["path_bytes"] = int(out.nbytes)
    key = (process, n, tuple(seeds))
    attrs["probe_key"] = key
    tracer.probe_inputs.setdefault(key, (process, n, seeds))


def _chunk_attrs(tracer, attrs, args, kwargs, out):
    lo, hi = args[3]
    attrs["rows"] = hi - lo
    attrs["collect"] = bool(args[4])
    attrs["degenerate"] = int(out[1])


def _estimate_attrs(tracer, attrs, args, kwargs, out):
    attrs["workers"] = kwargs.get("workers", args[1] if len(args) > 1 else 1)
    attrs["reps"] = args[0].reps


def union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def account(spans: list[Span]) -> dict:
    """Set each span's self time; return the pass's time accounting.

    The identity sum(self) - overlap == root duration holds when every
    span's parent was recorded, and no self time is negative when
    children lie inside their parents; `check_accounting` tests both.
    """
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    overlap = 0.0
    for s in spans:
        same = [c for c in kids[s.id] if c.thread == s.thread]
        other = [c for c in kids[s.id] if c.thread != s.thread]
        covered = union_length([(c.start, c.end) for c in other])
        overlap += sum(c.busy for c in other) - covered
        s.self_s = s.busy - sum(c.busy for c in same) - covered
    roots = [s for s in spans if s.parent is None]
    wall = sum(r.busy for r in roots)
    unattributed = sum(r.self_s for r in roots)
    return {
        "wall_s": wall,
        "self_sum_s": sum(s.self_s for s in spans),
        "overlap_s": overlap,
        "unattributed_s": unattributed,
        "min_self_s": min((s.self_s for s in spans), default=0.0),
    }


def check_accounting(acc: dict, max_unattributed_share: float) -> list[str]:
    """Problems with a traced pass's accounting, empty when it adds up."""
    problems = []
    wall = acc["wall_s"]
    gap = acc["self_sum_s"] - acc["overlap_s"] - wall
    if abs(gap) > 1e-6 * wall + 1e-9:
        problems.append(f"self times minus overlap miss the traced wall by {gap:.3g} s")
    if acc["min_self_s"] < -1e-6:
        problems.append(f"a span has negative self time {acc['min_self_s']:.3g} s (children outside parent)")
    if wall > 0 and acc["unattributed_s"] / wall > max_unattributed_share:
        problems.append(
            f"unattributed {acc['unattributed_s']:.3g} s is over {max_unattributed_share:.0%} of the traced wall"
        )
    return problems


def layer_table(spans: list[Span], acc: dict) -> list[tuple[str, float, int]]:
    """(layer, self thread-seconds, spans) rows, unattributed time last."""
    totals, counts = defaultdict(float), defaultdict(int)
    for s in spans:
        if s.parent is None:
            continue
        layer = LAYER_OF.get(s.name, "other")
        totals[layer] += s.self_s
        counts[layer] += 1
    rows = sorted(((layer, totals[layer], counts[layer]) for layer in totals), key=lambda r: -r[1])
    rows.append(("unattributed", acc["unattributed_s"], 0))
    return rows
