"""Which public functions make up each layer, and the per-layer metrics.

:func:`patches` lists the wrappers a traced run installs; the span
names are ``"<layer>:<operation>"`` with the layer names of
``src/repro``'s modules. :func:`derive` turns the recorded spans, the
wrapper counters and two ``stats()`` snapshots into the ``per_layer``
metrics of ``BENCHMARK.json``.

Times and counts are per operation (one root span: a served request, or
one round of an in-process workload) unless the name says per call or
per cell; ratios and ``*_pct`` are over the whole traced window.
"""

from __future__ import annotations

import contextvars
import hashlib
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Sequence

from . import summary
from .tracing import Span, Tracer, _clock, layer_of, self_times

# Bookkeeping spans: intervals that other spans already account for
# (a member's share of a coalesced flush, its wait before the flush).
_BOOKKEEPING = {"service.coalesce:wait", "service.coalesce:shared"}


def _cells(index: int, key: str):
    """``measure`` hook: add the size of positional argument ``index``."""

    def measure(args, kwargs):
        array = args[index] if len(args) > index else None
        return {key: getattr(array, "size", 0)}

    return measure


def _staged_bytes(args, kwargs):
    rlc = args[1] if len(args) > 1 else kwargs.get("rlc")
    return {"engine.table:bytes": getattr(rlc, "nbytes", 0)}


class _FutureProxy:
    def __init__(self, future, tracer: Tracer):
        self._future = future
        self._tracer = tracer

    def result(self, timeout=None):
        with self._tracer.span("engine.dispatch:wait"):
            return self._future.result(timeout=timeout)

    def __getattr__(self, name):
        return getattr(self._future, name)


class _PoolProxy:
    """The dispatch pool with every shard future's ``result()`` timed."""

    def __init__(self, pool, tracer: Tracer):
        self._pool = pool
        self._tracer = tracer

    def submit(self, fn, *args, **kwargs):
        return _FutureProxy(self._pool.submit(fn, *args, **kwargs), self._tracer)

    def __getattr__(self, name):
        return getattr(self._pool, name)


class _ContextExecutor(ThreadPoolExecutor):
    """Thread executor that runs each job in the submitter's context, so
    engine spans inside the service's executor nest under the request."""

    def submit(self, fn, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def patches(tracer: Tracer, *, service: bool = False) -> List:
    """``(owner, attribute, make)`` triples for :func:`tracing.install`."""
    from repro.analysis import analyzer, moments, sensitivity
    from repro.apps import clock_tuning, variation, wire_sizing
    from repro.circuit import netlist
    from repro.engine import compiled, dispatch, incremental, kernels, sharded, table
    from repro.runtime import context, planner
    from repro.sweep import compile as sweep_compile
    from repro.sweep import execute

    def wrap(name, **options):
        return lambda fn: tracer.wrap(fn, name, **options)

    seen = set()

    def parse_measure(args, kwargs):
        text = args[0] if args else kwargs.get("text", "")
        digest = hashlib.sha1(str(text).encode()).digest()
        repeat = digest in seen
        seen.add(digest)
        return {"circuit.netlist:repeats": float(repeat)}

    def iter_batch(fn):
        traced = tracer.wrap(fn, "engine.table:iter_analyze_batch", iterate=True)
        fill_name = "sweep.execute:fill"

        def replacement(compiled_tree, fill, *args, **kwargs):
            def traced_fill(view, lo, hi):
                tracer.count("engine.table:bytes", view.nbytes)
                with tracer.span(fill_name):
                    return fill(view, lo, hi)

            return traced(compiled_tree, traced_fill, *args, **kwargs)

        return replacement

    def pool(fn):
        def replacement(*args, **kwargs):
            return _PoolProxy(fn(*args, **kwargs), tracer)

        return replacement

    scalar = [
        (analyzer.TreeAnalyzer, method, wrap(f"analysis.scalar:{method}"))
        for method in ("__init__", "sums", "zeta", "omega_n", "model",
                       "delay_50", "rise_time", "elmore_delay", "overshoot",
                       "settling_time", "timing", "report", "report_all")
    ] + [
        (moments, fn, wrap(f"analysis.scalar:{fn}"))
        for fn in ("capacitive_loads", "second_order_sums", "weighted_path_sums")
    ]
    result = [
        (netlist, "loads", wrap("circuit.netlist:loads", measure=parse_measure)),
        (planner, "plan", wrap("runtime.planner:plan")),
        *[
            (context.ExecutionContext, method, wrap(f"runtime.context:{method}"))
            for method in ("batch", "analyze_many", "session")
        ],
        (context.ExecutionContext, "sweep_chunks",
         wrap("runtime.context:sweep_chunks", iterate=True)),
        *scalar,
        (sensitivity, "delay_sensitivities",
         wrap("analysis.sensitivity:delay_sensitivities")),
        (compiled, "compile_tree", wrap("engine.compiled:compile_tree")),
        *[
            (compiled.CompiledTopology, method,
             wrap(f"engine.compiled:{method}",
                  measure=_cells(1, f"engine.compiled:{method}:cells")))
            for method in ("accumulate", "descend", "descend2")
        ],
        (kernels, "metrics_from_sums",
         wrap("engine.kernels:metrics_from_sums",
              measure=_cells(0, "engine.kernels:cells"))),
        (table, "analyze_batch",
         wrap("engine.table:analyze_batch", measure=_staged_bytes)),
        (table, "iter_analyze_batch", iter_batch),
        (sharded, "analyze_batch_sharded", wrap("engine.dispatch:analyze_batch_sharded")),
        (sharded, "analyze_many", wrap("engine.dispatch:analyze_many")),
        (dispatch, "run_supervised", wrap("engine.dispatch:run_supervised")),
        (dispatch, "get_pool", pool),
        (incremental.IncrementalAnalyzer, "set_values",
         wrap("engine.incremental:set_values")),
        *[
            (incremental.IncrementalAnalyzer, method,
             wrap(f"engine.incremental:query.{method}"))
            for method in ("value", "metric_at", "sums", "timing")
        ],
        (sweep_compile, "compile_sweep", wrap("sweep.compile:compile_sweep")),
        (execute, "iter_sweep",
         wrap("sweep.execute:iter_sweep", iterate=True, new_trace_items=True)),
        (variation, "sample_delays", wrap("apps.variation:sample_delays")),
        (wire_sizing, "optimize_width", wrap("apps.wire_sizing:optimize_width")),
        (clock_tuning, "tune_clock_tree", wrap("apps.clock_tuning:tune_clock_tree")),
    ]
    if service:
        result += _service_patches(tracer, wrap)
    return result


def _service_patches(tracer: Tracer, wrap) -> List:
    from repro.service import coalesce, protocol, server

    submitted: Dict[int, tuple] = {}

    def analyze(fn):
        async def replacement(self, compiled_tree, *args, **kwargs):
            with tracer.span("service.coalesce:analyze") as sid:
                submitted[id(compiled_tree)] = (sid, tracer.current()[1],
                                                _clock())
                try:
                    return await fn(self, compiled_tree, *args, **kwargs)
                finally:
                    submitted.pop(id(compiled_tree), None)

        return replacement

    def flush(fn):
        async def replacement(self, group):
            start = _clock()
            members = [submitted.get(id(m.compiled)) for m in group.members]
            try:
                with tracer.span("service.coalesce:flush", root=True):
                    return await fn(self, group)
            finally:
                end = _clock()
                for member in members:
                    if member is None:
                        continue
                    sid, trace, since = member
                    tracer.record("service.coalesce:wait", since, start,
                                  parent=sid, trace=trace)
                    tracer.record("service.coalesce:shared", start, end,
                                  parent=sid, trace=trace)

        return replacement

    return [
        (server.AnalysisServer, "_respond",
         wrap("service.server:request", root=True)),
        (server, "ThreadPoolExecutor", lambda cls: _ContextExecutor),
        (coalesce.PointCoalescer, "analyze", analyze),
        (coalesce.PointCoalescer, "_flush", flush),
        *[
            (protocol, fn, wrap(f"service.protocol:{fn}"))
            for fn in ("decode_json", "encode_json", "parse_analyze",
                       "parse_batch", "parse_sweep")
        ],
    ]


# -- per-layer metrics --------------------------------------------------------

#: ``(name, unit)`` of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("circuit.netlist.self_ms", "ms"),
    ("circuit.netlist.calls", "count"),
    ("circuit.netlist.repeat_rate", "ratio"),
    ("service.protocol.self_ms", "ms"),
    ("service.coalesce.wait_ms", "ms"),
    ("service.coalesce.hit_rate", "ratio"),
    ("service.coalesce.group_mean", "count"),
    ("service.server.rejected", "count"),
    ("service.server.errors", "count"),
    ("loadgen.late_tail_ms", "ms"),
    ("runtime.planner.calls", "count"),
    ("runtime.planner.self_us", "us"),
    ("runtime.context.self_ms", "ms"),
    ("runtime.context.degraded", "count"),
    ("runtime.context.breaker_trips", "count"),
    ("analysis.scalar.self_ms", "ms"),
    ("analysis.sensitivity.self_s", "s"),
    ("analysis.sensitivity.calls", "count"),
    ("engine.compiled.compile_ms", "ms"),
    ("engine.compiled.cache_hit_rate", "ratio"),
    ("engine.compiled.accumulate_ns_per_cell", "ns"),
    ("engine.compiled.descend_ns_per_cell", "ns"),
    ("engine.compiled.descend2_ns_per_cell", "ns"),
    ("engine.kernels.self_ms", "ms"),
    ("engine.kernels.ns_per_cell", "ns"),
    ("engine.table.stage_ms", "ms"),
    ("engine.table.staged_bytes", "bytes"),
    ("engine.dispatch.parent_ms", "ms"),
    ("engine.dispatch.worker_wait_ms", "ms"),
    ("engine.dispatch.bytes_shipped", "bytes"),
    ("engine.dispatch.bytes_returned", "bytes"),
    ("engine.dispatch.arena_hits", "count"),
    ("engine.dispatch.retries", "count"),
    ("engine.dispatch.serial_fallbacks", "count"),
    ("engine.incremental.set_values_ms", "ms"),
    ("engine.incremental.query_us", "us"),
    ("engine.incremental.flushes", "count"),
    ("sweep.compile.self_ms", "ms"),
    ("sweep.execute.self_ms", "ms"),
    ("sweep.execute.chunks", "count"),
    ("sweep.execute.cse_hits", "count"),
    ("sweep.execute.peak_staged_bytes", "bytes"),
    ("apps.variation.self_ms", "ms"),
    ("apps.wire_sizing.self_ms", "ms"),
    ("apps.clock_tuning.self_ms", "ms"),
    ("root.self_ms", "ms"),
    ("root.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
]


def counters(snapshot: dict) -> Dict[str, float]:
    """The ``stats()`` counters the per-layer metrics read, flattened."""
    caches = snapshot.get("caches", {})
    topology = caches.get("topology", {})
    incr = caches.get("incremental", {})
    supervision = snapshot.get("supervision", {})
    sweep = snapshot.get("sweep", {})
    service = snapshot.get("service", {})
    coalescing = service.get("coalescing", {})
    trips = sum(
        1
        for breaker in snapshot.get("breakers", {}).values()
        for state, _reason in breaker.get("transitions", [])
        if state == "open"
    )
    return {
        "topology_hits": topology.get("hits", 0),
        "topology_misses": topology.get("misses", 0),
        "flushes": sum(incr.get(key, 0) for key in
                       ("auto_flushes", "targeted_flushes", "bulk_flushes")),
        "retries": supervision.get("retries", 0),
        "serial_fallbacks": supervision.get("serial_fallbacks", 0),
        "bytes_shipped": supervision.get("bytes_shipped", 0),
        "bytes_returned": supervision.get("bytes_returned", 0),
        "arena_hits": snapshot.get("transport", {}).get("arena_hits", 0),
        "chunks": sweep.get("chunks", 0),
        "cse_hits": sweep.get("cse_hits", 0),
        "peak_chunk_bytes": sweep.get("peak_chunk_bytes", 0),
        "degraded": snapshot.get("plans", {}).get("degraded", 0),
        "breaker_trips": trips,
        "rejected": service.get("rejected_429", 0) + service.get("rejected_503", 0),
        "errors": service.get("errors_400", 0) + service.get("errors_500", 0),
        "coalesce_requests": coalescing.get("requests", 0),
        "coalesce_groups": coalescing.get("groups", 0),
        "coalesce_merged": coalescing.get("coalesced_requests", 0),
    }


def roots(spans: Sequence[Span]) -> List[Span]:
    """One span per operation: the parentless spans, less coalesced
    flushes (which serve several requests and are shared out to them)."""
    return [s for s in spans if s[1] == 0 and s[2] != "service.coalesce:flush"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(spans: Sequence[Span], counts: Dict[str, float],
           before: dict, after: dict, *, late: Sequence[float] = (),
           overhead_pct: float = 0.0) -> Dict[str, float]:
    """The per-layer metrics of one traced window.

    ``before``/``after`` are ``stats()`` snapshots around the window;
    ``late`` the open-loop send lateness samples (seconds).
    """
    own = self_times(spans)
    layer_self: Dict[str, float] = defaultdict(float)
    op_self: Dict[str, float] = defaultdict(float)
    op_calls: Dict[str, int] = defaultdict(int)
    ops_roots = roots(spans)
    wait = [s[4] - s[3] for s in spans if s[2] == "service.coalesce:wait"]
    for span in spans:
        name = span[2]
        if name in _BOOKKEEPING:
            continue
        layer_self[layer_of(name)] += own[span[0]]
        op_self[name] += own[span[0]]
        op_calls[name] += 1
    ops = max(1, len(ops_roots))
    root_self = sum(own[s[0]] for s in ops_roots)
    root_wall = sum(s[4] - s[3] for s in ops_roots)

    def per_op_ms(layer: str) -> float:
        return layer_self.get(layer, 0.0) * 1e3 / ops

    def calls(prefix: str) -> int:
        return sum(n for name, n in op_calls.items() if name.startswith(prefix))

    def ns_per_cell(name: str, key: str) -> float:
        return _ratio(op_self.get(name, 0.0) * 1e9, counts.get(key, 0.0))

    a, b = counters(after), counters(before)
    delta = {key: a[key] - b[key] for key in a}
    parse_calls = calls("circuit.netlist:")
    queries = [n for n in op_self if n.startswith("engine.incremental:query")]
    planner_calls = op_calls.get("runtime.planner:plan", 0)
    late_tail = summary.tail(list(late)) if late else None
    return {
        "circuit.netlist.self_ms": per_op_ms("circuit.netlist"),
        "circuit.netlist.calls": parse_calls / ops,
        "circuit.netlist.repeat_rate": _ratio(
            counts.get("circuit.netlist:repeats", 0.0), parse_calls),
        "service.protocol.self_ms": per_op_ms("service.protocol"),
        "service.coalesce.wait_ms": _ratio(sum(wait) * 1e3, len(wait)),
        "service.coalesce.hit_rate": _ratio(
            delta["coalesce_merged"], delta["coalesce_requests"]),
        "service.coalesce.group_mean": _ratio(
            delta["coalesce_requests"], delta["coalesce_groups"]),
        "service.server.rejected": delta["rejected"],
        "service.server.errors": delta["errors"],
        "loadgen.late_tail_ms": late_tail["value"] * 1e3 if late_tail else 0.0,
        "runtime.planner.calls": planner_calls / ops,
        "runtime.planner.self_us": _ratio(
            op_self.get("runtime.planner:plan", 0.0) * 1e6, planner_calls),
        "runtime.context.self_ms": per_op_ms("runtime.context"),
        "runtime.context.degraded": delta["degraded"],
        "runtime.context.breaker_trips": delta["breaker_trips"],
        "analysis.scalar.self_ms": per_op_ms("analysis.scalar"),
        "analysis.sensitivity.self_s": layer_self.get("analysis.sensitivity", 0.0) / ops,
        "analysis.sensitivity.calls": calls("analysis.sensitivity:") / ops,
        "engine.compiled.compile_ms":
            op_self.get("engine.compiled:compile_tree", 0.0) * 1e3 / ops,
        "engine.compiled.cache_hit_rate": _ratio(
            delta["topology_hits"], delta["topology_hits"] + delta["topology_misses"]),
        **{
            f"engine.compiled.{method}_ns_per_cell": ns_per_cell(
                f"engine.compiled:{method}", f"engine.compiled:{method}:cells")
            for method in ("accumulate", "descend", "descend2")
        },
        "engine.kernels.self_ms": per_op_ms("engine.kernels"),
        "engine.kernels.ns_per_cell": ns_per_cell(
            "engine.kernels:metrics_from_sums", "engine.kernels:cells"),
        "engine.table.stage_ms": per_op_ms("engine.table"),
        "engine.table.staged_bytes": counts.get("engine.table:bytes", 0.0) / ops,
        "engine.dispatch.parent_ms": (
            layer_self.get("engine.dispatch", 0.0)
            - op_self.get("engine.dispatch:wait", 0.0)) * 1e3 / ops,
        "engine.dispatch.worker_wait_ms":
            op_self.get("engine.dispatch:wait", 0.0) * 1e3 / ops,
        "engine.dispatch.bytes_shipped": delta["bytes_shipped"] / ops,
        "engine.dispatch.bytes_returned": delta["bytes_returned"] / ops,
        "engine.dispatch.arena_hits": delta["arena_hits"] / ops,
        "engine.dispatch.retries": delta["retries"],
        "engine.dispatch.serial_fallbacks": delta["serial_fallbacks"],
        "engine.incremental.set_values_ms":
            op_self.get("engine.incremental:set_values", 0.0) * 1e3 / ops,
        "engine.incremental.query_us": _ratio(
            sum(op_self[n] for n in queries) * 1e6,
            sum(op_calls[n] for n in queries)),
        "engine.incremental.flushes": delta["flushes"] / ops,
        "sweep.compile.self_ms": per_op_ms("sweep.compile"),
        "sweep.execute.self_ms": per_op_ms("sweep.execute"),
        "sweep.execute.chunks": delta["chunks"] / ops,
        "sweep.execute.cse_hits": delta["cse_hits"] / ops,
        "sweep.execute.peak_staged_bytes": a["peak_chunk_bytes"],
        "apps.variation.self_ms": per_op_ms("apps.variation"),
        "apps.wire_sizing.self_ms": per_op_ms("apps.wire_sizing"),
        "apps.clock_tuning.self_ms": per_op_ms("apps.clock_tuning"),
        "root.self_ms": root_self * 1e3 / ops,
        "root.unattributed_pct": _ratio(root_self * 100.0, root_wall),
        "trace.overhead_pct": overhead_pct,
    }


def layer_breakdown(spans: Sequence[Span]) -> Dict[str, float]:
    """Self seconds per layer (root spans under ``"root"``)."""
    own = self_times(spans)
    root_ids = {s[0] for s in roots(spans)}
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span[2] in _BOOKKEEPING:
            continue
        key = "root" if span[0] in root_ids else layer_of(span[2])
        totals[key] += own[span[0]]
    return dict(totals)

