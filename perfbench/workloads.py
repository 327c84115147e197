"""The three workloads.

Each workload class prepares its inputs from the seed, sets the program
up (``setup`` returns the set-up seconds), measures for a given number
of seconds, checks the outputs it kept against an independent path, and
reports the end-to-end figures. A traced window runs with the layer
wrappers installed and one root span per operation.

End-to-end metrics, the same five on every workload (see README.md for
the figure behind each on each workload): ``setup_s``,
``success_rate``, ``p50_ms``, ``rate_per_s`` and ``peak_mb``.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import inputs, layers, loadgen, summary
from .tracing import Tracer, install

_clock = time.perf_counter


@dataclass
class Window:
    """What one measured window produced."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    tracer: Optional[Tracer] = None
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    late: List[float] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def _equal_metrics(a, b) -> bool:
    """Bitwise equality of two ``MetricArrays`` (NaN equal to NaN)."""
    from dataclasses import fields

    for item in fields(a):
        x, y = getattr(a, item.name), getattr(b, item.name)
        if (x is None) != (y is None):
            return False
        if x is not None and not np.array_equal(x, y, equal_nan=True):
            return False
    return True


def _tracemalloc_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class Workload:
    name = ""
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 7

    def __init__(self, root: Path, seed: int, cores: int):
        self.root = root
        self.seed = seed
        self.cores = cores
        self.checked = 0
        self.mismatches = 0

    def prepare(self) -> None:
        """Generate the inputs (not part of the set-up time)."""

    def setup(self) -> float:
        raise NotImplementedError

    def prime(self) -> None:
        """Untimed work after set-up that fills caches before timing."""

    def teardown(self) -> None:
        """Release what the last :meth:`setup` built."""

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        raise NotImplementedError

    def stats(self) -> dict:
        raise NotImplementedError

    def check(self) -> None:
        """Compare the kept outputs with the reference path."""

    def peak_mb(self) -> float:
        raise NotImplementedError

    def figures(self, window: Window) -> Dict[str, float]:
        """``{p50_ms, rate_per_s}`` and the workload's own named figures."""
        raise NotImplementedError

    def _mismatch(self, equal: bool) -> None:
        self.checked += 1
        if not equal:
            self.mismatches += 1

    def traced(self, seconds: float) -> Window:
        """One window with the layer wrappers installed."""
        tracer = Tracer()
        restore = install(layers.patches(tracer))
        try:
            return self.measure(seconds, tracer)
        finally:
            restore()


def _round_span(tracer: Optional[Tracer]):
    import contextlib

    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span("perfbench:round", root=True)


# -- serve_mixed --------------------------------------------------------------

#: Open-loop arrival rate (requests/s), well below this mix's capacity:
#: the service's single executor thread is busy about 15% of the time,
#: so the median request waits mostly for the coalescing window.
SERVE_RATE = 30.0
#: Share of the run given to the open loop; the closed loop gets the rest.
OPEN_SHARE = 0.6
#: Closed-loop answers count toward the rate only within this latency.
LATENCY_LIMIT_S = 0.25
#: Closed-loop requests generated (the loop cycles through them).
CLOSED_REQUESTS = 1500
#: Closed-loop responses checked against the reference, at most.
CLOSED_CHECKED = 300


class ServerProcess:
    """``repro serve`` in a child process started by the launcher."""

    _PORT = re.compile(r"listening on http://[^:]+:(\d+)")

    def __init__(self, root: Path, spans: Optional[Path] = None):
        work = root / ".perfbench"
        work.mkdir(exist_ok=True)
        self.log_path = work / f"serve-{os.getpid()}-{time.monotonic_ns()}.log"
        self.spans = spans
        command = [sys.executable, str(root / "perfbench" / "serve_launcher.py")]
        if spans is not None:
            command += ["--spans", str(spans)]
        command += ["--", "serve", "--port", "0"]
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            command, cwd=root, stdout=subprocess.DEVNULL, stderr=self._log,
            start_new_session=True)
        self.port: Optional[int] = None

    def wait_ready(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while self.port is None:
            match = self._PORT.search(self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
                break
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server did not start:\n"
                                   + self.log_path.read_text(errors="replace"))
            time.sleep(0.01)
        while loadgen.get(self.port, "/healthz")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)

    def stats(self) -> dict:
        status, body = loadgen.get(self.port, "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kb / 1e3

    def stop(self) -> None:
        """Drain with SIGTERM, then make sure the whole group is gone."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        _reap_group(self.process.pid)
        self._log.close()
        self.log_path.unlink(missing_ok=True)


def _reap_group(pgid: int, timeout: float = 30.0) -> None:
    """Kill what is left of a process group and wait until it is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


class ServeMixed(Workload):
    name = "serve_mixed"
    setup_repeats = 3

    def __init__(self, root: Path, seed: int, cores: int):
        super().__init__(root, seed, cores)
        self.server: Optional[ServerProcess] = None
        self.kept: List[tuple] = []

    def prepare(self) -> None:
        self.warmup = [
            next(r for r in inputs.serve_requests(self.seed, 64, stream=9)
                 if r.kind == kind)
            for kind, _share in inputs.SERVE_MIX
        ]
        self.closed_requests = inputs.serve_requests(
            self.seed, CLOSED_REQUESTS, stream=11)
        self._open_cache: Dict[float, tuple] = {}

    def _open_inputs(self, duration: float):
        if duration not in self._open_cache:
            offsets = inputs.arrivals(self.seed, SERVE_RATE, duration)
            requests = inputs.serve_requests(self.seed, len(offsets), stream=10)
            self._open_cache[duration] = (offsets, requests)
        return self._open_cache[duration]

    def _boot(self, spans: Optional[Path] = None) -> float:
        started = _clock()
        self.server = ServerProcess(self.root, spans)
        self.server.wait_ready()
        client = loadgen.Client(self.server.port, 60)
        try:
            for request in self.warmup:
                status, _ = client.request("POST", request.path, request.body)
                if status != 200:
                    raise RuntimeError(f"warm-up {request.kind} answered {status}")
        finally:
            client.close()
        return _clock() - started

    def setup(self) -> float:
        return self._boot()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def stats(self) -> dict:
        return self.server.stats()

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        open_s = seconds * OPEN_SHARE
        offsets, open_requests = self._open_inputs(open_s)
        window = Window()
        window.before = self.stats()
        port = self.server.port
        opened = loadgen.open_loop(port, open_requests, offsets, self.cores)
        started = _clock()
        closed = loadgen.closed_loop(port, self.closed_requests,
                                     seconds - open_s, self.cores)
        closed_s = _clock() - started
        window.after = self.stats()
        for sample in opened:
            window.add("open_latency_s", sample.latency)
            window.late.append(sample.late)
        window.samples["closed_latency_s"] = [s.done - s.sent for s in closed]
        window.samples["closed_elapsed_s"] = [closed_s]
        window.samples["closed_ok"] = [float(sum(
            1 for s in closed
            if s.status == 200 and s.done - s.sent <= LATENCY_LIMIT_S))]
        window.attempted = len(opened) + len(closed)
        window.failed = sum(1 for s in opened + closed if s.status != 200)
        step = max(1, len(closed) // CLOSED_CHECKED)
        self.kept += [(open_requests[s.index % len(open_requests)], s)
                      for s in opened]
        self.kept += [(self.closed_requests[s.index % len(self.closed_requests)], s)
                      for s in closed[::step]]
        return window

    def traced(self, seconds: float) -> Window:
        spans = self.root / ".perfbench" / f"spans-{os.getpid()}.json"
        self.teardown()
        self._boot(spans)
        try:
            window = self.measure(seconds, None)
        finally:
            self.teardown()
        tracer = Tracer()
        tracer.spans, counts = Tracer.load(spans)
        tracer.counts.update(counts)
        spans.unlink()
        window.tracer = tracer
        return window

    def check(self) -> None:
        from repro.runtime import ExecutionContext

        references: Dict[bytes, object] = {}
        with ExecutionContext() as context:
            for request, sample in self.kept:
                if sample.status != 200:
                    continue
                if request.body not in references:
                    references[request.body] = _serve_reference(context, request)
                self._mismatch(json.loads(sample.body)[
                    "nodes" if request.path == "/analyze" else "metrics"]
                    == references[request.body])
        self.kept = []

    def peak_mb(self) -> float:
        return self.server.peak_rss_mb()

    def figures(self, window: Window) -> Dict[str, float]:
        latencies = window.samples["open_latency_s"]
        tail = summary.tail(latencies)
        closed_rps = window.samples["closed_ok"][0] / window.samples["closed_elapsed_s"][0]
        figures = {
            "p50_ms": summary.median(latencies) * 1e3,
            "rate_per_s": closed_rps,
            "serve_p50_ms": summary.median(latencies) * 1e3,
            "serve_closed_rps": closed_rps,
            "serve_closed_p50_ms": summary.median(window.samples["closed_latency_s"]) * 1e3,
            "open_samples": len(latencies),
        }
        if tail is not None:
            figures[f"serve_p{tail['q']:g}_ms"] = tail["value"] * 1e3
        return figures


def _serve_reference(context, request):
    """The direct ``ExecutionContext`` answer to one served request."""
    from repro.circuit import loads
    from repro.engine.compiled import compile_tree

    payload = json.loads(request.body)
    compiled = compile_tree(loads(payload["netlist"]))
    metrics = payload["metrics"]
    if request.path == "/analyze_batch":
        rlc = np.asarray(payload["rlc"], dtype=float)
        batch = context.batch(compiled, rlc, metrics=metrics)
        return {m: getattr(batch.metrics, m).tolist() for m in metrics}
    rlc = np.stack((compiled.resistance, compiled.inductance, compiled.capacitance))
    batch = context.batch(compiled, rlc[None], metrics=metrics)
    nodes = payload.get("nodes") or list(compiled.names)
    return {node: {m: float(batch.column(m, node)[0]) for m in metrics}
            for node in nodes}


# -- batch --------------------------------------------------------------------

#: Scenario rows of each checked block compared with the scalar analyzer.
SCALAR_ROWS = 2


class Batch(Workload):
    name = "batch"

    def __init__(self, root: Path, seed: int, cores: int):
        super().__init__(root, seed, cores)
        self.context = None
        self.last: dict = {}

    def prepare(self) -> None:
        self.tree, self.compiled, self.rlc, self.trees = inputs.batch_inputs(self.seed)
        self.cells = self.rlc.shape[0] * self.rlc.shape[2]
        self.nodes = sum(tree.size for tree in self.trees)

    def setup(self) -> float:
        from repro.engine import clear_topology_cache
        from repro.runtime import ExecutionContext, RuntimeConfig

        started = _clock()
        clear_topology_cache()
        self.context = ExecutionContext(RuntimeConfig(workers=self.cores))
        # The full block spawns the pool and grows the shared-memory
        # arenas to their working size.
        self.context.batch(self.compiled, self.rlc)
        self.context.analyze_many(self.trees[:2])
        return _clock() - started

    def teardown(self) -> None:
        if self.context is not None:
            self.context.close()
            self.context = None

    def stats(self) -> dict:
        return self.context.stats()

    def prime(self) -> None:
        """One untimed full-size round: arenas grow, caches fill."""
        self._round(Window())

    def _round(self, window: Window) -> None:
        self.last.clear()
        started = _clock()
        routed = self.context.batch(self.compiled, self.rlc)
        middle = _clock()
        forced = self.context.batch(self.compiled, self.rlc, backend="compiled")
        late = _clock()
        many = self.context.analyze_many(self.trees)
        done = _clock()
        window.add("routed_s", middle - started)
        window.add("forced_s", late - middle)
        window.add("many_s", done - late)
        window.attempted += 3
        self.last.update(routed=routed, forced=forced, many=many)

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        window = Window(tracer=tracer)
        window.before = self.stats()
        deadline = _clock() + seconds
        while _clock() < deadline:
            with _round_span(tracer):
                self._round(window)
        window.after = self.stats()
        return window

    def check(self) -> None:
        from repro.analysis import TreeAnalyzer
        from repro.engine.sharded import ShardError
        from repro.engine.table import TimingTable

        routed, forced, many = (self.last.pop(k) for k in ("routed", "forced", "many"))
        rows = np.random.default_rng([self.seed, 7]).choice(
            self.rlc.shape[0], size=SCALAR_ROWS, replace=False)
        names = self.compiled.names
        equal = _equal_metrics(routed.metrics, forced.metrics)
        for row in rows:
            analyzer = TreeAnalyzer(inputs.with_values(self.tree, self.rlc[row], names))
            equal = equal and all(
                analyzer.delay_50(node) == routed.delay_50[row, i]
                and analyzer.rise_time(node) == routed.rise_time[row, i]
                for i, node in enumerate(names)
            )
        self._mismatch(equal)
        reference = self.context.analyze_many(self.trees, backend="compiled")
        self._mismatch(all(
            isinstance(got, TimingTable) and not isinstance(got, ShardError)
            and _equal_metrics(got.metrics, want.metrics)
            for got, want in zip(many, reference)))

    def peak_mb(self) -> float:
        return max(
            _tracemalloc_peak_mb(lambda: self.context.batch(self.compiled, self.rlc)),
            _tracemalloc_peak_mb(lambda: self.context.analyze_many(self.trees)),
        )

    def figures(self, window: Window) -> Dict[str, float]:
        routed = summary.median(window.samples["routed_s"])
        forced = summary.median(window.samples["forced_s"])
        many = summary.median(window.samples["many_s"])
        return {
            "p50_ms": forced * 1e3,
            "rate_per_s": (self.cells + self.nodes) / (routed + many),
            "batch_cells_per_s": self.cells / routed,
            "batch_serial_cells_per_s": self.cells / forced,
            "many_nodes_per_s": self.nodes / many,
            "rounds": len(window.samples["routed_s"]),
        }


def _nominal(compiled) -> np.ndarray:
    return np.stack((compiled.resistance, compiled.inductance, compiled.capacitance))


# -- sweep_mc -----------------------------------------------------------------

#: Leading scenarios of every sweep compared with an eager evaluation.
PREFIX_ROWS = 256
SWEEP_NODE = "n7"
#: Samples of the warm-up sweep inside each set-up.
SETUP_SAMPLES = 100_000
#: Rounds whose sizing and tuning are re-run on the forced-compiled path.
CHECKED_ROUNDS = 2


class SweepMC(Workload):
    """The application design loops, on the process default context.

    Each round runs one 1M-sample ``sample_delays`` on fig5 (the sweep
    the end-to-end metrics time), then one fresh ``optimize_width``
    problem and one ``tune_clock_tree``, each timed into its own figure.
    The sizing and tuning calls are the only load on
    ``engine.incremental`` and ``analysis.sensitivity``.
    """

    name = "sweep_mc"

    def prepare(self) -> None:
        from repro.apps.variation import VariationModel
        from repro.circuit import fig5_tree

        self.tree = fig5_tree()
        self.model = VariationModel()
        self.seeds = iter(inputs.sweep_seeds(self.seed, 10_000))
        self.problems = inputs.sizing_problems(self.seed)
        self.trees = inputs.clock_trees(self.seed)
        self.kept: List[tuple] = []
        self.prefixes: List[tuple] = []

    def _context(self):
        from repro.runtime.context import default_context

        return default_context()

    def setup(self) -> float:
        from repro.apps.clock_skew import h_tree
        from repro.apps.clock_tuning import tune_clock_tree
        from repro.apps.variation import sample_delays
        from repro.apps.wire_sizing import WireSizingProblem, optimize_width
        from repro.engine import clear_topology_cache

        started = _clock()
        clear_topology_cache()
        self._context()
        sample_delays(self.tree, SWEEP_NODE, self.model, samples=SETUP_SAMPLES, seed=0)
        optimize_width(WireSizingProblem(num_sections=inputs.SIZING_SECTIONS[0]))
        tune_clock_tree(h_tree(levels=2))
        return _clock() - started

    def teardown(self) -> None:
        from repro.runtime.context import reset_default_context

        self._context().close()
        reset_default_context()

    def stats(self) -> dict:
        return self._context().stats()

    def prime(self) -> None:
        """Untimed: one problem of every ladder size and one tuning, so
        the topology cache holds every shape the measured calls use."""
        from repro.apps.clock_tuning import tune_clock_tree
        from repro.apps.wire_sizing import optimize_width

        warm = inputs.sizing_problems(self.seed + 1)
        for _ in range(inputs.SIZING_LADDER):
            optimize_width(next(warm))
        tune_clock_tree(next(inputs.clock_trees(self.seed + 1)))

    def _sweep(self, seed: int):
        from repro.apps.variation import sample_delays

        return sample_delays(self.tree, SWEEP_NODE, self.model,
                             samples=inputs.SWEEP_SAMPLES, seed=seed)

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        from repro.apps.clock_tuning import tune_clock_tree
        from repro.apps.wire_sizing import optimize_width

        window = Window(tracer=tracer)
        window.before = self.stats()
        deadline = _clock() + seconds
        while _clock() < deadline:
            seed = next(self.seeds)
            problem = next(self.problems)
            tree = next(self.trees)
            with _round_span(tracer):
                started = _clock()
                study = self._sweep(seed)
                sized = _clock()
                result = optimize_width(problem)
                tuning = _clock()
                tuned = tune_clock_tree(tree)
                done = _clock()
            window.add("sweep_s", sized - started)
            window.add("sizing_s", tuning - sized)
            window.add("tune_s", done - tuning)
            window.attempted += 3
            # Checked after the window, so no check runs under the wrappers.
            self.prefixes.append((seed, study.rlc.values[:PREFIX_ROWS].copy(),
                                  study.rc.values[:PREFIX_ROWS].copy()))
            if len(self.kept) < CHECKED_ROUNDS:
                self.kept.append((problem, result, tree, tuned))
        window.after = self.stats()
        return window

    def _check_prefix(self, seed: int, rlc: np.ndarray, rc: np.ndarray) -> None:
        """The first rows of one sweep against an eager ``analyze_batch``
        on the same factors, drawn in (sample, section, element) order."""
        from repro.engine.compiled import compile_tree
        from repro.engine.table import analyze_batch

        compiled = compile_tree(self.tree)
        sigma = np.asarray(self.model.log_sigmas())
        normals = np.random.default_rng(seed).standard_normal(
            (PREFIX_ROWS, compiled.size, 3))
        factors = np.exp(-0.5 * sigma * sigma + sigma * normals).transpose(0, 2, 1)
        eager = analyze_batch(compiled, factors * _nominal(compiled),
                              metrics=("delay_50", "t_rc"))
        self._mismatch(
            np.array_equal(eager.column("delay_50", SWEEP_NODE), rlc)
            and np.array_equal(math.log(2.0) * eager.column("t_rc", SWEEP_NODE), rc))

    def check(self) -> None:
        """Every sweep's prefix against the eager path; sizing widths and
        tuned widths against the forced-compiled path."""
        from repro.apps.clock_tuning import tune_clock_tree
        from repro.apps.wire_sizing import optimize_width
        from repro.runtime import RuntimeConfig

        for prefix in self.prefixes:
            self._check_prefix(*prefix)
        self.prefixes = []
        forced = RuntimeConfig(backend="compiled")
        for problem, result, tree, tuned in self.kept:
            self._mismatch(optimize_width(problem, config=forced).width == result.width)
            self._mismatch(tune_clock_tree(tree, config=forced).widths == tuned.widths)
        self.kept = []

    def peak_mb(self) -> float:
        return _tracemalloc_peak_mb(lambda: self._sweep(next(self.seeds)))

    def figures(self, window: Window) -> Dict[str, float]:
        sweep = summary.median(window.samples["sweep_s"])
        return {
            "p50_ms": sweep * 1e3,
            "rate_per_s": inputs.SWEEP_SAMPLES / sweep,
            "sweep_scenarios_per_s": inputs.SWEEP_SAMPLES / sweep,
            "sizing_p50_ms": summary.median(window.samples["sizing_s"]) * 1e3,
            "tune_p50_s": summary.median(window.samples["tune_s"]),
            "rounds": len(window.samples["sweep_s"]),
        }


WORKLOADS = {
    "serve_mixed": ServeMixed,
    "batch": Batch,
    "sweep_mc": SweepMC,
}
