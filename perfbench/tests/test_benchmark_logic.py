"""Tests of the benchmark's own logic (run: python3 -m pytest perfbench/tests)."""

import http.server
import json
import threading
import time
from pathlib import Path

import pytest

from perfbench import compare, inputs, layers, loadgen, summary
from perfbench.tracing import Tracer, install, self_times, union_length

ROOT = Path(__file__).resolve().parents[2]


def fingerprint(*parts) -> str:
    """A digest of generated inputs."""
    import hashlib

    import numpy as np

    digest = hashlib.sha1()
    for part in parts:
        digest.update(part.tobytes() if isinstance(part, np.ndarray)
                      else repr(part).encode())
    return digest.hexdigest()


# -- self time ------------------------------------------------------------------


def test_self_time_counts_overlapping_children_once():
    spans = [
        (1, 0, "root:op", 0.0, 10.0, 1),
        (2, 1, "a:x", 1.0, 4.0, 1),
        (3, 1, "b:y", 3.0, 6.0, 1),      # overlaps the first child
        (4, 1, "c:z", 8.0, 12.0, 1),     # runs past the parent's end
        (5, 2, "d:w", 2.0, 3.0, 1),      # grandchild: not the root's child
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(4.0)


def test_union_length_of_nested_and_disjoint_intervals():
    assert union_length([(0, 5), (1, 2), (6, 7), (6.5, 8)]) == pytest.approx(7.0)
    assert union_length([]) == 0.0


def test_concurrent_children_never_drive_self_time_negative():
    spans = [(1, 0, "r:q", 0.0, 1.0, 1)] + [
        (i, 1, "c:w", 0.0, 1.0, 1) for i in range(2, 6)
    ]
    assert self_times(spans)[1] == pytest.approx(0.0)


# -- percentile rule ------------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (99, None), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert summary.tail_percentile(count) == expected


def test_tail_reports_value_and_sample_count():
    values = [float(i) for i in range(1, 1001)]
    tail = summary.tail(values)
    assert tail["q"] == 99.0 and tail["samples"] == 1000
    assert tail["value"] == pytest.approx(summary.percentile(values, 99.0))
    assert summary.tail(values[:50]) is None


def test_quartiles_match_statistics_quantiles():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    assert summary.quartiles(values) == tuple(statistics.quantiles(values, n=4))


# -- open loop ------------------------------------------------------------------


class _StallingHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    stall = 0.3
    served = 0

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        type(self).served += 1
        if type(self).served == 1:
            time.sleep(self.stall)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_open_loop_times_requests_from_their_due_time():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        request = inputs.Request("fig5", "/analyze", b"{}")
        samples = loadgen.open_loop(server.server_address[1], [request],
                                    offsets=[0.0, 0.02, 0.04], threads=1)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert [s.status for s in samples] == [200, 200, 200]
    stalled, queued = samples[0], samples[2]
    assert stalled.latency >= _StallingHandler.stall
    # The third request was due 40 ms in but could only be sent after
    # the stall: its latency counts the wait, its service time does not.
    assert queued.late >= _StallingHandler.stall - 0.04 - 0.01
    assert queued.latency >= queued.late
    assert queued.done - queued.sent < _StallingHandler.stall


# -- names ----------------------------------------------------------------------


def test_metric_names_and_units_follow_the_charset():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = spec["end_to_end"] + spec["per_layer"] + spec["workloads"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(summary.valid_name(n) for n in names)
    assert all(summary.valid_unit(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER


@pytest.mark.parametrize("name", ["_x", ".x", "a b", "a/b", "x" * 65, ""])
def test_invalid_metric_names_are_rejected(name):
    assert not summary.valid_name(name)


def test_units_reject_spaces_and_long_strings():
    assert summary.valid_unit("ms") and summary.valid_unit("1/s")
    assert summary.valid_unit("%")
    assert not summary.valid_unit("m s") and not summary.valid_unit("u" * 17)


# -- seeded inputs --------------------------------------------------------------


def test_same_seed_gives_identical_served_requests():
    first = inputs.serve_requests(7, 60, stream=10)
    again = inputs.serve_requests(7, 60, stream=10)
    other = inputs.serve_requests(8, 60, stream=10)
    digest = lambda rs: fingerprint(*[(r.kind, r.path, r.body) for r in rs])
    assert digest(first) == digest(again)
    assert digest(first) != digest(other)
    assert inputs.arrivals(7, 60.0, 2.0) == inputs.arrivals(7, 60.0, 2.0)


def test_same_seed_gives_identical_batch_inputs():
    tree, compiled, rlc, trees = inputs.batch_inputs(3)
    again = inputs.batch_inputs(3)
    assert fingerprint(rlc, compiled.names) == \
        fingerprint(again[2], again[1].names)
    from repro.circuit import dumps

    assert [dumps(t) for t in trees[:4]] == [dumps(t) for t in again[3][:4]]
    # Sizes are fixed per workload; only the order follows the seed.
    other = inputs.batch_inputs(4)[3]
    assert sorted(t.size for t in trees) == sorted(t.size for t in other)


def test_same_seed_gives_identical_optimizer_inputs():
    from itertools import islice

    from repro.circuit import dumps

    first = list(islice(inputs.sizing_problems(5), 20))
    assert first == list(islice(inputs.sizing_problems(5), 20))
    # Every ladder size once in each run of SIZING_LADDER problems.
    assert len({p.num_sections for p in first[:inputs.SIZING_LADDER]}) == inputs.SIZING_LADDER
    assert sorted(p.num_sections for p in first[:16]) == sorted(
        p.num_sections for p in islice(inputs.sizing_problems(6), 16))
    trees = [dumps(t) for t in islice(inputs.clock_trees(5), 3)]
    assert trees == [dumps(t) for t in islice(inputs.clock_trees(5), 3)]
    assert inputs.sweep_seeds(5, 4) == inputs.sweep_seeds(5, 4)


# -- wrappers -------------------------------------------------------------------


def test_install_wraps_every_binding_and_restores_them():
    import repro.engine as engine
    import repro.engine.compiled as compiled
    from repro.circuit import fig5_tree

    original = compiled.compile_tree
    assert engine.compile_tree is original
    tracer = Tracer()
    restore = install([(compiled, "compile_tree",
                        lambda fn: tracer.wrap(fn, "engine.compiled:compile_tree"))])
    try:
        with tracer.span("perfbench:round", root=True):
            engine.compile_tree(fig5_tree())
            compiled.compile_tree(fig5_tree())
    finally:
        restore()
    assert compiled.compile_tree is original and engine.compile_tree is original
    names = [s[2] for s in tracer.spans]
    assert names.count("engine.compiled:compile_tree") == 2
    root = next(s for s in tracer.spans if s[2] == "perfbench:round")
    assert all(s[1] == root[0] and s[5] == root[5]
               for s in tracer.spans if s is not root)


def test_iterator_items_get_their_own_trace_id():
    tracer = Tracer()
    chunks = tracer.wrap(lambda: iter([1, 2, 3]), "sweep.execute:iter",
                         iterate=True, new_trace_items=True)
    with tracer.span("perfbench:round", root=True) as root:
        assert list(chunks()) == [1, 2, 3]
    items = [s for s in tracer.spans if s[2] == "sweep.execute:iter" and s[1] == root]
    assert len({s[5] for s in items}) == len(items)


# -- compare verdicts -----------------------------------------------------------


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    slower = [130.0, 131.0, 129.0, 130.5, 129.5]
    faster = [80.0, 81.0, 79.0, 80.5, 79.5]
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
    pairs = lambda b, h: list(zip(b, h))
    assert compare.verdict(base, slower, "lower", 0.1, pairs(base, slower)) == "worse"
    assert compare.verdict(base, faster, "lower", 0.1, pairs(base, faster)) == "better"
    assert compare.verdict(base, base, "lower", 0.1, pairs(base, base)) == "same"
    assert compare.verdict(base, noisy, "lower", 0.1, pairs(base, noisy)) == "unresolved"
    assert compare.verdict(base, faster, "higher", 0.1, pairs(base, faster)) == "worse"
    # Without runs on common seeds, "better" needs every head run to win.
    assert compare.verdict(base, faster, "lower", 0.1, []) == "better"
    assert compare.verdict(base, faster[:4] + [100.2], "lower", 0.3, []) == "same"


#: Every named figure a workload reports, with the direction compare
#: must judge it by (None: a count, not compared).
FIGURE_DIRECTIONS = {
    "serve_p50_ms": "lower",
    "serve_p95_ms": "lower",
    "serve_closed_p50_ms": "lower",
    "serve_closed_rps": "higher",
    "batch_cells_per_s": "higher",
    "batch_serial_cells_per_s": "higher",
    "many_nodes_per_s": "higher",
    "sweep_scenarios_per_s": "higher",
    "sizing_p50_ms": "lower",
    "tune_p50_s": "lower",
    "open_samples": None,
    "rounds": None,
}


def test_compare_judges_each_figure_in_its_direction():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = compare._bounds(spec)
    for name, better in FIGURE_DIRECTIONS.items():
        meta = compare._figure_meta(name, metrics)
        assert (meta and meta["better"]) == better, name


def _write_reports(directory: Path, seeds, scale: float) -> None:
    directory.mkdir()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for index, seed in enumerate(seeds):
        jitter = 1.0 + 0.001 * index
        metrics = {m["name"]: {"value": jitter, "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        report = {
            "env": {"workload": "batch", "trace": 0, "seed": seed,
                    "git_revision": None, "source_digest": "0" * 40,
                    "steal_pct": 2.0},
            "metrics": metrics,
            "figures": {"batch_cells_per_s": 1e6 * scale * jitter,
                        "sizing_p50_ms": 10.0 / scale * jitter},
        }
        (directory / f"batch-{index}.json").write_text(json.dumps(report))


def test_compare_counts_a_faster_head_as_better(tmp_path):
    import io

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Several runs per seed: every one of them must count.
    seeds = [1, 1, 1, 2, 2, 2, 3, 3, 3, 4]
    _write_reports(tmp_path / "base", seeds, 1.0)
    _write_reports(tmp_path / "head", seeds, 2.0)
    out = io.StringIO()
    assert compare.compare(tmp_path / "base", tmp_path / "head", spec, out) == 0
    rows = {line.split()[1]: line.split()[-1] for line in out.getvalue().splitlines()
            if line.startswith("batch ")}
    assert rows["batch_cells_per_s"] == "better"
    assert rows["sizing_p50_ms"] == "better"
    assert rows["p50_ms"] == "same"
    assert "batch        host steal_pct" in out.getvalue()
    out = io.StringIO()
    assert compare.compare(tmp_path / "head", tmp_path / "base", spec, out) == 1
    assert "worse" in out.getvalue()


def test_compare_keeps_every_run_of_a_seed():
    reports = [{"env": {"seed": seed}, "figures": {"x_ms": value}}
               for seed, value in ((1, 1.0), (1, 2.0), (2, 3.0), (1, 4.0))]
    series = compare._series(reports, "x_ms", "figures")
    assert sorted(series.values()) == [1.0, 2.0, 3.0, 4.0]
    assert series[(1, 2)] == 4.0
