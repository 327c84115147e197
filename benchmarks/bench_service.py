"""Service traffic-path benchmark — latency, throughput, coalescing.

A stdlib load generator drives the real HTTP socket path of
``repro.service`` at several offered-load levels (persistent keep-alive
connections, one thread per client) and records p50/p99 latency versus
achieved requests/sec plus the measured coalescing hit-rate into
``BENCH_service.json`` at the repository root.

The ``perf``-marked quick test is the CI smoke gate: boot the server,
run a short mixed workload (point + batch + a deterministic 429 under
saturation), and pin the acceptance bar — responses bitwise-identical
to direct :class:`ExecutionContext` calls, saturation answered with
429 + ``Retry-After`` and never a crashed pool. Run with::

    pytest benchmarks/bench_service.py -m perf -s        # quick gate
    pytest benchmarks/bench_service.py -m "not perf" -s  # full report
"""

import http.client
import json
import threading
import time

import numpy as np
import pytest

import run_benchmarks
from repro.circuit import dumps, fig5_tree
from repro.engine.compiled import compile_tree
from repro.runtime import ExecutionContext
from repro.service import BackgroundServer

RESULT_SERVICE_PATH = run_benchmarks.REPO_ROOT / "BENCH_service.json"

NETLIST = dumps(fig5_tree())
ANALYZE_BODY = json.dumps(
    {"netlist": NETLIST, "metrics": ["delay_50", "rise_time", "overshoot"]}
).encode()


def _post(conn: http.client.HTTPConnection, path: str, body: bytes):
    conn.request(
        "POST", path, body=body,
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    data = response.read()
    return response.status, dict(response.getheaders()), data


def run_load(port: int, clients: int, requests_per_client: int) -> dict:
    """Offered load: ``clients`` concurrent keep-alive connections, each
    firing ``requests_per_client`` identical point queries back-to-back.
    Returns achieved rps and per-request latency percentiles."""
    latencies = [[] for _ in range(clients)]
    statuses = [[] for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            barrier.wait()
            for _ in range(requests_per_client):
                started = time.perf_counter()
                status, _, _ = _post(conn, "/analyze", ANALYZE_BODY)
                latencies[index].append(time.perf_counter() - started)
                statuses[index].append(status)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    flat = np.asarray([lat for per in latencies for lat in per])
    codes = [status for per in statuses for status in per]
    return {
        "clients": clients,
        "requests": len(codes),
        "elapsed_s": elapsed,
        "rps": len(codes) / elapsed if elapsed > 0 else 0.0,
        "p50_ms": float(np.percentile(flat, 50) * 1e3),
        "p99_ms": float(np.percentile(flat, 99) * 1e3),
        "ok": codes.count(200),
        "rejected_429": codes.count(429),
        "other": len(codes) - codes.count(200) - codes.count(429),
    }


def direct_reference(metrics=("delay_50", "rise_time", "overshoot")):
    """The bitwise ground truth: one direct context evaluation."""
    compiled = compile_tree(fig5_tree())
    rlc = np.stack(
        (compiled.resistance, compiled.inductance, compiled.capacitance)
    )[None]
    with ExecutionContext() as context:
        batch = context.batch(
            compiled, rlc, settle_band=0.1, metrics=list(metrics)
        )
        return {
            node: {
                metric: float(batch.column(metric, node)[0])
                for metric in metrics
            }
            for node in batch.names
        }


def assert_bitwise_identical(body: dict) -> None:
    reference = direct_reference()
    for node, row in body["nodes"].items():
        for metric, value in row.items():
            assert value == reference[node][metric], (
                f"{metric}@{node}: served {value!r} != "
                f"direct {reference[node][metric]!r}"
            )


@pytest.mark.perf
def test_service_smoke_quick():
    """CI gate: mixed workload, bitwise fidelity, one deterministic 429."""
    with BackgroundServer(max_inflight=8) as bg:
        conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=60)
        try:
            # Point query: bitwise identical to a direct context call.
            status, _, data = _post(conn, "/analyze", ANALYZE_BODY)
            assert status == 200
            assert_bitwise_identical(json.loads(data))

            # Batch query on the same connection.
            compiled = compile_tree(fig5_tree())
            rlc = np.stack(
                [
                    np.stack(
                        (
                            compiled.resistance * s,
                            compiled.inductance,
                            compiled.capacitance,
                        )
                    )
                    for s in (1.0, 2.0)
                ]
            )
            status, _, data = _post(
                conn,
                "/analyze_batch",
                json.dumps(
                    {
                        "netlist": NETLIST,
                        "rlc": rlc.tolist(),
                        "metrics": ["delay_50"],
                    }
                ).encode(),
            )
            assert status == 200
            served = np.asarray(json.loads(data)["metrics"]["delay_50"])
            with ExecutionContext() as context:
                expected = context.batch(
                    compiled, rlc, settle_band=0.1, metrics=["delay_50"]
                ).metrics.delay_50
            assert np.array_equal(served, expected)

            # One deterministic 429 under saturation: zero the admission
            # budget, observe the rejection, restore, observe recovery.
            bg.server.max_inflight = 0
            status, headers, _ = _post(conn, "/analyze", ANALYZE_BODY)
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            bg.server.max_inflight = 8
            status, _, _ = _post(conn, "/analyze", ANALYZE_BODY)
            assert status == 200, "the pool must survive saturation"
        finally:
            conn.close()

        # A concurrent burst must actually coalesce.
        burst = run_load(bg.port, clients=4, requests_per_client=5)
        assert burst["ok"] + burst["rejected_429"] == burst["requests"]
        stats = bg.server.service_stats()
        assert stats["coalescing"]["hit_rate"] > 0.0
        assert stats["errors_500"] == 0


def test_service_report(report):
    """Full load sweep; writes BENCH_service.json at the repo root."""
    levels = []
    with BackgroundServer(max_inflight=16) as bg:
        # Fidelity first: the numbers under load are the same numbers.
        conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=60)
        status, _, data = _post(conn, "/analyze", ANALYZE_BODY)
        conn.close()
        assert status == 200
        assert_bitwise_identical(json.loads(data))

        for clients in (1, 2, 4, 8, 16):
            before = bg.server.service_stats()["coalescing"]
            level = run_load(bg.port, clients, requests_per_client=40)
            after = bg.server.service_stats()["coalescing"]
            level_requests = after["requests"] - before["requests"]
            level_coalesced = (
                after["coalesced_requests"] - before["coalesced_requests"]
            )
            level["coalescing_hit_rate"] = (
                level_coalesced / level_requests if level_requests else 0.0
            )
            assert level["other"] == 0, "only 200/429 under saturation"
            levels.append(level)

        # Saturation probe: a tiny admission budget under a big burst
        # must shed load with 429s, never crash the pool.
        bg.server.max_inflight = 2
        saturated = run_load(bg.port, clients=12, requests_per_client=10)
        bg.server.max_inflight = 16
        conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=60)
        try:
            recovery_status, _, _ = _post(conn, "/analyze", ANALYZE_BODY)
        finally:
            conn.close()
        stats = bg.server.service_stats()

    assert recovery_status == 200
    assert saturated["rejected_429"] > 0
    assert saturated["other"] == 0
    assert stats["errors_500"] == 0
    overall_hit_rate = stats["coalescing"]["hit_rate"]
    assert overall_hit_rate > 0.0, (
        "concurrent identical queries must coalesce"
    )

    report.table(
        ("clients", "rps", "p50_ms", "p99_ms", "ok", "429", "hit_rate"),
        [
            (
                level["clients"],
                level["rps"],
                level["p50_ms"],
                level["p99_ms"],
                level["ok"],
                level["rejected_429"],
                level["coalescing_hit_rate"],
            )
            for level in levels
        ],
    )
    report.line(
        f"saturation probe (max_inflight=2, 12 clients): "
        f"{saturated['ok']} served, {saturated['rejected_429']} shed "
        f"with 429; overall coalescing hit-rate "
        f"{overall_hit_rate:.2f}"
    )

    RESULT_SERVICE_PATH.write_text(
        json.dumps(
            {
                "bench": "service",
                "netlist_sections": fig5_tree().size,
                "max_inflight": 16,
                "requests_per_client": 40,
                "levels": levels,
                "saturation": saturated,
                "coalescing": stats["coalescing"],
                "bitwise_identical_to_direct_context": True,
            },
            indent=2,
        )
        + "\n"
    )
    report.line(f"wrote {RESULT_SERVICE_PATH}")
