"""End-to-end server tests over a real socket.

Every test drives the full HTTP path: parse, admit, coalesce, dispatch,
serialize. The acceptance bar of the service is pinned here — server
responses bitwise-identical to direct :class:`ExecutionContext` calls,
saturation answered with 429 + ``Retry-After`` (never a crashed pool),
and a drain that refuses new work while finishing old work.
"""

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.circuit import fig5_tree
from repro.engine.compiled import compile_tree
from repro.runtime import ExecutionContext
from repro.service import BackgroundServer
from repro.service.server import MAX_BODY

from .conftest import http_get, http_post, ndjson_lines

TREE = fig5_tree()


@pytest.fixture
def reference_context():
    with ExecutionContext() as ctx:
        yield ctx


def wait_pending(port: int, count: int, timeout: float = 30.0) -> None:
    """Poll ``/stats`` until ``count`` point queries wait to merge."""
    deadline = time.monotonic() + timeout
    while True:
        _, _, body = http_get(port, "/stats")
        if json.loads(body)["service"]["coalescing"]["pending"] == count:
            return
        assert time.monotonic() < deadline, "queries never queued"
        time.sleep(0.005)


def raw_exchange(port: int, data: bytes) -> bytes:
    """Send raw bytes, read until the server closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        received = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(received)
            received.append(chunk)


def base_rlc(scale=1.0):
    compiled = compile_tree(TREE)
    return np.stack(
        (
            compiled.resistance * scale,
            compiled.inductance * scale,
            compiled.capacitance * scale,
        )
    )


class TestEndpoints:
    def test_healthz(self):
        with BackgroundServer() as bg:
            status, _, body = http_get(bg.port, "/healthz")
            assert status == 200
            assert json.loads(body) == {"status": "ok"}

    def test_unknown_endpoint_is_404(self):
        with BackgroundServer() as bg:
            status, _, _ = http_get(bg.port, "/nope")
            assert status == 404

    def test_get_on_analyze_is_405(self):
        with BackgroundServer() as bg:
            status, _, _ = http_get(bg.port, "/analyze")
            assert status == 405

    def test_bad_json_is_400(self):
        with BackgroundServer() as bg:
            status, _, body = http_post(bg.port, "/analyze", b"{nope")
            assert status == 400
            assert "JSON" in body["error"]

    def test_unknown_node_is_400_not_500(self, netlist):
        with BackgroundServer() as bg:
            status, _, body = http_post(
                bg.port, "/analyze", {"netlist": netlist, "nodes": ["zz"]}
            )
            assert status == 400
            assert "TopologyError" in body["error"]
            # The pool survived: the next request is fine.
            status, _, _ = http_post(
                bg.port, "/analyze", {"netlist": netlist}
            )
            assert status == 200

    def test_analyze_is_bitwise_identical_to_direct_context(
        self, netlist, reference_context
    ):
        with BackgroundServer() as bg:
            status, _, body = http_post(
                bg.port, "/analyze", {"netlist": netlist}
            )
        assert status == 200
        compiled = compile_tree(TREE)
        reference = reference_context.batch(
            compiled, base_rlc()[None], settle_band=0.1
        )
        assert set(body["nodes"]) == set(TREE.nodes)
        for node, row in body["nodes"].items():
            for metric, value in row.items():
                direct = float(reference.column(metric, node)[0])
                assert value == direct, (
                    f"{metric}@{node}: served {value!r} != direct {direct!r}"
                )

    def test_batch_is_bitwise_identical_to_direct_context(
        self, netlist, reference_context
    ):
        rlc = np.stack([base_rlc(s) for s in (0.5, 1.0, 2.0)])
        with BackgroundServer() as bg:
            status, _, body = http_post(
                bg.port,
                "/analyze_batch",
                {
                    "netlist": netlist,
                    "rlc": rlc.tolist(),
                    "metrics": ["delay_50", "overshoot"],
                },
            )
        assert status == 200
        assert body["scenarios"] == 3
        compiled = compile_tree(TREE)
        reference = reference_context.batch(
            compiled, rlc, settle_band=0.1,
            metrics=["delay_50", "overshoot"],
        )
        assert tuple(body["names"]) == reference.names
        for metric in ("delay_50", "overshoot"):
            served = np.asarray(body["metrics"][metric])
            direct = getattr(reference.metrics, metric)
            assert served.shape == direct.shape
            assert np.array_equal(served, direct), f"{metric} differs"

    def test_sweep_streams_chunks_bitwise_identical(
        self, netlist, reference_context
    ):
        values = np.linspace(5.0, 50.0, 10)
        with BackgroundServer() as bg:
            status, headers, data = http_post(
                bg.port,
                "/sweep",
                {
                    "netlist": netlist,
                    "section": "n1",
                    "element": "resistance",
                    "values": values.tolist(),
                    "nodes": ["n7"],
                    "metrics": ["delay_50"],
                    "chunk": 4,
                },
                raw=True,
            )
        assert status == 200
        assert headers.get("Transfer-Encoding") == "chunked"
        lines = ndjson_lines(data)
        assert lines[-1] == {"done": True, "chunks": 3, "scenarios": 10}
        chunks = lines[:-1]
        assert [c["offset"] for c in chunks] == [0, 4, 8]
        served = np.concatenate(
            [np.asarray(c["metrics"]["delay_50"]["n7"]) for c in chunks]
        )
        # Direct reference: the same broadcast the server builds.
        compiled = compile_tree(TREE)
        rlc = np.broadcast_to(
            base_rlc(), (values.size, 3, compiled.size)
        ).copy()
        rlc[:, 0, compiled.topology.node_index("n1")] = values
        reference = reference_context.batch(
            compiled, rlc, settle_band=0.1, metrics=["delay_50"]
        )
        assert np.array_equal(served, reference.column("delay_50", "n7"))

    def test_stats_exposes_service_group(self, netlist):
        with BackgroundServer() as bg:
            http_post(bg.port, "/analyze", {"netlist": netlist})
            status, _, stats = http_post(bg.port, "/analyze", {
                "netlist": netlist,
            })
            status, _, body = http_get(bg.port, "/stats")
            stats = json.loads(body)
        assert status == 200
        service = stats["service"]
        assert service["analyze"] == 2
        assert service["max_inflight"] == 8
        assert service["coalescing"]["requests"] == 2
        # The runtime's own stats ride along in the same snapshot.
        assert "dispatch" in stats
        assert "breakers" in stats


class TestAdmissionControl:
    def test_zero_inflight_rejects_with_retry_after(self, netlist):
        with BackgroundServer(max_inflight=0, retry_after=3.0) as bg:
            status, headers, body = http_post(
                bg.port, "/analyze", {"netlist": netlist}
            )
            assert status == 429
            assert int(headers["Retry-After"]) == 3
            assert "max_inflight" in body["error"]
            # Control endpoints bypass admission: still observable.
            status, _, _ = http_get(bg.port, "/stats")
            assert status == 200

    def test_saturated_server_rejects_then_recovers(self, netlist):
        """A held slot deterministically 429s the next request."""
        with BackgroundServer(max_inflight=1) as bg:
            # A streaming sweep holds the only slot for its whole body;
            # its response *headers* arrive first, signalling the hold.
            conn = http.client.HTTPConnection(
                "127.0.0.1", bg.port, timeout=30
            )
            conn.request(
                "POST",
                "/sweep",
                body=json.dumps(
                    {
                        "netlist": netlist,
                        "section": "n1",
                        "element": "resistance",
                        "values": {
                            "start": 5.0, "stop": 50.0, "points": 512,
                        },
                        "nodes": ["n7"],
                        "metrics": ["delay_50"],
                        "chunk": 16,
                    }
                ),
            )
            sweep_response = conn.getresponse()  # returns at headers
            assert sweep_response.status == 200

            status, headers, _ = http_post(
                bg.port, "/analyze", {"netlist": netlist}
            )
            assert status == 429
            assert "Retry-After" in headers

            # Drain the stream; the slot frees and service resumes.
            lines = ndjson_lines(sweep_response.read())
            conn.close()
            assert lines[-1]["done"] is True
            status, _, _ = http_post(
                bg.port, "/analyze", {"netlist": netlist}
            )
            assert status == 200
            stats = bg.server.service_stats()
            assert stats["rejected_429"] == 1

    def test_burst_never_crashes_the_pool(self, netlist):
        """Overload produces only 200s and 429s, then full recovery."""
        with BackgroundServer(max_inflight=2) as bg:
            statuses = []
            lock = threading.Lock()

            def fire():
                status, _, _ = http_post(
                    bg.port, "/analyze", {"netlist": netlist}
                )
                with lock:
                    statuses.append(status)

            threads = [threading.Thread(target=fire) for _ in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert set(statuses) <= {200, 429}
            assert statuses.count(200) >= 1
            status, _, _ = http_post(
                bg.port, "/analyze", {"netlist": netlist}
            )
            assert status == 200


class TestCoalescingOverHttp:
    def test_concurrent_identical_queries_merge_and_match_direct(
        self, netlist, reference_context, held
    ):
        clients = 6
        with BackgroundServer(held.context, max_inflight=32) as bg:
            results = [None] * clients

            def fire(i):
                results[i] = http_post(
                    bg.port,
                    "/analyze",
                    {"netlist": netlist, "metrics": ["delay_50", "zeta"]},
                )

            threads = [
                threading.Thread(target=fire, args=(i,))
                for i in range(clients)
            ]
            # The first query's flush holds the executor; the rest
            # queue behind it and merge once it is released.
            threads[0].start()
            assert held.entered.wait(timeout=30)
            for t in threads[1:]:
                t.start()
            wait_pending(bg.port, clients - 1)
            held.release()
            for t in threads:
                t.join()
            stats = bg.server.service_stats()

        assert all(status == 200 for status, _, _ in results)
        group_sizes = [
            body["service"]["group_size"] for _, _, body in results
        ]
        # At least one merge actually happened: the first query ran
        # alone, the other five shared one batch behind it.
        assert max(group_sizes) >= 2
        assert group_sizes == [1] + [clients - 1] * (clients - 1)
        assert stats["coalescing"]["coalesced_requests"] >= 1
        assert stats["coalescing"]["hit_rate"] > 0.0

        # Coalesced or not, every response is bitwise-identical to a
        # direct context evaluation.
        compiled = compile_tree(TREE)
        reference = reference_context.batch(
            compiled, base_rlc()[None], settle_band=0.1,
            metrics=["delay_50", "zeta"],
        )
        for _, _, body in results:
            for node, row in body["nodes"].items():
                for metric, value in row.items():
                    assert value == float(
                        reference.column(metric, node)[0]
                    )

    def test_one_failing_member_does_not_poison_the_group(
        self, netlist, held
    ):
        clients = 4
        with BackgroundServer(held.context, max_inflight=32) as bg:
            results = [None] * clients
            blocker = threading.Thread(
                target=http_post,
                args=(bg.port, "/analyze", {"netlist": netlist}),
            )
            blocker.start()
            assert held.entered.wait(timeout=30)

            def fire(i):
                nodes = ["no_such_node"] if i == 0 else ["n7"]
                results[i] = http_post(
                    bg.port,
                    "/analyze",
                    {
                        "netlist": netlist,
                        "nodes": nodes,
                        "metrics": ["delay_50"],
                    },
                )

            threads = [
                threading.Thread(target=fire, args=(i,))
                for i in range(clients)
            ]
            for t in threads:
                t.start()
            wait_pending(bg.port, clients)
            held.release()
            for t in threads + [blocker]:
                t.join()

        statuses = [status for status, _, _ in results]
        assert statuses[0] == 400
        assert statuses[1:] == [200, 200, 200]
        for _, _, body in results[1:]:
            assert "delay_50" in body["nodes"]["n7"]
            # The failing member shared the survivors' group.
            assert body["service"]["group_size"] == clients


class TestUnreadableRequests:
    """A request the server cannot read gets a status, never silence."""

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (
                b"POST /analyze HTTP/1.1\r\n"
                b"Content-Length: abc\r\n\r\n",
                400,
            ),
            (
                b"POST /analyze HTTP/1.1\r\n"
                b"Content-Length: -5\r\n\r\n",
                400,
            ),
            (
                b"POST /analyze HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n" % (MAX_BODY + 1),
                413,
            ),
        ],
        ids=["request-line", "non-numeric-length", "negative-length",
             "body-too-large"],
    )
    def test_answered_and_closed(self, request_bytes, status, caplog):
        with BackgroundServer() as bg:
            reply = raw_exchange(bg.port, request_bytes)
            head, _, body = reply.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            assert lines[0].startswith(f"HTTP/1.1 {status} ")
            assert "Connection: close" in lines[1:]
            assert "error" in json.loads(body)
            assert bg.server.service_stats()["errors_400"] == 1
            # The server is unharmed.
            assert http_get(bg.port, "/healthz")[0] == 200
        assert not [
            r for r in caplog.records if "client_connected_cb" in r.getMessage()
        ]


class TestSessionAffinity:
    def test_repeat_query_hits_the_session_cache(self, netlist):
        payload = {
            "netlist": netlist,
            "metrics": ["delay_50"],
            "session": "sizing-loop-1",
        }
        with BackgroundServer() as bg:
            status1, _, first = http_post(bg.port, "/analyze", payload)
            status2, _, second = http_post(bg.port, "/analyze", payload)
            stats = bg.server.service_stats()
        assert status1 == status2 == 200
        assert first["service"]["affinity_hit"] is False
        assert second["service"]["affinity_hit"] is True
        assert second["nodes"] == first["nodes"]  # bitwise: same floats
        assert stats["affinity_hits"] == 1

    def test_no_session_means_no_caching(self, netlist):
        payload = {"netlist": netlist, "metrics": ["delay_50"]}
        with BackgroundServer() as bg:
            http_post(bg.port, "/analyze", payload)
            _, _, second = http_post(bg.port, "/analyze", payload)
            stats = bg.server.service_stats()
        assert second["service"]["affinity_hit"] is False
        assert stats["affinity_hits"] == 0

    def test_affinity_cache_is_bounded(self, netlist):
        with BackgroundServer(affinity_capacity=2) as bg:
            for i in range(4):
                http_post(
                    bg.port,
                    "/analyze",
                    {
                        "netlist": netlist,
                        "metrics": ["delay_50"],
                        "session": f"s{i}",
                    },
                )
            assert len(bg.server._affinity) == 2


class TestDrain:
    def test_draining_server_rejects_with_503(self, netlist):
        with BackgroundServer() as bg:
            bg.server._draining = True
            status, _, body = http_post(
                bg.port, "/analyze", {"netlist": netlist}
            )
            assert status == 503
            assert "draining" in body["error"]
            status, _, health = http_get(bg.port, "/healthz")
            assert json.loads(health) == {"status": "draining"}
            bg.server._draining = False
            status, _, _ = http_post(
                bg.port, "/analyze", {"netlist": netlist}
            )
            assert status == 200

    def test_owned_context_is_torn_down_on_stop(self, netlist):
        bg = BackgroundServer()
        with bg:
            http_post(bg.port, "/analyze", {"netlist": netlist})
            context = bg.server.context
            assert context.closed is False
        # After the with-block the server drained through the
        # context-manager path (pool shutdown).
        assert context.closed is True

    def test_max_requests_self_stop(self, netlist):
        bg = BackgroundServer(max_requests=2)
        with bg:
            http_post(bg.port, "/analyze", {"netlist": netlist})
            http_post(bg.port, "/analyze", {"netlist": netlist})
            bg.join(timeout=30)
        assert not bg._thread.is_alive()
