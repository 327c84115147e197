"""Analysis-as-a-service: a long-lived HTTP server over one warm context.

:class:`AnalysisServer` owns a single persistent
:class:`~repro.runtime.ExecutionContext` — warm topology LRU, live
thread pool — and serves the runtime's
workloads over plain HTTP/1.1 (stdlib :mod:`asyncio`, zero
dependencies):

========  =================  ==========================================
method    path               what
========  =================  ==========================================
POST      ``/analyze``       point/table metrics; coalesced per
                             topology fingerprint
POST      ``/analyze_batch`` an ``(S, 3, n)`` scenario batch
POST      ``/sweep``         one-axis sweep, streamed back in chunks
GET       ``/stats``         ``context.stats()`` + the ``service`` group
GET       ``/healthz``       liveness/drain state
========  =================  ==========================================

The traffic path is the engineering:

* **request coalescing** — an ``/analyze`` call on an idle server is
  answered at once; calls on the same topology fingerprint that arrive
  while a point batch is in flight merge into the next single
  ``analyze_batch`` dispatch (:mod:`~repro.service.coalesce`);
* **admission control** — at most ``max_inflight`` requests hold
  engine work at once; the next one gets ``429`` with a
  ``Retry-After`` hint instead of a place in an unbounded queue;
* **cache affinity** — requests carrying a ``session`` id get a
  per-session response LRU, so a sizing loop replaying the same query
  never re-enters the engine;
* **streaming** — sweeps go out ``Transfer-Encoding: chunked``, one
  NDJSON line per scenario chunk, so a million-point sweep never
  materializes as one response buffer;
* **graceful drain** — shutdown stops admitting, finishes in-flight
  work, then shuts the thread pool down through the context-manager
  path the runtime already guarantees.

Engine work runs on a small thread executor so the event loop stays
free to accept, queue and merge while a batch computes — which is
exactly what makes coalescing effective under load.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from ..engine.compiled import compile_tree
from ..errors import ReproError
from ..runtime import ExecutionContext
from ..sweep import compile_sweep, const, iter_sweep, scenario_space, values_axis
from . import protocol
from .coalesce import PointCoalescer

__all__ = ["AnalysisServer", "BackgroundServer"]

#: Largest request body the server will read (bytes).
MAX_BODY = 64 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """An HTTP-level failure with a status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _head(
    status: int,
    length: Optional[int],
    extra: Tuple[Tuple[str, str], ...] = (),
    *,
    chunked: bool = False,
    keep_alive: bool = True,
) -> bytes:
    lines = [f"HTTP/1.1 {status} {_STATUS_TEXT[status]}"]
    lines.append("Content-Type: application/json")
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    elif length is not None:
        lines.append(f"Content-Length: {length}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    for name, value in extra:
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class AnalysisServer:
    """One warm :class:`ExecutionContext` behind an asyncio HTTP front.

    ``context=None`` builds (and owns) a default context; a caller that
    passes its own context keeps responsibility for closing it. All
    other parameters are the service knobs the CLI exposes:
    ``max_inflight`` bounds concurrently admitted analysis requests,
    ``max_group`` caps a coalesced group, ``retry_after``
    is the hint (seconds) on 429 responses, ``max_requests`` (when
    positive) drains the server after that many admitted requests have
    completed — the smoke-test/CI knob.
    """

    def __init__(
        self,
        context: Optional[ExecutionContext] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 8341,
        max_inflight: int = 8,
        max_group: int = 64,
        retry_after: float = 1.0,
        affinity_capacity: int = 256,
        executor_threads: int = 1,
        max_requests: int = 0,
    ):
        if max_inflight < 0:
            raise ReproError("max_inflight must be non-negative")
        self._owns_context = context is None
        self._context = context if context is not None else ExecutionContext()
        self._host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.max_inflight = int(max_inflight)
        self.retry_after = float(retry_after)
        self.max_requests = int(max_requests)
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, executor_threads),
            thread_name_prefix="repro-service",
        )
        self._coalescer = PointCoalescer(
            self._context, self._executor, max_group=max_group
        )
        self._affinity: "OrderedDict[Tuple[str, bytes], dict]" = OrderedDict()
        self._affinity_capacity = int(affinity_capacity)
        self._inflight = 0
        self._completed = 0
        self._draining = False
        self._counters: Dict[str, int] = {
            "requests": 0,
            "analyze": 0,
            "analyze_batch": 0,
            "sweep": 0,
            "stats": 0,
            "rejected_429": 0,
            "rejected_503": 0,
            "errors_400": 0,
            "errors_500": 0,
            "stream_chunks": 0,
            "affinity_hits": 0,
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._writers: set = set()
        self._context.add_stats_group("service", self.service_stats)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket; ``self.port`` becomes the real port."""
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_client, host=self._host, port=self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_stop(self) -> None:
        """Ask the server to drain and exit; safe from any thread."""
        if self._loop is None or self._stop_requested is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stop_requested.set)
        except RuntimeError:
            pass  # loop already closed: the server has stopped itself

    async def drain(self) -> None:
        """Stop admitting, finish in-flight work, release everything.

        New requests arriving during the drain get ``503`` with
        ``Connection: close``; in-flight requests (including running
        sweep streams) complete normally. The thread pool is shut down
        through the runtime's context-manager path when the server owns
        its context.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        await self._coalescer.drain()
        if self._idle is not None:
            await self._idle.wait()
        for writer in list(self._writers):
            writer.close()
        self._executor.shutdown(wait=True)
        if self._owns_context:
            # The context-manager teardown: pool shutdown,
            # exception-safe.
            self._context.__exit__(None, None, None)

    async def serve(self, on_ready=None) -> None:
        """Start, run until :meth:`request_stop` (or ``max_requests``),
        then drain. ``on_ready(server)`` fires once the port is bound."""
        await self.start()
        if on_ready is not None:
            on_ready(self)
        try:
            await self._stop_requested.wait()
        finally:
            await self.drain()

    @property
    def context(self) -> ExecutionContext:
        return self._context

    @property
    def draining(self) -> bool:
        return self._draining

    # -- instrumentation ---------------------------------------------------

    def service_stats(self) -> dict:
        stats = dict(self._counters)
        stats["inflight"] = self._inflight
        stats["max_inflight"] = self.max_inflight
        stats["draining"] = self._draining
        stats["coalescing"] = self._coalescer.stats()
        return stats

    # -- connection handling -----------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    # The request could not be read, so the stream
                    # position is unknown: answer once, then close.
                    self._counters["requests"] += 1
                    self._counters["errors_400"] += 1
                    await self._send(
                        writer, exc.status, {"error": str(exc)},
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                keep_alive = await self._respond(writer, *request)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # loop shutdown cancelled an idle keep-alive connection
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"", b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise _HttpError(400, "invalid Content-Length")
        if length > MAX_BODY:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, target.split("?", 1)[0], headers, body

    async def _send(
        self,
        writer,
        status: int,
        payload,
        extra: Tuple[Tuple[str, str], ...] = (),
        *,
        keep_alive: bool = True,
    ) -> bool:
        body = protocol.encode_json(payload)
        writer.write(
            _head(status, len(body), extra, keep_alive=keep_alive) + body
        )
        await writer.drain()
        return keep_alive

    async def _respond(self, writer, method, path, headers, body) -> bool:
        keep_alive = headers.get("connection", "").lower() != "close"
        self._counters["requests"] += 1
        if path == "/healthz" and method == "GET":
            return await self._send(
                writer,
                200,
                {"status": "draining" if self._draining else "ok"},
                keep_alive=keep_alive,
            )
        if path == "/stats" and method == "GET":
            self._counters["stats"] += 1
            return await self._send(
                writer, 200, self._context.stats(), keep_alive=keep_alive
            )
        if path in ("/analyze", "/analyze_batch", "/sweep"):
            if method != "POST":
                return await self._send(
                    writer,
                    405,
                    {"error": f"{path} requires POST"},
                    keep_alive=keep_alive,
                )
            return await self._admit(
                writer, path, body, keep_alive=keep_alive
            )
        return await self._send(
            writer,
            404,
            {"error": f"unknown endpoint {method} {path}"},
            keep_alive=keep_alive,
        )

    # -- admission control -------------------------------------------------

    async def _admit(self, writer, path: str, body: bytes, *, keep_alive):
        """The bounded front door for the three analysis endpoints."""
        if self._draining:
            self._counters["rejected_503"] += 1
            return await self._send(
                writer,
                503,
                {"error": "server is draining"},
                keep_alive=False,
            )
        if self._inflight >= self.max_inflight:
            self._counters["rejected_429"] += 1
            retry = max(1, int(-(-self.retry_after // 1)))
            return await self._send(
                writer,
                429,
                {
                    "error": "server is at max_inflight="
                    f"{self.max_inflight}; retry later",
                },
                (("Retry-After", str(retry)),),
                keep_alive=keep_alive,
            )
        self._inflight += 1
        self._idle.clear()
        try:
            handler = {
                "/analyze": self._handle_analyze,
                "/analyze_batch": self._handle_batch,
                "/sweep": self._handle_sweep,
            }[path]
            return await handler(writer, body, keep_alive=keep_alive)
        except protocol.BadRequest as exc:
            self._counters["errors_400"] += 1
            return await self._send(
                writer, 400, {"error": str(exc)}, keep_alive=keep_alive
            )
        except ReproError as exc:
            # Typed analysis failures (unknown node, metric, domain):
            # the request was wrong, not the server.
            self._counters["errors_400"] += 1
            return await self._send(
                writer,
                400,
                {"error": f"{type(exc).__name__}: {exc}"},
                keep_alive=keep_alive,
            )
        except Exception as exc:  # the never-a-crashed-pool guarantee
            self._counters["errors_500"] += 1
            return await self._send(
                writer,
                500,
                {"error": f"internal error ({type(exc).__name__}: {exc})"},
                keep_alive=False,
            )
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
            self._completed += 1
            if self.max_requests and self._completed >= self.max_requests:
                self._stop_requested.set()

    # -- endpoint handlers -------------------------------------------------

    async def _handle_analyze(self, writer, body: bytes, *, keep_alive):
        request = protocol.parse_analyze(protocol.decode_json(body))
        affinity_key = None
        if request.session is not None:
            affinity_key = (request.session, body)
            cached = self._affinity.get(affinity_key)
            if cached is not None:
                self._affinity.move_to_end(affinity_key)
                self._counters["affinity_hits"] += 1
                self._counters["analyze"] += 1
                payload = dict(cached)
                payload["service"] = dict(
                    payload["service"], affinity_hit=True
                )
                return await self._send(
                    writer, 200, payload, keep_alive=keep_alive
                )
        self._counters["analyze"] += 1
        compiled = compile_tree(request.tree)
        nodes, group_size = await self._coalescer.analyze(
            compiled, request.settle_band, request.nodes, request.metrics
        )
        payload = {
            "nodes": nodes,
            "service": {"group_size": group_size, "affinity_hit": False},
        }
        if affinity_key is not None:
            self._affinity[affinity_key] = payload
            while len(self._affinity) > self._affinity_capacity:
                self._affinity.popitem(last=False)
        return await self._send(writer, 200, payload, keep_alive=keep_alive)

    async def _handle_batch(self, writer, body: bytes, *, keep_alive):
        request = protocol.parse_batch(protocol.decode_json(body))
        self._counters["analyze_batch"] += 1
        compiled = compile_tree(request.tree)
        loop = asyncio.get_running_loop()
        batch = await loop.run_in_executor(
            self._executor,
            lambda: self._context.batch(
                compiled,
                request.rlc,
                settle_band=request.settle_band,
                metrics=request.metrics,
            ),
        )
        payload = {
            "names": list(batch.names),
            "scenarios": batch.scenarios,
            "metrics": {
                metric: getattr(batch.metrics, metric).tolist()
                for metric in request.metrics
            },
        }
        return await self._send(writer, 200, payload, keep_alive=keep_alive)

    async def _handle_sweep(self, writer, body: bytes, *, keep_alive):
        import numpy as np

        request = protocol.parse_sweep(protocol.decode_json(body))
        self._counters["sweep"] += 1
        compiled = compile_tree(request.tree)
        slot = compiled.topology.node_index(request.section)
        n = compiled.size
        total = int(request.values.size)
        loop = asyncio.get_running_loop()

        # The swept element row as a masked expression: `values` land
        # on the swept slot (x * 1 + 0 == x for finite x, enforced by
        # parse_sweep) and the nominal vector everywhere else
        # (x * 0 + base == base). The other two rows stay constant.
        axis = values_axis("value", request.values)
        hot = np.zeros(n)
        hot[slot] = 1.0
        base = {
            "resistance": compiled.resistance,
            "inductance": compiled.inductance,
            "capacitance": compiled.capacitance,
        }
        masked = base[request.element].copy()
        masked[slot] = 0.0
        roots = {element: const(vector) for element, vector in base.items()}
        roots[request.element] = axis.values * const(hot) + const(masked)
        sweep = compile_sweep(scenario_space(axis), **roots)
        iterator = iter_sweep(
            sweep,
            compiled,
            chunk_size=request.chunk,
            settle_band=request.settle_band,
            metrics=request.metrics,
            context=self._context,
        )

        # Stream: headers first, then one NDJSON line per chunk. The
        # chunked lazy executor stages one chunk x 3 x n block at a
        # time, so memory is bounded by the chunk size, not the sweep
        # size, and the first line goes out after the first chunk.
        writer.write(_head(200, None, chunked=True, keep_alive=keep_alive))
        await writer.drain()

        async def emit(obj) -> None:
            data = protocol.encode_json(obj) + b"\n"
            writer.write(f"{len(data):X}\r\n".encode("latin-1"))
            writer.write(data + b"\r\n")
            await writer.drain()

        chunks = 0
        while True:
            item = await loop.run_in_executor(
                self._executor, lambda: next(iterator, None)
            )
            if item is None:
                break
            offset, batch = item
            values = request.values[offset : offset + batch.scenarios]
            line = {
                "offset": offset,
                "values": values.tolist(),
                "metrics": {
                    metric: {
                        node: batch.column(metric, node).tolist()
                        for node in request.nodes
                    }
                    for metric in request.metrics
                },
            }
            chunks += 1
            self._counters["stream_chunks"] += 1
            await emit(line)
        await emit({"done": True, "chunks": chunks, "scenarios": total})
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return keep_alive


class BackgroundServer:
    """An :class:`AnalysisServer` on a daemon thread — tests and the
    load-generator benchmark drive the real socket path through this.

    Usage::

        with BackgroundServer(max_inflight=4) as server:
            ...  # http requests against server.port
    """

    def __init__(self, context=None, **kwargs):
        kwargs.setdefault("port", 0)
        self._server = AnalysisServer(context, **kwargs)
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced on join
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        await self._server.start()
        self._ready.set()
        try:
            await self._server._stop_requested.wait()
        finally:
            await self._server.drain()

    def __enter__(self) -> "BackgroundServer":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def server(self) -> AnalysisServer:
        return self._server

    def stop(self, timeout: float = 30.0) -> None:
        self._server.request_stop()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop in time")
        if self._error is not None:
            raise RuntimeError("server thread failed") from self._error

    def join(self, timeout: float = 30.0) -> None:
        """Wait for a self-stopping server (``max_requests``) to exit."""
        self._thread.join(timeout=timeout)
