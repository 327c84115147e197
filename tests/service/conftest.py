"""Shared fixtures for the analysis-service suite.

All server tests drive the real socket path: a
:class:`~repro.service.BackgroundServer` on a daemon thread, plain
``http.client`` requests against its ephemeral port. ``http.client``
(rather than ``urllib``) because saturation tests need to observe
response headers *before* the body finishes streaming.
"""

import http.client
import json
import threading
from types import SimpleNamespace

import pytest

from repro.circuit import dumps, fig5_tree
from repro.runtime import ExecutionContext


@pytest.fixture
def netlist() -> str:
    """The paper's Fig. 5 tree as netlist text — the wire format."""
    return dumps(fig5_tree())


@pytest.fixture
def held(monkeypatch):
    """A context whose first ``batch`` call blocks until ``release()``:
    point queries sent meanwhile provably arrive while a flush is in
    flight, so they merge without relying on timing."""
    with ExecutionContext() as ctx:
        entered, released = threading.Event(), threading.Event()
        batch = ctx.batch

        def held_batch(*args, **kwargs):
            if not entered.is_set():
                entered.set()
                assert released.wait(timeout=30), "never released"
            return batch(*args, **kwargs)

        monkeypatch.setattr(ctx, "batch", held_batch)
        try:
            yield SimpleNamespace(
                context=ctx, entered=entered, release=released.set
            )
        finally:
            released.set()


def http_get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        body = resp.read()
    finally:
        conn.close()
    return resp.status, dict(resp.getheaders()), body


def http_post(port: int, path: str, payload, *, raw: bool = False):
    """POST JSON; returns ``(status, headers, parsed-or-raw body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = payload if isinstance(payload, bytes) else json.dumps(payload)
        conn.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        data = resp.read()
    finally:
        conn.close()
    if raw:
        return resp.status, dict(resp.getheaders()), data
    return (
        resp.status,
        dict(resp.getheaders()),
        json.loads(data) if data else None,
    )


def ndjson_lines(data: bytes):
    """Parse a streamed sweep body into its NDJSON records."""
    return [
        json.loads(line)
        for line in data.decode("utf-8").splitlines()
        if line.strip()
    ]
