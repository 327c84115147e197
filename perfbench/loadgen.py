"""HTTP load for the served workload: an open loop and a closed loop.

Both use at most ``threads`` keep-alive connections, one per thread.
The open loop sends request ``i`` at its due time ``start + offsets[i]``
and times it from that due time, so a stall also delays the requests
queued behind it; ``late`` is how far after its due time it was sent.
The closed loop sends each connection's next request as soon as the
previous one is answered.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

_clock = time.perf_counter


@dataclass
class Sample:
    index: int          # position in the request list
    due: float          # when it should have been sent
    sent: float
    done: float
    status: int         # 0 when the connection failed
    body: bytes

    @property
    def latency(self) -> float:
        """Seconds from the due time to the full response."""
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


class Client:
    """One keep-alive connection; a failed request reconnects once."""

    def __init__(self, port: int, timeout: float):
        self._port = port
        self._timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        for attempt in (0, 1):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self._port, timeout=self._timeout)
            try:
                self._conn.request(method, path, body=body,
                                   headers={"Content-Type": "application/json"})
                response = self._conn.getresponse()
                data = response.read()
                if response.getheader("Connection", "").lower() == "close":
                    self.close()
                return response.status, data
            except (OSError, http.client.HTTPException):
                self.close()
                if attempt:
                    return 0, b""
        return 0, b""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def get(port: int, path: str, timeout: float = 30.0):
    client = Client(port, timeout)
    try:
        return client.request("GET", path)
    finally:
        client.close()


def _run(workers: int, target) -> None:
    threads = [threading.Thread(target=target, daemon=True) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(port: int, requests: Sequence, offsets: Sequence[float],
              threads: int, timeout: float = 60.0) -> List[Sample]:
    """Send ``requests[i % len]`` at ``start + offsets[i]``; returns samples."""
    samples: List[Sample] = []
    lock = threading.Lock()
    cursor = iter(range(len(offsets)))
    start = _clock() + 0.05

    def worker():
        client = Client(port, timeout)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = start + offsets[index]
                pause = due - _clock()
                if pause > 0:
                    time.sleep(pause)
                request = requests[index % len(requests)]
                sent = _clock()
                status, body = client.request("POST", request.path, request.body)
                samples.append(Sample(index, due, sent, _clock(), status, body))
        finally:
            client.close()

    _run(threads, worker)
    samples.sort(key=lambda s: s.index)
    return samples


def closed_loop(port: int, requests: Sequence, duration: float,
                threads: int, timeout: float = 60.0) -> List[Sample]:
    """Each thread sends back to back until ``duration`` has passed."""
    samples: List[Sample] = []
    lock = threading.Lock()
    counter = iter(range(1 << 62))
    deadline = _clock() + duration

    def worker():
        client = Client(port, timeout)
        try:
            while _clock() < deadline:
                with lock:
                    index = next(counter)
                request = requests[index % len(requests)]
                sent = _clock()
                status, body = client.request("POST", request.path, request.body)
                samples.append(Sample(index, sent, sent, _clock(), status, body))
        finally:
            client.close()

    _run(threads, worker)
    samples.sort(key=lambda s: s.index)
    return samples
