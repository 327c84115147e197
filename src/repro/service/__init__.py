"""Analysis-as-a-service: long-lived HTTP serving over the runtime.

The :mod:`repro.service` package turns the one-shot runtime into a
daemon: a single warm :class:`~repro.runtime.ExecutionContext` (hot
topology LRU, shared thread pool) behind a
stdlib-asyncio HTTP front with request coalescing, bounded admission,
session cache affinity, and chunked streaming for sweeps. Start it with
``repro serve`` or embed :class:`AnalysisServer` directly.
"""

from .coalesce import PointCoalescer, extract_point
from .protocol import (
    AnalyzeRequest,
    BadRequest,
    BatchRequest,
    SweepRequest,
    decode_json,
    encode_json,
    parse_analyze,
    parse_batch,
    parse_sweep,
)
from .server import AnalysisServer, BackgroundServer

__all__ = [
    "AnalysisServer",
    "BackgroundServer",
    "PointCoalescer",
    "extract_point",
    "AnalyzeRequest",
    "BatchRequest",
    "SweepRequest",
    "BadRequest",
    "parse_analyze",
    "parse_batch",
    "parse_sweep",
    "encode_json",
    "decode_json",
]
