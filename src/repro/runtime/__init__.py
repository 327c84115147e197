"""The unified execution runtime: registry, routing, instrumentation.

Four PRs gave this reproduction four ways to evaluate the paper's
closed forms — the scalar :class:`~repro.analysis.TreeAnalyzer`, the
compiled :class:`~repro.engine.TimingTable` kernels, the delta-update
:class:`~repro.engine.incremental.IncrementalAnalyzer` and the threaded
batch tier. This package is the seam that makes them one system:

* :mod:`~repro.runtime.backends` — the :class:`Backend` protocol
  (capabilities: point, table, batch, edit, many) with adapters
  wrapping the four engines, and the :class:`BackendRegistry` future
  backends (GPU kernels, async serving) plug into;
* :mod:`~repro.runtime.planner` — workload-aware routing: tree size,
  batch size, edit count and tree count pick the backend, every
  decision carries provenance, and ``backend="..."`` always wins;
* :mod:`~repro.runtime.context` — :class:`ExecutionContext` /
  :class:`Session`, the one front door apps, the CLI and the guarded
  pipeline dispatch through (and the context manager that guarantees
  thread-pool shutdown on exceptions);
* :mod:`~repro.runtime.config` — :class:`RuntimeConfig`, the one
  routing configuration apps, the CLI and the guarded pipeline take;
  its ``workers`` field is the thread budget of the sharded backend;
* :mod:`~repro.runtime.stats` — the single instrumentation surface
  behind ``context.stats()`` and CLI ``--debug``;
* :mod:`~repro.runtime.breaker` — per-backend circuit breakers: N
  consecutive dispatch failures open the breaker, the planner degrades
  tripped routes along ``sharded -> compiled -> scalar`` with
  provenance and a warn-once notice, and a cooldown-expired half-open
  probe closes it again.

See ``docs/ARCHITECTURE.md`` for the layer map and the routing
decision table, and ``docs/ROBUSTNESS.md`` for the failure-handling
story.
"""

from .backends import (
    Backend,
    BackendRegistry,
    CompiledBackend,
    IncrementalBackend,
    ScalarBackend,
    SessionState,
    ShardedBackend,
    default_registry,
)
from .breaker import BreakerBoard, CircuitBreaker
from .config import BACKEND_NAMES, RuntimeConfig
from .context import (
    ExecutionContext,
    Session,
    default_context,
    reset_default_context,
    reset_degradation_warnings,
    resolve_context,
    set_default_context,
)
from .planner import WORKLOAD_KINDS, ExecutionPlan, Workload, plan
from .stats import RuntimeStats

__all__ = [
    "BACKEND_NAMES",
    "WORKLOAD_KINDS",
    "Backend",
    "BackendRegistry",
    "BreakerBoard",
    "CircuitBreaker",
    "CompiledBackend",
    "ExecutionContext",
    "ExecutionPlan",
    "IncrementalBackend",
    "RuntimeConfig",
    "RuntimeStats",
    "ScalarBackend",
    "Session",
    "SessionState",
    "ShardedBackend",
    "Workload",
    "default_context",
    "default_registry",
    "plan",
    "reset_default_context",
    "reset_degradation_warnings",
    "resolve_context",
    "set_default_context",
]
