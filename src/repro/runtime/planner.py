"""Workload-aware backend routing.

The planner is the "model the cost, then dispatch" step: a
:class:`Workload` describes *what* is being asked (one point query? an
``(S, n)`` scenario batch? an edit stream?), :func:`plan` decides *which
engine* answers it, and the returned :class:`ExecutionPlan` records why
— every decision carries its provenance so ``context.stats()`` and the
CLI can explain a routing choice after the fact.

Routing rules (first match wins), with the boundaries taken from
:class:`~repro.runtime.config.RuntimeConfig`:

========  ============================================  ===========
kind      condition                                     backend
========  ============================================  ===========
any       ``backend=`` forced (call or config)          as forced
edit      always (delta updates are the whole point)    incremental
many      always (per-tree arrays cannot pay threads)   compiled
batch     ``workers > 1`` and ``S >= 2 * tile_rows``    sharded
batch     otherwise                                     compiled
sweep     same rules as ``batch``, per chunk            sharded/compiled
table     always (one vectorized pass)                  compiled
point     ``tree_size <= point_scalar_max``             scalar
point     otherwise                                     compiled
========  ============================================  ===========

``tile_rows`` is the serial row-tile height of the batch's topology
(:func:`repro.engine.table.tile_rows`): a block threads only when it
spans at least two serial tiles; below that the pool's per-call cost
outweighs what a second thread can win.

When a backend is *unavailable* — its circuit breaker tripped after
repeated shard failures — the auto-routing degrades
along ``sharded -> compiled -> scalar`` instead, stopping at the last
backend that still supports the workload (batch/many never drop below
``compiled``). The resulting plan is marked ``degraded`` and carries
the skipped backend in its provenance; results are numerically
identical on every rung of the chain, so degradation costs throughput,
never correctness. A *forced* backend is never rerouted — an explicit
``backend=`` wins over the breaker, and the caller owns the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..engine.table import tile_rows
from ..errors import ConfigurationError
from .config import RuntimeConfig

__all__ = ["WORKLOAD_KINDS", "Workload", "ExecutionPlan", "plan"]

#: Degradation chain: a tripped backend falls back to the next one
#: whose results are numerically identical for the workload.
_DEGRADE = {"sharded": "compiled", "compiled": "scalar"}

#: Workload kinds the scalar backend cannot serve — their degradation
#: chain bottoms out at ``compiled``.
_COMPILED_FLOOR = frozenset({"batch", "many", "table", "edit", "sweep"})

#: The six workload shapes the runtime routes.
WORKLOAD_KINDS: Tuple[str, ...] = (
    "point",
    "table",
    "batch",
    "edit",
    "many",
    "sweep",
)


@dataclass(frozen=True)
class Workload:
    """One unit of work, described by shape rather than by API call.

    ``kind`` is one of :data:`WORKLOAD_KINDS`: ``"point"`` (one metric
    at one node), ``"table"`` (every metric at every node of one tree),
    ``"batch"`` (``scenarios`` value-rows over one topology),
    ``"edit"`` (a stream of element edits interleaved with queries),
    ``"many"`` (independent, possibly heterogeneous trees) and
    ``"sweep"`` (one staged chunk of a lazy scenario sweep —
    ``scenarios`` rows over one topology, planned chunk by chunk so
    the threading rule applies per block). ``levels`` is the number of
    level loops one tree pass makes over the batch's topology
    (:func:`repro.engine.table.pass_levels`; 1 for a chain), which sets
    the row-tile height together with ``tree_size``.
    """

    kind: str
    tree_size: int = 0
    scenarios: int = 0
    edit_count: int = 0
    tree_count: int = 1
    levels: int = 1

    def __post_init__(self):
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; choose from "
                f"{WORKLOAD_KINDS}"
            )

    @property
    def cells(self) -> int:
        """Total kernel lanes of a batch: scenarios x nodes."""
        return self.scenarios * self.tree_size

    @property
    def tile_rows(self) -> int:
        """Scenario rows per serial tile of a batch over this tree."""
        return tile_rows(self.tree_size, self.levels)


@dataclass(frozen=True)
class ExecutionPlan:
    """A routing decision plus its provenance.

    ``degraded`` marks a plan the breaker rerouted: ``degraded_from``
    is the backend the heuristics *wanted* and ``backend`` the healthy
    one that will actually serve — the reasons tuple records the walk.
    """

    backend: str
    workload: Workload
    forced: bool
    reasons: Tuple[str, ...]
    degraded: bool = False
    degraded_from: Optional[str] = None

    def __str__(self) -> str:
        tag = "forced" if self.forced else "auto"
        if self.degraded:
            tag += f", degraded from {self.degraded_from}"
        return (
            f"{self.workload.kind} -> {self.backend} [{tag}] "
            f"({'; '.join(self.reasons)})"
        )


def _degrade(
    chosen: str, workload: Workload, unavailable: Sequence[str]
) -> Tuple[str, Tuple[str, ...]]:
    """Walk the degradation chain past every unavailable backend.

    Returns the healthy backend plus the provenance entries describing
    each step. The walk stops at the workload's capability floor: a
    batch/many/table workload never drops below ``compiled`` even when
    that breaker is open too — degradation must not change what the
    call can compute.
    """
    reasons = []
    current = chosen
    while current in unavailable:
        fallback = _DEGRADE.get(current)
        if fallback is None:
            break
        if fallback == "scalar" and workload.kind in _COMPILED_FLOOR:
            reasons.append(
                f"breaker open for {current!r} but {workload.kind!r} "
                "needs the compiled kernels; keeping it"
            )
            break
        reasons.append(
            f"breaker open for {current!r} -> degraded to {fallback!r}"
        )
        current = fallback
    return current, tuple(reasons)


def plan(
    workload: Workload,
    config: Optional[RuntimeConfig] = None,
    backend: Optional[str] = None,
    unavailable: Sequence[str] = (),
) -> ExecutionPlan:
    """Pick a backend for ``workload`` and say why.

    ``backend`` (per-call) beats ``config.backend`` beats the
    size/batch/edit-count heuristics; a forced backend always wins and
    is recorded as such in the provenance. ``unavailable`` names
    backends whose circuit breaker is open right now — the auto chosen
    backend degrades along ``sharded -> compiled -> scalar`` past them
    (forced backends do not: an explicit choice beats the breaker).
    """
    config = config or RuntimeConfig()
    forced = backend or config.backend
    if forced is not None:
        origin = "call" if backend else "config"
        # Validate through RuntimeConfig's name check.
        config.with_backend(forced)
        reasons = [f"backend {forced!r} forced by {origin}"]
        if forced in unavailable:
            reasons.append(
                f"breaker open for {forced!r} ignored: forced by {origin}"
            )
        return ExecutionPlan(
            backend=forced,
            workload=workload,
            forced=True,
            reasons=tuple(reasons),
        )

    reasons = []
    if workload.kind == "edit":
        chosen = "incremental"
        reasons.append(
            f"edit stream ({workload.edit_count or 'unbounded'} edits) "
            "-> delta updates"
        )
    elif workload.kind == "many":
        chosen = "compiled"
        reasons.append(
            f"{workload.tree_count} tree(s) -> serial vectorized "
            "(per-tree arrays are too small to pay for threads)"
        )
    elif workload.kind in ("batch", "sweep"):
        rows = workload.tile_rows
        if config.parallel and workload.scenarios >= 2 * rows:
            chosen = "sharded"
            reasons.append(
                f"{workload.scenarios} scenarios >= 2 tiles of {rows} rows "
                f"with workers={config.workers} -> threaded tiles"
            )
        else:
            chosen = "compiled"
            reasons.append(
                f"{workload.scenarios} scenarios below 2 tiles of {rows} "
                f"rows or workers<=1 -> in-process vectorized"
            )
    elif workload.kind == "table":
        chosen = "compiled"
        reasons.append("full table -> one vectorized pass")
    else:  # point
        if workload.tree_size <= config.point_scalar_max:
            chosen = "scalar"
            reasons.append(
                f"{workload.tree_size} nodes <= point_scalar_max="
                f"{config.point_scalar_max} -> dict sweep"
            )
        else:
            chosen = "compiled"
            reasons.append(
                f"{workload.tree_size} nodes > point_scalar_max="
                f"{config.point_scalar_max} -> compiled table"
            )
    final, degrade_reasons = _degrade(chosen, workload, unavailable)
    return ExecutionPlan(
        backend=final,
        workload=workload,
        forced=False,
        reasons=tuple(reasons) + degrade_reasons,
        degraded=final != chosen,
        degraded_from=chosen if final != chosen else None,
    )
