"""Request coalescing: concurrent point queries become one batch call.

The service's hot workload is many clients asking for metrics on
value-perturbed copies of the *same* net — a sizing loop here, a
Monte-Carlo client there, all sharing one topology fingerprint. Each
query alone is a tiny ``(1, 3, n)`` batch; dispatched individually they
pay the per-call routing/kernel overhead S times. The
:class:`PointCoalescer` merges them by batching while busy: a query
that finds none of its flushes in flight is answered at once, alone;
queries arriving while one is in flight wait, and when the last
in-flight flush finishes each waiting group is stacked into one
``(S, 3, n)`` value block, answered by a single
:meth:`ExecutionContext.batch` call, and each member extracts its own
scenario row. An idle server adds no wait; a loaded one merges exactly
the queries that would have queued behind the executor anyway.

Correctness contract (pinned in ``tests/service/test_coalesce.py``):

* metrics extracted from a coalesced group are **bitwise identical** to
  a direct ``ExecutionContext`` evaluation of the same tree — the batch
  kernels are row-independent, so sharing an array pass changes
  nothing;
* a member that fails validation (unknown node, out-of-domain request)
  fails **alone** — its future gets the exception, every other member
  of the group still resolves.

The coalescer is asyncio-native and single-loop: all bookkeeping runs
on the event loop, only the engine call crosses into the executor
thread, so no locks are needed.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..engine.compiled import CompiledTree, topology_key
from ..engine.table import BatchTiming
from ..errors import ReproError

__all__ = ["PointCoalescer", "extract_point"]


def extract_point(
    batch: BatchTiming,
    scenario: int,
    nodes: Sequence[str],
    metrics: Sequence[str],
) -> Dict[str, Dict[str, float]]:
    """One member's ``{node: {metric: value}}`` slice of a group batch.

    Raises (:class:`~repro.errors.TopologyError` for unknown nodes,
    :class:`~repro.errors.ReductionError` for unevaluated metrics)
    without touching any other member's data — the failure-isolation
    seam of the coalescer.
    """
    out: Dict[str, Dict[str, float]] = {}
    for node in nodes:
        column = batch.index(node)  # raises on unknown node
        row: Dict[str, float] = {}
        for metric in metrics:
            values = getattr(batch.metrics, metric, None)
            if values is None:
                # Metric not evaluated; batch.column raises the typed
                # error with the canonical message.
                batch.column(metric, node)
            row[metric] = float(values[scenario, column])
        out[node] = row
    return out


@dataclass
class _Member:
    """One pending point query inside a group."""

    compiled: CompiledTree
    nodes: Tuple[str, ...]
    metrics: Tuple[str, ...]
    future: "asyncio.Future"


@dataclass
class _Group:
    """Pending members sharing one (fingerprint, settle_band) key."""

    settle_band: float
    members: List[_Member] = field(default_factory=list)


class PointCoalescer:
    """Merge concurrent same-topology point queries into batch calls.

    A query waits only while one of this coalescer's own flushes is in
    flight, and every group left pending flushes when the last of those
    finishes. ``max_group`` bounds a group's size so one topology cannot
    monopolize the executor (the group flushes immediately when full,
    busy or not).
    """

    def __init__(self, context, executor, *, max_group: int = 64):
        if max_group < 1:
            raise ReproError("max_group must be at least 1")
        self._context = context
        self._executor = executor
        self.max_group = int(max_group)
        self._pending: Dict[Tuple, _Group] = {}
        # Flushes started and not yet finished; queries arriving while
        # it is zero flush at once.
        self._inflight = 0
        self._tasks: set = set()  # the loop holds tasks only weakly
        # Counters behind the service's coalescing hit-rate.
        self.groups_flushed = 0
        self.members_served = 0
        self.members_coalesced = 0
        self.largest_group = 0

    # -- the public entry point --------------------------------------------

    async def analyze(
        self,
        compiled: CompiledTree,
        settle_band: float,
        nodes: Sequence[str],
        metrics: Sequence[str],
    ) -> Tuple[Dict[str, Dict[str, float]], int]:
        """Resolve one point query, possibly merged with concurrent ones.

        Returns ``(result, group_size)`` — the size is surfaced in the
        response provenance so clients and tests can observe merging.
        """
        loop = asyncio.get_running_loop()
        key = (topology_key(compiled.topology), float(settle_band))
        group = self._pending.get(key)
        if group is None:
            group = _Group(settle_band=float(settle_band))
            self._pending[key] = group
        member = _Member(
            compiled=compiled,
            nodes=tuple(nodes),
            metrics=tuple(metrics),
            future=loop.create_future(),
        )
        group.members.append(member)
        if not self._inflight or len(group.members) >= self.max_group:
            self._begin_flush(key)
        return await member.future

    # -- flushing ----------------------------------------------------------

    def _begin_flush(self, key: Tuple) -> None:
        group = self._pending.pop(key, None)
        if group is None:
            return
        self._inflight += 1
        task = asyncio.get_running_loop().create_task(self._flush(group))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _flush(self, group: _Group) -> None:
        members = group.members
        size = len(members)
        self.groups_flushed += 1
        self.members_served += size
        self.members_coalesced += size - 1
        self.largest_group = max(self.largest_group, size)
        loop = asyncio.get_running_loop()
        representative = members[0].compiled
        try:
            rlc = np.stack(
                [
                    np.stack(
                        (m.compiled.resistance, m.compiled.inductance,
                         m.compiled.capacitance)
                    )
                    for m in members
                ]
            )
            batch = await loop.run_in_executor(
                self._executor,
                lambda: self._context.batch(
                    representative, rlc, settle_band=group.settle_band
                ),
            )
        except Exception as exc:
            # The whole group failed below the member level (engine or
            # dispatch error): every member sees the same failure.
            for member in members:
                if not member.future.done():
                    member.future.set_exception(exc)
            return
        finally:
            # Released even when the group failed, so the coalescer can
            # never stay "busy"; the last flush out starts the groups
            # that gathered behind it (they run once this one returns).
            self._inflight -= 1
            if not self._inflight:
                for key in list(self._pending):
                    self._begin_flush(key)
        for scenario, member in enumerate(members):
            if member.future.done():
                continue
            try:
                result = extract_point(
                    batch, scenario, member.nodes, member.metrics
                )
            except Exception as exc:
                # Per-member validation failure: this member alone.
                member.future.set_exception(exc)
            else:
                member.future.set_result((result, size))

    # -- observability -----------------------------------------------------

    @property
    def pending(self) -> int:
        """Members waiting behind an in-flight flush."""
        return sum(len(g.members) for g in self._pending.values())

    def stats(self) -> dict:
        served = self.members_served
        return {
            "groups": self.groups_flushed,
            "requests": served,
            "coalesced_requests": self.members_coalesced,
            "hit_rate": (self.members_coalesced / served) if served else 0.0,
            "largest_group": self.largest_group,
            "pending": self.pending,
        }

    async def drain(self) -> None:
        """Flush every pending group now, without waiting for the
        in-flight flush ahead of it, and wait for their futures."""
        keys = list(self._pending)
        futures = [
            m.future for g in self._pending.values() for m in g.members
        ]
        for key in keys:
            self._begin_flush(key)
        if futures:
            await asyncio.gather(*futures, return_exceptions=True)
