"""The in-process thread pool behind the parallel tier.

NumPy releases the GIL inside its ufuncs and segment sums, and every
step of a batch evaluation is row-local (see
:func:`repro.engine.table._evaluate_block`), so a second core needs no
process boundary: :func:`repro.engine.sharded.analyze_batch_sharded`
hands contiguous row ranges of one block to a lazily created,
process-global :class:`~concurrent.futures.ThreadPoolExecutor`, and
every thread writes its rows straight into preallocated ``(S, n)``
outputs. Nothing is pickled, shipped or copied between threads.

:func:`run_supervised` is the one fan-out primitive: it maps a task
function over work units on the pool and returns the results in unit
order. Task functions capture their own failures as values, so one
failing unit never abandons its siblings. :func:`dispatch_pool` scopes
the pool to a ``with`` block; otherwise it lives until
:func:`shutdown_pool` (the runtime context calls it on close) or
interpreter exit.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterator, List, Optional, Sequence

from ..errors import ReproError

__all__ = [
    "run_supervised",
    "get_pool",
    "dispatch_pool",
    "shutdown_pool",
    "pool_size",
    "effective_cpu_count",
]


def effective_cpu_count() -> int:
    """CPUs this *process* may actually run on, never less than 1.

    ``os.cpu_count()`` reports the machine, not the process: under a
    cgroup/affinity restriction (CI runners, containers) it can both
    overcount (machine has 64 cores, the job gets 2) and — through
    wrappers that cache a stale value — undercount. Preference order:
    ``os.process_cpu_count()`` (3.13+, affinity-aware by definition),
    the ``sched_getaffinity`` mask, then ``os.cpu_count()``. Benchmarks
    key their speedup gates on this so a "cores: 1" reading on a
    multi-core box can no longer silently disable them.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        try:
            count = counter()
            if count:
                return max(1, count)
        except OSError:  # pragma: no cover - platform quirk
            pass
    try:
        affinity = os.sched_getaffinity(0)
        if affinity:
            return max(1, len(affinity))
    except (AttributeError, OSError):  # pragma: no cover - no affinity API
        pass
    return max(1, os.cpu_count() or 1)


# -- the thread pool ---------------------------------------------------------

_pool: Optional[ThreadPoolExecutor] = None
_pool_workers = 0
_pool_scope_depth = 0  # live dispatch_pool() nesting level
# Reentrant: run_supervised holds it across get_pool and its submits, so
# a concurrent resize can never shut the pool down between the two.
_pool_lock = threading.RLock()


def get_pool(workers: int) -> ThreadPoolExecutor:
    """The shared pool, (re)created to hold ``workers`` threads.

    Asking for a different thread count replaces the pool; tasks
    already submitted to the old one still run to completion.
    """
    global _pool, _pool_workers
    if workers < 2:
        raise ReproError("a dispatch pool needs at least 2 workers")
    with _pool_lock:
        if _pool is None or _pool_workers != workers:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-tiles"
            )
            _pool_workers = workers
        return _pool


def shutdown_pool() -> None:
    """Stop the shared pool and join its threads (no-op when idle)."""
    global _pool, _pool_workers
    with _pool_lock:
        pool = _pool
        _pool = None
        _pool_workers = 0
    if pool is not None:
        pool.shutdown(wait=True)


def pool_size() -> int:
    """Thread count of the live pool (0 when none is running)."""
    return _pool_workers


@contextlib.contextmanager
def dispatch_pool(workers: int) -> Iterator[ThreadPoolExecutor]:
    """Scope the shared pool to a ``with`` block.

    Creates (or resizes) the pool on entry and shuts it down on exit,
    whatever happens inside. Nesting is reference-counted: the scopes
    share the one process-global pool and only the outermost exit shuts
    it down.
    """
    global _pool_scope_depth
    pool = get_pool(workers)
    _pool_scope_depth += 1
    try:
        yield pool
    finally:
        _pool_scope_depth -= 1
        if _pool_scope_depth <= 0:
            _pool_scope_depth = 0
            shutdown_pool()


def run_supervised(
    units: Sequence[Any], worker_fn: Callable[[Any], Any], workers: int
) -> List[Any]:
    """``[worker_fn(unit) for unit in units]``, run on ``workers`` threads.

    Results come back in unit order whatever the scheduling. Each task
    runs in a copy of the caller's :mod:`contextvars` context, so
    context-scoped state (NumPy's ``errstate``, tracing spans) follows
    the work onto the pool. ``worker_fn`` should return failures as
    values: an exception it raises propagates from here while its
    siblings may still be running.
    """
    with _pool_lock:
        pool = get_pool(workers)
        futures = [
            pool.submit(contextvars.copy_context().run, worker_fn, unit)
            for unit in units
        ]
    return [future.result() for future in futures]
