"""Multi-tree sets and threaded scenario batches.

:func:`repro.engine.analyze_batch` vectorizes S scenarios of *one*
topology; this module holds the two bulk shapes on top of it that the
paper's Section 5 workloads have — thousands of independent closed-form
net evaluations per optimization sweep:

* :func:`analyze_many` — a heterogeneous set of trees (distinct nets, or
  value-perturbed copies of a few nets), one
  :class:`~repro.engine.table.TimingTable` each, evaluated serially:
  per-tree arrays are too small for threads to pay for the GIL;
* :func:`analyze_batch_sharded` — one large ``(S, 3, n)`` scenario
  block split into contiguous row ranges that run on the in-process
  thread pool of :mod:`repro.engine.dispatch`, each thread writing its
  rows of preallocated ``(S, n)`` outputs through the same tiled
  :func:`~repro.engine.table._evaluate_block` the serial engine runs.
  Every step is row-local, so the result is **bitwise identical** to
  :func:`~repro.engine.table.analyze_batch` for any split.

Failure is per unit, not per call: a tree whose sums fall outside the
closed forms' domain, or a scenario range that raises, comes back as a
structured :class:`ShardError` — severity/code/message via the
robustness :class:`~repro.robustness.diagnostics.Diagnostic`
machinery — while the surviving units still return their results.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.tree import RLCTree
from ..errors import ConfigurationError, DispatchError, ElementValueError, ReproError
from ..robustness.diagnostics import Diagnostic, Severity
from . import dispatch as _dispatch
from .compiled import CompiledTree, compile_tree
from .kernels import (
    METRIC_NAMES,
    MetricArrays,
    fast_path_eligible,
    validate_settle_band,
)
from .table import (
    BatchTiming,
    TimingTable,
    _batch_values,
    _evaluate_block,
    _evaluate_tile,
    _metric_field,
    _tile_rows,
)

__all__ = [
    "ShardError",
    "ShardOutcome",
    "analyze_many",
    "analyze_batch_sharded",
]

#: Diagnostic code carried by every :class:`ShardError`.
SHARD_FAILURE_CODE = "shard-failure"


@dataclass(frozen=True)
class ShardError:
    """Structured record of one failed shard or work unit.

    ``scope`` is ``"tree"`` (an :func:`analyze_many` unit) or
    ``"scenarios"`` (an :func:`analyze_batch_sharded` shard);
    ``detail`` names the unit (``"tree 3"``, ``"scenarios 100:200"``).
    ``error_type``/``message``/``traceback`` describe the captured
    exception. :attr:`diagnostic` renders the record through the
    robustness :class:`~repro.robustness.diagnostics.Diagnostic`
    machinery.
    """

    shard: int
    scope: str
    detail: str
    error_type: str
    message: str
    traceback: str = ""

    @property
    def diagnostic(self) -> Diagnostic:
        return Diagnostic(
            severity=Severity.ERROR,
            code=SHARD_FAILURE_CODE,
            message=(
                f"{self.scope} shard {self.shard} ({self.detail}) failed: "
                f"{self.error_type}: {self.message}"
            ),
        )

    def __str__(self) -> str:
        return str(self.diagnostic)


@dataclass(frozen=True)
class ShardOutcome:
    """A surviving shard of a partially-failed sharded batch."""

    shard: int
    start: int
    stop: int
    timing: BatchTiming


def _failure(exc: BaseException) -> Dict[str, str]:
    """The :class:`ShardError` fields describing a captured exception."""
    return {
        "error_type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }


def _selected_fields(select: Optional[Tuple[str, ...]]) -> Tuple[str, ...]:
    """The metric fields an evaluation produces, in METRIC_NAMES order."""
    if select is None:
        return tuple(METRIC_NAMES)
    want = set(select) | {"t_rc", "t_lc"}
    return tuple(name for name in METRIC_NAMES if name in want)


def _selection(metrics: Optional[Sequence[str]]) -> Optional[Tuple[str, ...]]:
    if metrics is None:
        return None
    return tuple(_metric_field(metric) for metric in metrics)


# -- heterogeneous tree sets -------------------------------------------------


def analyze_many(
    trees: Sequence[Union[RLCTree, CompiledTree]],
    *,
    settle_band: float = 0.1,
    metrics: Optional[Sequence[str]] = None,
    check_domain: bool = True,
    cache: bool = True,
) -> List[Union[TimingTable, ShardError]]:
    """Evaluate many (possibly heterogeneous) trees, one after another.

    Returns one entry per input tree, **in input order**: a
    :class:`~repro.engine.table.TimingTable` on success or a
    :class:`ShardError` for a tree whose evaluation failed — surviving
    trees always return, whatever happened to their neighbours. Inputs
    may be :class:`~repro.circuit.tree.RLCTree` or already-compiled
    :class:`~repro.engine.compiled.CompiledTree` objects; trees compile
    through :func:`~repro.engine.compiled.compile_tree` with ``cache``,
    so ``cache=False`` leaves the process topology cache untouched.

    With ``check_domain`` (the default) a tree whose sums fall outside
    the closed forms' domain reports a typed per-tree error instead of a
    NaN-filled table, mirroring the scalar path's
    :class:`~repro.errors.ElementValueError`.
    """
    validate_settle_band(settle_band)
    select = _selection(metrics)
    out: List[Union[TimingTable, ShardError]] = []
    for index, tree in enumerate(trees):
        ct = (
            tree
            if isinstance(tree, CompiledTree)
            else compile_tree(tree, cache=cache)
        )
        try:
            result = _evaluate_tile(
                ct.topology,
                ct.resistance,
                ct.inductance,
                ct.capacitance,
                settle_band,
                select,
            )
            if check_domain and not fast_path_eligible(result.t_rc, result.t_lc):
                raise ElementValueError(
                    f"tree {index}: node sums fall outside the closed "
                    "forms' domain (non-finite or non-positive); check the "
                    "element values"
                )
        except Exception as exc:
            out.append(
                ShardError(
                    shard=index,
                    scope="tree",
                    detail=f"tree {index}",
                    **_failure(exc),
                )
            )
            continue
        out.append(
            TimingTable(
                names=ct.names,
                settle_band=settle_band,
                metrics=result,
                _index=ct.topology.index,
            )
        )
    return out


# -- threaded scenario batches -----------------------------------------------


def _resolve_workers(workers: Optional[int]) -> int:
    """Effective thread budget.

    ``workers=None`` uses the affinity-aware
    :func:`~repro.engine.dispatch.effective_cpu_count`, not raw
    ``os.cpu_count()`` — in a cgroup-limited container the difference
    decides whether a second thread can pay at all.
    """
    if workers is None:
        workers = _dispatch.effective_cpu_count()
    if workers < 0:
        raise ConfigurationError(
            f"workers must be non-negative, got {workers}"
        )
    return max(1, workers)


def _shard_slices(scenarios: int, shards: int) -> List[Tuple[int, int]]:
    """``shards`` contiguous, near-equal ``[start, stop)`` scenario ranges."""
    base, extra = divmod(scenarios, shards)
    slices = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        slices.append((start, stop))
        start = stop
    return slices


def analyze_batch_sharded(
    compiled: CompiledTree,
    rlc: Optional[np.ndarray] = None,
    *,
    resistance: Optional[np.ndarray] = None,
    inductance: Optional[np.ndarray] = None,
    capacitance: Optional[np.ndarray] = None,
    settle_band: float = 0.1,
    metrics: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    fault_shards: Sequence[int] = (),
) -> BatchTiming:
    """:func:`~repro.engine.table.analyze_batch` on a pool of threads.

    The S scenarios are split into ``shards`` contiguous ranges, run on
    ``min(workers, shards)`` threads of the shared pool (in the calling
    thread when that is one). Each range is walked in row tiles and
    written into its rows of preallocated ``(S, n)`` outputs; with
    ``t`` threads the tiles are ``1/t`` of the serial height, so the
    cells in flight across all threads stay at one serial tile. The
    result is **bitwise identical** to ``analyze_batch`` for any
    shard or thread count. The tree passes read only structure arrays
    built at compile time, so even a cold ``compile_tree(cache=False)``
    topology is safe to share across the threads.

    ``shards=None`` threads the block only when it pays: one range per
    thread when the block spans at least two serial tiles
    (``S >= 2 * _tile_rows(topology)``), otherwise one range evaluated
    in the calling thread. ``workers=None`` uses the affinity-aware
    effective CPU count.

    If any shard fails, a :class:`~repro.errors.DispatchError` is raised
    carrying the structured :class:`ShardError` records *and* the
    surviving shards' :class:`ShardOutcome` results — partial work is
    reported, never silently discarded. ``fault_shards`` injects a
    deliberate value-level failure into the named shard indices (the
    robustness fault-injection hook).
    """
    validate_settle_band(settle_band)
    if shards is not None and shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    r, l, c = _batch_values(compiled, rlc, resistance, inductance, capacitance)
    select = _selection(metrics)
    topology = compiled.topology
    scenarios, n = r.shape
    workers = _resolve_workers(workers)
    rows = _tile_rows(topology)
    if shards is None:
        shards = workers if scenarios >= 2 * rows else 1
    shards = max(1, min(shards, scenarios))
    fault_shards = frozenset(fault_shards)

    def timing(metrics_arrays: MetricArrays) -> BatchTiming:
        return BatchTiming(
            names=compiled.names,
            settle_band=settle_band,
            metrics=metrics_arrays,
            _index=topology.index,
        )

    if shards == 1 and not fault_shards:
        return timing(_evaluate_block(topology, r, l, c, settle_band, select))

    threads = min(workers, shards)
    tile = max(rows // threads, 1)
    out = {name: np.empty((scenarios, n)) for name in _selected_fields(select)}
    slices = _shard_slices(scenarios, shards)

    def run_shard(index: int):
        start, stop = slices[index]
        try:
            if index in fault_shards:
                raise ReproError(f"injected shard fault: fault_shards[{index}]")
            _evaluate_block(
                topology,
                r[start:stop],
                l[start:stop],
                c[start:stop],
                settle_band,
                select,
                out={name: values[start:stop] for name, values in out.items()},
                rows=tile,
            )
        except Exception as exc:
            return _failure(exc)
        return None

    if threads > 1:
        failures = _dispatch.run_supervised(range(shards), run_shard, workers)
    else:
        failures = [run_shard(index) for index in range(shards)]

    if not any(failures):
        return timing(MetricArrays(**out))
    errors = []
    outcomes = []
    for index, ((start, stop), failure) in enumerate(zip(slices, failures)):
        if failure is not None:
            errors.append(
                ShardError(
                    shard=index,
                    scope="scenarios",
                    detail=f"scenarios {start}:{stop}",
                    **failure,
                )
            )
            continue
        rows_out = {
            name: values[start:stop].copy() for name, values in out.items()
        }
        outcomes.append(
            ShardOutcome(
                shard=index,
                start=start,
                stop=stop,
                timing=timing(MetricArrays(**rows_out)),
            )
        )
    raise DispatchError(
        f"{len(errors)} of {shards} shards failed "
        f"({len(outcomes)} survived): "
        + "; ".join(str(e.diagnostic) for e in errors[:3]),
        shard_errors=tuple(errors),
        partial=tuple(outcomes),
    )
