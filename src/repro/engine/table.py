"""Full-tree and batch evaluation on top of the compiled form.

:class:`TimingTable` is the vectorized equivalent of
``TreeAnalyzer.report()``: every metric at every node, as ``(n,)``
columns, plus accessors that materialize the same
:class:`~repro.analysis.analyzer.NodeTiming` objects the scalar path
returns.

:func:`analyze_batch` is the S-scenario generalization: given one
compiled topology and ``(S, n)`` value matrices (or a stacked
``(S, 3, n)`` R/L/C block), it evaluates all S x n node metrics with
array passes over cache-sized row tiles — the shape of Monte-Carlo
variation, sweep-based sizing and tuning workloads, where the tree's
structure never changes and only the element values do. The threaded
tier of :mod:`repro.engine.sharded` runs the same tiled pipeline, one
contiguous row range per thread.

:func:`iter_analyze_batch` is the chunked form of the same pass: a
caller-supplied ``fill`` stages scenario blocks into one reused
``(chunk, 3, n)`` buffer and each block is evaluated as it lands, so
arbitrarily large sweeps run with ``O(chunk x n)`` peak value-matrix
memory. The lazy sweep layer (:mod:`repro.sweep`) drives all its
execution through this entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.tree import RLCTree
from ..errors import ReductionError, TopologyError
from .compiled import CompiledTree, compile_tree
from .kernels import (
    METRIC_NAMES,
    MetricArrays,
    fast_path_eligible,
    metrics_from_sums,
    validate_settle_band,
)

__all__ = [
    "TimingTable",
    "BatchTiming",
    "evaluate",
    "analyze_batch",
    "iter_analyze_batch",
    "timing_table",
]

#: Metric-name aliases accepted by the ``value``/``column`` accessors;
#: keys include the guarded pipeline's metric names.
_METRIC_FIELDS: Dict[str, str] = {
    "t_rc": "t_rc",
    "t_lc": "t_lc",
    "zeta": "zeta",
    "omega_n": "omega_n",
    "delay_50": "delay_50",
    "rise_time": "rise_time",
    "overshoot": "overshoot",
    "settling": "settling",
    "settling_time": "settling",
}


def _metric_field(metric: str) -> str:
    try:
        return _METRIC_FIELDS[metric]
    except KeyError:
        raise ReductionError(
            f"unknown metric {metric!r}; choose from {sorted(_METRIC_FIELDS)}"
        ) from None


@dataclass(frozen=True)
class TimingTable:
    """All closed-form metrics for every node of one tree, as arrays."""

    names: Tuple[str, ...]
    settle_band: float
    metrics: MetricArrays
    _index: Dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self._index:
            self._index.update({n: i for i, n in enumerate(self.names)})

    # -- array access ------------------------------------------------------

    def __getattr__(self, name: str):
        # Expose metric columns (t_rc, delay_50, ...) as attributes.
        if name in _METRIC_FIELDS:
            return self.column(name)
        raise AttributeError(name)

    def column(self, metric: str) -> np.ndarray:
        """One metric for all nodes, in ``names`` order."""
        values = getattr(self.metrics, _metric_field(metric))
        if values is None:
            raise ReductionError(
                f"metric {metric!r} was not evaluated; include it in the "
                "``metrics`` selection"
            )
        return values

    def index(self, node: str) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def value(self, metric: str, node: str) -> float:
        """One metric at one node."""
        return float(self.column(metric)[self.index(node)])

    # -- NodeTiming materialization ---------------------------------------

    def timing(self, node: str):
        """The :class:`~repro.analysis.analyzer.NodeTiming` of one node."""
        from ..analysis.analyzer import NodeTiming

        i = self.index(node)
        m = self.metrics
        return NodeTiming(
            node=node,
            t_rc=float(m.t_rc[i]),
            t_lc=float(m.t_lc[i]),
            zeta=float(m.zeta[i]),
            omega_n=float(m.omega_n[i]),
            delay_50=float(m.delay_50[i]),
            rise_time=float(m.rise_time[i]),
            overshoot=float(m.overshoot[i]),
            settling=float(m.settling[i]),
        )

    def timings(self, nodes: Optional[Sequence[str]] = None) -> List:
        """``NodeTiming`` objects for ``nodes`` (default: every node)."""
        from ..analysis.analyzer import NodeTiming

        m = self.metrics
        if nodes is not None:
            return [self.timing(node) for node in nodes]
        rows = zip(
            self.names,
            m.t_rc.tolist(),
            m.t_lc.tolist(),
            m.zeta.tolist(),
            m.omega_n.tolist(),
            m.delay_50.tolist(),
            m.rise_time.tolist(),
            m.overshoot.tolist(),
            m.settling.tolist(),
        )
        # Bulk materialization: writing the instance __dict__ wholesale
        # skips the frozen dataclass's per-field object.__setattr__
        # round-trips, which at 10k+ nodes is the dominant cost of a
        # full report. The result is indistinguishable from __init__.
        new = NodeTiming.__new__
        out = []
        for node, t_rc, t_lc, zeta, omega_n, delay, rise, over, settle in rows:
            timing = new(NodeTiming)
            timing.__dict__.update(
                node=node,
                t_rc=t_rc,
                t_lc=t_lc,
                zeta=zeta,
                omega_n=omega_n,
                delay_50=delay,
                rise_time=rise,
                overshoot=over,
                settling=settle,
            )
            out.append(timing)
        return out


def evaluate(compiled: CompiledTree, settle_band: float = 0.1) -> TimingTable:
    """Sums plus every metric for one compiled tree, in one array pass.

    Performs no domain checking on the *sums*: entries the closed forms
    cannot serve come out NaN (see
    :func:`~repro.engine.kernels.metrics_from_sums`). The ``settle_band``
    request, however, is validated up front — out-of-domain bands raise
    :class:`~repro.errors.ConfigurationError` before any sweep runs.
    """
    validate_settle_band(settle_band)
    t_rc, t_lc = compiled.second_order_sums()
    return TimingTable(
        names=compiled.names,
        settle_band=settle_band,
        metrics=metrics_from_sums(t_rc, t_lc, settle_band),
        _index=compiled.topology.index,
    )


def timing_table(
    tree: RLCTree, settle_band: float = 0.1, *, cache: bool = True
) -> Optional[TimingTable]:
    """The fast-path table for ``tree``, or ``None`` when ineligible.

    Eligibility is :func:`~repro.engine.kernels.fast_path_eligible` on
    the tree's sums: when any node falls outside the closed forms'
    domain this returns ``None`` so callers can run the scalar path and
    surface its typed errors unchanged. An out-of-domain
    ``settle_band`` raises :class:`~repro.errors.ConfigurationError`
    here (never ``None``), exactly like the scalar analyzer.
    """
    validate_settle_band(settle_band)
    compiled = compile_tree(tree, cache=cache)
    t_rc, t_lc = compiled.second_order_sums()
    if not fast_path_eligible(t_rc, t_lc):
        return None
    return TimingTable(
        names=compiled.names,
        settle_band=settle_band,
        metrics=metrics_from_sums(t_rc, t_lc, settle_band),
        _index=compiled.topology.index,
    )


@dataclass(frozen=True)
class BatchTiming:
    """Metrics for S value-scenarios x n nodes, as ``(S, n)`` arrays."""

    names: Tuple[str, ...]
    settle_band: float
    metrics: MetricArrays
    _index: Dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self._index:
            self._index.update({n: i for i, n in enumerate(self.names)})

    def __getattr__(self, name: str):
        if name in _METRIC_FIELDS:
            field_name = _METRIC_FIELDS[name]
            values = getattr(self.metrics, field_name)
            if values is None:
                raise ReductionError(
                    f"metric {name!r} was not evaluated; include it in the "
                    "``metrics`` selection"
                )
            return values
        raise AttributeError(name)

    @property
    def scenarios(self) -> int:
        return self.metrics.t_rc.shape[0]

    def index(self, node: str) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def column(self, metric: str, node: str) -> np.ndarray:
        """One metric at one node across all scenarios, shape ``(S,)``.

        Returned as a fresh copy: a strided view into the ``(S, n)``
        metric block would keep the whole block alive for as long as the
        caller holds the column — exactly the lifetime bug a Monte-Carlo
        loop that extracts one sink column per batch would hit.
        """
        values = getattr(self.metrics, _metric_field(metric))
        if values is None:
            raise ReductionError(
                f"metric {metric!r} was not evaluated; include it in the "
                "``metrics`` selection"
            )
        return values[:, self.index(node)].copy()

    def scenario(self, s: int) -> TimingTable:
        """The full :class:`TimingTable` of scenario ``s``.

        Its rows are fresh copies, for the same reason as
        :meth:`column`: a row view would keep the whole ``(S, n)``
        block alive for as long as the table is held.
        """
        m = self.metrics
        row = MetricArrays(
            **{
                name: None if values is None else values[s].copy()
                for name in METRIC_NAMES
                for values in (getattr(m, name),)
            }
        )
        return TimingTable(
            names=self.names,
            settle_band=self.settle_band,
            metrics=row,
            _index=self._index,
        )


def _batch_values(
    compiled: CompiledTree,
    rlc: Optional[np.ndarray],
    resistance: Optional[np.ndarray],
    inductance: Optional[np.ndarray],
    capacitance: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = compiled.size
    if rlc is not None:
        if resistance is not None or inductance is not None or capacitance is not None:
            raise ReductionError(
                "pass either a stacked rlc block or per-element matrices, not both"
            )
        rlc = np.asarray(rlc, dtype=float)
        if rlc.ndim != 3 or rlc.shape[1] != 3 or rlc.shape[2] != n:
            raise ReductionError(
                f"rlc block must have shape (S, 3, {n}), got {rlc.shape}"
            )
        return rlc[:, 0, :], rlc[:, 1, :], rlc[:, 2, :]

    given = [
        a for a in (resistance, inductance, capacitance) if a is not None
    ]
    if not given:
        raise ReductionError(
            "analyze_batch needs an rlc block or at least one value matrix"
        )
    scenarios = {np.asarray(a).shape[0] for a in given if np.asarray(a).ndim == 2}
    if len(scenarios) > 1:
        raise ReductionError(
            f"value matrices disagree on scenario count: {sorted(scenarios)}"
        )
    s = scenarios.pop() if scenarios else 1

    out = []
    for label, values, nominal in (
        ("resistance", resistance, compiled.resistance),
        ("inductance", inductance, compiled.inductance),
        ("capacitance", capacitance, compiled.capacitance),
    ):
        if values is None:
            values = nominal
        values = np.asarray(values, dtype=float)
        if values.shape not in ((n,), (s, n)):
            raise ReductionError(
                f"{label} matrix must have shape ({n},) or ({s}, {n}), "
                f"got {values.shape}"
            )
        out.append(np.broadcast_to(values, (s, n)))
    return tuple(out)


#: Scenario-block cells (rows x nodes) evaluated per tile. Every tree
#: pass and metric kernel allocates a handful of tile-sized
#: temporaries, so a 64 k-cell (512 KB) tile keeps them in cache where
#: one pass over a whole 2000 x 1000 block streams ~60 fresh 16 MB
#: arrays through memory. Measured on a 2000 x 1000 branching block:
#: tiles of 32-96 rows of 1000 nodes are within noise of each other,
#: 16 rows are slower and 8 rows lose the gain to per-call overhead
#: (see docs/PERFORMANCE.md). Sweep chunks (4096 x 7) and served
#: batches fit one tile and skip the tiling entirely.
_TILE_CELLS = 65_536

#: Least cells one level of a tree pass handles per tile, on average.
#: Each level costs a few NumPy calls per tile, so deep, narrow trees
#: get taller tiles: without this floor a 2-chain comb 500 levels deep
#: ran 2.4x slower tiled than in one pass.
_LEVEL_CELLS = 4096


def pass_levels(topology) -> int:
    """Level-loop iterations of one tree pass over ``topology``.

    A chain runs each pass as one ``cumsum``, so it counts as one level.
    """
    return 1 if topology.is_chain else len(topology.levels)


def tile_rows(size: int, levels: int) -> int:
    """Scenario rows per tile for a ``size``-node tree of ``levels``."""
    width = max(size, 1)
    return max(_TILE_CELLS // width, -(-_LEVEL_CELLS * levels // width), 1)


def _tile_rows(topology) -> int:
    """Scenario rows per tile for blocks over ``topology``."""
    return tile_rows(topology.size, pass_levels(topology))


def _evaluate_tile(topology, r, l, c, settle_band, select) -> MetricArrays:
    """The Appendix's two passes plus the closed forms, in one shot."""
    loads = topology.accumulate(c)
    t_rc = topology.descend(r * loads)
    t_lc = topology.descend(l * loads)
    del loads
    return metrics_from_sums(t_rc, t_lc, settle_band, select=select)


def _evaluate_block(
    topology,
    r: np.ndarray,
    l: np.ndarray,
    c: np.ndarray,
    settle_band: float,
    select: Optional[Tuple[str, ...]],
    out: Optional[Dict[str, np.ndarray]] = None,
    rows: Optional[int] = None,
) -> MetricArrays:
    """Metrics of ``(S, n)`` value matrices, evaluated in row tiles.

    The block is walked ``rows`` scenario rows at a time (default
    :func:`_tile_rows`) and each tile's fields are copied into
    ``(S, n)`` outputs — ``out`` (field name to destination, e.g. one
    thread's rows of a shared result block; it must cover every field
    the selection produces) or fresh arrays. Each tile is released
    before the next one is evaluated, so one tile's arrays are alive at
    a time. Every step is row-local (segment sums and running sums
    along the node axis, elementwise kernels), so the result is bitwise
    identical to one pass over the whole block. Without ``out``, a
    block that fits one tile is evaluated in one pass and its arrays
    returned uncopied.
    """
    scenarios, n = r.shape
    if rows is None:
        rows = _tile_rows(topology)
    if out is None and scenarios <= rows:
        return _evaluate_tile(topology, r, l, c, settle_band, select)
    for lo in range(0, scenarios, rows):
        hi = lo + rows
        tile = _evaluate_tile(
            topology, r[lo:hi], l[lo:hi], c[lo:hi], settle_band, select
        )
        if out is None:
            out = {
                name: np.empty((scenarios, n))
                for name in METRIC_NAMES
                if getattr(tile, name) is not None
            }
        for name, values in out.items():
            values[lo:hi] = getattr(tile, name)
        del tile
    return MetricArrays(**out)


def analyze_batch(
    compiled: CompiledTree,
    rlc: Optional[np.ndarray] = None,
    *,
    resistance: Optional[np.ndarray] = None,
    inductance: Optional[np.ndarray] = None,
    capacitance: Optional[np.ndarray] = None,
    settle_band: float = 0.1,
    metrics: Optional[Sequence[str]] = None,
) -> BatchTiming:
    """Evaluate S value-scenarios over one topology, tile by tile.

    Values come either as one stacked ``rlc`` block of shape
    ``(S, 3, n)`` (R, L, C along the middle axis, nodes in
    ``compiled.names`` order) or as per-element matrices of shape
    ``(S, n)``; an element left ``None`` uses the compiled tree's
    nominal vector for every scenario. Scenario entries outside the
    closed forms' domain come out NaN — batch workloads filter rather
    than raise.

    ``metrics`` restricts which metric kernels run (default: all) —
    worthwhile on large batches, where a single-metric sweep skips most
    of the elementwise work. Reading an unselected metric raises
    :class:`~repro.errors.ReductionError`; the sums are always kept.

    Large blocks are evaluated in cache-sized row tiles (see
    :func:`_evaluate_block`); the results are bitwise identical to one
    pass over the whole block.

    ``settle_band`` outside ``(0, 1)`` raises
    :class:`~repro.errors.ConfigurationError` before any values are
    touched.
    """
    validate_settle_band(settle_band)
    r, l, c = _batch_values(compiled, rlc, resistance, inductance, capacitance)
    select = None
    if metrics is not None:
        select = tuple(_metric_field(metric) for metric in metrics)
    return BatchTiming(
        names=compiled.names,
        settle_band=settle_band,
        metrics=_evaluate_block(
            compiled.topology, r, l, c, settle_band, select
        ),
        _index=compiled.topology.index,
    )


def iter_analyze_batch(
    compiled: CompiledTree,
    fill,
    scenarios: int,
    *,
    chunk_size: int,
    settle_band: float = 0.1,
    metrics: Optional[Sequence[str]] = None,
    evaluate=None,
):
    """Chunked :func:`analyze_batch`: stream scenario blocks through one
    reused staging buffer.

    ``fill(view, lo, hi)`` writes scenario rows ``[lo, hi)`` into
    ``view`` — shape ``(hi - lo, 3, n)``, a slice of one preallocated
    buffer reused for every chunk — so peak value-matrix memory is
    ``O(chunk_size x n)`` however large ``scenarios`` is. Yields
    ``(lo, BatchTiming)`` pairs in offset order; the chunk results are
    bitwise identical to the corresponding rows of one eager
    :func:`analyze_batch` over the full block.

    ``evaluate(view, lo, hi)`` overrides per-chunk evaluation — the
    runtime's sweep dispatcher routes each chunk through its planned
    backend this way; the default evaluates in process via
    :func:`analyze_batch`. The staged slice is only valid until the
    next chunk is staged, matching :class:`BatchTiming`'s
    no-input-retention contract.

    Arguments are validated eagerly at call time, not at first
    iteration.
    """
    validate_settle_band(settle_band)
    scenarios = int(scenarios)
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ReductionError(
            f"chunk_size must be positive, got {chunk_size}"
        )
    if scenarios < 0:
        raise ReductionError(
            f"scenario count must be non-negative, got {scenarios}"
        )
    if metrics is not None:
        metrics = tuple(_metric_field(metric) for metric in metrics)

    def chunks():
        if scenarios == 0:
            return
        buffer = np.empty((min(chunk_size, scenarios), 3, compiled.size))
        for lo in range(0, scenarios, chunk_size):
            hi = min(lo + chunk_size, scenarios)
            view = buffer[: hi - lo]
            fill(view, lo, hi)
            if evaluate is None:
                yield lo, analyze_batch(
                    compiled,
                    view,
                    settle_band=settle_band,
                    metrics=metrics,
                )
            else:
                yield lo, evaluate(view, lo, hi)

    return chunks()
