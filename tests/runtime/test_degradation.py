"""Planner-level graceful degradation when circuit breakers are open.

The contract: a tripped backend is routed around along
``sharded -> compiled -> scalar``, the plan records the walk in its
provenance (``degraded``/``degraded_from`` plus reasons), a forced
backend is never rerouted, and capability floors hold — batch/many
never degrade below the compiled kernels. Context-level behaviour
(warn-once notice, stats counters) rides the same machinery.
"""

import warnings

import numpy as np
import pytest

from repro.circuit import random_tree
from repro.engine import compile_tree
from repro.engine.table import _tile_rows
from repro.runtime import (
    ExecutionContext,
    RuntimeConfig,
    Workload,
    plan,
    reset_degradation_warnings,
)


@pytest.fixture(autouse=True)
def rearm_warnings():
    reset_degradation_warnings()
    yield
    reset_degradation_warnings()


PARALLEL = RuntimeConfig(workers=4)


def big_batch():
    # A flat 100-node tree tiles at 655 rows; 1310 rows span two tiles.
    return Workload(kind="batch", tree_size=100, scenarios=1310)


def threaded_block():
    """A compiled tree plus a value block two serial tiles tall."""
    compiled = compile_tree(random_tree(400, np.random.default_rng(2)))
    nominal = np.stack(
        [compiled.resistance, compiled.inductance, compiled.capacitance]
    )
    return compiled, nominal[None].repeat(
        2 * _tile_rows(compiled.topology), axis=0
    )


class TestPlannerDegradation:
    def test_healthy_routing_unchanged(self):
        decision = plan(big_batch(), PARALLEL)
        assert decision.backend == "sharded"
        assert not decision.degraded
        assert decision.degraded_from is None

    def test_open_sharded_degrades_batch_to_compiled(self):
        decision = plan(big_batch(), PARALLEL, unavailable=("sharded",))
        assert decision.backend == "compiled"
        assert decision.degraded
        assert decision.degraded_from == "sharded"
        assert any("breaker open" in reason for reason in decision.reasons)
        assert "degraded from sharded" in str(decision)

    def test_open_sharded_degrades_sweep_to_compiled(self):
        workload = Workload(kind="sweep", tree_size=100, scenarios=1310)
        decision = plan(workload, PARALLEL, unavailable=("sharded",))
        assert decision.backend == "compiled"
        assert decision.degraded_from == "sharded"

    def test_many_never_needs_the_sharded_breaker(self):
        workload = Workload(kind="many", tree_count=8)
        decision = plan(workload, PARALLEL, unavailable=("sharded",))
        assert decision.backend == "compiled"
        assert not decision.degraded

    def test_batch_never_degrades_below_compiled(self):
        # Even with both parallel backends tripped, batch needs the
        # compiled kernels: the walk stops at the capability floor.
        decision = plan(
            big_batch(), PARALLEL, unavailable=("sharded", "compiled")
        )
        assert decision.backend == "compiled"
        assert decision.degraded  # it did leave sharded
        assert any("needs the compiled kernels" in r for r in decision.reasons)

    def test_point_degrades_compiled_to_scalar(self):
        workload = Workload(kind="point", tree_size=1000)
        decision = plan(workload, RuntimeConfig(), unavailable=("compiled",))
        assert decision.backend == "scalar"
        assert decision.degraded_from == "compiled"

    def test_forced_backend_ignores_open_breaker(self):
        decision = plan(
            big_batch(),
            PARALLEL,
            backend="sharded",
            unavailable=("sharded",),
        )
        assert decision.backend == "sharded"
        assert decision.forced
        assert not decision.degraded
        assert any("ignored" in reason for reason in decision.reasons)

    def test_unrelated_open_breaker_is_no_op(self):
        decision = plan(big_batch(), PARALLEL, unavailable=("scalar",))
        assert decision.backend == "sharded"
        assert not decision.degraded


class TestContextDegradation:
    def test_tripped_breaker_degrades_and_counts(self):
        compiled, block = threaded_block()
        context = ExecutionContext(RuntimeConfig(workers=4))
        context.breakers.breaker("sharded").trip("test trip")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = context.batch(compiled, block)
        assert result.scenarios == len(block)
        stats = context.stats()
        assert stats["plans"]["degraded"] == 1
        assert stats["dispatch"] == {"compiled": 1}
        assert stats["breakers"]["sharded"]["state"] == "open"

    def test_degradation_warns_once_per_route(self):
        compiled, block = threaded_block()
        context = ExecutionContext(RuntimeConfig(workers=4))
        context.breakers.breaker("sharded").trip("test trip")
        with pytest.warns(RuntimeWarning, match="repro.runtime degraded"):
            context.batch(compiled, block)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            context.batch(compiled, block)  # silent the second time

    def test_closed_breaker_keeps_sharded_route(self):
        context = ExecutionContext(RuntimeConfig(workers=4))
        decision = context.plan(big_batch())
        assert decision.backend == "sharded"
        assert not decision.degraded

    def test_shard_failures_feed_the_breaker(self, monkeypatch):
        from repro.errors import DispatchError
        from repro.runtime import backends

        real = backends.analyze_batch_sharded

        def failing(*args, **kwargs):
            return real(*args, fault_shards=(0,), **kwargs)

        monkeypatch.setattr(backends, "analyze_batch_sharded", failing)
        compiled, block = threaded_block()
        context = ExecutionContext(
            RuntimeConfig(workers=2, breaker_threshold=2)
        )
        for _ in range(2):
            with pytest.raises(DispatchError):
                context.batch(compiled, block)
        assert context.breakers.breaker("sharded").state == "open"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = context.batch(compiled, block)
        assert context.stats()["dispatch"]["compiled"] == 1
        assert result.scenarios == len(block)
