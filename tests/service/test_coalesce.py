"""The coalescer's correctness contract: bitwise fidelity, isolation.

Coalescing is only admissible because the batch kernels are
row-independent — merging S point queries into one ``(S, 3, n)`` block
must change **nothing** about each member's answer. These tests pin
that, plus the failure-isolation rule: one bad member never poisons its
group, and the grouping rule itself: a query on an idle coalescer
flushes at once, and queries merge only while a flush is in flight.

Merging is provoked deterministically, never by timing: the ``held``
context blocks its first ``batch`` call until the test releases it, so
every later query provably arrives while a flush is in flight.
"""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.circuit import fig5_tree
from repro.engine.compiled import compile_tree
from repro.errors import ReproError, TopologyError
from repro.runtime import ExecutionContext
from repro.service import PointCoalescer

METRICS = ("delay_50", "rise_time", "overshoot", "settling")


@pytest.fixture
def context():
    with ExecutionContext() as ctx:
        yield ctx


@pytest.fixture
def executor():
    pool = ThreadPoolExecutor(max_workers=1)
    yield pool
    pool.shutdown(wait=True)


@pytest.fixture
def wide_executor():
    """Two threads: a second group can run beside a held one."""
    pool = ThreadPoolExecutor(max_workers=2)
    yield pool
    pool.shutdown(wait=True)


async def hold(coalescer, compiled):
    """Start a blocker query; on return its flush is in flight."""
    blocker = asyncio.ensure_future(
        coalescer.analyze(compiled, 0.1, ["n1"], ["delay_50"])
    )
    await asyncio.sleep(0)
    assert coalescer.pending == 0  # flushed at once, now busy
    return blocker


def perturbed(compiled, factor: float):
    """The same topology with all values scaled by ``factor``."""
    return compiled.with_values(
        compiled.resistance * factor,
        compiled.inductance * factor,
        compiled.capacitance * factor,
    )


def direct_reference(context, compiled, settle_band=0.1):
    """What a direct one-scenario ExecutionContext call returns."""
    rlc = np.stack(
        (compiled.resistance, compiled.inductance, compiled.capacitance)
    )[None]
    return context.batch(compiled, rlc, settle_band=settle_band)


class TestBitwiseFidelity:
    def test_single_query_matches_direct_call(self, context, executor):
        compiled = compile_tree(fig5_tree())
        coalescer = PointCoalescer(context, executor)

        async def go():
            return await coalescer.analyze(
                compiled, 0.1, compiled.names, METRICS
            )

        result, size = asyncio.run(go())
        assert size == 1
        reference = direct_reference(context, compiled)
        for node in compiled.names:
            for metric in METRICS:
                assert (
                    result[node][metric]
                    == float(reference.column(metric, node)[0])
                )

    def test_coalesced_group_is_bitwise_identical_to_direct(
        self, context, executor, held
    ):
        base = compile_tree(fig5_tree())
        members = [perturbed(base, f) for f in (0.5, 1.0, 1.7, 2.3, 4.1)]
        coalescer = PointCoalescer(held.context, executor)

        async def go():
            blocker = await hold(coalescer, base)
            queries = asyncio.gather(
                *[
                    coalescer.analyze(m, 0.1, m.names, METRICS)
                    for m in members
                ]
            )
            await asyncio.sleep(0)
            assert coalescer.pending == len(members)
            held.release()
            await blocker
            return await queries

        results = asyncio.run(go())
        # All five queries arrived during the blocker's flush: after it,
        # one group.
        assert coalescer.groups_flushed == 2
        assert {size for _, size in results} == {len(members)}
        for member, (result, _) in zip(members, results):
            reference = direct_reference(context, member)
            for node in member.names:
                for metric in METRICS:
                    assert (
                        result[node][metric]
                        == float(reference.column(metric, node)[0])
                    ), f"{metric}@{node} differs from direct evaluation"


class TestGrouping:
    def test_max_group_flushes_immediately(self, wide_executor, held):
        compiled = compile_tree(fig5_tree())
        # Two executor threads: the full group can run beside the held
        # blocker, which stays in flight for the whole wait below. Only
        # the size trigger can flush, so resolving at all proves the
        # immediate flush.
        coalescer = PointCoalescer(held.context, wide_executor, max_group=2)

        async def go():
            blocker = await hold(coalescer, compiled)
            try:
                return await asyncio.wait_for(
                    asyncio.gather(
                        coalescer.analyze(
                            compiled, 0.1, ["n1"], ["delay_50"]
                        ),
                        coalescer.analyze(
                            compiled, 0.1, ["n2"], ["delay_50"]
                        ),
                    ),
                    timeout=10.0,
                )
            finally:
                held.release()
                await blocker

        results = asyncio.run(go())
        assert [size for _, size in results] == [2, 2]

    def test_different_settle_bands_do_not_merge(self, context, executor):
        compiled = compile_tree(fig5_tree())
        coalescer = PointCoalescer(context, executor)

        async def go():
            return await asyncio.gather(
                coalescer.analyze(compiled, 0.1, ["n1"], ["settling"]),
                coalescer.analyze(compiled, 0.02, ["n1"], ["settling"]),
            )

        (a, size_a), (b, size_b) = asyncio.run(go())
        assert size_a == size_b == 1
        assert coalescer.groups_flushed == 2
        # And the answers really differ: the band is part of the metric.
        assert a["n1"]["settling"] != b["n1"]["settling"]

    def test_stats_track_hit_rate(self, executor, held):
        compiled = compile_tree(fig5_tree())
        coalescer = PointCoalescer(held.context, executor)

        async def go():
            blocker = await hold(coalescer, compiled)
            queries = asyncio.gather(
                *[
                    coalescer.analyze(compiled, 0.1, ["n1"], ["delay_50"])
                    for _ in range(4)
                ]
            )
            await asyncio.sleep(0)
            held.release()
            await asyncio.gather(blocker, queries)

        asyncio.run(go())
        stats = coalescer.stats()
        # The blocker alone, then the four that queued behind it.
        assert stats["requests"] == 5
        assert stats["groups"] == 2
        assert stats["coalesced_requests"] == 3
        assert stats["hit_rate"] == pytest.approx(0.6)
        assert stats["largest_group"] == 4
        assert stats["pending"] == 0

    def test_drain_flushes_pending_groups(self, executor, held):
        compiled = compile_tree(fig5_tree())
        coalescer = PointCoalescer(held.context, executor)

        async def go():
            blocker = await hold(coalescer, compiled)
            task = asyncio.ensure_future(
                coalescer.analyze(compiled, 0.1, ["n1"], ["delay_50"])
            )
            await asyncio.sleep(0)  # let the member join its group
            assert coalescer.pending == 1
            draining = asyncio.ensure_future(coalescer.drain())
            await asyncio.sleep(0)
            held.release()
            await asyncio.gather(draining, blocker)
            return await asyncio.wait_for(task, timeout=5.0)

        result, size = asyncio.run(go())
        assert size == 1
        assert "delay_50" in result["n1"]


class TestBusyBatching:
    """The grouping rule: no timer, merge only behind an in-flight flush."""

    def test_idle_query_flushes_alone_without_sleeping(
        self, context, executor, monkeypatch
    ):
        compiled = compile_tree(fig5_tree())
        coalescer = PointCoalescer(context, executor)
        real_sleep = asyncio.sleep

        async def no_sleep(*args, **kwargs):
            raise AssertionError("the coalescer must not sleep")

        async def go():
            with monkeypatch.context() as patch:
                patch.setattr(asyncio, "sleep", no_sleep)
                task = asyncio.ensure_future(
                    coalescer.analyze(compiled, 0.1, ["n1"], ["delay_50"])
                )
                await real_sleep(0)
                # Already flushed: nothing waits for company.
                assert coalescer.pending == 0
                return await asyncio.wait_for(task, timeout=10.0)

        result, size = asyncio.run(go())
        assert size == 1
        reference = direct_reference(context, compiled)
        assert result["n1"]["delay_50"] == float(
            reference.column("delay_50", "n1")[0]
        )

    def test_queries_during_inflight_flush_merge_by_key(
        self, context, executor, held
    ):
        compiled = compile_tree(fig5_tree())
        coalescer = PointCoalescer(held.context, executor)

        async def go():
            blocker = await hold(coalescer, compiled)
            queries = asyncio.gather(
                coalescer.analyze(compiled, 0.1, ["n1"], ["settling"]),
                coalescer.analyze(compiled, 0.02, ["n1"], ["settling"]),
                coalescer.analyze(compiled, 0.1, ["n2"], ["settling"]),
                coalescer.analyze(compiled, 0.02, ["n2"], ["settling"]),
                coalescer.analyze(compiled, 0.1, ["n3"], ["settling"]),
            )
            await asyncio.sleep(0)
            # Everyone waits behind the blocker, one group per band.
            assert coalescer.pending == 5
            assert coalescer.groups_flushed == 1
            held.release()
            _, blocker_size = await blocker
            return blocker_size, await queries

        blocker_size, results = asyncio.run(go())
        assert blocker_size == 1
        assert [size for _, size in results] == [3, 2, 3, 2, 3]
        assert coalescer.groups_flushed == 3
        assert coalescer.pending == 0
        reference = direct_reference(context, compiled, settle_band=0.02)
        assert results[1][0]["n1"]["settling"] == float(
            reference.column("settling", "n1")[0]
        )

    def test_failed_batch_does_not_leave_the_coalescer_busy(
        self, context, executor
    ):
        compiled = compile_tree(fig5_tree())

        class FailsOnce:
            calls = 0

            def batch(self, *args, **kwargs):
                FailsOnce.calls += 1
                if FailsOnce.calls == 1:
                    raise ReproError("engine exploded")
                return context.batch(*args, **kwargs)

        coalescer = PointCoalescer(FailsOnce(), executor)

        async def go():
            with pytest.raises(ReproError, match="exploded"):
                await coalescer.analyze(compiled, 0.1, ["n1"], ["delay_50"])
            task = asyncio.ensure_future(
                coalescer.analyze(compiled, 0.1, ["n1"], ["delay_50"])
            )
            await asyncio.sleep(0)
            # Idle again: the next query flushed at once, it is not
            # stuck waiting behind a flush that already failed.
            assert coalescer.pending == 0
            return await asyncio.wait_for(task, timeout=10.0)

        result, size = asyncio.run(go())
        assert size == 1
        assert "delay_50" in result["n1"]

    def test_drain_does_not_wait_for_the_inflight_flush(
        self, wide_executor, held
    ):
        compiled = compile_tree(fig5_tree())
        coalescer = PointCoalescer(held.context, wide_executor)

        async def go():
            blocker = await hold(coalescer, compiled)
            queries = asyncio.gather(
                coalescer.analyze(compiled, 0.1, ["n1"], ["delay_50"]),
                coalescer.analyze(compiled, 0.1, ["n2"], ["delay_50"]),
            )
            await asyncio.sleep(0)
            assert coalescer.pending == 2
            try:
                # The blocker is still held: drain completing proves it
                # flushed the waiting group instead of queueing behind.
                await asyncio.wait_for(coalescer.drain(), timeout=10.0)
                assert coalescer.pending == 0
                assert not blocker.done()
                return await queries
            finally:
                held.release()
                await blocker

        results = asyncio.run(go())
        assert [size for _, size in results] == [2, 2]


class TestFailureIsolation:
    def test_bad_member_fails_alone(self, context, executor, held):
        compiled = compile_tree(fig5_tree())
        coalescer = PointCoalescer(held.context, executor)

        async def go():
            blocker = await hold(coalescer, compiled)
            queries = asyncio.gather(
                coalescer.analyze(compiled, 0.1, ["n1"], ["delay_50"]),
                coalescer.analyze(compiled, 0.1, ["no_such"], ["delay_50"]),
                coalescer.analyze(compiled, 0.1, ["n4"], ["delay_50"]),
                return_exceptions=True,
            )
            await asyncio.sleep(0)
            held.release()
            await blocker
            return await queries

        good1, bad, good2 = asyncio.run(go())
        assert isinstance(bad, TopologyError)
        # The failing member shared a group with the survivors.
        assert good1[1] == 3 and good2[1] == 3
        reference = direct_reference(context, compiled)
        assert (
            good1[0]["n1"]["delay_50"]
            == float(reference.column("delay_50", "n1")[0])
        )
        assert (
            good2[0]["n4"]["delay_50"]
            == float(reference.column("delay_50", "n4")[0])
        )

    def test_engine_failure_fails_the_whole_group(self, executor):
        compiled = compile_tree(fig5_tree())

        class BrokenContext:
            def batch(self, *args, **kwargs):
                raise ReproError("engine exploded")

        coalescer = PointCoalescer(BrokenContext(), executor)

        async def go():
            return await asyncio.gather(
                coalescer.analyze(compiled, 0.1, ["n1"], ["delay_50"]),
                coalescer.analyze(compiled, 0.1, ["n2"], ["delay_50"]),
                return_exceptions=True,
            )

        results = asyncio.run(go())
        assert all(isinstance(r, ReproError) for r in results)

    def test_rejects_bad_parameters(self, context, executor):
        with pytest.raises(ReproError, match="max_group"):
            PointCoalescer(context, executor, max_group=0)
