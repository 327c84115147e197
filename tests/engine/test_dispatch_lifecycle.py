"""Deterministic lifecycle of the dispatch layer's thread pool.

The pool is created lazily and lives until ``shutdown_pool`` (the
runtime context calls it on close) or a ``dispatch_pool`` scope ends.
These tests exercise the scope paths — creation, reuse, teardown on
success and on error, idempotent close — and the fan-out primitive.
"""

import threading

import numpy as np
import pytest

from repro.circuit import random_tree
from repro.engine import analyze_batch, compile_tree, dispatch_pool
from repro.engine.dispatch import (
    get_pool,
    pool_size,
    run_supervised,
    shutdown_pool,
)
from repro.engine.sharded import analyze_batch_sharded
from repro.engine.table import _tile_rows
from repro.errors import ReproError


@pytest.fixture(autouse=True)
def no_leaked_pool():
    shutdown_pool()
    yield
    shutdown_pool()


class TestDispatchPoolScope:
    def test_pool_lives_only_inside_block(self):
        assert pool_size() == 0
        with dispatch_pool(2):
            assert pool_size() == 2
        assert pool_size() == 0

    def test_teardown_happens_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with dispatch_pool(2):
                assert pool_size() == 2
                raise RuntimeError("boom")
        assert pool_size() == 0

    def test_too_few_workers_rejected(self):
        with pytest.raises(ReproError):
            with dispatch_pool(1):
                pass  # pragma: no cover - never entered

    def test_dispatch_inside_scope_reuses_pool(self):
        compiled = compile_tree(random_tree(500, np.random.default_rng(0)))
        block = np.stack(
            [compiled.resistance, compiled.inductance, compiled.capacitance]
        )[None].repeat(3 * _tile_rows(compiled.topology), axis=0)
        with dispatch_pool(2) as pool:
            got = analyze_batch_sharded(compiled, block, workers=2)
            assert pool_size() == 2
            # Same pool object is still the live one after dispatching.
            assert get_pool(2) is pool
        assert pool_size() == 0
        np.testing.assert_array_equal(
            got.delay_50, analyze_batch(compiled, block).delay_50
        )


class TestSupervisedLifecycle:
    """Pool scoping, resizing and the fan-out primitive."""

    def test_nested_dispatch_pool_reuses_and_defers_teardown(self):
        # The inner scope must not tear down the pool the outer scope
        # still owns; only the outermost exit shuts it down.
        with dispatch_pool(2) as outer:
            with dispatch_pool(2) as inner:
                assert inner is outer
                assert pool_size() == 2
            assert pool_size() == 2  # inner exit is a no-op
        assert pool_size() == 0

    def test_shutdown_pool_is_idempotent(self):
        get_pool(2)
        shutdown_pool()
        shutdown_pool()  # second call: nothing to do, must not raise
        assert pool_size() == 0

    def test_results_come_back_in_unit_order(self):
        release = threading.Event()

        def task(unit):
            if unit == 0:
                release.wait(5.0)  # the first unit finishes last
            else:
                release.set()
            return unit * unit

        assert run_supervised(range(4), task, 2) == [0, 1, 4, 9]

    def test_resize_lets_submitted_work_finish(self):
        started, release = threading.Event(), threading.Event()

        def slow():
            started.set()
            release.wait(5.0)
            return "done"

        old = get_pool(2)
        future = old.submit(slow)
        started.wait(5.0)
        new = get_pool(3)
        assert new is not old and pool_size() == 3
        release.set()
        assert future.result(timeout=5.0) == "done"
