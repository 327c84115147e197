"""Tree sets, threaded scenario shards, per-unit error capture."""

import numpy as np
import pytest

from repro.circuit import RLCTree, Section, random_tree, single_line
from repro.engine import (
    ShardError,
    ShardOutcome,
    analyze_batch,
    analyze_batch_sharded,
    analyze_many,
    clear_topology_cache,
    compile_tree,
    evaluate,
    shutdown_pool,
    table,
    topology_cache_info,
)
from repro.engine import sharded as sharded_mod
from repro.engine.dispatch import pool_size
from repro.engine.kernels import METRIC_NAMES
from repro.engine.sharded import _shard_slices
from repro.errors import ConfigurationError, DispatchError
from repro.runtime import ExecutionContext, RuntimeConfig

WORKERS = 2


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


@pytest.fixture(autouse=True)
def pool_teardown():
    yield
    shutdown_pool()


def tree_set(count=6, size=12):
    return [random_tree(size, np.random.default_rng(seed)) for seed in range(count)]


def scenario_block(compiled, scenarios, seed=0):
    rng = np.random.default_rng(seed)
    nominal = np.stack(
        [compiled.resistance, compiled.inductance, compiled.capacitance]
    )
    return rng.uniform(0.5, 1.5, (scenarios, 3, compiled.size)) * nominal


class TestShardSlices:
    def test_covers_everything_in_order(self):
        slices = _shard_slices(10, 3)
        assert slices == [(0, 4), (4, 7), (7, 10)]

    def test_single_shard(self):
        assert _shard_slices(5, 1) == [(0, 5)]

    def test_more_shards_than_scenarios_never_requested(self):
        # analyze_batch_sharded clamps shards to S before slicing.
        slices = _shard_slices(4, 4)
        assert [stop - start for start, stop in slices] == [1, 1, 1, 1]


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def assert_bitwise(got, want):
    for name in METRIC_NAMES:
        expected = getattr(want, name)
        actual = getattr(got, name)
        if expected is None:
            assert actual is None, name
            continue
        assert actual.shape == expected.shape, name
        np.testing.assert_array_equal(bits(actual), bits(expected), err_msg=name)


def comb(chains, depth):
    tree = RLCTree()
    for c in range(chains):
        parent = tree.root
        for d in range(depth):
            name = f"c{c}_{d}"
            tree.add_section(name, parent, section=Section(15.0, 2e-9, 2e-13))
            parent = name
    return tree


def threading_tree(kind):
    if kind == "chain":
        return single_line(300, resistance=25.0, inductance=2e-9,
                           capacitance=3e-13)
    if kind == "comb":
        return comb(10, 30)
    return random_tree(1000, np.random.default_rng(11))


class TestAnalyzeMany:
    def test_matches_serial_evaluate_bitwise(self):
        trees = tree_set()
        results = analyze_many(trees)
        assert len(results) == len(trees)
        for tree, table in zip(trees, results):
            assert not isinstance(table, ShardError)
            reference = evaluate(compile_tree(tree))
            assert table.names == reference.names
            for metric in ("t_rc", "delay_50", "settling", "overshoot"):
                np.testing.assert_array_equal(
                    table.column(metric), reference.column(metric)
                )

    def test_serial_fallback_is_identical(self):
        # A forced sharded backend evaluates tree sets serially too.
        trees = tree_set(count=4)
        context = ExecutionContext(RuntimeConfig(workers=WORKERS))
        forced = context.analyze_many(trees, backend="sharded")
        serial = analyze_many(trees)
        for a, b in zip(forced, serial):
            np.testing.assert_array_equal(a.delay_50, b.delay_50)
        assert pool_size() == 0

    def test_accepts_compiled_trees(self):
        trees = [compile_tree(t) for t in tree_set(count=3)]
        results = analyze_many(trees)
        for ct, result in zip(trees, results):
            np.testing.assert_array_equal(
                result.delay_50, evaluate(ct).delay_50
            )

    def test_deterministic_input_ordering(self):
        trees = tree_set(count=5)
        first = analyze_many(trees)
        second = analyze_many(trees)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.delay_50, b.delay_50)
        # Order follows the input, not completion: sinks differ per tree.
        for tree, table in zip(trees, first):
            assert table.names == tree.nodes

    def test_poisoned_tree_fails_alone(self):
        trees = tree_set(count=3)
        good = compile_tree(trees[0])
        poisoned = good.with_values(
            np.full(good.size, np.nan), good.inductance, good.capacitance
        )
        results = analyze_many([trees[1], poisoned, trees[2]])
        assert isinstance(results[0], type(evaluate(good)))
        assert isinstance(results[1], ShardError)
        assert isinstance(results[2], type(evaluate(good)))
        error = results[1]
        assert error.scope == "tree"
        assert error.shard == 1
        assert error.error_type == "ElementValueError"
        diagnostic = error.diagnostic
        assert diagnostic.code == "shard-failure"
        assert "tree 1" in diagnostic.message

    def test_metric_selection(self):
        trees = tree_set(count=2)
        results = analyze_many(trees, metrics=("delay_50",))
        full = analyze_many(trees)
        for sel, ref in zip(results, full):
            np.testing.assert_array_equal(sel.delay_50, ref.delay_50)
            with pytest.raises(Exception):
                sel.column("overshoot")

    def test_settle_band_validated_up_front(self):
        with pytest.raises(ConfigurationError):
            analyze_many(tree_set(count=1), settle_band=0.0)

    def test_rc_limit_trees_supported(self):
        rc = single_line(4, resistance=50.0, inductance=0.0,
                         capacitance=0.1e-12)
        result = analyze_many([rc])[0]
        np.testing.assert_array_equal(
            result.delay_50, evaluate(compile_tree(rc)).delay_50
        )

    def test_uncached_compile_leaves_topology_cache_alone(self):
        trees = tree_set(count=3)
        analyze_many(trees[:1])  # one cached topology, one miss
        before = topology_cache_info()
        results = analyze_many(trees, cache=False)
        assert topology_cache_info() == before
        assert all(not isinstance(r, ShardError) for r in results)

    def test_forced_sharded_many_keeps_per_tree_errors(self):
        trees = tree_set(count=3)
        good = compile_tree(trees[0])
        poisoned = good.with_values(
            np.full(good.size, np.nan), good.inductance, good.capacitance
        )
        context = ExecutionContext(RuntimeConfig(workers=WORKERS))
        results = context.analyze_many(
            [trees[1], poisoned, trees[2]], backend="sharded"
        )
        assert len(results) == 3
        assert isinstance(results[1], ShardError)
        assert results[1].error_type == "ElementValueError"
        for tree, result in zip((trees[1], trees[2]), results[::2]):
            assert_bitwise(result.metrics, evaluate(compile_tree(tree)).metrics)


class TestAnalyzeBatchSharded:
    def test_bitwise_identical_to_serial(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 23)
        serial = analyze_batch(compiled, block)
        for shards in (1, 2, 4):
            sharded = analyze_batch_sharded(
                compiled, block, shards=shards, workers=WORKERS
            )
            for metric in ("t_rc", "t_lc", "delay_50", "rise_time",
                           "overshoot", "settling"):
                np.testing.assert_array_equal(
                    getattr(sharded, metric), getattr(serial, metric)
                )

    def test_serial_fallback_when_one_shard(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 7)
        one = analyze_batch_sharded(compiled, block, shards=1)
        serial = analyze_batch(compiled, block)
        np.testing.assert_array_equal(one.delay_50, serial.delay_50)

    def test_workers_one_runs_in_process(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 9)
        sharded = analyze_batch_sharded(
            compiled, block, shards=3, workers=1
        )
        serial = analyze_batch(compiled, block)
        np.testing.assert_array_equal(sharded.delay_50, serial.delay_50)
        assert pool_size() == 0

    def test_metric_selection_matches_serial(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 11)
        sharded = analyze_batch_sharded(
            compiled, block, metrics=("delay_50",), shards=2, workers=WORKERS
        )
        serial = analyze_batch(compiled, block, metrics=("delay_50",))
        np.testing.assert_array_equal(sharded.delay_50, serial.delay_50)
        np.testing.assert_array_equal(sharded.t_rc, serial.t_rc)
        with pytest.raises(Exception):
            sharded.column("settling", "n7")

    def test_shards_clamped_to_scenarios(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 3)
        sharded = analyze_batch_sharded(
            compiled, block, shards=16, workers=WORKERS
        )
        serial = analyze_batch(compiled, block)
        np.testing.assert_array_equal(sharded.delay_50, serial.delay_50)

    def test_invalid_shards_rejected(self, fig5):
        compiled = compile_tree(fig5)
        with pytest.raises(ConfigurationError):
            analyze_batch_sharded(
                compiled, scenario_block(compiled, 4), shards=0
            )

    def test_settle_band_validated_before_dispatch(self, fig5):
        compiled = compile_tree(fig5)
        with pytest.raises(ConfigurationError):
            analyze_batch_sharded(
                compiled, scenario_block(compiled, 4), settle_band=1.5,
                shards=2,
            )


class TestPerShardFailure:
    def test_failed_shard_reports_survivors_keep_results(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 20)
        serial = analyze_batch(compiled, block)
        with pytest.raises(DispatchError) as excinfo:
            analyze_batch_sharded(
                compiled, block, shards=4, workers=WORKERS, fault_shards=(2,)
            )
        error = excinfo.value
        assert len(error.shard_errors) == 1
        assert len(error.partial) == 3
        failed = error.shard_errors[0]
        assert failed.shard == 2
        assert failed.scope == "scenarios"
        assert failed.diagnostic.code == "shard-failure"
        assert "scenarios 10:15" in failed.detail
        # The surviving shards' results match the serial rows exactly.
        for outcome in error.partial:
            assert isinstance(outcome, ShardOutcome)
            np.testing.assert_array_equal(
                outcome.timing.delay_50,
                serial.delay_50[outcome.start:outcome.stop],
            )

    def test_all_shards_failing_still_structured(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 8)
        with pytest.raises(DispatchError) as excinfo:
            analyze_batch_sharded(
                compiled, block, shards=2, workers=WORKERS,
                fault_shards=(0, 1),
            )
        assert len(excinfo.value.shard_errors) == 2
        assert excinfo.value.partial == ()

    def test_fault_injection_works_in_serial_fallback(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 8)
        with pytest.raises(DispatchError):
            analyze_batch_sharded(
                compiled, block, shards=2, workers=0, fault_shards=(1,)
            )


class TestThreadedBatch:
    """Thread-pool batches are bitwise equal to ``analyze_batch``."""

    @pytest.mark.parametrize("kind", ["random", "comb", "chain"])
    @pytest.mark.parametrize("metrics", [None, ("delay_50", "overshoot")])
    def test_bitwise_across_trees_and_metrics(self, kind, metrics):
        compiled = compile_tree(threading_tree(kind))
        rows = table._tile_rows(compiled.topology)
        block = scenario_block(compiled, 4 * rows + 7, seed=3)
        got = analyze_batch_sharded(compiled, block, metrics=metrics,
                                    workers=WORKERS)
        want = analyze_batch(compiled, block, metrics=metrics)
        assert_bitwise(got.metrics, want.metrics)
        assert pool_size() == WORKERS

    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_just_above_the_two_tile_threshold(self, extra):
        compiled = compile_tree(threading_tree("random"))
        rows = table._tile_rows(compiled.topology)
        block = scenario_block(compiled, 2 * rows + extra, seed=4)
        got = analyze_batch_sharded(compiled, block, workers=WORKERS)
        assert_bitwise(got.metrics, analyze_batch(compiled, block).metrics)
        assert pool_size() == WORKERS

    def test_below_two_tiles_stays_in_the_calling_thread(self):
        compiled = compile_tree(threading_tree("random"))
        rows = table._tile_rows(compiled.topology)
        block = scenario_block(compiled, 2 * rows - 1, seed=4)
        got = analyze_batch_sharded(compiled, block, workers=WORKERS)
        assert_bitwise(got.metrics, analyze_batch(compiled, block).metrics)
        assert pool_size() == 0

    def test_cold_topology_first_evaluated_on_threads(self):
        tree = threading_tree("random")
        compiled = compile_tree(tree, cache=False)
        rows = table._tile_rows(compiled.topology)
        block = scenario_block(compiled, 3 * rows + 1, seed=6)
        got = analyze_batch_sharded(compiled, block, workers=WORKERS)
        want = analyze_batch(compile_tree(tree, cache=False), block)
        assert_bitwise(got.metrics, want.metrics)

    def test_cells_in_flight_stay_at_one_serial_tile(self, monkeypatch):
        compiled = compile_tree(threading_tree("random"))
        rows = table._tile_rows(compiled.topology)
        heights = []
        evaluate_block = sharded_mod._evaluate_block

        def spy(*args, **kwargs):
            heights.append(kwargs["rows"])
            return evaluate_block(*args, **kwargs)

        monkeypatch.setattr(sharded_mod, "_evaluate_block", spy)
        block = scenario_block(compiled, 4 * rows, seed=2)
        analyze_batch_sharded(compiled, block, workers=WORKERS)
        assert heights == [rows // WORKERS] * WORKERS
