"""Per-tree memo of the structure key and value vectors.

``compile_tree`` memoizes each tree's structural key and R/L/C vectors
on the tree, and each topology's key on the topology. ``compile_tree(tree, cache=False)`` reads nothing memoized,
so it is the oracle every memoized result is compared against, bit for
bit.
"""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.circuit import RLCTree, Section, fig5_tree, random_tree
from repro.engine import (
    clear_topology_cache,
    compile_tree,
    topology_cache_info,
    topology_fingerprint,
    topology_key,
)
from repro.engine.dispatch import get_pool, shutdown_pool
from repro.engine.kernels import METRIC_NAMES
from repro.engine.sharded import analyze_many
from repro.engine.table import TimingTable


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


def assert_same_compile(tree):
    """The memoized compile equals a cold one, values and structure."""
    got, want = compile_tree(tree), compile_tree(tree, cache=False)
    assert got.names == want.names
    assert np.array_equal(got.topology.parent, want.topology.parent)
    for name in ("resistance", "inductance", "capacitance"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def build(edges, root="in"):
    """A tree from ``(name, parent)`` pairs in insertion order."""
    tree = RLCTree(root)
    for name, parent in edges:
        tree.add_section(name, parent, 10.0, 1e-9, 1e-13)
    return tree


class TestInvalidation:
    def test_replace_section_refreshes_values(self, fig5):
        first = compile_tree(fig5)
        key = topology_fingerprint(fig5)
        fig5.replace_section("n3", Section(99.0, 7e-9, 3e-13))
        second = compile_tree(fig5)
        i = second.topology.node_index("n3")
        assert first.resistance[i] != 99.0
        assert second.resistance[i] == 99.0
        assert second.inductance[i] == 7e-9
        assert second.capacitance[i] == 3e-13
        # Values changed, structure did not: same key, same topology.
        assert topology_fingerprint(fig5) == key
        assert second.topology is first.topology
        assert_same_compile(fig5)

    def test_add_section_refreshes_key_and_topology(self, fig5):
        first = compile_tree(fig5)
        key = topology_fingerprint(fig5)
        fig5.add_section("n8", "n7", 5.0, 1e-9, 2e-13)
        second = compile_tree(fig5)
        assert topology_fingerprint(fig5) != key
        assert second.topology is not first.topology
        assert second.size == first.size + 1
        assert second.names[-1] == "n8"
        assert second.resistance[-1] == 5.0
        assert topology_key(second.topology) == topology_fingerprint(fig5)
        assert_same_compile(fig5)

    def test_edits_to_returned_arrays_do_not_leak(self, fig5):
        first = compile_tree(fig5)
        pristine = first.resistance.copy()
        first.resistance[:] = -1.0
        first.inductance[0] = np.nan
        np.multiply(first.capacitance, 2.0, out=first.capacitance)
        second = compile_tree(fig5)
        assert second.resistance.tobytes() == pristine.tobytes()
        assert_same_compile(fig5)

    def test_clear_cache_still_forces_a_miss(self, fig5):
        compile_tree(fig5)
        compile_tree(fig5)
        assert topology_cache_info()["hits"] == 1
        clear_topology_cache()
        compile_tree(fig5)
        info = topology_cache_info()
        assert info["misses"] == 1 and info["hits"] == 0 and info["size"] == 1

    def test_mutation_during_a_build_is_not_memoized(self, fig5):
        def mutate(tree):
            tree.replace_section("n1", Section(1.0, 1e-9, 1e-13))
            return "stale"

        assert fig5.derived("values", mutate) == "stale"
        assert fig5.derived("values", lambda tree: "fresh") == "fresh"

    def test_threads_never_serve_stale_values(self):
        tree = random_tree(300, np.random.default_rng(2))
        names = tree.nodes
        stop = threading.Event()
        errors = []

        def compile_loop():
            try:
                while not stop.is_set():
                    compile_tree(tree)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=compile_loop) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for step in range(200):
                name = names[step % len(names)]
                tree.replace_section(name, Section(1.0 + step, 1e-9, 1e-13))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert_same_compile(tree)


class TestStructureKey:
    def test_fixed_size(self):
        tree = random_tree(500, np.random.default_rng(0))
        root, n, digest = topology_fingerprint(tree)
        assert (root, n, len(digest)) == ("in", 500, 16)

    def test_equal_for_equal_structure(self, fig5):
        assert topology_fingerprint(fig5) == topology_fingerprint(fig5_tree())
        assert topology_fingerprint(fig5) == topology_fingerprint(
            fig5.scaled(2.0, 3.0, 4.0)
        )

    def test_matches_topology_key(self, fig5):
        cold = compile_tree(fig5, cache=False)
        assert topology_key(cold.topology) == topology_fingerprint(fig5)
        assert topology_key(compile_tree(fig5).topology) == topology_fingerprint(
            fig5
        )

    def test_renamed_root(self):
        assert topology_fingerprint(
            build([("a", "in"), ("b", "a")])
        ) != topology_fingerprint(build([("a", "src"), ("b", "a")], root="src"))

    def test_moved_parent(self):
        star = build([("a", "in"), ("b", "in")])
        line = build([("a", "in"), ("b", "a")])
        assert topology_fingerprint(star) != topology_fingerprint(line)

    def test_permuted_insertion_order(self):
        first = build([("a", "in"), ("b", "in")])
        second = build([("b", "in"), ("a", "in")])
        assert topology_fingerprint(first) != topology_fingerprint(second)

    def test_name_boundaries_are_unambiguous(self):
        split = build([("ab", "in"), ("c", "in")])
        moved = build([("a", "in"), ("bc", "in")])
        assert topology_fingerprint(split) != topology_fingerprint(moved)


class TestPickling:
    def test_topology_pickle_carries_no_memo(self, fig5):
        topology = compile_tree(fig5).topology
        bare = len(pickle.dumps(topology, protocol=pickle.HIGHEST_PROTOCOL))
        key = topology_key(topology)
        payload = pickle.dumps(topology, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(payload) == bare
        restored = pickle.loads(payload)
        assert restored._key is None
        assert topology_key(restored) == key

    def test_lazy_caches_stay_home(self):
        topology = compile_tree(random_tree(300, np.random.default_rng(1))).topology
        bare = len(pickle.dumps(topology, protocol=pickle.HIGHEST_PROTOCOL))
        for slot in range(topology.size):
            topology.root_path(slot)
        topology.preorder_layout()
        topology.parent_list()
        payload = pickle.dumps(topology, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(payload) == bare
        restored = pickle.loads(payload)
        assert restored.preorder_layout()[0].tobytes() == (
            topology.preorder_layout()[0].tobytes()
        )

    def test_deepcopied_tree_compiles(self, fig5):
        compile_tree(fig5)
        clone = copy.deepcopy(fig5)
        clone.replace_section("n2", Section(42.0, 1e-9, 1e-13))
        assert_same_compile(clone)
        assert_same_compile(fig5)
        i = compile_tree(fig5).topology.node_index("n2")
        assert compile_tree(fig5).resistance[i] != 42.0

    def test_tree_unpickled_without_memo_compiles(self, fig5):
        compile_tree(fig5)
        assert "_derived" not in fig5.__getstate__()
        restored = pickle.loads(pickle.dumps(fig5))
        assert restored._derived == {}
        assert_same_compile(restored)
        assert topology_fingerprint(restored) == topology_fingerprint(fig5)


class TestPooledAnalyzeMany:
    @pytest.fixture(autouse=True)
    def no_leaked_resources(self):
        yield
        shutdown_pool()

    def test_matches_cold_compile_bitwise(self):
        rng = np.random.default_rng(9)
        trees = [random_tree(int(n), rng) for n in rng.integers(20, 400, 6)]
        trees.append(trees[0])  # a repeated tree shares one topology
        cold = analyze_many(trees, cache=False)
        for _ in range(2):  # the second call runs on a warm memo
            pooled = analyze_many(trees)
            for got, want in zip(pooled, cold):
                assert isinstance(got, TimingTable)
                for name in METRIC_NAMES:
                    a, b = getattr(got.metrics, name), getattr(want.metrics, name)
                    assert a.tobytes() == b.tobytes(), name

    def test_worker_side_key_equals_parent_key(self):
        tree = random_tree(200, np.random.default_rng(4))
        topology = compile_tree(tree).topology
        worker_key = get_pool(2).submit(topology_key, topology).result(timeout=60)
        assert worker_key == topology_key(topology) == topology_fingerprint(tree)
