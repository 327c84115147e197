"""Repeat ``analyze_many`` calls — memoized compiles against cold ones.

``compile_tree`` memoizes each tree's structure key and value vectors
on the tree, so a second ``analyze_many`` over the same trees walks no
tree in Python. The oracle is the cold path, ``cache=False``, which
reads nothing memoized. On 64 random trees of 200-4000 sections, the
gate asserts over interleaved repeats:

* the repeat call is bitwise equal to the cold call, every field of
  every tree;
* the repeat call is at least 3x faster at the median (measured
  8.9x on a 2-core Xeon VM). Before the memo, a repeat call already
  ran 2.2x faster than a cold one, because the cold path also rebuilds
  every topology's level and child arrays; the floor sits above that.

Repeats stop early once ``TIME_BUDGET_S`` has passed, so the gate stays
quick on a slow machine. Run with::

    pytest benchmarks/bench_many_repeat.py -m perf -s
"""

import statistics
import time

import numpy as np
import pytest

from repro.circuit import random_tree
from repro.engine import clear_topology_cache
from repro.engine.kernels import METRIC_NAMES
from repro.engine.sharded import analyze_many

TREES = 64
SECTIONS = (200, 4000)
REPEATS = 7
MIN_REPEATS = 3
TIME_BUDGET_S = 30.0
SPEEDUP_FLOOR = 3.0


def _trees(seed=5):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(SECTIONS[0], SECTIONS[1] + 1, size=TREES)
    return [random_tree(int(n), rng) for n in sizes]


def _repeat(trees):
    return analyze_many(trees)


def _cold(trees):
    return analyze_many(trees, cache=False)


def _timed(fn, trees):
    start = time.perf_counter()
    fn(trees)
    return time.perf_counter() - start


def _bitwise(got, want) -> bool:
    return all(
        getattr(a.metrics, name).tobytes() == getattr(b.metrics, name).tobytes()
        for a, b in zip(got, want)
        for name in METRIC_NAMES
    )


def run_many_repeat(repeats=REPEATS) -> dict:
    clear_topology_cache()
    trees = _trees()
    want = _cold(trees)
    got = _repeat(trees)  # fills the memo and the topology cache
    bitwise = len(got) == len(want) == TREES and _bitwise(_repeat(trees), want)
    del want, got
    cold_s, repeat_s = [], []
    deadline = time.perf_counter() + TIME_BUDGET_S
    for rep in range(repeats):
        if rep >= MIN_REPEATS and time.perf_counter() > deadline:
            break
        # Alternate which side runs first so drift hits both equally.
        pair = [(cold_s, _cold), (repeat_s, _repeat)]
        for samples, fn in pair if rep % 2 == 0 else pair[::-1]:
            samples.append(_timed(fn, trees))
    clear_topology_cache()
    return {
        "trees": TREES,
        "nodes": sum(tree.size for tree in trees),
        "repeats": len(cold_s),
        "bitwise": bitwise,
        "cold_ms": statistics.median(cold_s) * 1e3,
        "repeat_ms": statistics.median(repeat_s) * 1e3,
        "speedup": statistics.median(cold_s) / statistics.median(repeat_s),
    }


def check_many_repeat(results: dict) -> list:
    failures = []
    if not results["bitwise"]:
        failures.append("repeat analyze_many diverged from the cold compile")
    if results["speedup"] < SPEEDUP_FLOOR:
        failures.append(
            f"repeat speedup {results['speedup']:.2f}x is below "
            f"{SPEEDUP_FLOOR}x"
        )
    return failures


@pytest.mark.perf
def test_many_repeat_quick():
    """The CI contract: bitwise, >=3x median speedup over a cold compile."""
    results = run_many_repeat()
    print(results)
    failures = check_many_repeat(results)
    assert not failures, failures
