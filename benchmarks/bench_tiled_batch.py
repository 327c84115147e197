"""Row-tiled batch evaluation — speed and peak memory against one pass.

``analyze_batch`` walks a large ``(S, n)`` scenario block in row tiles
of ``_TILE_CELLS`` cells, so the tree passes and the metric kernels
work on cache-sized temporaries instead of streaming ~60 fresh
``S x n`` arrays through memory. The oracle is the untiled pipeline:
both tree passes and ``metrics_from_sums`` over the whole block at
once. On a 2000 x 1000 branching block the gate asserts, over
interleaved repeats:

* the tiled result is bitwise equal to the oracle's, every field;
* the tiled evaluation is at least 1.3x faster at the median
  (measured 1.5-1.9x on a 2-core Xeon VM);
* its ``tracemalloc`` peak is at most 0.6x the oracle's (the tiled peak
  is the eight ``(S, n)`` outputs plus one tile's temporaries).

Run with::

    pytest benchmarks/bench_tiled_batch.py -m perf -s
"""

import statistics
import time
import tracemalloc

import numpy as np
import pytest

from repro.circuit import random_tree
from repro.engine import analyze_batch, compile_tree
from repro.engine.kernels import METRIC_NAMES, metrics_from_sums

SCENARIOS = 2000
SECTIONS = 1000
REPEATS = 7
SPEEDUP_FLOOR = 1.3
PEAK_CEILING = 0.6


def _inputs(seed=3):
    rng = np.random.default_rng(seed)
    compiled = compile_tree(random_tree(SECTIONS, rng), cache=False)
    nominal = np.stack(
        [compiled.resistance, compiled.inductance, compiled.capacitance]
    )
    rlc = nominal * rng.uniform(0.8, 1.2, size=(SCENARIOS, 3, SECTIONS))
    return compiled, rlc


def _untiled(compiled, rlc):
    topology = compiled.topology
    r, l, c = rlc[:, 0], rlc[:, 1], rlc[:, 2]
    loads = topology.accumulate(c)
    t_rc = topology.descend(r * loads)
    t_lc = topology.descend(l * loads)
    return metrics_from_sums(t_rc, t_lc)


def _tiled(compiled, rlc):
    return analyze_batch(compiled, rlc).metrics


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_tiled(repeats=REPEATS) -> dict:
    compiled, rlc = _inputs()
    want, got = _untiled(compiled, rlc), _tiled(compiled, rlc)
    bitwise = all(
        np.array_equal(
            np.ascontiguousarray(getattr(got, name)).view(np.uint64),
            np.ascontiguousarray(getattr(want, name)).view(np.uint64),
        )
        for name in METRIC_NAMES
    )
    del want, got
    untiled_s, tiled_s = [], []
    for rep in range(repeats):
        # Alternate which side runs first so drift hits both equally.
        pair = [(untiled_s, _untiled), (tiled_s, _tiled)]
        for samples, fn in pair if rep % 2 == 0 else pair[::-1]:
            samples.append(_timed(fn, compiled, rlc))
    untiled_peak = _peak(_untiled, compiled, rlc)
    tiled_peak = _peak(_tiled, compiled, rlc)
    return {
        "scenarios": SCENARIOS,
        "sections": SECTIONS,
        "bitwise": bitwise,
        "untiled_ms": statistics.median(untiled_s) * 1e3,
        "tiled_ms": statistics.median(tiled_s) * 1e3,
        "speedup": statistics.median(untiled_s) / statistics.median(tiled_s),
        "untiled_peak_mb": untiled_peak / 2**20,
        "tiled_peak_mb": tiled_peak / 2**20,
        "peak_ratio": tiled_peak / untiled_peak,
    }


def check_tiled(results: dict) -> list:
    failures = []
    if not results["bitwise"]:
        failures.append("tiled analyze_batch diverged from the untiled pass")
    if results["speedup"] < SPEEDUP_FLOOR:
        failures.append(
            f"tiled speedup {results['speedup']:.2f}x is below "
            f"{SPEEDUP_FLOOR}x"
        )
    if results["peak_ratio"] > PEAK_CEILING:
        failures.append(
            f"tiled peak is {results['peak_ratio']:.2f}x the untiled peak "
            f"(ceiling {PEAK_CEILING}x)"
        )
    return failures


@pytest.mark.perf
def test_tiled_batch_quick():
    """The CI contract: bitwise, >=1.3x median speedup, <=0.6x peak."""
    results = run_tiled()
    print(results)
    failures = check_tiled(results)
    assert not failures, failures
