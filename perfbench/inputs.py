"""Seeded workload inputs: the same seed gives the same inputs.

Input *sizes* are fixed per workload and only values, topologies and
orders come from the seed, so runs on different seeds measure the same
amount of work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

#: Metrics every served ``/analyze`` asks for.
SERVE_METRICS = ["delay_50", "rise_time", "overshoot"]
#: Nodes asked for on a big served tree (the response stays small).
BIG_NODES = 8
#: Sections of the big served trees: above the runtime's
#: ``point_scalar_max`` (64), so they take the compiled point path.
BIG_SECTIONS = 300
#: Distinct topologies among the big served trees.
BIG_TOPOLOGIES = 4

#: Served request mix: (kind, share). ``fig5`` repeats one identical
#: text; ``batch`` is a small ``/analyze_batch`` on that same text;
#: ``variant`` and ``big`` are each a text not sent before.
SERVE_MIX = (("fig5", 0.40), ("batch", 0.10), ("variant", 0.35), ("big", 0.15))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _scaled(tree, factors: np.ndarray, names):
    """``tree`` with section values times ``factors`` (3, n) in ``names`` order."""
    from repro.circuit.elements import Section

    index = {name: i for i, name in enumerate(names)}

    def jitter(name, section):
        i = index[name]
        return Section(section.resistance * factors[0, i],
                       section.inductance * factors[1, i],
                       section.capacitance * factors[2, i])

    return tree.map_sections(jitter)


def with_values(tree, values: np.ndarray, names):
    """``tree`` with section values ``values`` (3, n) in ``names`` order."""
    from repro.circuit.elements import Section

    index = {name: i for i, name in enumerate(names)}

    def assign(name, _section):
        i = index[name]
        return Section(values[0, i], values[1, i], values[2, i])

    return tree.map_sections(assign)


def _factors(rng: np.random.Generator, shape, sigma: float = 0.1) -> np.ndarray:
    return np.exp(rng.normal(0.0, sigma, size=shape))


# -- serve_mixed --------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    kind: str        # fig5 | batch | variant | big
    path: str        # /analyze | /analyze_batch
    body: bytes


def serve_requests(seed: int, count: int, stream: int) -> List[Request]:
    """``count`` requests drawn from :data:`SERVE_MIX`."""
    from repro.circuit import dumps, fig5_tree, random_tree
    from repro.engine.compiled import compile_tree

    rng = _rng(seed, stream)
    fig5 = fig5_tree()
    fig5_text = dumps(fig5)
    fig5_compiled = compile_tree(fig5)
    nominal = np.stack((fig5_compiled.resistance, fig5_compiled.inductance,
                        fig5_compiled.capacitance))
    bases = [random_tree(BIG_SECTIONS, _rng(seed, 100 + k))
             for k in range(BIG_TOPOLOGIES)]
    fig5_body = json.dumps({"netlist": fig5_text, "metrics": SERVE_METRICS}).encode()
    kinds = [kind for kind, _share in SERVE_MIX]
    shares = [share for _kind, share in SERVE_MIX]
    picks = rng.choice(len(kinds), size=count, p=shares)
    requests = []
    for pick in picks:
        kind = kinds[pick]
        if kind == "fig5":
            requests.append(Request(kind, "/analyze", fig5_body))
        elif kind == "batch":
            scenarios = int(rng.integers(2, 9))
            rlc = nominal[None] * _factors(rng, (scenarios, 3, fig5_compiled.size))
            body = {"netlist": fig5_text, "rlc": rlc.tolist(), "metrics": SERVE_METRICS}
            requests.append(Request(kind, "/analyze_batch", json.dumps(body).encode()))
        elif kind == "variant":
            tree = _scaled(fig5, _factors(rng, (3, fig5_compiled.size)),
                           fig5_compiled.names)
            body = {"netlist": dumps(tree), "metrics": SERVE_METRICS}
            requests.append(Request(kind, "/analyze", json.dumps(body).encode()))
        else:
            base = bases[int(rng.integers(len(bases)))]
            names = list(base.nodes)
            tree = _scaled(base, _factors(rng, (3, len(names))), names)
            nodes = sorted(rng.choice(names, size=BIG_NODES, replace=False).tolist())
            body = {"netlist": dumps(tree), "metrics": SERVE_METRICS, "nodes": nodes}
            requests.append(Request(kind, "/analyze", json.dumps(body).encode()))
    return requests


def arrivals(seed: int, rate: float, duration: float) -> List[float]:
    """Poisson arrival offsets (seconds) within ``duration``."""
    rng = _rng(seed, 2)
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 2) + 16)
    times = np.cumsum(gaps)
    return times[times < duration].tolist()


# -- batch --------------------------------------------------------------------

BATCH_SCENARIOS = 2000
BATCH_SECTIONS = 1000
MANY_TREES = 64
MANY_SIZES = (200, 4000)


def batch_inputs(seed: int):
    """``(tree, compiled, rlc, trees)``: the block's tree, the scenario
    block and the many-tree set.

    Tree sizes are evenly spaced over :data:`MANY_SIZES` in a seeded
    order, so every seed asks for the same number of nodes.
    """
    from repro.circuit import random_tree
    from repro.engine.compiled import compile_tree

    rng = _rng(seed, 3)
    tree = random_tree(BATCH_SECTIONS, rng)
    compiled = compile_tree(tree)
    nominal = np.stack((compiled.resistance, compiled.inductance, compiled.capacitance))
    rlc = nominal[None] * _factors(rng, (BATCH_SCENARIOS, 3, BATCH_SECTIONS), 0.2)
    sizes = np.linspace(*MANY_SIZES, MANY_TREES).round().astype(int)
    rng.shuffle(sizes)
    trees = [random_tree(int(size), rng) for size in sizes]
    return tree, compiled, rlc, trees


# -- sweep_mc -----------------------------------------------------------------

SWEEP_SAMPLES = 1_000_000


def sweep_seeds(seed: int, count: int) -> List[int]:
    """Draw seeds of the successive sweeps of one run."""
    return [int(s) for s in _rng(seed, 4).integers(0, 2**31, size=count)]


# -- design loops (sweep_mc rounds) ------------------------------------------

SIZING_SECTIONS = (1000, 4000)
SIZING_LADDER = 16
CLOCK_LEVELS = 4


def sizing_problems(seed: int) -> Iterator:
    """An endless stream of distinct wire-sizing problems.

    Section counts come from a fixed ladder over :data:`SIZING_SECTIONS`,
    one seeded permutation of the whole ladder after another, so every
    :data:`SIZING_LADDER` consecutive problems use each count once and
    any whole number of ladders has the same size mix. The geometry and
    the driver values are seeded too.
    """
    from repro.apps.wire_sizing import WireSizingProblem

    rng = _rng(seed, 5)
    ladder = np.linspace(*SIZING_SECTIONS, SIZING_LADDER).round().astype(int)
    while True:
        for sections in rng.permutation(ladder):
            yield WireSizingProblem(
                length=float(rng.uniform(3e-3, 8e-3)),
                driver_resistance=float(rng.uniform(15.0, 60.0)),
                load_capacitance=float(rng.uniform(20e-15, 100e-15)),
                num_sections=int(sections),
            )


def clock_trees(seed: int) -> Iterator:
    """An endless stream of seeded process-variation copies of one H-tree."""
    from repro.apps.clock_skew import h_tree, perturbed_clock_tree

    base = h_tree(levels=CLOCK_LEVELS)
    rng = _rng(seed, 6)
    while True:
        yield perturbed_clock_tree(base, relative_spread=0.1,
                                   seed=int(rng.integers(0, 2**31)))
