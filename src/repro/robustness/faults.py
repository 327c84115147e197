"""Seeded fault injection: degenerate trees and chaos perturbations.

The robustness guarantee this package makes — *every metric query either
returns finite numbers or raises a* :class:`~repro.errors.ReproError`
*subclass* — is only worth stating if it is exercised against inputs far
outside the friendly regime of the paper's benchmarks. This module
generates those inputs deterministically from a seed:

* :func:`degenerate_tree` — one tree from a catalogue of hostile
  families (huge fanout stars, deep chains, near-zero / near-overflow
  element values, zero-capacitance branching nodes, critically damped
  cascades, wild mixed-scale RC/RLC topologies);
* :func:`perturb` — chaos-style mutation of an existing tree, including
  *invalid* values (NaN, inf, negative) injected past the
  :class:`~repro.circuit.elements.Section` constructor's checks, the
  way corrupted extraction data or a buggy upstream tool would produce
  them;
* :func:`fault_suite` — a reproducible stream of
  :class:`FaultCase` records for the test harness.

Everything is driven by ``numpy.random.default_rng(seed)``; the same
seed always yields the same tree, so a failing case from CI reproduces
locally with one integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..circuit.builders import random_tree, single_line
from ..circuit.elements import Section
from ..circuit.tree import RLCTree

__all__ = [
    "FaultCase",
    "FAMILIES",
    "degenerate_tree",
    "perturb",
    "fault_suite",
]

#: The degenerate-tree families :func:`degenerate_tree` cycles through.
FAMILIES = (
    "huge-fanout",
    "deep-chain",
    "near-zero",
    "near-inf",
    "mixed-scale",
    "zero-capacitance",
    "critical-cascade",
    "rc-rlc-mix",
    "chaos",
)


@dataclass(frozen=True)
class FaultCase:
    """One generated hostile input.

    ``mutations`` lists the chaos mutations applied on top of the base
    family (empty for pristine members of a degenerate family);
    ``expect_invalid`` is True when the tree contains element values a
    validating constructor would reject (NaN/inf/negative), so
    validation *must* flag it.
    """

    seed: int
    family: str
    tree: RLCTree
    mutations: Tuple[str, ...] = ()

    @property
    def expect_invalid(self) -> bool:
        return any(
            m.startswith(("nan-", "inf-", "negative-")) for m in self.mutations
        )


def _bypass(section: Section, **overrides: float) -> Section:
    """A copy of ``section`` with fields forced past constructor checks."""
    clone = Section(1.0, 1.0, 1.0)
    for label in ("resistance", "inductance", "capacitance"):
        value = overrides.get(label, getattr(section, label))
        object.__setattr__(clone, label, float(value))
    return clone


def degenerate_tree(seed: int, family: Optional[str] = None) -> FaultCase:
    """Build one degenerate tree, deterministically from ``seed``.

    With ``family=None`` the family is chosen by ``seed % len(FAMILIES)``
    so a simple ``range(n)`` sweep covers the whole catalogue evenly.
    """
    rng = np.random.default_rng(seed)
    if family is None:
        family = FAMILIES[seed % len(FAMILIES)]

    if family == "huge-fanout":
        fanout = int(rng.integers(65, 200))
        tree = RLCTree()
        tree.add_section("trunk", "in", resistance=50.0, inductance=2e-9,
                         capacitance=0.1e-12)
        for i in range(fanout):
            tree.add_section(f"n{i}", "trunk",
                             resistance=float(rng.uniform(1.0, 100.0)),
                             inductance=float(rng.uniform(0.0, 5e-9)),
                             capacitance=float(rng.uniform(1e-15, 1e-12)))
    elif family == "deep-chain":
        depth = int(rng.integers(100, 180))
        tree = single_line(depth,
                           resistance=float(rng.uniform(0.1, 10.0)),
                           inductance=float(rng.uniform(0.0, 1e-9)),
                           capacitance=float(rng.uniform(1e-16, 1e-13)))
    elif family == "near-zero":
        tree = RLCTree()
        parent = "in"
        for i in range(int(rng.integers(3, 8))):
            name = f"n{i}"
            tree.add_section(name, parent,
                             resistance=float(10.0 ** rng.uniform(-18, -9)),
                             inductance=float(10.0 ** rng.uniform(-24, -18)),
                             capacitance=float(10.0 ** rng.uniform(-21, -18)))
            parent = name
    elif family == "near-inf":
        tree = RLCTree()
        parent = "in"
        for i in range(int(rng.integers(3, 8))):
            name = f"n{i}"
            tree.add_section(name, parent,
                             resistance=float(10.0 ** rng.uniform(9, 15)),
                             inductance=float(10.0 ** rng.uniform(0, 3)),
                             capacitance=float(10.0 ** rng.uniform(-3, 0)))
            parent = name
    elif family == "mixed-scale":
        # Element values deliberately spanning >= 1e12 within one tree.
        tree = RLCTree()
        parent = "in"
        for i in range(int(rng.integers(4, 10))):
            name = f"n{i}"
            tree.add_section(name, parent,
                             resistance=float(10.0 ** rng.uniform(-7, 7)),
                             inductance=float(10.0 ** rng.uniform(-15, -3)),
                             capacitance=float(10.0 ** rng.uniform(-19, -7)))
            parent = name if rng.random() < 0.7 else parent
    elif family == "zero-capacitance":
        tree = RLCTree()
        tree.add_section("branch", "in", resistance=30.0, inductance=1e-9,
                         capacitance=0.0)
        for i in range(int(rng.integers(2, 6))):
            tree.add_section(f"n{i}", "branch",
                             resistance=float(rng.uniform(5.0, 50.0)),
                             inductance=float(rng.uniform(0.0, 3e-9)),
                             capacitance=float(rng.uniform(1e-14, 1e-12)))
    elif family == "critical-cascade":
        # Every section individually critically damped: near-defective
        # state matrices (clustered eigenvalues).
        n = int(rng.integers(2, 12))
        r = float(10.0 ** rng.uniform(0, 3))
        l = float(10.0 ** rng.uniform(-10, -8))
        c = 4.0 * l / (r * r)
        tree = single_line(n, resistance=r, inductance=l, capacitance=c)
    elif family == "rc-rlc-mix":
        tree = RLCTree()
        parent = "in"
        for i in range(int(rng.integers(4, 12))):
            name = f"n{i}"
            inductive = rng.random() < 0.5
            tree.add_section(name, parent,
                             resistance=float(10.0 ** rng.uniform(-1, 4)),
                             inductance=float(10.0 ** rng.uniform(-12, -8))
                             if inductive else 0.0,
                             capacitance=float(10.0 ** rng.uniform(-16, -11)))
            parent = name if rng.random() < 0.5 else parent
    elif family == "chaos":
        base = random_tree(int(rng.integers(5, 30)), rng)
        mutated, mutations = perturb(base, rng, count=int(rng.integers(1, 6)))
        return FaultCase(seed=seed, family=family, tree=mutated,
                         mutations=mutations)
    else:
        from ..errors import ConfigurationError

        raise ConfigurationError(
            f"unknown fault family {family!r}; choose from {FAMILIES}"
        )

    return FaultCase(seed=seed, family=family, tree=tree)


#: Chaos mutation kinds; the ``nan-``/``inf-``/``negative-`` prefixes
#: mark mutations that produce constructor-invalid element values.
_MUTATIONS = (
    "nan-resistance",
    "nan-capacitance",
    "inf-resistance",
    "inf-inductance",
    "negative-capacitance",
    "negative-resistance",
    "zero-impedance",
    "zero-capacitance",
    "tiny-capacitance",
    "huge-resistance",
)


def perturb(
    tree: RLCTree,
    rng: np.random.Generator,
    count: int = 3,
) -> Tuple[RLCTree, Tuple[str, ...]]:
    """Apply ``count`` chaos mutations to randomly chosen sections.

    Returns ``(mutated_tree, mutation_names)``. Invalid values (NaN,
    inf, negative) are injected past the Section constructor the way a
    corrupted upstream data source would deliver them; the original tree
    is never modified. At most one mutation lands on any node (a second
    draw of the same node replaces the first), so ``mutation_names``
    always describes exactly what was applied.
    """
    nodes = list(tree.nodes)
    plan = {}
    for _ in range(max(0, count)):
        node = nodes[int(rng.integers(len(nodes)))]
        kind = _MUTATIONS[int(rng.integers(len(_MUTATIONS)))]
        plan[node] = kind
    applied: List[str] = [f"{kind}@{node}" for node, kind in plan.items()]

    def transform(name: str, section: Section) -> Section:
        kind = plan.get(name)
        if kind is None:
            return section
        if kind == "nan-resistance":
            return _bypass(section, resistance=float("nan"))
        if kind == "nan-capacitance":
            return _bypass(section, capacitance=float("nan"))
        if kind == "inf-resistance":
            return _bypass(section, resistance=float("inf"))
        if kind == "inf-inductance":
            return _bypass(section, inductance=float("inf"))
        if kind == "negative-capacitance":
            return _bypass(section, capacitance=-abs(section.capacitance) - 1e-15)
        if kind == "negative-resistance":
            return _bypass(section, resistance=-abs(section.resistance) - 1.0)
        if kind == "zero-impedance":
            return _bypass(section, resistance=0.0, inductance=0.0)
        if kind == "zero-capacitance":
            return _bypass(section, capacitance=0.0)
        if kind == "tiny-capacitance":
            return _bypass(section, capacitance=1e-21)
        return _bypass(section, resistance=1e14)

    return tree.map_sections(transform), tuple(applied)


def fault_suite(count: int, seed: int = 0) -> Iterator[FaultCase]:
    """Yield ``count`` reproducible fault cases.

    Case ``i`` is ``degenerate_tree(seed + i)``, so the stream sweeps
    the family catalogue round-robin while every case stays individually
    reproducible from its own seed.
    """
    for i in range(count):
        yield degenerate_tree(seed + i)
