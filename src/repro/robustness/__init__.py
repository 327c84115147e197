"""Guarded analysis: validation, health probes, fallbacks, fault injection.

This package provides the defensive layer between arbitrary user input
and the numerics of the rest of the library:

* :mod:`~repro.robustness.diagnostics` — structured
  :class:`Diagnostic` / :class:`ValidationReport` records instead of
  ad-hoc exceptions;
* :mod:`~repro.robustness.validate` — :func:`validate_tree` and the
  policy-gated :func:`sanitize` auto-repair;
* :mod:`~repro.robustness.health` — numerical-health probes and the
  deterministic unit rescaling the retry loops use;
* :mod:`~repro.robustness.guarded` — :class:`GuardedAnalyzer`, the
  fallback-chain front door with the guarantee *finite metrics or a*
  :class:`~repro.errors.ReproError`;
* :mod:`~repro.robustness.faults` — the seeded fault-injection
  generators the test harness (and any chaos pipeline) draws from.
"""

from .diagnostics import Diagnostic, Severity, ValidationReport
from .faults import FAMILIES, FaultCase, degenerate_tree, fault_suite, perturb
from .guarded import (
    GuardedAnalyzer,
    GuardedTiming,
    RobustnessReport,
    TierAttempt,
    shielded,
)
from .health import (
    CONDITION_LIMIT,
    RESIDUAL_LIMIT,
    HealthProbe,
    characteristic_scales,
    eigensystem_probes,
    rescale_tree,
)
from .validate import (
    DEPTH_LIMIT,
    DYNAMIC_RANGE_LIMIT,
    FANOUT_LIMIT,
    RepairPolicy,
    sanitize,
    validate_tree,
)

__all__ = [
    "Severity",
    "Diagnostic",
    "ValidationReport",
    "RepairPolicy",
    "validate_tree",
    "sanitize",
    "HealthProbe",
    "eigensystem_probes",
    "characteristic_scales",
    "rescale_tree",
    "GuardedAnalyzer",
    "GuardedTiming",
    "RobustnessReport",
    "TierAttempt",
    "shielded",
    "FaultCase",
    "FAMILIES",
    "degenerate_tree",
    "perturb",
    "fault_suite",
    "DYNAMIC_RANGE_LIMIT",
    "FANOUT_LIMIT",
    "DEPTH_LIMIT",
    "CONDITION_LIMIT",
    "RESIDUAL_LIMIT",
]
