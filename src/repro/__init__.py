"""repro — Equivalent Elmore Delay for RLC Trees.

A complete reproduction of Y. I. Ismail, E. G. Friedman and J. L. Neves,
"Equivalent Elmore Delay for RLC Trees" (DAC 1999; IEEE TCAD vol. 19
no. 1, Jan. 2000): closed-form 50% delay, rise time, overshoots and
settling time for every node of an RLC interconnect tree, computed in
O(n) with the same fidelity characteristics as the Elmore delay has for
RC trees — plus the full validation apparatus (exact simulators, AWE and
two-pole baselines) the paper measured itself against.

Quick start::

    from repro import TreeAnalyzer
    from repro.circuit import fig5_tree

    analyzer = TreeAnalyzer(fig5_tree())
    for timing in analyzer.report():
        print(timing.node, timing.zeta, timing.delay_50)

Package layout:

* :mod:`repro.circuit` — tree topology, element values, builders, netlists
* :mod:`repro.analysis` — the paper's closed forms (the contribution)
* :mod:`repro.simulation` — exact LTI solvers (the AS/X substitute)
* :mod:`repro.reduction` — AWE and Kahng-Muddu baselines
* :mod:`repro.engine` — compiled vectorized kernels, delta updates and
  the threaded batch tier
* :mod:`repro.runtime` — the unified execution runtime: backend
  registry, workload-aware routing and one instrumentation surface
* :mod:`repro.apps` — buffer insertion, wire sizing, clock skew built on
  the continuous RLC delay model
* :mod:`repro.robustness` — validation, numerical-health probes and the
  guarded fallback-chain analyzer (finite metrics or a typed error)
"""

from .analysis import NodeTiming, SecondOrderModel, TreeAnalyzer
from .circuit import RLCTree, Section
from .errors import (
    CircuitError,
    ConfigurationError,
    ElementValueError,
    FallbackExhaustedError,
    FittingError,
    NetlistError,
    NumericalHealthError,
    ReductionError,
    ReproError,
    SimulationError,
    TopologyError,
    ValidationError,
)
from .robustness import (
    GuardedAnalyzer,
    RepairPolicy,
    RobustnessReport,
    sanitize,
    validate_tree,
)
from .runtime import (
    ExecutionContext,
    RuntimeConfig,
    Workload,
    default_context,
)

__version__ = "1.0.0"

__all__ = [
    "TreeAnalyzer",
    "NodeTiming",
    "SecondOrderModel",
    "RLCTree",
    "Section",
    "ReproError",
    "CircuitError",
    "TopologyError",
    "ElementValueError",
    "NetlistError",
    "SimulationError",
    "ReductionError",
    "FittingError",
    "ConfigurationError",
    "ValidationError",
    "NumericalHealthError",
    "FallbackExhaustedError",
    "GuardedAnalyzer",
    "RobustnessReport",
    "RepairPolicy",
    "validate_tree",
    "sanitize",
    "ExecutionContext",
    "RuntimeConfig",
    "Workload",
    "default_context",
    "__version__",
]
