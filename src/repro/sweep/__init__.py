"""Lazy scenario-expression DAGs compiled into chunked batch passes.

The sweep layer turns "evaluate the closed forms over S scenarios"
from an eager ``(S, 3, n)`` block into a three-step program:

1. **Describe** (:mod:`.expr`) — axes (:func:`linspace`,
   :func:`log_sample`, :func:`values_axis`,
   :func:`lognormal_factors`) combined by :func:`zip_axes` /
   :func:`cross`, with per-section ``(R, L, C)`` quantities written as
   ordinary arithmetic on expression nodes. Nodes are hash-consed, so
   shared subexpressions are shared objects.
2. **Compile** (:mod:`.compile`) — :func:`compile_sweep` linearizes
   the DAG into a post-order schedule with CSE counts and validates
   axes against the scenario space.
3. **Execute** (:mod:`.execute`) — :func:`iter_sweep` /
   :func:`run_sweep` stream bounded chunks through the execution
   runtime (each chunk planned on its own), evaluating each shared subtree once per chunk. Peak
   value-matrix memory is ``O(chunk x n)``, not ``O(S x n)``, and the
   results are bitwise identical to the eager batch path.

``repro.apps``'s Monte-Carlo sampling, width sweeps and clock tuning
build on this layer; the service ``/sweep`` endpoint and the CLI
``repro sweep`` command stream its chunks directly.
"""

from .compile import CompiledSweep, compile_sweep
from .execute import DEFAULT_CHUNK, SweepResult, iter_sweep, run_sweep
from .expr import (
    Axis,
    Expr,
    ScenarioSpace,
    as_expr,
    clip,
    const,
    cross,
    exp,
    linspace,
    log,
    log_sample,
    lognormal_factors,
    scenario_space,
    sqrt,
    values_axis,
    zip_axes,
)

__all__ = [
    "Axis",
    "CompiledSweep",
    "DEFAULT_CHUNK",
    "Expr",
    "ScenarioSpace",
    "SweepResult",
    "as_expr",
    "clip",
    "compile_sweep",
    "const",
    "cross",
    "exp",
    "iter_sweep",
    "linspace",
    "log",
    "log_sample",
    "lognormal_factors",
    "run_sweep",
    "scenario_space",
    "sqrt",
    "values_axis",
    "zip_axes",
]
