"""Runtime configuration.

One frozen :class:`RuntimeConfig` carries every routing decision the
execution runtime needs: the forced backend (``"scalar"``,
``"compiled"``, ``"incremental"`` or ``"sharded"``), the thread budget
and the breaker policy. Apps, the CLI and the guarded pipeline take one
``config=RuntimeConfig(...)`` instead of per-call engine flags. The
compiled kernels always run on NumPy, so there is no array-library
setting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..errors import ConfigurationError

__all__ = [
    "BACKEND_NAMES",
    "RuntimeConfig",
]

#: The registered backend names, in fallback-documentation order.
BACKEND_NAMES: Tuple[str, ...] = ("scalar", "compiled", "incremental", "sharded")


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything the execution runtime needs to route a workload.

    Parameters
    ----------
    backend:
        Force every dispatch through one backend (``"scalar"``,
        ``"compiled"``, ``"incremental"`` or ``"sharded"``); ``None``
        lets :func:`~repro.runtime.planner.plan` choose per workload.
    workers:
        Thread budget of the sharded backend. ``None`` or ``<= 1``
        keeps every evaluation in the calling thread; with more, the
        planner threads a batch block that spans at least two serial
        row tiles (or when the backend is forced).
    flush_threshold:
        Dirty-fraction flush threshold handed to
        :class:`~repro.engine.incremental.IncrementalAnalyzer`.
    point_scalar_max:
        Point queries on trees at or below this node count route to the
        scalar backend (dict sweeps beat compile-and-gather overhead on
        small trees); larger trees route to the compiled table.
    breaker_threshold:
        Consecutive dispatch failures that trip a backend's circuit
        breaker.
    breaker_cooldown:
        Seconds a tripped breaker stays open before admitting a
        half-open probe request.
    """

    backend: Optional[str] = None
    workers: Optional[int] = None
    flush_threshold: float = 0.25
    point_scalar_max: int = 64
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0

    def __post_init__(self):
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose from "
                f"{BACKEND_NAMES}"
            )
        if self.workers is not None and self.workers < 0:
            raise ConfigurationError(
                f"workers must be non-negative, got {self.workers!r}"
            )
        if not 0.0 <= self.flush_threshold <= 1.0:
            raise ConfigurationError(
                f"flush_threshold must be in [0, 1], got "
                f"{self.flush_threshold!r}"
            )
        if self.point_scalar_max < 0:
            raise ConfigurationError(
                f"point_scalar_max must be non-negative, got "
                f"{self.point_scalar_max!r}"
            )
        if self.breaker_threshold < 1:
            raise ConfigurationError(
                f"breaker_threshold must be >= 1, got "
                f"{self.breaker_threshold!r}"
            )
        if self.breaker_cooldown < 0:
            raise ConfigurationError(
                f"breaker_cooldown must be non-negative, got "
                f"{self.breaker_cooldown!r}"
            )

    @property
    def parallel(self) -> bool:
        """True when the config allows more than one thread."""
        return self.workers is not None and self.workers > 1

    def with_backend(self, backend: Optional[str]) -> "RuntimeConfig":
        """A copy with the forced backend replaced."""
        return replace(self, backend=backend)
