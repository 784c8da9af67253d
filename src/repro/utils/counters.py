"""Deterministic operation counters for the compile hot path.

Wall-clock benchmarks are noisy on shared CI machines; the perf-regression
harness therefore tracks *operation counts* of the compiler's inner loops —
scheduler cycles, annealing evaluations, partitioner moves, mapper probes —
which are exact, platform-independent functions of the input (for a fixed
seed).  A regression that makes a loop quadratic again shows up as a counter
jump long before it shows up reliably in seconds.

:class:`OpCounters` is a thin compatibility view over the unified metrics
core (:class:`repro.obs.metrics.MetricsRegistry`): every ``add`` lands in
the shared registry under the ``ops.`` namespace, so the same counters the
perf harness pins are visible to the tracer (per-span op deltas) and to the
metrics facade, without a second lock or snapshot implementation.  The view
keeps the original public API — ``add``/``get``/``snapshot``/
``delta_since``/``reset`` with un-namespaced names — byte-compatible.

The registry is process-global (like the pipeline's stage telemetry in
:data:`repro.obs.metrics.METRICS`) and intentionally cheap: the hot paths
call :meth:`OpCounters.add` with pre-aggregated increments (once
per cycle / pass / call), never once per element.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import METRICS, MetricsRegistry

__all__ = ["OpCounters", "OP_COUNTERS"]


class OpCounters:
    """Named integer counters: a namespaced view over a metrics registry."""

    #: Metric-name prefix the view owns inside the shared registry.
    NAMESPACE = "ops."

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        # A private registry by default keeps ad-hoc instances (tests,
        # scoped measurements) isolated; the process-global OP_COUNTERS
        # shares the METRICS core.
        self._registry = registry if registry is not None else MetricsRegistry()

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._registry.inc(self.NAMESPACE + name, amount)

    def get(self, name: str) -> int:
        """Current value of one counter (0 if never touched)."""
        return self._registry.counter(self.NAMESPACE + name)

    def snapshot(self) -> Dict[str, int]:
        """Copy of every counter, sorted by name."""
        return self._registry.counters_with_prefix(self.NAMESPACE)

    def delta_since(self, baseline: Dict[str, int]) -> Dict[str, int]:
        """Per-counter difference against an earlier :meth:`snapshot`."""
        current = self.snapshot()
        names = sorted(set(current) | set(baseline))
        return {
            name: current.get(name, 0) - baseline.get(name, 0) for name in names
        }

    def reset(self) -> None:
        """Zero every counter in this namespace (used between benchmark phases)."""
        self._registry.reset(self.NAMESPACE)


#: Process-global operation-counter registry for the compile hot path,
#: backed by the shared :data:`repro.obs.metrics.METRICS` core.
OP_COUNTERS = OpCounters(registry=METRICS)
