"""Bounded LRU cache for computation graphs shared across sweep tasks.

Translating a benchmark circuit into a measurement pattern and computation
graph dominates setup time, so every task caches the result.  The seed
implementation kept an unbounded module-global dict in
``repro.reporting.experiments``; a paper-scale sweep (15 instances × many
configurations) would hold every graph alive forever.  This module keeps
the live graphs in a :class:`repro.pipeline.LRUCache` bounded to
:data:`COMPUTATION_CACHE_SIZE` entries that both the reporting drivers and
the sweep workers share.

Each worker process of :mod:`repro.sweep.runner` has its own copy — the
cache intentionally does not cross process boundaries (a computation graph
is cheap to rebuild relative to shipping it through a pipe).
"""

from __future__ import annotations

from typing import Tuple

from repro.compiler.compgraph import ComputationGraph
from repro.pipeline import LRUCache, Pipeline, resolve_store
from repro.pipeline.artifacts import caching_disabled
from repro.pipeline.stages import compgraph_stage, translate_stage
from repro.programs import build_benchmark

__all__ = ["COMPUTATION_CACHE", "build_computation"]

#: Entry bound of :data:`COMPUTATION_CACHE`.
COMPUTATION_CACHE_SIZE = 64

#: Process-wide cache of benchmark computation graphs.
COMPUTATION_CACHE = LRUCache(maxsize=COMPUTATION_CACHE_SIZE)


def _build_via_pipeline(program: str, num_qubits: int, seed: int) -> ComputationGraph:
    """Run circuit → pattern → computation graph through the staged pipeline.

    The pipeline memoises both stage artifacts in the process-local cache
    and, when ``DCMBQC_ARTIFACT_CACHE_DIR`` is set, the shared on-disk
    artifact store — so sweep workers varying only downstream parameters
    (k_max, alpha, QPU count) never re-translate the same benchmark.
    """
    circuit = build_benchmark(program, num_qubits, seed=seed)
    pipeline = Pipeline(
        [translate_stage(), compgraph_stage()], store=resolve_store()
    )
    return pipeline.run({"circuit": circuit}).state["computation"]


def build_computation(
    program: str, num_qubits: int, seed: int = 2026
) -> ComputationGraph:
    """Build (and LRU-cache) the computation graph of one benchmark instance.

    When ``DCMBQC_PIPELINE_DISABLE_CACHE=1`` (the CLI's ``--no-cache``) the
    LRU is bypassed too, so cold-compile measurements stay honest.
    """
    if caching_disabled():
        return _build_via_pipeline(program, num_qubits, seed)
    key: Tuple[str, int, int] = (program.upper(), num_qubits, seed)
    return COMPUTATION_CACHE.get_or_create(
        key, lambda: _build_via_pipeline(program, num_qubits, seed)
    )
