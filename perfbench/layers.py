"""Benchmark-side layer spans: each layer is timed from outside ``src/``.

:func:`install` replaces the module and class attributes through which the
pipeline reaches each layer (looked up at call time) with the
:meth:`~repro.obs.trace.Tracer.traced` wrappers of a private tracer.  The
program's own spans go to the global ``TRACER``, which stays off, so only
the benchmark's spans are recorded.  While the private tracer is disabled a
wrapper only checks a flag.  Each span carries the op-counter deltas it
produced; spans stay in memory and are written as one Chrome trace at exit.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

from repro.obs.trace import SpanRecord, Tracer

#: Span recorded by the benchmark around each ``compile_run`` call.
COMPILE_SPAN = "bench.compile"

#: Per-layer time metric -> span name.  A metric sums the outermost spans of
#: its name, so a call nested in a same-name call is not counted twice.
LAYER_SECONDS = {
    "mbqc.translate_s": "mbqc.translate",
    "mbqc.signal_shift_s": "mbqc.signal_shift",
    "mbqc.dependency_s": "mbqc.dependency",
    "compiler.induced_subgraph_s": "compiler.induced_subgraph",
    "compiler.mapper_s": "compiler.mapper",
    "partition.s": "partition",
    "scheduling.build_problem_s": "scheduling.build_problem",
    "scheduling.list_schedule_s": "scheduling.list_schedule",
    "scheduling.bdir_s": "scheduling.bdir",
    "scheduling.evaluate_s": "scheduling.evaluate",
    "pipeline.hash_s": "pipeline.hash",
}


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark times (once per process)."""
    import repro.compiler.compgraph as compgraph
    import repro.core.compiler as core_compiler
    import repro.pipeline.pipeline as pipeline
    import repro.pipeline.stages as stages
    from repro.compiler.mapper import LayeredGridMapper
    from repro.scheduling.bdir import BDIRScheduler
    from repro.scheduling.problem import LayerSchedulingProblem

    compiler = core_compiler.DCMBQCCompiler
    points = [
        (stages, "circuit_to_pattern", "mbqc.translate"),
        (stages, "computation_graph_from_pattern", "compiler.compgraph"),
        (compgraph, "signal_shift", "mbqc.signal_shift"),
        (compgraph, "build_dependency_graph", "mbqc.dependency"),
        (compiler, "partition", "partition"),
        (compiler, "compile_partitions", "compiler.qpu_mapping"),
        (compgraph.ComputationGraph, "induced_subgraph", "compiler.induced_subgraph"),
        (LayeredGridMapper, "map", "compiler.mapper"),
        (compiler, "build_scheduling_problem", "scheduling.build_problem"),
        (core_compiler, "list_schedule", "scheduling.list_schedule"),
        (BDIRScheduler, "refine", "scheduling.bdir"),
        (LayerSchedulingProblem, "evaluate", "scheduling.evaluate"),
        (pipeline, "content_hash", "pipeline.hash"),
    ]
    for owner, attribute, span_name in points:
        setattr(owner, attribute, tracer.traced(span_name)(getattr(owner, attribute)))

    # BDIR evaluates candidates through the delta evaluator the problem hands
    # out; its prime/propose calls count as evaluation time too.
    delta_evaluator = LayerSchedulingProblem.delta_evaluator
    timed_evaluate = tracer.traced("scheduling.evaluate")

    @functools.wraps(delta_evaluator)
    def timed_delta_evaluator(self):
        evaluator = delta_evaluator(self)
        for method in ("prime", "propose"):
            setattr(evaluator, method, timed_evaluate(getattr(evaluator, method)))
        return evaluator

    LayerSchedulingProblem.delta_evaluator = timed_delta_evaluator


def _ancestor_names(span: SpanRecord, by_id: Dict[int, SpanRecord]):
    parent: Optional[SpanRecord] = by_id.get(span.parent_id)
    while parent is not None:
        yield parent.name
        parent = by_id.get(parent.parent_id)


def span_metrics(spans: List[SpanRecord]) -> Dict[str, float]:
    """Per-layer seconds, compgraph self time and span coverage of one pass.

    ``scheduling.s`` is the scheduling layer's whole time: its outermost
    spans (problem build, list schedule, BDIR, final evaluate).
    """
    by_id = {span.span_id: span for span in spans}
    children: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id] = children.get(span.parent_id, 0.0) + span.duration

    metrics: Dict[str, float] = {}
    for metric, name in LAYER_SECONDS.items():
        metrics[metric] = sum(
            span.duration
            for span in spans
            if span.name == name and name not in _ancestor_names(span, by_id)
        )
    metrics["scheduling.s"] = sum(
        span.duration
        for span in spans
        if span.name.startswith("scheduling.")
        and not any(name.startswith("scheduling.") for name in _ancestor_names(span, by_id))
    )
    compgraph = [span for span in spans if span.name == "compiler.compgraph"]
    metrics["compiler.compgraph_s"] = sum(
        span.duration - children.get(span.span_id, 0.0) for span in compgraph
    )
    compiles = [span for span in spans if span.name == COMPILE_SPAN]
    compile_wall = sum(span.duration for span in compiles)
    covered = sum(children.get(span.span_id, 0.0) for span in compiles)
    metrics["pipeline.uncovered_share"] = 1.0 - covered / compile_wall if compile_wall else 0.0
    return metrics
