"""Passes, correctness checks and metrics of one benchmark run (see run.py)."""

from __future__ import annotations

import csv
import gc
import json
import os
import pickle
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from layers import COMPILE_SPAN, LAYER_SECONDS, install, span_metrics
from repro.core import DCMBQCCompiler, DCMBQCConfig
from repro.hardware.qpu import InterconnectTopology
from repro.obs.export import write_chrome_trace
from repro.obs.trace import Tracer
from repro.pipeline import clear_memory_cache
from repro.pipeline.pipeline import MEMO_MAX_ENTRY_BYTES
from repro.programs import build_benchmark
from repro.programs.registry import paper_grid_size
from repro.runtime.executor import DistributedRuntime
from repro.utils.counters import OP_COUNTERS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
#: Metric names and units are declared once, in the benchmark's spec file.
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

STAGES = ("translate", "compgraph", "partition", "qpu_mapping", "scheduling")

#: Width of the warm-up compile made during set-up (same system as the workload).
WARMUP_QUBITS = 8
#: Fresh processes that repeat the whole set-up (imports included) in an
#: untraced run; setup_s is the median of their set-ups and the run's own.
SETUP_PROBES = 2
#: Passes a run makes even past ``--seconds`` (in a traced run: one
#: untraced, one traced).
MIN_PASSES = 2

#: Op counters reported as per-layer metrics, summed over a pass's compiles.
OP_METRICS = (
    "partition.calls",
    "partition.levels",
    "partition.refine_moves",
    "partition.boundary_nodes",
)


@dataclass
class CompileOutcome:
    """One compile of a pass: timing, schedule quality, counters, check result."""

    k_max: Optional[int]
    seconds: float = 0.0
    error: Optional[str] = None
    makespan: int = 0
    tau: int = 0
    ops: Dict[str, int] = field(default_factory=dict)
    records: list = field(default_factory=list)
    artifact_bytes: Dict[str, int] = field(default_factory=dict)
    main_layers: int = 0
    sync_tasks: int = 0
    relay_hops: int = 0
    cut_edges: int = 0
    imbalance: float = 0.0
    dependency_edges: int = 0
    replay_s: float = 0.0
    sync_events: int = 0

    @property
    def overhead_s(self) -> float:
        """compile_run wall time not spent inside a stage body."""
        return self.seconds - sum(record.seconds for record in self.records)


@dataclass
class PassOutcome:
    """One pass over the workload's compile list."""

    index: int
    traced: bool
    compiles: List[CompileOutcome]
    spans: list
    #: Wall seconds of the whole pass, replay checks included.
    wall: float

    @property
    def ok(self) -> List[CompileOutcome]:
        return [c for c in self.compiles if c.error is None]

    @property
    def failed(self) -> int:
        return len(self.compiles) - len(self.ok)

    @property
    def compile_s(self) -> float:
        return sum(c.seconds for c in self.compiles)

    def total(self, attribute: str):
        return sum(getattr(c, attribute) for c in self.ok)

    def signature(self):
        """What must repeat exactly across passes, traced or not."""
        return [(c.k_max, c.error, c.makespan, c.tau, sorted(c.ops.items())) for c in self.compiles]


class Bench:
    """Compiles, checks and measures one workload in this process."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.k_order = random.Random(seed).sample(workload.k_max, len(workload.k_max))
        self.circuit = None
        #: Private tracer of the benchmark's spans; enabled for traced passes.
        self.tracer = Tracer()
        self.wrapped = False

    def compile_run(self, circuit, qubits: int, k_max: Optional[int]):
        w = self.workload
        extra = {} if k_max is None else {"connection_capacity": k_max}
        config = DCMBQCConfig(
            num_qpus=w.num_qpus,
            grid_size=paper_grid_size(qubits),
            topology=InterconnectTopology(w.topology),
            **extra,
        )
        if w.memo:
            return DCMBQCCompiler(config).compile_run(circuit, store=None)
        return DCMBQCCompiler(config).compile_run(circuit, use_cache=False)

    def prepare(self) -> None:
        """Generate the circuit and make one small warm-up compile."""
        w = self.workload
        self.circuit = build_benchmark(w.program, w.qubits)
        warmup = build_benchmark(w.program, WARMUP_QUBITS)
        self.compile_run(warmup, WARMUP_QUBITS, self.k_order[0])
        clear_memory_cache()

    def run_pass(self, index: int, run_id: str, traced: bool):
        """Compile the list once; a traced pass records the layer spans."""
        if traced and not self.wrapped:
            # Installed only now, so untraced passes run the unwrapped code.
            install(self.tracer)
            self.wrapped = True
        if self.workload.memo:
            clear_memory_cache()
        mark = self.tracer.mark()
        # Pickled sizes repeat exactly, so only the first traced pass pickles.
        measure_bytes = traced and mark == 0
        if traced:
            self.tracer.enable(run_id)
        start = time.perf_counter()
        with self.tracer.span("bench.pass", index=index):
            compiles = [self.run_compile(k_max, measure_bytes) for k_max in self.k_order]
        wall = time.perf_counter() - start
        self.tracer.disable()
        return PassOutcome(index, traced, compiles, self.tracer.spans()[mark:], wall)

    def run_compile(self, k_max, measure_bytes: bool):
        outcome = CompileOutcome(k_max=k_max)
        # Every timed compile starts from a collected heap, so a cyclic
        # collection of the previous compile's garbage is not timed.
        gc.collect()
        before = OP_COUNTERS.snapshot()
        start = time.perf_counter()
        try:
            with self.tracer.span(COMPILE_SPAN, k_max=k_max):
                result, run = self.compile_run(self.circuit, self.workload.qubits, k_max)
        except Exception:  # a failed compile is counted, and the run goes on
            outcome.error = "compile raised"
            traceback.print_exc()
            return outcome
        finally:
            outcome.seconds = time.perf_counter() - start
        outcome.ops = {k: v for k, v in OP_COUNTERS.delta_since(before).items() if v}
        outcome.records = run.records
        outcome.makespan = result.execution_time
        outcome.tau = result.required_photon_lifetime
        outcome.main_layers = sum(len(tasks) for tasks in result.problem.main_tasks)
        outcome.sync_tasks = len(result.problem.sync_tasks)
        outcome.relay_hops = sum(sync.relay_hops for sync in result.problem.sync_tasks)
        outcome.cut_edges = result.num_connectors
        outcome.imbalance = result.partition.imbalance()
        if any(r.stage == "compgraph" and r.status == "executed" for r in run.records):
            outcome.dependency_edges = result.computation.dependency.graph.number_of_edges()
        if measure_bytes:
            outcome.artifact_bytes = {
                record.stage: len(pickle.dumps(run.state[record.output], pickle.HIGHEST_PROTOCOL))
                for record in run.records
            }

        start = time.perf_counter()
        try:
            with self.tracer.span("runtime.replay"):
                trace = DistributedRuntime(result).run()
        except Exception:  # the replay rejected the schedule: a failed compile
            outcome.error = "replay raised"
            traceback.print_exc()
            return outcome
        outcome.replay_s = time.perf_counter() - start
        outcome.sync_events = trace.sync_events
        if trace.total_cycles != outcome.makespan:
            outcome.error = f"replay took {trace.total_cycles} cycles, makespan {outcome.makespan}"
        elif trace.max_storage > outcome.tau:
            outcome.error = f"replay stored a photon {trace.max_storage} cycles > tau {outcome.tau}"
        if outcome.error:
            print(f"perfbench: {outcome.error}", file=sys.stderr)
        return outcome


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def iqr(values) -> Optional[float]:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def end_to_end_metrics(passes: List[PassOutcome], setup_s: float) -> Dict[str, float]:
    attempted = sum(len(p.compiles) for p in passes)
    return {
        "compile_s": median([p.compile_s for p in passes]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "makespan_cycles": median([p.total("makespan") for p in passes]),
        "photon_lifetime_cycles": median([p.total("tau") for p in passes]),
        "success_ratio": 1.0 - sum(p.failed for p in passes) / attempted,
    }


def pass_layer_metrics(p: PassOutcome) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (sums over its compiles)."""
    metrics = span_metrics(p.spans)
    ops: Dict[str, int] = {}
    for c in p.ok:
        for name, value in c.ops.items():
            ops[name] = ops.get(name, 0) + value
    for name in OP_METRICS:
        metrics[name] = ops.get(name, 0)
    metrics["mbqc.dependency_edges"] = p.total("dependency_edges")
    metrics["compiler.main_layers"] = p.total("main_layers")
    metrics["partition.cut_edges"] = p.total("cut_edges")
    metrics["partition.imbalance"] = median([c.imbalance for c in p.ok])
    metrics["scheduling.sync_tasks"] = p.total("sync_tasks")
    metrics["scheduling.relay_hops"] = p.total("relay_hops")
    iterations = ops.get("bdir.iterations", 0)
    delta_calls = ops.get("evaluate.delta_calls", 0)
    metrics["scheduling.bdir_iterations"] = iterations
    metrics["scheduling.bdir_accept_ratio"] = (
        1.0 - ops.get("bdir.rollbacks", 0) / iterations if iterations else 0.0
    )
    metrics["scheduling.delta_calls"] = delta_calls
    metrics["scheduling.delta_hit_ratio"] = (
        1.0 - ops.get("evaluate.delta_fallbacks", 0) / delta_calls if delta_calls else 0.0
    )
    metrics["pipeline.overhead_s"] = p.total("overhead_s")
    for stage in STAGES:
        records = [r for c in p.ok for r in c.records if r.stage == stage]
        metrics[f"pipeline.memo_hits.{stage}"] = sum(r.status == "memory-hit" for r in records)
        metrics[f"pipeline.executions.{stage}"] = sum(r.status == "executed" for r in records)
    metrics["runtime.replay_s"] = p.total("replay_s")
    metrics["runtime.sync_events"] = p.total("sync_events")
    return metrics


def layer_metrics(passes: List[PassOutcome]) -> Dict[str, float]:
    """Medians over the traced passes, plus artifact sizes and tracing overhead."""
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    per_pass = [pass_layer_metrics(p) for p in traced]
    metrics = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
    first = traced[0]
    for stage in STAGES:
        metrics[f"pipeline.artifact_bytes.{stage}"] = sum(
            c.artifact_bytes.get(stage, 0) for c in first.ok
        )
        # A cacheable stage that executed and pickled above the cap skipped the memo.
        metrics[f"pipeline.memo_oversize.{stage}"] = sum(
            1
            for c in first.ok
            for r in c.records
            if r.stage == stage and r.status == "executed" and r.key is not None
            and c.artifact_bytes.get(stage, 0) > MEMO_MAX_ENTRY_BYTES
        )
    traced_s = median([p.compile_s for p in traced])
    metrics["obs.traced_compile_s"] = traced_s
    metrics["obs.tracing_overhead_s"] = traced_s - median([p.compile_s for p in untraced])
    attempted = sum(len(p.compiles) for p in passes)
    metrics["failed_ratio"] = sum(p.failed for p in passes) / attempted
    return metrics


def declared_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit of the spec file's ``end_to_end`` or ``per_layer`` list."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def probe_setups(args) -> List[float]:
    """Set-up seconds of fresh processes, each as cold as the run's own."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    return [
        float(subprocess.run(command, capture_output=True, text=True, check=True,
                             timeout=120).stdout.split()[-1])
        for _ in range(SETUP_PROBES)
    ]


def setup_only(args, workload, process_start: float) -> int:
    """Set up as a run does, print the seconds since process start, exit."""
    Bench(workload, args.seed).prepare()
    print(time.perf_counter() - process_start)
    return 0


def more_passes(passes: List[PassOutcome], started: float, args) -> bool:
    """Start another pass while under the minimum or while the last pass's wall still fits."""
    if len(passes) < MIN_PASSES:
        return True
    return time.perf_counter() - started + passes[-1].wall <= args.seconds


def write_run_table(args, run_id: str, passes: List[PassOutcome], e2e: Dict[str, float]) -> None:
    """Append one row per pass to out/run_table.csv."""
    span_fields = sorted(LAYER_SECONDS) + ["compiler.compgraph_s", "pipeline.uncovered_share"]
    fields = (
        ["workload", "seed", "run_id", "trace", "pass", "traced", "compiles", "failed",
         "compile_s", "makespan_cycles", "photon_lifetime_cycles"]
        + [f"stage.{stage}_s" for stage in STAGES]
        + ["pipeline.overhead_s", "runtime.replay_s", "setup_s", "peak_rss_mb"]
        + span_fields
    )
    path = os.path.join(OUT_DIR, "run_table.csv")
    new = not os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        if new:
            writer.writeheader()
        for p in passes:
            row = {
                "workload": args.workload, "seed": args.seed, "run_id": run_id,
                "trace": args.trace, "pass": p.index, "traced": int(p.traced),
                "compiles": len(p.compiles), "failed": p.failed, "compile_s": p.compile_s,
                "makespan_cycles": p.total("makespan"),
                "photon_lifetime_cycles": p.total("tau"),
                "pipeline.overhead_s": p.total("overhead_s"),
                "runtime.replay_s": p.total("replay_s"),
                "setup_s": e2e["setup_s"], "peak_rss_mb": e2e["peak_rss_mb"],
            }
            for stage in STAGES:
                row[f"stage.{stage}_s"] = sum(
                    r.seconds for c in p.ok for r in c.records if r.stage == stage
                )
            if p.traced:
                row.update({k: v for k, v in span_metrics(p.spans).items() if k in span_fields})
            writer.writerow(row)


def run(args, workload, process_start: float) -> int:
    """Set up, measure for ``args.seconds``, check, report; returns the exit code."""
    bench = Bench(workload, args.seed)
    bench.prepare()
    setups = [time.perf_counter() - process_start]
    if not args.trace:
        setups += probe_setups(args)
    setup_s = median(setups)

    run_id = f"{int(time.time())}-{os.getpid()}"
    passes: List[PassOutcome] = []
    started = time.perf_counter()
    # A traced run makes one untraced pass, then traced passes.  No pass is
    # started that the last one's wall says would end after ``--seconds``.
    while more_passes(passes, started, args):
        passes.append(bench.run_pass(len(passes), run_id, bool(args.trace) and bool(passes)))

    untraced = [p for p in passes if not p.traced]
    e2e = end_to_end_metrics(untraced, setup_s)
    consistent = all(p.signature() == passes[0].signature() for p in passes)
    if not consistent:
        print("perfbench: schedule quality or op counters differ between passes", file=sys.stderr)
    attempted = sum(len(p.compiles) for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = layer_metrics(passes) if args.trace else e2e
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} are not both "
              f"measured and declared in {SPEC_PATH}", file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    write_run_table(args, run_id, passes, e2e)
    if args.trace:
        trace_name = f"trace-{args.workload}-seed{args.seed}.json"
        write_chrome_trace(os.path.join(OUT_DIR, trace_name), bench.tracer.spans())

    samples = [p.compile_s for p in untraced]
    spread = iqr(samples)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
        f"{attempted} compiles, {failed} failed; untraced compile_s median "
        f"{median(samples):.4f} s, IQR {'n/a' if spread is None else f'{spread:.4f} s'}, "
        f"n={len(samples)}; setup_s median of {len(setups)}"
    )
    for name in sorted(metrics):
        print(f"  {name:38s} {metrics[name]:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0
