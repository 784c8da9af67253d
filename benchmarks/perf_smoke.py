"""Counter-based perf smoke check for CI.

Runs the small figure-10 grid through the ``runtime`` sweep task and
compares the deterministic hot-path **op counters** (scheduler cycles,
annealing evaluations, partitioner moves, mapper probes — see
:mod:`repro.utils.counters`) against the committed baseline in
``benchmarks/results/perf_smoke_counters.json``.

Op counts are exact functions of the input for a fixed seed, so the check
is immune to CI machine noise: a change that reintroduces a quadratic
rescan shows up as a counter jump even when wall-clock jitter would hide
it.  The check fails when any counter regresses by more than
``TOLERANCE`` (counters may also *drop* freely — improvements only ratchet
the baseline down when it is regenerated).

A dedicated 64-qubit line instance additionally pins the incremental-BDIR
contract: every annealing iteration goes through exactly one
delta-evaluator proposal, and the Python-level cone walk stays bounded by
the per-call budget — ``evaluate.delta_cone_nodes`` must remain far below
``delta_calls × kernel nodes``, i.e. per-move evaluate cost is sub-linear
in problem size (heavy repairs hand off to the vectorized full pass).

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py            # check
    PYTHONPATH=src python benchmarks/perf_smoke.py --update   # rewrite baseline
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

BASELINE_PATH = pathlib.Path(__file__).parent / "results" / "perf_smoke_counters.json"

#: Allowed relative growth per counter before the check fails.
TOLERANCE = 0.10
#: Absolute slack for tiny counters where one extra call is not a regression.
ABSOLUTE_SLACK = 8

#: The grid the smoke check compiles (kept small: seconds on CI).
QFT_SIZES = (8, 12)
NUM_QPUS = 8
SEED = 0

#: Instance size for the incremental-BDIR sub-linearity pin (figure-10's
#: largest tier-1 row; big enough that a cone-budget regression is loud).
SUBLINEAR_QUBITS = 64
#: ``evaluate.delta_cone_nodes`` may not exceed ``delta_calls`` times this
#: fraction of the kernel's node count.  The delta evaluator's own budget is
#: ``max(64, nodes // 64)`` per call; 1/16 leaves headroom while still being
#: decisively sub-linear.
SUBLINEAR_FRACTION = 16


def collect_counters() -> dict:
    """Compile the smoke grid and return the per-point op-counter table.

    The ``runtime`` task counts the timed compiler stages (partition,
    mapping, scheduling); the translate/compgraph prefix runs before its
    counter window (and may be served from the computation LRU), so the
    front end — signal shifting and the dependency build — is counted here
    explicitly with a fresh translation per instance.
    """
    # The check must measure real compiles, never a previous run's cache.
    os.environ.pop("DCMBQC_ARTIFACT_CACHE_DIR", None)
    os.environ.pop("DCMBQC_PIPELINE_DISABLE_CACHE", None)

    from repro.mbqc.dependency import build_dependency_graph
    from repro.mbqc.signal_shift import signal_shift
    from repro.mbqc.translate import circuit_to_pattern
    from repro.programs.registry import build_benchmark
    from repro.sweep import grids
    from repro.sweep.tasks import TASK_REGISTRY
    from repro.utils.counters import OP_COUNTERS

    table = {}
    for point in grids.figure10_grid(seed=SEED, qft_sizes=QFT_SIZES, num_qpus=NUM_QPUS):
        row = TASK_REGISTRY[point.task](point)
        counters = {
            name[len("ops_"):]: value
            for name, value in sorted(row.items())
            if name.startswith("ops_") and value
        }
        before = OP_COUNTERS.snapshot()
        pattern = circuit_to_pattern(
            build_benchmark(point.program, point.num_qubits, seed=point.circuit_seed)
        )
        shifted = signal_shift(pattern)
        dependency = build_dependency_graph(shifted)
        for name, value in OP_COUNTERS.delta_since(before).items():
            if value:
                counters[name.replace(".", "_")] = counters.get(
                    name.replace(".", "_"), 0
                ) + value
        counters["dependency_edges"] = dependency.num_edges
        table[f"qft-{row['qubits']}"] = counters

    # Sparse-interconnect point: a 4-QPU line exercises the pipelined
    # relay scheduler — route re-evaluations, store-and-forward buffer
    # conflicts, BDIR re-route/link-shift moves — which the
    # fully-connected figure-10 grid never touches.
    from repro.core.compiler import DCMBQCCompiler
    from repro.core.config import DCMBQCConfig
    from repro.programs.registry import paper_grid_size
    from repro.sweep.cache import build_computation

    computation = build_computation("QFT", QFT_SIZES[-1], SEED)
    config = DCMBQCConfig(
        num_qpus=4,
        grid_size=paper_grid_size(QFT_SIZES[-1]),
        topology="line",
        seed=SEED,
    )
    before = OP_COUNTERS.snapshot()
    DCMBQCCompiler(config).compile_run(computation, store=None, use_cache=False)
    table[f"qft-{QFT_SIZES[-1]}-line"] = {
        name.replace(".", "_"): value
        for name, value in sorted(OP_COUNTERS.delta_since(before).items())
        if value
    }

    # Incremental-BDIR sub-linearity instance: a 64-qubit QFT on the same
    # 4-QPU line.  Alongside the op counters the row records the evaluation
    # kernel's node count, so the baseline (and check_delta_sublinearity)
    # can relate per-move cone work to problem size.
    computation = build_computation("QFT", SUBLINEAR_QUBITS, SEED)
    config = DCMBQCConfig(
        num_qpus=4,
        grid_size=paper_grid_size(SUBLINEAR_QUBITS),
        topology="line",
        seed=SEED,
    )
    before = OP_COUNTERS.snapshot()
    result, _ = DCMBQCCompiler(config).compile_run(
        computation, store=None, use_cache=False
    )
    row = {
        name.replace(".", "_"): value
        for name, value in sorted(OP_COUNTERS.delta_since(before).items())
        if value
    }
    row["kernel_nodes"] = result.problem.delta_evaluator().present_count
    table[f"qft-{SUBLINEAR_QUBITS}-line"] = row
    return table


def check_delta_sublinearity(current: dict) -> list:
    """Pin per-move evaluate cost sub-linear in problem size.

    On the 64-qubit line row, every BDIR iteration must make exactly one
    delta-evaluator proposal, and the total Python-level cone walk across
    all proposals must stay far below ``delta_calls × kernel_nodes`` — the
    evaluator either finishes inside its ``max(64, nodes // 64)`` budget or
    bails out to the vectorized full pass *before* walking a linear cone.
    """
    instance = f"qft-{SUBLINEAR_QUBITS}-line"
    row = current.get(instance)
    if row is None:
        return [f"{instance}: missing from current run"]
    problems = []
    nodes = row.get("kernel_nodes", 0)
    iterations = row.get("bdir_iterations", 0)
    calls = row.get("evaluate_delta_calls", 0)
    cone = row.get("evaluate_delta_cone_nodes", 0)
    if nodes <= 0 or iterations <= 0:
        problems.append(
            f"{instance}: no kernel nodes ({nodes}) or BDIR iterations "
            f"({iterations}) recorded — the pin has nothing to measure"
        )
        return problems
    if calls != iterations:
        problems.append(
            f"{instance}: evaluate.delta_calls = {calls} != bdir.iterations "
            f"= {iterations} — an iteration bypassed the delta evaluator"
        )
    limit = calls * max(64, nodes // SUBLINEAR_FRACTION)
    if cone > limit:
        problems.append(
            f"{instance}: evaluate.delta_cone_nodes = {cone} exceeds "
            f"{limit} (= delta_calls x nodes/{SUBLINEAR_FRACTION}, "
            f"nodes = {nodes}) — per-move cone work is no longer sub-linear"
        )
    return problems


def check_zero_overhead(reference: dict) -> list:
    """Guard the disabled-observability fast path.

    With tracer, event log and resource sampler all off, a second collection
    pass must produce an op-counter table byte-identical to ``reference``.
    Any drift means an instrumentation layer leaked ops (or state) into the
    hot path while disabled.
    """
    from repro.obs.events import EVENTS
    from repro.obs.resources import RESOURCES
    from repro.obs.trace import TRACER

    problems = []
    if TRACER.enabled:
        problems.append("tracer unexpectedly enabled during perf smoke")
    if EVENTS.enabled:
        problems.append("event log unexpectedly enabled during perf smoke")
    if RESOURCES.enabled:
        problems.append("resource sampler unexpectedly enabled during perf smoke")
    if problems:
        return problems
    second = collect_counters()
    if json.dumps(reference, sort_keys=True) != json.dumps(second, sort_keys=True):
        problems.append(
            "op-counter tables differ between identical runs with "
            "observability disabled — the disabled path is not zero-overhead"
        )
    return problems


def compare(baseline: dict, current: dict) -> list:
    """Return a list of human-readable regression descriptions."""
    regressions = []
    for instance, base_counters in sorted(baseline.items()):
        seen = current.get(instance)
        if seen is None:
            regressions.append(f"{instance}: missing from current run")
            continue
        for name, base_value in sorted(base_counters.items()):
            value = seen.get(name, 0)
            limit = max(base_value * (1.0 + TOLERANCE), base_value + ABSOLUTE_SLACK)
            if value > limit:
                regressions.append(
                    f"{instance}: {name} = {value} exceeds baseline "
                    f"{base_value} by more than {TOLERANCE:.0%} (limit {limit:.0f})"
                )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true", help="rewrite the committed baseline"
    )
    args = parser.parse_args(argv)

    current = collect_counters()
    if args.update:
        # Never commit a baseline that already violates the sub-linearity
        # contract: a regenerated baseline must not grandfather in a cone
        # blow-up.
        sublinearity = check_delta_sublinearity(current)
        for line in sublinearity:
            print(f"SUBLINEARITY {line}", file=sys.stderr)
        if sublinearity:
            return 1
        BASELINE_PATH.write_text(
            json.dumps(
                {"qft_sizes": list(QFT_SIZES), "num_qpus": NUM_QPUS, "seed": SEED,
                 "tolerance": TOLERANCE, "counters": current},
                indent=1,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"baseline updated: {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"error: no baseline at {BASELINE_PATH}; run with --update", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    regressions = compare(baseline["counters"], current)
    for line in regressions:
        print(f"REGRESSION {line}", file=sys.stderr)
    if regressions:
        return 1
    sublinearity = check_delta_sublinearity(current)
    for line in sublinearity:
        print(f"SUBLINEARITY {line}", file=sys.stderr)
    if sublinearity:
        return 1
    overhead = check_zero_overhead(current)
    for line in overhead:
        print(f"OVERHEAD {line}", file=sys.stderr)
    if overhead:
        return 1
    total = sum(sum(c.values()) for c in current.values())
    print(
        f"perf smoke OK: {len(current)} instances, "
        f"{total} hot-path ops within {TOLERANCE:.0%} of baseline; "
        f"zero-overhead guard held (obs disabled, counters byte-identical)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
