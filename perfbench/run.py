"""Compile benchmark: end-to-end compile time, memory and schedule quality.

One workload runs per process.  The benchmark drives the public
``DCMBQCCompiler.compile_run`` on generated circuits for ``--seconds``
seconds (whole passes over the workload's compile list), replays every
result on ``DistributedRuntime`` and cross-checks it, and prints one JSON
object as the last line of standard output: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run first
makes one untraced pass, then traced passes in which each layer is timed
from outside by the wrappers of ``layers.py``.

Every pass also appends a row to ``perfbench/out/run_table.csv``; a traced
run writes its spans to ``perfbench/out/trace-<workload>-seed<n>.json``.
``RUN_TABLE_COLUMNS_EXPLANATION.md`` documents the columns, the workloads
and which end-to-end metric each layer metric should move.

Usage, from the repository root::

    python3 perfbench/run.py --workload qft64-fc8 --seed 1 --seconds 36 --trace 0
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Optional, Tuple  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    """One compile list; a pass compiles it once per K_max entry."""

    name: str
    program: str
    qubits: int
    num_qpus: int
    topology: str
    #: One compile per entry; ``None`` keeps the configuration's default K_max.
    k_max: Tuple[Optional[int], ...]
    #: In-process memo on (cleared before each pass) and no disk store;
    #: otherwise ``use_cache=False``, so every stage executes.
    memo: bool


# The circuit and compiler seeds are pinned (``build_benchmark``'s default
# circuit seed, compiler seed 0): each cold workload is chosen for a layer
# behaviour of that one instance (see RUN_TABLE_COLUMNS_EXPLANATION.md).
# The workload seed sets the order of the K_max sweep.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("qft64-fc8", "QFT", 64, 8, "fully-connected", (None,), memo=False),
        Workload("qaoa64-line4", "QAOA", 64, 4, "line", (None,), memo=False),
        Workload("qft48-kmax-sweep", "QFT", 48, 4, "fully-connected", (1, 2, 4, 8), memo=True),
    )
}


def scrub_environment() -> None:
    """Drop the program's cache/trace switches and pin native thread pools to 1."""
    for name in list(os.environ):
        if name.startswith("DCMBQC_"):
            del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[name] = "1"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Used by a run to time cold set-ups in fresh processes.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"perfbench: no program sources at {source}", file=sys.stderr)
        return 2
    # Before the first import of the program (and of numpy).
    scrub_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    entry = bench.setup_only if args.setup_only else bench.run
    return entry(args, WORKLOADS[args.workload], _PROCESS_START)


if __name__ == "__main__":
    sys.exit(main())
