"""Run every workload untraced and traced; print every metric and the workload checks.

Each run is its own ``run.py`` process, one after another.  The output lists
every end-to-end and per-layer metric by name with its unit, ``failed_ratio``
per workload, and whether each workload stresses the layer it was chosen for.

Usage, from the repository root::

    python3 perfbench/report.py --seed 1 --seconds 36
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

from run import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_checks(workload: str, m: dict) -> list:
    """(statement, measured, holds) rows for the layer a workload was chosen for."""
    mbqc = m["mbqc.translate_s"] + m["mbqc.signal_shift_s"] + m["mbqc.dependency_s"]
    mapping = m["compiler.induced_subgraph_s"] + m["compiler.mapper_s"]
    if workload == "qaoa64-line4":
        layers = {
            "mbqc": mbqc,
            "compiler.compgraph (self)": m["compiler.compgraph_s"],
            "qpu_mapping": mapping,
            "partition": m["partition.s"],
            "scheduling": m["scheduling.s"],
        }
        largest = max(layers, key=layers.get)
        return [
            ("partition.s is the largest layer", f"largest: {largest} "
             f"({layers[largest]:.3f} s of {m['obs.traced_compile_s']:.3f} s)",
             largest == "partition"),
            ("partition.calls = 64", f"{m['partition.calls']}", m["partition.calls"] == 64),
        ]
    if workload == "qft64-fc8":
        share = (mbqc + m["compiler.compgraph_s"] + mapping) / m["obs.traced_compile_s"]
        return [("mbqc + compiler layers > 1/2 of compile_s", f"{share:.1%}", share > 0.5)]
    return [(
        "pipeline.overhead_s > scheduling layer",
        f"{m['pipeline.overhead_s']:.3f} s vs {m['scheduling.s']:.3f} s",
        m["pipeline.overhead_s"] > m["scheduling.s"],
    )]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    args = parser.parse_args(argv)

    checks = []
    for workload in WORKLOADS:
        print(f"== {workload} (seed {args.seed})")
        for trace in (0, 1):
            result = run_workload(workload, args.seed, args.seconds, trace)
            print(f"  trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in sorted(result["metrics"].items()):
                print(f"    {name:38s} {metric['value']:>18.6f} {metric['unit']}")
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        checks.extend((workload, *row) for row in layer_checks(workload, values))

    print("== workload checks")
    for workload, statement, measured, holds in checks:
        verdict = "holds" if holds else "DOES NOT HOLD"
        print(f"  {workload:18s} {statement:44s} {verdict}: {measured}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
