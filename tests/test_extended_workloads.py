"""Acceptance tests for the extended workload families.

Two properties gate a new program family into the library:

1. **Translation correctness** — simulating the translated measurement
   pattern reproduces the circuit's output state on random inputs for any
   sequence of measurement outcomes, including adversarially *forced*
   outcome assignments (all-zeros, all-ones, alternating).  With the
   forced-outcome fix in :mod:`repro.mbqc.simulator` a broken translation
   now raises instead of being silently masked.
2. **End-to-end compilability** — every family runs through the full
   DC-MBQC pipeline (translate → compgraph → partition → mapping →
   scheduling) and a warm rerun against the artifact cache recomputes
   nothing.
"""

import pytest

from repro.circuit.equivalence import (
    random_product_state,
    states_equivalent_up_to_phase,
)
from repro.circuit.simulator import StatevectorSimulator
from repro.mbqc.simulator import simulate_pattern
from repro.mbqc.translate import circuit_to_pattern
from repro.obs.metrics import METRICS
from repro.pipeline import CACHE_DIR_ENV, clear_memory_cache
from repro.programs import build_benchmark
from repro.programs.registry import EXTENDED_FAMILIES
from repro.sweep.cache import COMPUTATION_CACHE
from repro.sweep.grid import ParameterGrid
from repro.sweep.runner import run_grid

#: (family, width) pairs small enough for dense-statevector validation.
EQUIVALENCE_INSTANCES = [
    ("GROVER", 3),
    ("QPE", 4),
    ("GHZ", 4),
    ("HS", 4),
    ("ANSATZ", 4),
]


def _circuit_output(circuit, probe):
    simulator = StatevectorSimulator(circuit.num_qubits)
    simulator.set_state(probe)
    simulator.run(circuit)
    return simulator.state


class TestPatternEquivalence:
    @pytest.mark.parametrize("family,qubits", EQUIVALENCE_INSTANCES)
    def test_random_outcomes_reproduce_circuit(self, family, qubits):
        circuit = build_benchmark(family, qubits, seed=3)
        pattern = circuit_to_pattern(circuit)
        probe = random_product_state(qubits, seed=23)
        expected = _circuit_output(circuit, probe)
        for seed in range(3):
            produced = simulate_pattern(pattern, input_state=probe, seed=seed)
            assert states_equivalent_up_to_phase(produced, expected), (
                f"{family}-{qubits} broke determinism at outcome seed {seed}"
            )

    @pytest.mark.parametrize("family,qubits", EQUIVALENCE_INSTANCES)
    def test_adversarially_forced_outcomes(self, family, qubits):
        """Forcing every measurement branch still yields the circuit output.

        A correct translation makes each outcome branch equally likely, so
        all-zeros, all-ones and alternating assignments must all be
        realisable — and all must produce the same state.  A broken
        byproduct-correction chain now fails loudly (ValidationError on a
        zero-probability branch) instead of being silently flipped.
        """
        circuit = build_benchmark(family, qubits, seed=3)
        pattern = circuit_to_pattern(circuit)
        probe = random_product_state(qubits, seed=29)
        expected = _circuit_output(circuit, probe)
        measured = pattern.measured_nodes
        assignments = [
            {node: 0 for node in measured},
            {node: 1 for node in measured},
            {node: index % 2 for index, node in enumerate(measured)},
        ]
        for forced in assignments:
            produced = simulate_pattern(
                pattern, input_state=probe, seed=0, forced_outcomes=forced
            )
            assert states_equivalent_up_to_phase(produced, expected), (
                f"{family}-{qubits} output depends on the measurement branch"
            )


class TestFullPipeline:
    @pytest.fixture
    def warm_cache_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "artifacts"))
        self._reset()
        yield
        self._reset()

    @staticmethod
    def _reset():
        COMPUTATION_CACHE.clear()
        clear_memory_cache()
        METRICS.reset("pipeline.stage.")

    def test_every_new_family_compiles_distributed_with_warm_cache(
        self, warm_cache_environment
    ):
        grid = ParameterGrid(
            "compile",
            axes={
                "instance": [
                    ("GROVER", 5),
                    ("QPE", 6),
                    ("GHZ", 6),
                    ("HS", 6),
                    ("ANSATZ", 6),
                ]
            },
            fixed={"num_qpus": 2, "seed": 0},
        )

        cold = run_grid(grid, workers=1)
        cold_rows = cold.results()
        assert len(cold_rows) == len(EXTENDED_FAMILIES)
        for row in cold_rows:
            # The full distributed stack produced a schedule for the family.
            assert row["execution_time"] > 0
            assert len(row["part_sizes"]) >= 1
        assert METRICS.counter("pipeline.stage.executions", stage="translate") == len(cold_rows)
        assert METRICS.counter("pipeline.stage.executions", stage="scheduling") == len(cold_rows)

        self._reset()  # fresh process, warm disk cache

        warm = run_grid(grid, workers=1)
        assert warm.results() == cold_rows
        assert warm.cache_summary()["hits"] > 0
        for stage in ("translate", "compgraph", "partition", "qpu_mapping", "scheduling"):
            executions = METRICS.counter("pipeline.stage.executions", stage=stage)
            assert executions == 0, f"warm rerun re-ran stage {stage}"
