"""Tests for content hashing of compiler artifacts."""

import math

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.mbqc.translate import circuit_to_pattern
from repro.pipeline import hashing
from repro.pipeline.hashing import (
    canonicalize,
    circuit_hash,
    computation_hash,
    content_hash,
    hash_parts,
    partition_hash,
    pattern_hash,
)
from repro.compiler.compgraph import computation_graph_from_pattern
from repro.partition.types import PartitionResult
from repro.programs import benchmark_names, build_benchmark


def qft(num_qubits=6, seed=0):
    return build_benchmark("QFT", num_qubits, seed=seed)


class TestCanonicalize:
    def test_dict_key_order_is_irrelevant(self):
        assert hash_parts({"a": 1, "b": 2}) == hash_parts({"b": 2, "a": 1})

    def test_sets_are_sorted(self):
        assert hash_parts({3, 1, 2}) == hash_parts({1, 2, 3})
        assert canonicalize(frozenset({2, 1})) == [1, 2]

    def test_floats_keep_exact_repr(self):
        assert canonicalize(0.1) == repr(0.1)
        assert hash_parts(1.0) != hash_parts(1)

    def test_enums_collapse_to_value(self):
        from repro.hardware.resource_states import ResourceStateType

        assert hash_parts(ResourceStateType.STAR_5) == hash_parts("5-star")


class TestCircuitHash:
    def test_identical_builds_hash_identically(self):
        assert circuit_hash(qft()) == circuit_hash(qft())

    def test_gate_change_changes_hash(self):
        base = qft()
        changed = qft()
        changed.h(0)
        assert circuit_hash(base) != circuit_hash(changed)

    def test_parameter_change_changes_hash(self):
        a = QuantumCircuit(2, name="c").rz(0.5, 0)
        b = QuantumCircuit(2, name="c").rz(0.5 + 1e-12, 0)
        assert circuit_hash(a) != circuit_hash(b)

    def test_name_is_part_of_identity(self):
        a = QuantumCircuit(2, name="a").h(0)
        b = QuantumCircuit(2, name="b").h(0)
        assert circuit_hash(a) != circuit_hash(b)

    def test_method_delegates(self):
        circuit = qft()
        assert circuit.content_hash() == circuit_hash(circuit)


class TestPatternAndComputationHash:
    def test_pattern_hash_is_stable(self):
        assert pattern_hash(circuit_to_pattern(qft())) == pattern_hash(
            circuit_to_pattern(qft())
        )

    def test_angle_change_changes_pattern_hash(self):
        a = circuit_to_pattern(QuantumCircuit(1, name="c").rz(0.1, 0))
        b = circuit_to_pattern(QuantumCircuit(1, name="c").rz(0.2, 0))
        assert pattern_hash(a) != pattern_hash(b)

    def test_pattern_method_delegates(self):
        pattern = circuit_to_pattern(qft())
        assert pattern.content_hash() == pattern_hash(pattern)

    def test_computation_hash_is_stable_and_sensitive(self):
        a = computation_graph_from_pattern(circuit_to_pattern(qft()))
        b = computation_graph_from_pattern(circuit_to_pattern(qft()))
        c = computation_graph_from_pattern(circuit_to_pattern(qft(num_qubits=7)))
        assert computation_hash(a) == computation_hash(b)
        assert computation_hash(a) != computation_hash(c)
        assert a.content_hash() == computation_hash(a)

    def test_circuit_seed_propagates_to_every_level(self):
        a = build_benchmark("QAOA", 8, seed=1)
        b = build_benchmark("QAOA", 8, seed=2)
        assert circuit_hash(a) != circuit_hash(b)
        assert pattern_hash(circuit_to_pattern(a)) != pattern_hash(
            circuit_to_pattern(b)
        )


class TestPartitionAndDispatch:
    def test_partition_hash(self):
        a = PartitionResult(assignment={1: 0, 2: 1}, num_parts=2)
        b = PartitionResult(assignment={2: 1, 1: 0}, num_parts=2)
        c = PartitionResult(assignment={1: 0, 2: 0}, num_parts=2)
        assert partition_hash(a) == partition_hash(b)
        assert partition_hash(a) != partition_hash(c)

    def test_content_hash_dispatch(self):
        circuit = qft()
        pattern = circuit_to_pattern(circuit)
        computation = computation_graph_from_pattern(pattern)
        assert content_hash(circuit) == circuit_hash(circuit)
        assert content_hash(pattern) == pattern_hash(pattern)
        assert content_hash(computation) == computation_hash(computation)
        assert content_hash(math.pi) is None
        assert content_hash("not an artifact") is None


@pytest.mark.parametrize("program", benchmark_names())
def test_direct_serialisation_equals_canonicalising_path(program):
    """Artifact hashes serialise their parts directly; the bytes (and keys)
    must equal the :func:`hash_parts` path that canonicalises every part."""
    circuit = build_benchmark(program, 6, seed=5)
    pattern = circuit_to_pattern(circuit)
    computation = computation_graph_from_pattern(pattern)
    partition = PartitionResult(
        assignment={node: node % 3 for node in computation.nodes()}, num_parts=3
    )
    for parts, hasher, artifact in (
        (hashing._circuit_parts, circuit_hash, circuit),
        (hashing._pattern_parts, pattern_hash, pattern),
        (hashing._computation_parts, computation_hash, computation),
        (hashing._partition_parts, partition_hash, partition),
    ):
        assert hasher(artifact) == hash_parts(*parts(artifact)), hasher.__name__
