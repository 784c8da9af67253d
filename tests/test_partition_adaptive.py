"""Tests for the adaptive graph partitioner (Algorithm 2)."""

import networkx as nx
import pytest

from repro.compiler.compgraph import computation_graph_from_pattern
from repro.mbqc.translate import circuit_to_pattern
from repro.partition.adaptive import AdaptivePartitionConfig, AdaptivePartitioner
from repro.partition.modularity import modularity
from repro.partition.multilevel import MultilevelPartitioner, partition_graph
from repro.programs.registry import build_benchmark
from repro.utils.counters import OP_COUNTERS
from repro.utils.errors import PartitionError


def _clustered_graph():
    """Four 8-node clusters joined in a ring — clear community structure."""
    graph = nx.Graph()
    for cluster in range(4):
        offset = cluster * 8
        for i in range(8):
            for j in range(i + 1, 8):
                graph.add_edge(offset + i, offset + j)
    for cluster in range(4):
        graph.add_edge(cluster * 8, ((cluster + 1) % 4) * 8)
    return graph


class TestConfig:
    def test_defaults_match_paper(self):
        config = AdaptivePartitionConfig(num_parts=4)
        assert config.epsilon_q == pytest.approx(0.01)
        assert config.alpha_max == pytest.approx(1.5)
        assert config.gamma == pytest.approx(1.02)

    def test_invalid_values_rejected(self):
        with pytest.raises(PartitionError):
            AdaptivePartitionConfig(num_parts=0)
        with pytest.raises(PartitionError):
            AdaptivePartitionConfig(num_parts=2, gamma=1.0)
        with pytest.raises(PartitionError):
            AdaptivePartitionConfig(num_parts=2, alpha_max=0.9)

    def test_max_iterations_must_be_positive(self):
        with pytest.raises(PartitionError, match="max_iterations"):
            AdaptivePartitionConfig(num_parts=2, max_iterations=0)


class TestAlgorithm2:
    def test_partition_covers_graph(self, qft8_computation):
        partitioner = AdaptivePartitioner(AdaptivePartitionConfig(num_parts=4))
        result = partitioner.partition(qft8_computation.graph)
        result.validate_covers(qft8_computation.graph)
        assert len([s for s in result.part_sizes() if s > 0]) == 4

    def test_respects_alpha_max(self, qft8_computation):
        config = AdaptivePartitionConfig(num_parts=4, alpha_max=1.5)
        result = AdaptivePartitioner(config).partition(qft8_computation.graph)
        slack = 4 / (qft8_computation.num_nodes / 4)
        assert result.imbalance() <= 1.5 + slack

    def test_finds_clusters_exactly(self):
        graph = _clustered_graph()
        config = AdaptivePartitionConfig(num_parts=4, alpha_max=1.5)
        result = AdaptivePartitioner(config).partition(graph)
        assert result.cut_size(graph) == 4
        assert modularity(graph, result.assignment) > 0.6

    def test_modularity_not_worse_than_balanced_partition(self, qft8_computation):
        graph = qft8_computation.graph
        balanced = partition_graph(graph, 4, imbalance=1.0)
        config = AdaptivePartitionConfig(num_parts=4)
        adaptive = AdaptivePartitioner(config).partition(graph)
        assert modularity(graph, adaptive.assignment) >= modularity(
            graph, balanced.assignment
        ) - 1e-9

    def test_trace_recorded(self, qft8_computation):
        partitioner = AdaptivePartitioner(AdaptivePartitionConfig(num_parts=4))
        partitioner.partition(qft8_computation.graph)
        assert partitioner.trace
        assert partitioner.trace[0].alpha == pytest.approx(1.0)
        assert any(step.accepted for step in partitioner.trace)
        assert partitioner.best_modularity >= 0.0

    def test_alpha_never_exceeds_alpha_max(self, qft8_computation):
        config = AdaptivePartitionConfig(num_parts=4, alpha_max=1.2)
        partitioner = AdaptivePartitioner(config)
        partitioner.partition(qft8_computation.graph)
        assert all(step.alpha <= 1.2 + 1e-9 for step in partitioner.trace)

    def test_single_part_short_circuit(self, small_computation):
        config = AdaptivePartitionConfig(num_parts=1)
        result = AdaptivePartitioner(config).partition(small_computation.graph)
        assert set(result.assignment.values()) == {0}


class TestRepeatedLimits:
    """Steps that revisit a balance limit reuse its partition verbatim."""

    def test_oscillating_search_partitions_each_limit_once(self):
        # VQE-24 on 8 parts: Q alternates between alpha = 1.0 and 1.02 by more
        # than epsilon_Q, so the search runs all 64 steps over two limits.
        graph = computation_graph_from_pattern(
            circuit_to_pattern(build_benchmark("VQE", 24))
        ).graph
        partitioner = AdaptivePartitioner(AdaptivePartitionConfig(num_parts=8))
        before = OP_COUNTERS.snapshot()
        result = partitioner.partition(graph)
        calls = OP_COUNTERS.delta_since(before).get("partition.calls", 0)

        assert len(partitioner.trace) == 64
        assert calls == 2

        # Reference: a fresh multilevel partition for every step.
        reference = []
        best_q = -1.0
        best_assignment = None
        for step in partitioner.trace:
            fresh = MultilevelPartitioner(8, imbalance=step.alpha).partition(graph)
            q = modularity(graph, fresh.assignment)
            reference.append(
                (step.alpha, q, fresh.cut_size(graph), fresh.imbalance(), q > best_q)
            )
            if q > best_q:
                best_q = q
                best_assignment = fresh.assignment
        assert [
            (s.alpha, s.modularity, s.cut_size, s.imbalance, s.accepted)
            for s in partitioner.trace
        ] == reference
        assert result.assignment == best_assignment
