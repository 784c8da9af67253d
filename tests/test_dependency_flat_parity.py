"""Parity of the flat-array dependency DAG with a networkx reference.

The reference builder below is the networkx construction the flat arrays
replaced, kept here (with its one-bit-at-a-time mask decoder) as the
specification: same edges and kinds, and the same topological order, which
the scheduler's first-argmax tie-breaks depend on.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Tuple

import networkx as nx
import numpy as np
import pytest

from repro.compiler import computation_graph_from_pattern
from repro.core import DCMBQCCompiler, DCMBQCConfig
from repro.mbqc.commands import CorrectionCommand, MeasureCommand
from repro.mbqc.dependency import DependencyGraph, build_dependency_graph, is_pauli_angle
from repro.mbqc.signal_shift import signal_shift
from repro.mbqc.translate import circuit_to_pattern
from repro.metrics.lifetime import measuree_lifetime
from repro.programs import build_benchmark
from repro.programs.registry import benchmark_names
from repro.runtime.executor import DistributedRuntime
from repro.utils.errors import ValidationError


def _loop_bits(mask: int) -> List[int]:
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def reference_dependency_graph(
    pattern, include_output_corrections: bool, drop_pauli_dependencies: bool
) -> nx.DiGraph:
    """The networkx construction, one dict entry per typed edge."""
    graph = nx.DiGraph()
    graph.add_nodes_from(pattern.nodes)
    edge_kinds: Dict[Tuple[int, int], int] = {}
    for command in pattern.commands:
        if isinstance(command, MeasureCommand):
            if drop_pauli_dependencies and is_pauli_angle(command.angle):
                continue
            for source in _loop_bits(command.s_mask):
                edge_kinds[(source, command.node)] = edge_kinds.get((source, command.node), 0) | 1
            for source in _loop_bits(command.t_mask):
                edge_kinds[(source, command.node)] = edge_kinds.get((source, command.node), 0) | 2
        elif include_output_corrections and isinstance(command, CorrectionCommand):
            bit = 1 if command.pauli == "X" else 2
            for source in _loop_bits(command.mask):
                edge_kinds[(source, command.node)] = edge_kinds.get((source, command.node), 0) | bit
    names = {1: "X", 2: "Z", 3: "XZ"}
    graph.add_edges_from(
        (source, target, {"kind": names[kind]}) for (source, target), kind in edge_kinds.items()
    )
    return graph


def _typed_edges(graph: nx.DiGraph):
    return sorted((s, t, data["kind"]) for s, t, data in graph.edges(data=True))


_PATTERNS = {}


def _pattern(family: str, shifted: bool):
    key = (family, shifted)
    if key not in _PATTERNS:
        pattern = circuit_to_pattern(build_benchmark(family, 4, seed=3))
        _PATTERNS[key] = signal_shift(pattern) if shifted else pattern
    return _PATTERNS[key]


@pytest.mark.parametrize("family", benchmark_names())
@pytest.mark.parametrize("shifted", [True, False], ids=["shifted", "unshifted"])
@pytest.mark.parametrize("drop_pauli", [True, False], ids=["drop-pauli", "keep-pauli"])
@pytest.mark.parametrize("corrections", [False, True], ids=["no-corr", "corr"])
def test_flat_dag_matches_networkx_reference(family, shifted, drop_pauli, corrections):
    pattern = _pattern(family, shifted)
    flat = build_dependency_graph(
        pattern,
        include_output_corrections=corrections,
        drop_pauli_dependencies=drop_pauli,
    )
    reference = reference_dependency_graph(pattern, corrections, drop_pauli)
    assert flat.sorted_edges() == _typed_edges(reference)
    assert flat.topological_order() == list(nx.topological_sort(reference))
    assert flat.depth() == nx.dag_longest_path_length(reference) + 1
    view = flat.graph
    assert list(view.nodes) == list(reference.nodes)
    assert list(view.edges(data=True)) == list(reference.edges(data=True))


def test_restriction_and_induced_subgraph_match_networkx():
    pattern = _pattern("QFT", shifted=False)
    flat = build_dependency_graph(pattern, drop_pauli_dependencies=False)
    reference = reference_dependency_graph(pattern, False, False)
    x_edges = [(s, t, "X") for s, t, kind in _typed_edges(reference) if "X" in kind]
    assert flat.x_only().sorted_edges() == x_edges

    nodes = {node for node in reference.nodes if node % 3}
    sub = flat.induced(nodes)
    sub_reference = nx.DiGraph()
    sub_reference.add_nodes_from(nodes)
    sub_reference.add_edges_from(reference.subgraph(nodes).edges(data=True))
    assert sub.sorted_edges() == _typed_edges(sub_reference)
    assert sub.topological_order() == list(nx.topological_sort(sub_reference))


def test_cycle_is_rejected():
    dag = DependencyGraph()
    dag.add_dependency(0, 1, "X")
    dag.add_dependency(1, 0, "X")
    assert not dag.is_acyclic()
    with pytest.raises(ValidationError):
        dag.topological_order()


def test_graph_view_is_fresh_and_never_pickled():
    dag = build_dependency_graph(_pattern("QFT", shifted=True))
    assert dag.graph is not dag.graph
    dag.topological_order()
    dag.parents_by_node()
    state = pickle.dumps(dag)
    assert b"networkx" not in state
    clone = pickle.loads(state)
    assert clone.sorted_edges() == dag.sorted_edges()
    assert clone.topological_order() == dag.topological_order()


def test_lifetime_matches_networkx_path():
    computation = computation_graph_from_pattern(_pattern("QFT", shifted=False))
    layer = {node: i % 7 for i, node in enumerate(computation.order)}
    reference = computation.dependency.graph
    assert measuree_lifetime(layer, computation.dependency) == measuree_lifetime(
        layer, reference
    )


# --------------------------------------------------------------------------- #
# Scheduling kernel and runtime replay on QFT-12 over 4 QPUs
# --------------------------------------------------------------------------- #


def _reference_kernel_dag(problem, node_pos):
    """The kernel's measuree setup as the networkx loop computed it."""
    graph = problem.dependency.graph
    topo = [n for n in nx.topological_sort(graph) if n in node_pos]
    present_index = {node: i for i, node in enumerate(topo)}
    level = [0] * len(topo)
    edges = []
    for node in topo:
        dst = present_index[node]
        for parent in graph.predecessors(node):
            src = present_index.get(parent)
            if src is not None:
                edges.append((src, dst))
                level[dst] = max(level[dst], level[src] + 1)
    by_level: Dict[int, list] = {}
    for src, dst in edges:
        by_level.setdefault(level[dst], []).append((src, dst))
    levels = []
    for lvl in sorted(by_level):
        batch = sorted(by_level[lvl], key=lambda e: e[1])
        dst_arr = np.array([d for _, d in batch], dtype=np.int64)
        starts = np.flatnonzero(np.r_[True, dst_arr[1:] != dst_arr[:-1]])
        levels.append(([s for s, _ in batch], dst_arr[starts].tolist(), starts.tolist()))
    return topo, edges, levels


@pytest.fixture(scope="module")
def qft12_result():
    config = DCMBQCConfig(num_qpus=4, grid_size=7)
    result, _ = DCMBQCCompiler(config).compile_run(
        build_benchmark("QFT", 12), use_cache=False
    )
    return result


def test_kernel_present_order_and_levels_match_networkx(qft12_result):
    kernel = qft12_result.problem._kernel()
    node_pos = {node: i for i, node in enumerate(kernel.node_ids)}
    topo, edges, levels = _reference_kernel_dag(qft12_result.problem, node_pos)
    assert kernel.present_nodes == topo
    assert list(zip(kernel.edge_src.tolist(), kernel.edge_dst.tolist())) == edges
    assert [
        (src.tolist(), dst.tolist(), starts.tolist())
        for src, dst, starts in kernel.measuree_levels
    ] == levels


def test_replay_measuree_records_follow_networkx_order(qft12_result):
    trace = DistributedRuntime(qft12_result).run()
    measurees = [r.node for r in trace.storage_records if r.reason == "measuree"]
    removed = qft12_result.computation.removed_nodes
    graph = qft12_result.computation.dependency.graph
    generated = qft12_result.problem.node_task_map()
    expected = [
        node
        for node in nx.topological_sort(graph)
        if node in generated and node not in removed
    ]
    assert measurees == expected


def test_compile_builds_no_digraph(monkeypatch):
    built = []
    original = nx.DiGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        original(self, *args, **kwargs)

    monkeypatch.setattr(nx.DiGraph, "__init__", counting_init)
    config = DCMBQCConfig(num_qpus=2, grid_size=5)
    DCMBQCCompiler(config).compile_run(build_benchmark("QFT", 8), use_cache=False)
    assert built == []
    DependencyGraph().graph  # the counter itself works
    assert built == [nx.DiGraph]
