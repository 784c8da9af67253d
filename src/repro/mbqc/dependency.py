"""Dependency graphs of measurement patterns.

The paper's Algorithm 1 consumes the *dependency graph* ``G' = (V, E')`` in
which an edge ``(i, j)`` means that the measurement basis of ``j`` depends on
the outcome of ``i``.  Edges are typed: X-dependencies constrain real-time
execution, while Z-dependencies can be removed by signal shifting and handled
classically (Section II-A).  This module builds that graph from a
:class:`~repro.mbqc.pattern.Pattern` and provides the derived orderings the
compiler needs.

The graph is stored as flat arrays (see :class:`DependencyGraph`): a QFT-64
pattern has about 420k dependency edges, which as a networkx ``DiGraph``
cost seconds to build and over 100 MB to hold.  networkx remains available
as an on-demand view for tests and the public API.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

import networkx as nx
import numpy as np

from repro.mbqc.commands import CorrectionCommand, MeasureCommand, decode_masks
from repro.mbqc.pattern import Pattern
from repro.utils.errors import ValidationError

__all__ = [
    "DependencyGraph",
    "build_dependency_graph",
    "measurement_order",
    "is_pauli_angle",
    "topological_generations",
    "csr",
    "csr_rows",
]

#: Edge kind bits: 1 = X, 2 = Z, 3 = both ("XZ").
_KIND_BITS = {"X": 1, "Z": 2}
_KIND_NAMES = ("", "X", "Z", "XZ")


def is_pauli_angle(angle: float, atol: float = 1e-9) -> bool:
    """True when ``angle`` is 0 modulo pi (an X- or Y-axis Pauli measurement).

    For such angles the adaptive sign flip ``(-1)^s * angle`` and the shift
    ``+ t*pi`` leave the measurement *basis* unchanged (only the outcome
    labelling flips), so the measurement does not have to wait for any
    classical signal.  Real photonic MBQC compilers exploit exactly this
    fact; dropping these vacuous dependencies keeps the real-time dependency
    graph to the non-Clifford skeleton of the program.
    """
    remainder = math.remainder(angle, math.pi)
    return abs(remainder) < atol


def csr(keys: np.ndarray, values: np.ndarray, domain: int) -> Tuple[np.ndarray, np.ndarray]:
    """Group ``values`` by integer ``keys`` (stable) into (indptr, flat values)."""
    order = np.argsort(keys, kind="stable")
    indptr = np.zeros(domain + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=domain), out=indptr[1:])
    return indptr, values[order]


def csr_rows(indptr: np.ndarray, flat: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Concatenate the CSR rows of ``keys``, in key order."""
    starts = indptr[keys]
    lengths = indptr[keys + 1] - starts
    offsets = np.cumsum(lengths) - lengths
    return flat[np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())]


def topological_generations(
    num_nodes: int, src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Kahn's algorithm over index arrays, one generation at a time.

    Returns ``(order, level)``: the nodes in topological order and each
    node's generation, which is the length of the longest edge path ending
    at it.  ``order`` is exactly ``networkx.topological_sort``'s order for a
    DiGraph holding the nodes in index order and the edges in array order:
    the sources in node order, then each node as its in-degree reaches zero
    while the previous generation's out-edges are scanned in turn.  On a
    cycle ``order`` is shorter than ``num_nodes``.
    """
    level = np.zeros(num_nodes, dtype=np.int64)
    indegree = np.bincount(dst, minlength=num_nodes)
    succ_ptr, succ = csr(src, dst, num_nodes)
    generation = np.flatnonzero(indegree == 0)
    found = [generation]
    depth = 0
    while len(generation):
        level[generation] = depth
        depth += 1
        children = csr_rows(succ_ptr, succ, generation)[::-1]
        unique, first, counts = np.unique(children, return_index=True, return_counts=True)
        indegree[unique] -= counts
        ready = indegree[unique] == 0
        # A child becomes ready at its last occurrence in scan order, which
        # is its first in the reversed scan.
        generation = unique[ready][np.argsort(-first[ready])]
        found.append(generation)
    return np.concatenate(found), level


class DependencyGraph:
    """A typed dependency DAG over pattern nodes, held as flat arrays.

    Attributes:
        labels: ``int64`` node labels in node order (pattern node order for
            a built graph, insertion order for a hand-built one).
        src, dst: ``int32`` per-edge indices into ``labels``; edge ``e``
            runs from ``labels[src[e]]`` to ``labels[dst[e]]``.  Edges keep
            insertion order: targets in command order, and per target its
            s-domain sources ascending, then any further t-domain sources.
        kind: ``uint8`` per-edge kind, 1 = X, 2 = Z, 3 = XZ (both present).

    The label index, the predecessor CSR and the topological generations
    are derived on first use and dropped on mutation and pickling.
    :attr:`graph` builds an equivalent networkx ``DiGraph`` (edge attribute
    ``kind`` = ``"X"``/``"Z"``/``"XZ"``) on every access; it is a view for
    tests and the public API, never the storage.
    """

    def __init__(self, labels=(), src=(), dst=(), kind=()) -> None:
        self.labels = np.asarray(labels, dtype=np.int64)
        self.src = np.asarray(src, dtype=np.int32)
        self.dst = np.asarray(dst, dtype=np.int32)
        self.kind = np.asarray(kind, dtype=np.uint8)
        self._derived: dict = {}

    def __getstate__(self):
        return {name: getattr(self, name) for name in ("labels", "src", "dst", "kind")}

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._derived = {}

    # ------------------------------------------------------------------ #
    # Hand-built graphs
    # ------------------------------------------------------------------ #

    def add_dependency(self, source: int, target: int, kind: str) -> None:
        """Record that the basis of ``target`` depends on the outcome of ``source``."""
        if kind not in _KIND_BITS:
            raise ValueError("dependency kind must be 'X' or 'Z'")
        s, t = self._ensure(source), self._ensure(target)
        existing = np.flatnonzero((self.src == s) & (self.dst == t))
        if len(existing):
            self.kind[existing[0]] |= _KIND_BITS[kind]
        else:
            self.src = np.append(self.src, np.int32(s))
            self.dst = np.append(self.dst, np.int32(t))
            self.kind = np.append(self.kind, np.uint8(_KIND_BITS[kind]))
        self._derived = {}

    def add_node(self, node: int) -> None:
        """Ensure ``node`` exists even if it has no dependencies."""
        self._ensure(node)

    def _ensure(self, node: int) -> int:
        index = self._index_of.get(node)
        if index is None:
            index = len(self.labels)
            self.labels = np.append(self.labels, np.int64(node))
            self._derived = {}
        return index

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @property
    def _index_of(self) -> Dict[int, int]:
        """Node label -> index into :attr:`labels`."""
        if "index" not in self._derived:
            self._derived["index"] = {label: i for i, label in enumerate(self.labels.tolist())}
        return self._derived["index"]

    def _predecessors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Predecessor CSR: parents of node ``i`` are ``src[ptr[i]:ptr[i+1]]``."""
        if "pred" not in self._derived:
            self._derived["pred"] = csr(self.dst, self.src, len(self.labels))
        return self._derived["pred"]

    def _generations(self) -> Tuple[np.ndarray, np.ndarray]:
        if "generations" not in self._derived:
            self._derived["generations"] = topological_generations(
                len(self.labels), self.src, self.dst
            )
        return self._derived["generations"]

    @property
    def nodes(self) -> List[int]:
        """All nodes, sorted."""
        return sorted(self.labels.tolist())

    @property
    def num_edges(self) -> int:
        """Number of dependency edges."""
        return len(self.src)

    def __len__(self) -> int:
        return len(self.labels)

    def parents(self, node: int) -> List[int]:
        """Nodes whose outcomes the basis of ``node`` depends on."""
        ptr, parents = self._predecessors()
        index = self._index_of[node]
        return sorted(self.labels[parents[ptr[index] : ptr[index + 1]]].tolist())

    def children(self, node: int) -> List[int]:
        """Nodes whose basis depends on the outcome of ``node``."""
        index = self._index_of[node]
        return sorted(self.labels[self.dst[self.src == index]].tolist())

    def parents_by_node(self) -> Dict[int, List[int]]:
        """Every node label -> its parents' labels, in edge order."""
        ptr, parents = self._predecessors()
        bounds = ptr.tolist()
        flat = self.labels[parents].tolist()
        return {
            label: flat[bounds[i] : bounds[i + 1]]
            for i, label in enumerate(self.labels.tolist())
        }

    def sorted_edges(self) -> List[Tuple[int, int, str]]:
        """``(source, target, kind)`` label triples, ascending."""
        sources, targets = self.labels[self.src], self.labels[self.dst]
        order = np.lexsort((targets, sources))
        kinds = [_KIND_NAMES[kind] for kind in self.kind[order].tolist()]
        return list(zip(sources[order].tolist(), targets[order].tolist(), kinds))

    def restricted_to(self, kinds: Iterable[str]) -> "DependencyGraph":
        """Return a sub-DAG containing only edges of the given kinds.

        ``kinds={"X"}`` yields the real-time dependency graph after signal
        shifting; ``{"X", "Z"}`` yields the full graph.
        """
        names = set(kinds)
        wanted = sum(bit for name, bit in _KIND_BITS.items() if name in names)
        kind = self.kind & wanted
        keep = kind != 0
        return DependencyGraph(self.labels, self.src[keep], self.dst[keep], kind[keep])

    def x_only(self) -> "DependencyGraph":
        """Real-time dependency graph: X-dependencies only."""
        return self.restricted_to({"X"})

    def induced(self, nodes: Iterable[int]) -> "DependencyGraph":
        """The sub-DAG on ``nodes`` (in the given order), edges kept in order.

        Labels of ``nodes`` this graph does not hold become isolated nodes.
        """
        labels = list(nodes)
        old = np.array([self._index_of.get(label, -1) for label in labels], dtype=np.int64)
        held = old >= 0
        new_index = np.full(len(self.labels), -1, dtype=np.int64)
        new_index[old[held]] = np.flatnonzero(held)
        src, dst = new_index[self.src], new_index[self.dst]
        keep = (src >= 0) & (dst >= 0)
        return DependencyGraph(labels, src[keep], dst[keep], self.kind[keep])

    def topological_indices(self) -> np.ndarray:
        """Node indices in ``networkx.topological_sort`` order (see
        :func:`topological_generations`)."""
        order, _ = self._generations()
        if len(order) != len(self.labels):
            raise ValidationError("dependency graph contains a cycle")
        return order

    def topological_order(self) -> List[int]:
        """Return nodes in a topological (dependency-respecting) order."""
        return self.labels[self.topological_indices()].tolist()

    def depth(self) -> int:
        """Length (in nodes) of the longest dependency chain."""
        if not len(self.labels):
            return 0
        self.topological_indices()  # raises on a cycle
        return int(self._generations()[1].max()) + 1

    def is_acyclic(self) -> bool:
        """True iff the dependency graph is a DAG (required for validity)."""
        return len(self._generations()[0]) == len(self.labels)

    @property
    def graph(self) -> nx.DiGraph:
        """A fresh networkx ``DiGraph`` with the same nodes, edges and kinds."""
        graph = nx.DiGraph()
        labels = self.labels.tolist()
        graph.add_nodes_from(labels)
        graph.add_edges_from(
            (labels[s], labels[t], {"kind": _KIND_NAMES[k]})
            for s, t, k in zip(self.src.tolist(), self.dst.tolist(), self.kind.tolist())
        )
        return graph


def build_dependency_graph(
    pattern: Pattern,
    include_output_corrections: bool = False,
    drop_pauli_dependencies: bool = True,
) -> DependencyGraph:
    """Build the typed dependency graph of ``pattern``.

    Args:
        pattern: Source pattern.
        include_output_corrections: Also add edges for the final classical
            byproduct corrections on output nodes.  These never constrain
            photon storage (they are frame updates), so the default is False.
        drop_pauli_dependencies: Omit dependencies of measurements whose
            angle is 0 modulo pi (see :func:`is_pauli_angle`); such
            measurements are basis-independent of their domains and impose
            no real-time wait.  Set to False to obtain the raw dependency
            structure of the measurement calculus.
    """
    targets: List[int] = []
    masks: List[int] = []
    bits: List[int] = []
    for command in pattern.commands:
        if isinstance(command, MeasureCommand):
            if drop_pauli_dependencies and is_pauli_angle(command.angle):
                continue
            for mask, bit in ((command.s_mask, 1), (command.t_mask, 2)):
                if mask:
                    targets.append(command.node)
                    masks.append(mask)
                    bits.append(bit)
        elif include_output_corrections and isinstance(command, CorrectionCommand):
            if command.mask:
                targets.append(command.node)
                masks.append(command.mask)
                bits.append(1 if command.pauli == "X" else 2)
    owner, sources = decode_masks(masks)
    edge_targets = np.array(targets, dtype=np.int64)[owner]
    kind = np.array(bits, dtype=np.uint8)[owner]
    if len(set(targets)) < len(targets):
        # A pair named by several masks of one target (s and t domain, or X
        # and Z corrections) is one edge: keep its first position, OR kinds.
        width = int(max(sources.max(), edge_targets.max())) + 1
        _, first, inverse = np.unique(
            sources * width + edge_targets, return_index=True, return_inverse=True
        )
        merged = np.zeros(len(first), dtype=np.uint8)
        np.bitwise_or.at(merged, inverse.ravel(), kind)
        by_position = np.argsort(first)
        sources, edge_targets = sources[first[by_position]], edge_targets[first[by_position]]
        kind = merged[by_position]

    labels = np.array(pattern.nodes, dtype=np.int64)
    measured = np.array([c.node for c in pattern.measure_commands], dtype=np.int64)
    size = int(max(labels.max(initial=-1), sources.max(initial=-1))) + 1
    index = np.full(size, -1, dtype=np.int64)
    index[labels] = np.arange(len(labels))
    unknown = np.unique(sources[index[sources] < 0])
    if len(unknown):
        raise ValidationError(f"domains mention unknown nodes: {unknown[:5].tolist()}")
    dag = DependencyGraph(labels, index[sources], index[edge_targets], kind)

    # Every source measured before its target proves acyclicity; otherwise
    # (an unmeasured source, or a backward edge) run the real cycle check.
    position = np.full(size, len(measured), dtype=np.int64)
    position[measured] = np.arange(len(measured))
    if not np.all(position[sources] < position[edge_targets]) and not dag.is_acyclic():
        raise ValidationError("pattern produces a cyclic dependency graph")
    return dag


def measurement_order(pattern: Pattern) -> List[int]:
    """Return the nodes of ``pattern`` in measurement order.

    Output nodes (never measured) are appended at the end in label order, so
    the result is a total order over all nodes that respects every real-time
    dependency; the grid mapper uses it as its default placement order.
    """
    measured = [cmd.node for cmd in pattern.measure_commands]
    measured_set = set(measured)
    tail = [node for node in pattern.nodes if node not in measured_set]
    return measured + sorted(tail)
