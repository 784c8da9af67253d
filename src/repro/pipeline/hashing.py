"""Stable content hashing for compiler artifacts.

Every cacheable pipeline stage derives its cache key from the *content* of
its inputs, so identical programs hash identically across processes and
interpreter runs (no ``id()``, no ``hash()`` randomisation, no pickle byte
instability).  The canonical form is a JSON document built from sorted,
explicitly ordered primitives; floats are rendered with ``repr`` so every
representable value keeps a distinct, stable spelling.  Stage parameters
go through :func:`canonicalize`; the artifact hashers build parts that are
already canonical (ints, strs, tuples and lists, angles pre-rendered with
``repr``) and serialise them directly to the same bytes.

The scheme intentionally mirrors :meth:`repro.sweep.grid.SweepPoint.cache_key`
(sha256 over canonical JSON, truncated to 20 hex characters) so artifact keys
and sweep-store keys live in the same namespace style.
"""

from __future__ import annotations

import enum
import hashlib
import json
from typing import List, Optional

from repro.circuit.circuit import QuantumCircuit
from repro.compiler.compgraph import ComputationGraph
from repro.mbqc.commands import (
    CorrectionCommand,
    EntangleCommand,
    MeasureCommand,
    PrepareCommand,
    mask_bits,
)
from repro.mbqc.pattern import Pattern
from repro.partition.types import PartitionResult

__all__ = [
    "canonicalize",
    "hash_parts",
    "circuit_hash",
    "pattern_hash",
    "computation_hash",
    "partition_hash",
    "content_hash",
]

KEY_LENGTH = 20
"""Hex characters kept from the sha256 digest (matches ``SweepPoint.cache_key``)."""


def canonicalize(value: object) -> object:
    """Reduce ``value`` to a deterministic JSON-serialisable structure.

    Dicts are sorted by stringified key, sets are sorted, floats become their
    ``repr`` (exact and stable), enums collapse to their ``value``, and
    tuples/lists become lists.  Unknown objects fall back to ``repr``.
    """
    # Exact-type dispatch first: artifact hashes walk hundreds of thousands
    # of small ints/tuples, where the isinstance cascade dominated.
    kind = type(value)
    if kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is float:
        return repr(value)
    if kind is list or kind is tuple:
        return [
            item if type(item) is int or type(item) is str else canonicalize(item)
            for item in value
        ]
    if isinstance(value, (bool, int, str)):  # bool/int/str subclasses, enums below
        if isinstance(value, enum.Enum):
            return canonicalize(value.value)
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonicalize(item) for item in value)  # type: ignore[type-var]
    if isinstance(value, dict):
        return {
            str(key): canonicalize(val)
            for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, enum.Enum):
        return canonicalize(value.value)
    return repr(value)


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:KEY_LENGTH]


def hash_parts(*parts: object) -> str:
    """Hash a sequence of canonicalised parts into a short stable key."""
    return _digest(
        json.dumps(
            [canonicalize(part) for part in parts],
            sort_keys=True,
            separators=(",", ":"),
        )
    )


def _hash_native(*parts: object) -> str:
    """:func:`hash_parts` for parts that are already canonical.

    Parts built only from ints, strs, ``None``, tuples and lists canonicalise
    to themselves, so serialising them directly yields the same bytes (and
    key) without the :func:`canonicalize` walk over every element.
    """
    return _digest(json.dumps(parts, separators=(",", ":")))


def _circuit_parts(circuit: QuantumCircuit) -> tuple:
    gates: List[object] = [
        (gate.name, list(gate.qubits), [repr(float(p)) for p in gate.params])
        for gate in circuit.gates
    ]
    return ("circuit", circuit.num_qubits, circuit.name, gates)


def circuit_hash(circuit: QuantumCircuit) -> str:
    """Content hash of a gate-level circuit (register, name, gate list)."""
    return _hash_native(*_circuit_parts(circuit))


def _command_canonical(command: object) -> object:
    if isinstance(command, PrepareCommand):
        return ("N", command.node)
    if isinstance(command, EntangleCommand):
        return ("E", *command.sorted_nodes())
    if isinstance(command, MeasureCommand):
        return (
            "M",
            command.node,
            repr(command.angle),
            list(mask_bits(command.s_mask)),
            list(mask_bits(command.t_mask)),
        )
    if isinstance(command, CorrectionCommand):
        return (command.pauli, command.node, list(mask_bits(command.mask)))
    raise TypeError(f"cannot hash command {command!r}")


def _pattern_parts(pattern: Pattern) -> tuple:
    return (
        "pattern",
        pattern.name,
        list(pattern.input_nodes),
        list(pattern.output_nodes),
        sorted(pattern.removed_nodes),
        [_command_canonical(command) for command in pattern.commands],
    )


def pattern_hash(pattern: Pattern) -> str:
    """Content hash of a measurement pattern (nodes, commands, domains)."""
    return _hash_native(*_pattern_parts(pattern))


def _computation_parts(computation: ComputationGraph) -> tuple:
    return (
        "compgraph",
        computation.name,
        computation.nodes(),
        computation.edges(),
        computation.dependency.sorted_edges(),
        list(computation.order),
        list(computation.output_nodes),
        sorted(computation.removed_nodes),
    )


def computation_hash(computation: ComputationGraph) -> str:
    """Content hash of a computation graph (topology, dependencies, order)."""
    return _hash_native(*_computation_parts(computation))


def _partition_parts(partition: PartitionResult) -> tuple:
    return ("partition", partition.num_parts, sorted(partition.assignment.items()))


def partition_hash(partition: PartitionResult) -> str:
    """Content hash of a k-way partition (assignment plus part count)."""
    return _hash_native(*_partition_parts(partition))


#: Registered hashers, tried in order by :func:`content_hash`.
_HASHERS = (
    (QuantumCircuit, circuit_hash),
    (Pattern, pattern_hash),
    (ComputationGraph, computation_hash),
    (PartitionResult, partition_hash),
)


def content_hash(artifact: object) -> Optional[str]:
    """Content hash of a known artifact type, ``None`` for anything else.

    Unknown artifact types are not an error: the pipeline falls back to
    provenance keys (the producing stage's cache key) for them.
    """
    for artifact_type, hasher in _HASHERS:
        if isinstance(artifact, artifact_type):
            return hasher(artifact)
    return None
