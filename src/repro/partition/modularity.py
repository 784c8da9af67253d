"""Newman modularity.

Modularity quantifies how much denser the connections inside the parts of a
partition are compared to a random graph with the same degree sequence:

    Q = sum_c [ e_c / m  -  (d_c / (2 m))^2 ]

where ``m`` is the number of edges, ``e_c`` the number of edges inside part
``c`` and ``d_c`` the total degree of part ``c``.  Algorithm 2 of the paper
uses modularity as the measure of subgraph structural quality that the
adaptive partitioner trades against balance.
"""

from __future__ import annotations

from typing import Dict, Mapping

import networkx as nx

__all__ = ["modularity"]


def modularity(
    graph: nx.Graph, assignment: Mapping[int, int], weight: str = "weight"
) -> float:
    """Return the modularity of ``assignment`` (node -> part) on ``graph``.

    Edge weights are honoured when present (attribute named ``weight``);
    isolated nodes and empty graphs have modularity 0 by convention.
    """
    total_weight = graph.size(weight=weight)
    if total_weight == 0:
        return 0.0
    internal: Dict[int, float] = {}
    degree_sum: Dict[int, float] = {}
    for node, degree in graph.degree(weight=weight):
        part = assignment[node]
        degree_sum[part] = degree_sum.get(part, 0.0) + degree
    for a, b, data in graph.edges(data=True):
        if assignment[a] == assignment[b]:
            part = assignment[a]
            internal[part] = internal.get(part, 0.0) + data.get(weight, 1.0)
    total = 0.0
    two_m = 2.0 * total_weight
    for part, degrees in degree_sum.items():
        e_c = internal.get(part, 0.0)
        total += e_c / total_weight - (degrees / two_m) ** 2
    return total
