"""Directed communication graphs and their buffer-augmented form.

Agents are numbered 1..n.  Edge lists are normalized to lexicographic order,
which fixes the numbering of the per-edge buffer nodes and keeps every
downstream matrix, trace, and artifact reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DuplicateEdgeError,
    EndpointOutOfRangeError,
    NotStronglyConnectedError,
    SelfLoopError,
)

Edge = tuple[int, int]

__all__ = [
    "DirectedGraph",
    "AugmentedGraph",
    "build_graph",
    "augment",
    "is_strongly_connected",
    "graph_from_spec",
]


@dataclass(frozen=True)
class DirectedGraph:
    """Fixed digraph on agents 1..n with no self-loops and no duplicate edges.

    ``build_graph`` is the validating constructor and additionally requires
    strong connectivity.  Direct construction checks only the structural
    invariants, which keeps :func:`is_strongly_connected` testable on graphs
    that fail it.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"agent count must be an integer >= 1, got {self.n!r}")
        seen: set[Edge] = set()
        normalized: list[Edge] = []
        for edge in self.edges:
            i, j = int(edge[0]), int(edge[1])
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise EndpointOutOfRangeError(
                    f"edge ({i}, {j}) has an endpoint outside 1..{self.n}"
                )
            if i == j:
                raise SelfLoopError(f"self-loop at agent {i} is not allowed")
            if (i, j) in seen:
                raise DuplicateEdgeError(f"edge ({i}, {j}) appears more than once")
            seen.add((i, j))
            normalized.append((i, j))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    # 0-based index arrays used by the numerical code; position p holds agent p+1.

    @cached_property
    def edge_sources(self) -> np.ndarray:
        return np.array([i - 1 for i, _ in self.edges], dtype=np.intp)

    @cached_property
    def edge_destinations(self) -> np.ndarray:
        return np.array([j - 1 for _, j in self.edges], dtype=np.intp)

    @cached_property
    def out_degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.intp)
        for i, _ in self.edges:
            deg[i - 1] += 1
        return deg

    @cached_property
    def incoming_edge_indices(self) -> tuple[np.ndarray, ...]:
        """Edge indices (lexicographic positions) entering each agent position."""
        buckets: list[list[int]] = [[] for _ in range(self.n)]
        for k, (_, j) in enumerate(self.edges):
            buckets[j - 1].append(k)
        return tuple(np.array(b, dtype=np.intp) for b in buckets)

    @cached_property
    def relay_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge index arrays (f, k) over every pair where edge f delivers into
        the sender of edge k, i.e. ``edge_destinations[f] == edge_sources[k]``."""
        incoming = [self.incoming_edge_indices[i] for i in self.edge_sources]
        f = np.concatenate(incoming) if incoming else np.zeros(0, dtype=np.intp)
        k = np.repeat(np.arange(self.num_edges, dtype=np.intp), [len(b) for b in incoming])
        return f, k


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True when every agent can reach every other along directed edges."""
    if g.n == 1:
        return True
    forward: dict[int, set[int]] = {i: set() for i in range(1, g.n + 1)}
    backward: dict[int, set[int]] = {i: set() for i in range(1, g.n + 1)}
    for i, j in g.edges:
        forward[i].add(j)
        backward[j].add(i)

    def reaches_all(adj):
        seen = {1}
        stack = [1]
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == g.n

    return reaches_all(forward) and reaches_all(backward)


def build_graph(n: int, edges) -> DirectedGraph:
    """Validating constructor: structural checks plus strong connectivity."""
    g = DirectedGraph(n, tuple((int(i), int(j)) for i, j in edges))
    # With fewer edges than agents some agent sends on none; rejecting that
    # first keeps a huge n from allocating per-agent tables.
    if (g.n > 1 and g.num_edges < g.n) or not is_strongly_connected(g):
        raise NotStronglyConnectedError(
            f"graph on {n} agents with edges {g.edges} is not strongly connected"
        )
    return g


@dataclass(frozen=True)
class AugmentedGraph:
    """Base graph plus one buffer node per directed edge.

    The buffer of edge (i, j) models the mass in flight from i to j.  Buffers
    are numbered after the agents: the k-th edge in lexicographic order gets
    node id ``n + k`` (1-based), so the augmented node set has m = n + |E| ids.
    """

    base: DirectedGraph

    @property
    def m(self) -> int:
        return self.base.n + self.base.num_edges


def augment(g: DirectedGraph) -> AugmentedGraph:
    """Attach one buffer node to every directed edge of ``g``."""
    return AugmentedGraph(g)


def graph_from_spec(spec: dict) -> DirectedGraph:
    """Build a graph from the JSON form {"n": int, "edges": [[i, j], ...]}."""
    return build_graph(int(spec["n"]), [(int(i), int(j)) for i, j in spec["edges"]])
