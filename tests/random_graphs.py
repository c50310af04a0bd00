"""Seeded random graphs for the tests."""

import numpy as np

from lossynet import DirectedGraph, build_graph


def random_strongly_connected(
    n: int, rng: np.random.Generator, extra_edge_prob: float = 0.25
) -> DirectedGraph:
    """Random strongly connected digraph: a random directed Hamiltonian cycle
    plus independent extra arcs."""
    if n == 1:
        return build_graph(1, [])
    order = rng.permutation(n) + 1
    edges = {(int(order[k]), int(order[(k + 1) % n])) for k in range(n)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    return build_graph(n, sorted(edges))
