import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossynet import (
    AugmentedGraph,
    DirectedGraph,
    DuplicateEdgeError,
    EndpointOutOfRangeError,
    NotStronglyConnectedError,
    SelfLoopError,
    augment,
    build_graph,
    graph_from_spec,
    is_strongly_connected,
    run_robust_push_sum,
    scripted_schedule,
)

from random_graphs import random_strongly_connected


class TestDirectedGraph:
    def test_edges_are_normalized_to_lexicographic_order(self):
        g = DirectedGraph(3, ((3, 1), (1, 2), (2, 3)))
        assert g.edges == ((1, 2), (2, 3), (3, 1))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            DirectedGraph(0, ())

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(EndpointOutOfRangeError):
            DirectedGraph(2, ((1, 3),))

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            DirectedGraph(2, ((1, 1),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            DirectedGraph(2, ((1, 2), (1, 2)))

    def test_degree_views(self, asym3):
        src, dst = asym3.edge_sources, asym3.edge_destinations
        assert asym3.out_degrees.tolist() == [1, 2, 1]
        assert sorted(dst[src == 1] + 1) == [1, 3]  # out-neighbors of agent 2
        assert sorted(src[asym3.incoming_edge_indices[0]] + 1) == [2, 3]  # in-neighbors of agent 1
        assert asym3.num_edges == 4

    def test_edge_arrays_are_zero_based_and_aligned(self, asym3):
        # edges sorted: (1,2), (2,1), (2,3), (3,1)
        assert asym3.edge_sources.tolist() == [0, 1, 1, 2]
        assert asym3.edge_destinations.tolist() == [1, 0, 2, 0]
        assert asym3.out_degrees.tolist() == [1, 2, 1]

    def test_incoming_edge_indices(self, asym3):
        incoming = asym3.incoming_edge_indices
        assert incoming[0].tolist() == [1, 3]  # edges (2,1) and (3,1)
        assert incoming[1].tolist() == [0]
        assert incoming[2].tolist() == [2]


class TestConnectivity:
    def test_cycle_is_strongly_connected(self, two_cycle):
        assert is_strongly_connected(two_cycle)

    def test_one_way_pair_is_not(self):
        assert not is_strongly_connected(DirectedGraph(2, ((1, 2),)))

    def test_single_node_is_strongly_connected(self):
        assert is_strongly_connected(DirectedGraph(1, ()))

    def test_two_components(self):
        g = DirectedGraph(4, ((1, 2), (2, 1), (3, 4), (4, 3)))
        assert not is_strongly_connected(g)

    def test_reachable_but_not_coreachable(self):
        # 3 reaches everyone via 3->1, nobody reaches 3.
        g = DirectedGraph(3, ((1, 2), (2, 1), (3, 1)))
        assert not is_strongly_connected(g)

    def test_build_graph_rejects_disconnected(self):
        with pytest.raises(NotStronglyConnectedError):
            build_graph(2, [(1, 2)])

    def test_build_graph_rejects_too_few_edges_before_allocating(self):
        # Per-agent reachability tables for 10**12 agents would not fit in memory.
        with pytest.raises(NotStronglyConnectedError, match="not strongly connected"):
            build_graph(10**12, [(1, 2), (2, 1)])


class TestAugmentedGraph:
    def test_virtual_ids_follow_edge_order(self, two_cycle):
        ag = augment(two_cycle)
        assert ag.m == 4
        # Edge (1, 2) drops at t = 1 and (2, 1) delivers, so only the buffer
        # of (1, 2), node id 3, holds weight in flight after one round.
        table = {((1, 2), 1): 0, ((1, 2), 2): 1, ((2, 1), 1): 1, ((2, 1), 2): 1}
        schedule = scripted_schedule(two_cycle, 2, table)
        trace = run_robust_push_sum(two_cycle, [1.0, 0.0], schedule, 1)
        assert trace.weights[1, 2:].tolist() == [0.5, 0.0]

    def test_m_counts_edges(self, asym3):
        assert augment(asym3).m == 7


class TestRandomGraphs:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_always_strongly_connected(self, n, seed):
        g = random_strongly_connected(n, np.random.default_rng(seed))
        assert g.n == n
        assert is_strongly_connected(g)

    def test_deterministic_given_seed(self):
        a = random_strongly_connected(6, np.random.default_rng(123))
        b = random_strongly_connected(6, np.random.default_rng(123))
        assert a == b


class TestSpecRoundTrip:
    def test_round_trip(self, asym3):
        spec = {"n": asym3.n, "edges": [list(e) for e in asym3.edges]}
        assert graph_from_spec(spec) == asym3

    def test_from_spec_shape(self):
        g = graph_from_spec({"n": 2, "edges": [[2, 1], [1, 2]]})
        assert g.edges == ((1, 2), (2, 1))

    def test_from_spec_validates(self):
        with pytest.raises(NotStronglyConnectedError):
            graph_from_spec({"n": 3, "edges": [[1, 2], [2, 1]]})
