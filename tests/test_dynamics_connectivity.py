"""Unit tests for connectivity helpers."""

import random

import pytest

from repro.dynamics.connectivity import (
    bfs_tree,
    connected_components,
    connecting_edges_between_components,
    ensure_connected,
    is_connected,
    mask_reaches,
    spanning_forest,
    survives_removals,
)


class TestConnectedComponents:
    def test_single_node(self):
        assert connected_components([0], []) == [{0}]

    def test_disconnected_pairs(self):
        components = connected_components([0, 1, 2, 3], [(0, 1), (2, 3)])
        assert sorted(sorted(c) for c in components) == [[0, 1], [2, 3]]

    def test_fully_connected(self):
        components = connected_components([0, 1, 2], [(0, 1), (1, 2)])
        assert components == [{0, 1, 2}]

    def test_isolated_nodes_are_components(self):
        components = connected_components([0, 1, 2], [(0, 1)])
        assert len(components) == 2


class TestIsConnected:
    def test_path_is_connected(self):
        assert is_connected([0, 1, 2], [(0, 1), (1, 2)])

    def test_missing_edge_disconnects(self):
        assert not is_connected([0, 1, 2], [(0, 1)])

    def test_single_node_is_connected(self):
        assert is_connected([5], [])


class TestEnsureConnected:
    def test_already_connected_is_unchanged(self):
        edges = {(0, 1), (1, 2)}
        result = ensure_connected([0, 1, 2], edges, random.Random(0))
        assert result == edges

    def test_adds_minimum_number_of_edges(self):
        result = ensure_connected([0, 1, 2, 3], [(0, 1)], random.Random(0))
        # 3 components -> 2 connecting edges added.
        assert len(result) == 3
        assert is_connected([0, 1, 2, 3], result)

    def test_empty_edge_set_becomes_spanning_connected(self):
        result = ensure_connected(list(range(6)), [], random.Random(1))
        assert is_connected(list(range(6)), result)
        assert len(result) == 5

    def test_original_edges_preserved(self):
        result = ensure_connected([0, 1, 2, 3], [(2, 3)], random.Random(2))
        assert (2, 3) in result


class TestSpanningForest:
    def test_tree_of_connected_graph(self):
        forest = spanning_forest([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        assert len(forest) == 3
        assert is_connected([0, 1, 2, 3], forest)

    def test_forest_of_disconnected_graph(self):
        forest = spanning_forest([0, 1, 2, 3], [(0, 1), (2, 3)])
        assert forest == {(0, 1), (2, 3)}

    def test_no_edges(self):
        assert spanning_forest([0, 1, 2], []) == set()


class TestConnectingEdges:
    def test_single_component_needs_nothing(self):
        assert connecting_edges_between_components([{0, 1}], random.Random(0)) == set()

    def test_k_components_need_k_minus_one_edges(self):
        edges = connecting_edges_between_components(
            [{0}, {1}, {2}, {3}], random.Random(0)
        )
        assert len(edges) == 3


class TestBfsTree:
    def test_parent_and_depth_on_path(self):
        parent, depth = bfs_tree([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)], root=0)
        assert parent[0] == 0
        assert parent[3] == 2
        assert depth == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_unreachable_nodes_absent(self):
        parent, depth = bfs_tree([0, 1, 2], [(0, 1)], root=0)
        assert 2 not in parent
        assert 2 not in depth

    def test_star_depths(self):
        parent, depth = bfs_tree([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)], root=0)
        assert all(depth[node] == 1 for node in (1, 2, 3))
        assert all(parent[node] == 0 for node in (1, 2, 3))


def _masks(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


class TestBitmaskConnectivity:
    def test_mask_reaches_agrees_with_union_find(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 12)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
            full = (1 << n) - 1
            assert mask_reaches(_masks(n, edges), 0, full) == is_connected(range(n), edges)

    def test_survives_removals_agrees_with_union_find(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(2, 12)
            edges = ensure_connected(list(range(n)), set(), rng)
            edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2}
            removed = set(rng.sample(sorted(edges), min(3, len(edges))))
            after = (edges - removed) | {(0, n - 1)}
            removed -= after
            ids = [u * n + v for u, v in removed]
            assert survives_removals(_masks(n, after), ids, n) == is_connected(range(n), after)

    def test_no_removals_means_still_connected(self):
        assert survives_removals(_masks(3, [(0, 1), (1, 2)]), [], 3)
