"""Cross-mode equivalence suite for the unified pruned-scan kernel.

All four public query modes — ``top_k``, ``top_k(root=...)``,
``above_threshold`` and ``top_k_personalized`` — execute on the single
:func:`repro.query.pruned_scan` kernel.  These tests pin each mode to
the brute-force ranking of the exact proximity vector
(:meth:`KDash.proximity_column`, itself verified against
``direct_solve_rwr``) on a spread of random graphs, including the edge
cases the kernel has to get right: ``k >= n``, disconnected queries,
dangling queries and single-node graphs.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import KDash
from repro.exceptions import InvalidParameterError
from repro.graph import DiGraph, erdos_renyi_graph, scale_free_digraph, star_graph
from repro.query import pruned_scan
from repro.rwr import top_k_from_vector

ATOL = 1e-9


def brute_force_topk(index, query, k):
    """Canonical (node, proximity) ranking from the exact vector."""
    return top_k_from_vector(index.proximity_column(query), k)


def assert_items_equal(items, expected):
    assert len(items) == len(expected)
    for (node, p), (enode, ep) in zip(items, expected):
        assert p == pytest.approx(ep, abs=ATOL)
        # Node ids may legitimately differ only where proximities tie.
        if node != enode:
            assert p == pytest.approx(ep, abs=ATOL)


@pytest.fixture(params=[11, 29, 57])
def random_index(request):
    graph = erdos_renyi_graph(50, 0.07, seed=request.param)
    return KDash(graph, c=0.9).build()


@pytest.fixture
def dangling_index():
    """Scale-free graph with dangling nodes (mass-leaking regime)."""
    return KDash(scale_free_digraph(80, 280, seed=3), c=0.95).build()


class TestTopKMode:
    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_matches_brute_force(self, random_index, k):
        for query in (0, 13, 37, 49):
            result = random_index.top_k(query, k)
            expected = brute_force_topk(random_index, query, k)
            assert np.allclose(
                sorted(result.proximities, reverse=True),
                [p for _, p in expected],
                atol=ATOL,
            )

    def test_k_at_least_n(self, random_index):
        n = random_index.graph.n_nodes
        at_n = random_index.top_k(7, n)
        for k in (n, n + 5, 3 * n, 10**7):
            result = random_index.top_k(7, k)
            expected = brute_force_topk(random_index, 7, k)
            assert len(result.items) == n
            assert np.allclose(
                result.proximities, [p for _, p in expected], atol=ATOL
            )
            # A k beyond n runs the k = n search: same items and counters.
            assert result == dataclasses.replace(at_n, k=k)

    def test_dangling_graph(self, dangling_index):
        for query in (0, 20, 79):
            result = dangling_index.top_k(query, 6)
            expected = brute_force_topk(dangling_index, query, 6)
            assert np.allclose(
                sorted(result.proximities, reverse=True),
                [p for _, p in expected],
                atol=ATOL,
            )


class TestRootOverrideMode:
    @pytest.mark.parametrize("root", [5, 22, 48])
    def test_matches_default_answers(self, random_index, root):
        baseline = random_index.top_k(9, 5)
        overridden = random_index.top_k(9, 5, root=root)
        assert np.allclose(
            baseline.proximities, overridden.proximities, atol=ATOL
        )
        assert baseline.node_set() == overridden.node_set() or np.allclose(
            baseline.proximities, overridden.proximities, atol=ATOL
        )

    def test_root_equal_query_is_default_path(self, random_index):
        a = random_index.top_k(9, 5)
        b = random_index.top_k(9, 5, root=9)
        assert a.items == b.items

    def test_disconnected_root(self):
        # Two disjoint stars; the root lives in the other component, so
        # the query is only reached via the synthetic final layer.
        g = DiGraph(10)
        for leaf in (1, 2, 3, 4):
            g.add_edge(0, leaf)
            g.add_edge(leaf, 0)
        for leaf in (6, 7, 8, 9):
            g.add_edge(5, leaf)
            g.add_edge(leaf, 5)
        index = KDash(g, c=0.9).build()
        baseline = index.top_k(0, 4)
        overridden = index.top_k(0, 4, root=5)
        assert np.allclose(
            baseline.proximities, overridden.proximities, atol=ATOL
        )

    def test_counters_cover_schedule(self, random_index):
        result = random_index.top_k(9, 3, root=22)
        n = random_index.graph.n_nodes
        assert result.n_visited <= n
        assert result.n_computed <= result.n_visited


class TestThresholdMode:
    @pytest.mark.parametrize("threshold", [1e-6, 1e-3, 0.05, 0.89])
    def test_matches_brute_force(self, random_index, threshold):
        for query in (0, 25):
            exact = random_index.proximity_column(query)
            expected = {
                int(u): float(exact[u])
                for u in range(exact.size)
                if exact[u] >= threshold
            }
            result = random_index.above_threshold(query, threshold)
            assert result.node_set() == set(expected)
            for node, p in result.items:
                assert p == pytest.approx(expected[node], abs=ATOL)

    def test_dangling_graph(self, dangling_index):
        exact = dangling_index.proximity_column(11)
        result = dangling_index.above_threshold(11, 1e-4)
        expected = {int(u) for u in range(exact.size) if exact[u] >= 1e-4}
        assert result.node_set() == expected


class TestPersonalizedMode:
    def test_matches_linearity_of_columns(self, random_index):
        # By linearity the personalized vector is the share-weighted sum
        # of single-query proximity columns.
        restart = {3: 0.5, 17: 0.3, 40: 0.2}
        exact = sum(
            share * random_index.proximity_column(node)
            for node, share in restart.items()
        )
        result = random_index.top_k_personalized(restart, 7)
        expected = top_k_from_vector(exact, 7)
        assert np.allclose(
            sorted(result.proximities, reverse=True),
            [p for _, p in expected],
            atol=ATOL,
        )

    def test_disconnected_seeds(self):
        g = DiGraph(8)
        g.add_edges([(0, 1), (1, 0), (2, 3), (3, 2)])  # nodes 4..7 isolated
        index = KDash(g, c=0.9).build()
        restart = {0: 0.5, 2: 0.5}
        exact = 0.5 * index.proximity_column(0) + 0.5 * index.proximity_column(2)
        result = index.top_k_personalized(restart, 8)
        expected = top_k_from_vector(exact, 8)
        assert np.allclose(
            result.proximities, [p for _, p in expected], atol=ATOL
        )

    def test_k_at_least_n(self, random_index):
        n = random_index.graph.n_nodes
        restart = {1: 1.0, 2: 2.0}
        result = random_index.top_k_personalized(restart, n + 10)
        assert len(result.items) == n


class TestEdgeCaseGraphs:
    def test_single_node_graph(self):
        index = KDash(DiGraph(1), c=0.9).build()
        result = index.top_k(0, 3)
        assert result.items[0][0] == 0
        assert result.items[0][1] == pytest.approx(0.9, abs=1e-9)
        assert len(result.items) == 1  # min(k, n)
        thr = index.above_threshold(0, 0.5)
        assert thr.nodes == [0]
        ppr = index.top_k_personalized({0: 1.0}, 2)
        assert ppr.items[0][0] == 0

    def test_disconnected_query_pads(self):
        g = DiGraph(6)
        g.add_edges([(0, 1), (1, 0)])  # 2..5 isolated
        index = KDash(g, c=0.9).build()
        result = index.top_k(0, 5)
        assert result.padded
        assert len(result.items) == 5
        # The padding nodes carry exactly zero proximity.
        assert all(p == 0.0 for _, p in result.items[2:])
        expected = brute_force_topk(index, 0, 5)
        assert np.allclose(
            result.proximities, [p for _, p in expected], atol=ATOL
        )

    def test_isolated_query_node(self):
        g = DiGraph(5)
        g.add_edges([(1, 2), (2, 3)])
        index = KDash(g, c=0.9).build()
        result = index.top_k(0, 3)  # node 0 has no edges at all
        assert result.items[0] == (0, pytest.approx(0.9, abs=1e-9))
        assert all(p == 0.0 for _, p in result.items[1:])

    def test_star_hub_and_leaf(self):
        index = KDash(star_graph(8), c=0.95).build()
        for query in (0, 3):
            result = index.top_k(query, 4)
            expected = brute_force_topk(index, query, 4)
            assert np.allclose(
                sorted(result.proximities, reverse=True),
                [p for _, p in expected],
                atol=ATOL,
            )


class TestKernelContract:
    def test_requires_exactly_one_stopping_rule(self, random_index):
        prepared = random_index.prepared
        y = prepared.workspace()
        prepared.scatter_column(y, 0)
        with pytest.raises(InvalidParameterError):
            pruned_scan(prepared, y, (0,), total_mass=1.0)
        with pytest.raises(InvalidParameterError):
            pruned_scan(prepared, y, (0,), k=3, threshold=0.1, total_mass=1.0)

    def test_requires_seeds(self, random_index):
        prepared = random_index.prepared
        y = prepared.workspace()
        with pytest.raises(InvalidParameterError):
            pruned_scan(prepared, y, (), k=3, total_mass=1.0)

    def test_direct_kernel_call_matches_adapter(self, random_index):
        prepared = random_index.prepared
        y = prepared.workspace()
        rows = prepared.scatter_column(y, 13)
        scan = pruned_scan(
            prepared, y, (13,), k=5, total_mass=prepared.total_mass_of(13)
        )
        prepared.clear_rows(y, rows)
        adapter = random_index.top_k(13, 5)
        kernel_items = sorted(scan.items, key=lambda t: (-t[1], t[0]))
        assert np.allclose(
            [p for _, p in kernel_items],
            adapter.proximities[: len(kernel_items)],
            atol=1e-12,
        )
        assert not np.any(y)  # clear_rows restored the all-zero invariant
