"""Edge-maximal clique-free graphs: formula, structure, oracle agreement."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest

from ordo.graphs import GRAPH_VERTEX_LIMIT, find_clique, max_edges_without_clique_oracle
from ordo.turan import (
    turan_extremal_graph,
    turan_max_edges,
    turan_part_sizes,
)


class TestParams:
    def test_partition(self):
        assert turan_part_sizes(13, 4) == [4, 3, 3, 3]
        assert sum(turan_part_sizes(13, 4)) == 13

    def test_divisible_case(self):
        assert turan_part_sizes(12, 4) == [3, 3, 3, 3]

    def test_validation(self):
        with pytest.raises(ValueError, match="1 <= k <= n"):
            turan_part_sizes(3, 4)
        with pytest.raises(ValueError):
            turan_part_sizes(3, 0)


class TestMaxEdges:
    def test_known_values(self):
        assert turan_max_edges(5, 2) == 6
        assert turan_max_edges(7, 3) == 16
        assert turan_max_edges(13, 4) == 63

    def test_boundary_cases(self):
        # k = n allows the complete graph, k = 1 allows nothing
        for n in range(1, 12):
            assert turan_max_edges(n, n) == n * (n - 1) // 2
            assert turan_max_edges(n, 1) == 0

    def test_formula_is_integral_everywhere(self):
        for n in range(1, 201):
            for k in range(1, n + 1):
                turan_max_edges(n, k)  # internal integrality assert

    def test_matches_oracle(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert turan_max_edges(n, k) == max_edges_without_clique_oracle(
                    n, k
                ), (n, k)


class TestExtremalGraph:
    def test_achieves_the_bound(self):
        for n in range(1, 51):
            for k in range(1, n + 1):
                g = turan_extremal_graph(n, k)
                assert g.vertex_count == n
                assert g.edge_count == turan_max_edges(n, k)

    def test_structure_is_balanced_multipartite(self):
        g = turan_extremal_graph(10, 3)
        parts = [(0, 1, 2, 3), (4, 5, 6), (7, 8, 9)]
        for part in parts:
            for u, v in itertools.combinations(part, 2):
                assert not g.has_edge(u, v)
        for a, b in itertools.combinations(parts, 2):
            for u in a:
                for v in b:
                    assert g.has_edge(u, v)

    def test_clique_free(self):
        for n in range(1, 13):
            for k in range(1, min(n, 5) + 1):
                g = turan_extremal_graph(n, k)
                assert find_clique(g, k + 1) is None
                if k <= n:
                    assert find_clique(g, k) is not None

    def test_examples(self):
        g = turan_extremal_graph(7, 3)
        assert g.edge_count == 16  # K_{3,2,2}
        assert find_clique(g, 4) is None
        g = turan_extremal_graph(5, 2)
        assert g.edge_count == 6  # K_{3,2}
        assert find_clique(g, 3) is None

    def test_huge_graph_refused_before_allocating(self):
        # K_{n/3,n/3,n/3} at n = 10^8 has 3.3e15 edges to write out
        tracemalloc.start()
        try:
            for n, k in ((100_000_000, 3), (GRAPH_VERTEX_LIMIT + 1, 2)):
                with pytest.raises(ValueError, match="graph limit"):
                    turan_extremal_graph(n, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        # the closed form has no limit
        assert turan_max_edges(100_000_000, 3) == 3333333333333333
