"""Text and DOT serialization round trips."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from ordo.graphio import (
    coloring_to_dot,
    digraph_to_dot,
    graph_to_dot,
    read_coloring,
    read_digraph,
    read_graph,
    write_coloring,
    write_digraph,
    write_graph,
)
from ordo.graphs import Digraph, EdgeColoring, SimpleGraph, random_tournament


class TestGraphText:
    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(0, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = SimpleGraph(n, edges)
            assert read_graph(write_graph(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# a triangle\nn 3\n\n1 2\n2 3  # back edge\n1 3\n"
        g = read_graph(text)
        assert g == SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            read_graph("1 2\n")
        with pytest.raises(ValueError, match="header"):
            read_graph("")

    def test_vertex_errors(self):
        with pytest.raises(ValueError, match="outside 1..3"):
            read_graph("n 3\n1 4\n")
        with pytest.raises(ValueError, match="not a vertex number"):
            read_graph("n 3\n1 x\n")
        with pytest.raises(ValueError, match="two vertices"):
            read_graph("n 3\n1 2 3\n")


class TestDigraphText:
    def test_round_trip(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(1, 8)
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if rng.random() < 0.3
            ]
            d = Digraph(n, arcs)
            again = read_digraph(write_digraph(d))
            assert again.vertex_count == d.vertex_count
            assert again.arcs == d.arcs

    def test_arrow_syntax(self):
        d = read_digraph("digraph n 3\n1 -> 2\n3 -> 3\n")
        assert d.has_arc(0, 1)
        assert d.has_arc(2, 2)
        with pytest.raises(ValueError, match="u -> v"):
            read_digraph("digraph n 3\n1 2\n")
        with pytest.raises(ValueError, match="header"):
            read_digraph("n 3\n1 -> 2\n")


class TestColoringText:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 8)
            colors = rng.randint(1, 3)
            col = EdgeColoring.from_function(
                n, colors, lambda u, v: (u * 7 + v) % colors
            )
            assert read_coloring(write_coloring(col)) == col

    def test_double_coloring_detected(self):
        with pytest.raises(ValueError, match="colored twice"):
            read_coloring("n 2 c 2\n1 2 0\n2 1 1\n")

    def test_missing_pairs_detected(self):
        with pytest.raises(ValueError, match="no color"):
            read_coloring("n 3 c 2\n1 2 0\n")

    def test_huge_header_refused_before_allocating(self):
        tracemalloc.start()
        try:
            for n in (100_000_000, 3000):
                with pytest.raises(ValueError, match="no color"):
                    read_coloring(f"n {n} c 2\n1 2 0\n1 3 1\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # C(3000,2) slots alone would take 36 MB

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            read_coloring("n 3\n")


class TestDot:
    def test_graph_dot(self):
        g = SimpleGraph(3, [(0, 1)])
        dot = graph_to_dot(g, title="T")
        assert dot.startswith("graph T {")
        assert '"1" -- "2"' in dot
        assert dot.rstrip().endswith("}")

    def test_custom_names(self):
        g = SimpleGraph(2, [(0, 1)])
        dot = graph_to_dot(g, names=["aa", "bb"])
        assert '"aa" -- "bb"' in dot
        with pytest.raises(ValueError, match="node names"):
            graph_to_dot(g, names=["aa"])

    def test_digraph_highlight(self):
        d = random_tournament(4, random.Random(1)).digraph
        some_arc = next(iter(d.arcs))
        dot = digraph_to_dot(d, highlight=[some_arc])
        assert "penwidth" in dot and "red" in dot
        missing = (some_arc[1], some_arc[0])
        with pytest.raises(ValueError, match="missing arc"):
            digraph_to_dot(d, highlight=[missing])

    def test_coloring_dot_uses_palette(self):
        col = EdgeColoring.from_function(3, 2, lambda u, v: (u + v) % 2)
        dot = coloring_to_dot(col)
        assert "blue" in dot and "red" in dot
