"""Text and DOT serialization round trips."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ordo.graphs import Digraph, EdgeColoring, SimpleGraph, Tournament, random_tournament


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

    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.integers(0, 14).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))
    ))
    def test_edge_mask_round_trip(self, drawn):
        n, mask = drawn
        pairs = itertools.combinations(range(n), 2)
        g = SimpleGraph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
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

    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.integers(0, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))
    ))
    def test_tournament_from_rows_round_trip(self, drawn):
        n, mask = drawn
        rows = [0] * n
        for i, (u, v) in enumerate(itertools.combinations(range(n), 2)):
            if mask >> i & 1:
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
        d = Tournament(Digraph.from_rows(rows)).digraph
        again = read_digraph(write_digraph(d))
        assert (again.vertex_count, again.out_adj, again.in_adj) == (n, d.out_adj, d.in_adj)

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

    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.data())
    def test_random_coloring_round_trip(self, data):
        n = data.draw(st.integers(2, 10))
        colors = data.draw(st.integers(1, 4))
        pairs = n * (n - 1) // 2
        pair_colors = data.draw(st.lists(st.integers(0, colors - 1), min_size=pairs, max_size=pairs))
        col = EdgeColoring(n, colors, pair_colors)
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


def sorted_pairs_graph(g: SimpleGraph) -> str:
    lines = [f"n {g.vertex_count}"] + [f"{u + 1} {v + 1}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def sorted_pairs_digraph(d: Digraph) -> str:
    lines = [f"digraph n {d.vertex_count}"] + [f"{u + 1} -> {v + 1}" for u, v in sorted(d.arcs)]
    return "\n".join(lines) + "\n"


def sorted_pairs_graph_dot(g: SimpleGraph) -> str:
    lines = ["graph G {"] + [f'  "{v + 1}";' for v in range(g.vertex_count)]
    lines += [f'  "{u + 1}" -- "{v + 1}";' for u, v in sorted(g.edges)]
    return "\n".join(lines + ["}"]) + "\n"


def sorted_pairs_digraph_dot(d: Digraph, marked: set) -> str:
    lines = ["digraph G {"] + [f'  "{v + 1}";' for v in range(d.vertex_count)]
    for u, v in sorted(d.arcs):
        attr = " [color=red penwidth=2]" if (u, v) in marked else ""
        lines.append(f'  "{u + 1}" -> "{v + 1}"{attr};')
    return "\n".join(lines + ["}"]) + "\n"


class TestWritersMatchSortedPairs:
    # the writers walk the adjacency bits row by row; the output must be
    # the text the sorted pair sets give, byte for byte
    def test_random_graphs(self):
        rng = random.Random(5)
        for trial in range(60):
            n = rng.randrange(0, 40)
            density = rng.random()
            pairs = [
                (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density / 2
            ]
            g = SimpleGraph(n, pairs)
            assert write_graph(g) == sorted_pairs_graph(g)
            assert graph_to_dot(g) == sorted_pairs_graph_dot(g)

    def test_random_digraphs_with_loops(self):
        rng = random.Random(6)
        for trial in range(60):
            n = rng.randrange(0, 40)
            density = rng.random()
            arcs = [(u, v) for u in range(n) for v in range(n) if rng.random() < density]
            d = Digraph(n, arcs)
            marked = set(rng.sample(arcs, min(len(arcs), 3)))
            assert write_digraph(d) == sorted_pairs_digraph(d)
            assert digraph_to_dot(d, highlight=marked) == sorted_pairs_digraph_dot(d, marked)

    def test_isolated_vertices_and_loops(self):
        g = SimpleGraph(6, [(4, 1), (1, 3)])
        assert write_graph(g) == "n 6\n2 4\n2 5\n"
        d = Digraph(4, [(3, 3), (2, 0), (0, 0), (0, 2)])
        assert write_digraph(d) == "digraph n 4\n1 -> 1\n1 -> 3\n3 -> 1\n4 -> 4\n"


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
        for bad in (missing, (-1, 0), (0, -1), (4, 0), (0, 4)):
            with pytest.raises(ValueError, match="missing arc"):
                digraph_to_dot(d, highlight=[bad])

    def test_coloring_dot_uses_palette(self):
        col = EdgeColoring.from_function(3, 2, lambda u, v: (u + v) % 2)
        dot = coloring_to_dot(col)
        assert "blue" in dot and "red" in dot
