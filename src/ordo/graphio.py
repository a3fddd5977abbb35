"""Plain-text graph formats and DOT export.

File formats use 1-based vertex numbers; everything in memory is
0-based.  Blank lines and lines starting with '#' are ignored.

    graph:     header "n <vertices>", then one "u v" line per edge
    digraph:   header "digraph n <vertices>", then "u -> v" lines
    coloring:  header "n <vertices> c <colors>", then "u v color"
               lines covering every pair exactly once (colors 0-based)
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .graphs import Digraph, EdgeColoring, SimpleGraph, _bit_indices, _pair_rank

__all__ = [
    "read_graph",
    "write_graph",
    "read_digraph",
    "write_digraph",
    "read_coloring",
    "write_coloring",
    "graph_to_dot",
    "digraph_to_dot",
    "coloring_to_dot",
]

DOT_PALETTE = ("blue", "red", "green", "orange", "purple", "brown", "cyan", "gray")


def _content_lines(text: str) -> list[list[str]]:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def _parse_vertex(token: str, n: int) -> int:
    try:
        v = int(token)
    except ValueError:
        raise ValueError(f"not a vertex number: {token!r}") from None
    if not 1 <= v <= n:
        raise ValueError(f"vertex {v} outside 1..{n}")
    return v - 1


def _sorted_edges(g: SimpleGraph) -> Iterator[tuple[int, int]]:
    """The edges (u, v), u < v, in ascending order, read off the rows."""
    for u, row in enumerate(g.adj):
        for i in _bit_indices(row >> u + 1):
            yield u, u + 1 + i


def _sorted_arcs(d: Digraph) -> Iterator[tuple[int, int]]:
    """The arcs (u, v) in ascending order, read off the rows."""
    for u, row in enumerate(d.out_adj):
        for v in _bit_indices(row):
            yield u, v


def read_graph(text: str) -> SimpleGraph:
    rows = _content_lines(text)
    if not rows or len(rows[0]) != 2 or rows[0][0] != "n":
        raise ValueError('graph file must start with a header line "n <vertices>"')
    n = int(rows[0][1])
    edges = []
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"edge line needs two vertices, got {' '.join(row)!r}")
        edges.append((_parse_vertex(row[0], n), _parse_vertex(row[1], n)))
    return SimpleGraph(n, edges)


def _graph_lines(g: SimpleGraph) -> Iterator[str]:
    """The lines of write_graph, each with its newline, one at a time."""
    yield f"n {g.vertex_count}\n"
    for u, v in _sorted_edges(g):
        yield f"{u + 1} {v + 1}\n"


def write_graph(g: SimpleGraph) -> str:
    return "".join(_graph_lines(g))


def read_digraph(text: str) -> Digraph:
    rows = _content_lines(text)
    if not rows or rows[0][:2] != ["digraph", "n"] or len(rows[0]) != 3:
        raise ValueError('digraph file must start with a header line "digraph n <vertices>"')
    n = int(rows[0][2])
    arcs = []
    for row in rows[1:]:
        if len(row) != 3 or row[1] != "->":
            raise ValueError(f"arc line must look like \"u -> v\", got {' '.join(row)!r}")
        arcs.append((_parse_vertex(row[0], n), _parse_vertex(row[2], n)))
    return Digraph(n, arcs)


def _digraph_lines(d: Digraph) -> Iterator[str]:
    """The lines of write_digraph, each with its newline, one at a time."""
    yield f"digraph n {d.vertex_count}\n"
    for u, v in _sorted_arcs(d):
        yield f"{u + 1} -> {v + 1}\n"


def write_digraph(d: Digraph) -> str:
    return "".join(_digraph_lines(d))


def read_coloring(text: str) -> EdgeColoring:
    rows = _content_lines(text)
    if (
        not rows
        or len(rows[0]) != 4
        or rows[0][0] != "n"
        or rows[0][2] != "c"
    ):
        raise ValueError('coloring file must start with a header line "n <vertices> c <colors>"')
    n = int(rows[0][1])
    color_count = int(rows[0][3])
    pair_count = n * (n - 1) // 2
    lines = len(rows) - 1
    if pair_count > lines:
        # refused before allocating; with enough lines, each one colors
        # a new pair or is caught as a repeat, so none can go missing
        raise ValueError(
            f"at least {pair_count - lines} vertex pairs have no color "
            f"(K_{n} has {pair_count} pairs, the file {lines} lines)"
        )
    colors: list[int | None] = [None] * pair_count
    for row in rows[1:]:
        if len(row) != 3:
            raise ValueError(f"coloring line needs \"u v color\", got {' '.join(row)!r}")
        u = _parse_vertex(row[0], n)
        v = _parse_vertex(row[1], n)
        c = int(row[2])
        i = _pair_rank(n, u, v)
        if colors[i] is not None:
            raise ValueError(f"pair ({u + 1}, {v + 1}) colored twice")
        colors[i] = c
    return EdgeColoring(n, color_count, colors)  # type: ignore[arg-type]


def write_coloring(col: EdgeColoring) -> str:
    n = col.vertex_count
    lines = [f"n {n} c {col.color_count}"]
    for u in range(n):
        for v in range(u + 1, n):
            lines.append(f"{u + 1} {v + 1} {col.color_of(u, v)}")
    return "\n".join(lines) + "\n"


def _node_names(n: int, names: Sequence[str] | None) -> list[str]:
    if names is None:
        return [str(v + 1) for v in range(n)]
    if len(names) != n:
        raise ValueError(f"need {n} node names, got {len(names)}")
    return list(names)


def _graph_dot_lines(
    g: SimpleGraph, names: Sequence[str] | None = None, title: str = "G"
) -> Iterator[str]:
    """The lines of graph_to_dot, each with its newline, one at a time."""
    ids = _node_names(g.vertex_count, names)
    yield f"graph {title} {{\n"
    for v in range(g.vertex_count):
        yield f'  "{ids[v]}";\n'
    for u, v in _sorted_edges(g):
        yield f'  "{ids[u]}" -- "{ids[v]}";\n'
    yield "}\n"


def graph_to_dot(g: SimpleGraph, names: Sequence[str] | None = None, title: str = "G") -> str:
    return "".join(_graph_dot_lines(g, names, title))


def _digraph_dot_lines(
    d: Digraph,
    names: Sequence[str] | None = None,
    title: str = "G",
    highlight: Iterable[tuple[int, int]] = (),
) -> Iterator[str]:
    """The lines of digraph_to_dot, each with its newline, one at a time."""
    ids = _node_names(d.vertex_count, names)
    n = d.vertex_count
    marked = set(highlight)
    for u, v in marked:
        if not (0 <= u < n and 0 <= v < n and d.has_arc(u, v)):
            raise ValueError(f"cannot highlight missing arc ({u}, {v})")
    yield f"digraph {title} {{\n"
    for v in range(d.vertex_count):
        yield f'  "{ids[v]}";\n'
    for u, v in _sorted_arcs(d):
        attr = " [color=red penwidth=2]" if (u, v) in marked else ""
        yield f'  "{ids[u]}" -> "{ids[v]}"{attr};\n'
    yield "}\n"


def digraph_to_dot(
    d: Digraph,
    names: Sequence[str] | None = None,
    title: str = "G",
    highlight: Iterable[tuple[int, int]] = (),
) -> str:
    """Highlighted arcs, if any, are drawn red and thick."""
    return "".join(_digraph_dot_lines(d, names, title, highlight))


def coloring_to_dot(col: EdgeColoring, names: Sequence[str] | None = None, title: str = "G") -> str:
    """One DOT color per edge color, cycling through a fixed palette."""
    n = col.vertex_count
    ids = _node_names(n, names)
    lines = [f"graph {title} {{"]
    for v in range(n):
        lines.append(f'  "{ids[v]}";')
    for u in range(n):
        for v in range(u + 1, n):
            c = col.color_of(u, v)
            dot_color = DOT_PALETTE[c % len(DOT_PALETTE)]
            lines.append(f'  "{ids[u]}" -- "{ids[v]}" [color={dot_color}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
