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


def write_graph(g: SimpleGraph) -> str:
    lines = [f"n {g.vertex_count}"]
    for u, v in _sorted_edges(g):
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


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


def write_digraph(d: Digraph) -> str:
    lines = [f"digraph n {d.vertex_count}"]
    for u, v in _sorted_arcs(d):
        lines.append(f"{u + 1} -> {v + 1}")
    return "\n".join(lines) + "\n"


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


def graph_to_dot(g: SimpleGraph, names: Sequence[str] | None = None, title: str = "G") -> str:
    ids = _node_names(g.vertex_count, names)
    lines = [f"graph {title} {{"]
    for v in range(g.vertex_count):
        lines.append(f'  "{ids[v]}";')
    for u, v in _sorted_edges(g):
        lines.append(f'  "{ids[u]}" -- "{ids[v]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def digraph_to_dot(
    d: Digraph,
    names: Sequence[str] | None = None,
    title: str = "G",
    highlight: Iterable[tuple[int, int]] = (),
) -> str:
    """Highlighted arcs, if any, are drawn red and thick."""
    ids = _node_names(d.vertex_count, names)
    n = d.vertex_count
    marked = set(highlight)
    for u, v in marked:
        if not (0 <= u < n and 0 <= v < n and d.has_arc(u, v)):
            raise ValueError(f"cannot highlight missing arc ({u}, {v})")
    lines = [f"digraph {title} {{"]
    for v in range(d.vertex_count):
        lines.append(f'  "{ids[v]}";')
    for u, v in _sorted_arcs(d):
        attr = " [color=red penwidth=2]" if (u, v) in marked else ""
        lines.append(f'  "{ids[u]}" -> "{ids[v]}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


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
