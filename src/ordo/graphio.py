r"""Plain-text graph formats and DOT export.

File formats use 1-based vertex numbers; everything in memory is
0-based.

    graph:     header "n <vertices>", then one "u v" line per edge
    digraph:   header "digraph n <vertices>", then "u -> v" lines
    coloring:  header "n <vertices> c <colors>", then "u v color"
               lines covering every pair exactly once (colors 0-based)

What the readers accept:

- Lines are those of str.splitlines: they end at \n, \r\n, \r, \x0b,
  \x0c, \x1c, \x1d, \x1e, \x85, \u2028 or \u2029.
- A '#' starts a comment that runs to the end of its line.  Lines that
  are blank once the comment is cut off are skipped, and the first
  other line is the header.
- Fields are separated by runs of whitespace as str.split sees it:
  spaces and tabs, but also \x1f, \xa0, \u3000 and the other Unicode
  spaces.
- A vertex number, a color or a header count is whatever int() takes:
  an optional sign, ASCII or other Unicode decimal digits, leading
  zeros, and single underscores between digits, so "+1", "01", "1_0"
  and "\u0661" are all numbers.
- Graph and digraph headers of more than GRAPH_VERTEX_LIMIT vertices
  are refused before anything is allocated.

Each reader first checks the whole text against a strict form of its
format, with pattern searches for its header line and for any line
that does not fit: \n line breaks, spaces and tabs, ASCII numbers of
at most 18 digits, and comments.  A text of that form is split,
converted and range-checked as whole numpy arrays.  Any other text, or
one that fails a check, goes through the line-by-line reader, which
names the first bad line.  Both readers give the same result or the
same error.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import (
    GRAPH_VERTEX_LIMIT,
    Digraph,
    EdgeColoring,
    SimpleGraph,
    _bit_indices,
    _pair_rank,
)

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

# the characters str.splitlines ends a line at
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_COMMENT = re.compile("#[^\n]*")


@functools.cache  # compiled on first use: a program that reads no graph pays nothing
def _strict_form(header: str, line: str) -> tuple[re.Pattern[str], ...]:
    r"""The strict form of a format whose header and body lines have the
    given fields, "N" standing for a number: patterns for the header
    line, whose groups are its numbers, for a line break followed by a
    line that is not blank, and for one followed by a line that is not
    a body line.

    Blank and comment lines, then the header line, then lines that hold
    the line fields, a comment, both or neither.  Lines end at \n only,
    fields are separated by spaces and tabs, and a number is 1 to 18
    ASCII digits, so it fits an int64.

    Each pattern looks at one line at a time and matches a line in at
    most one way: every run of blanks or digits and every optional part
    is followed by a character it cannot take, so a choice the matcher
    takes back fails at the next character.  The patterns use no
    possessive quantifier or atomic group, which re accepts only from
    Python 3.11 on.
    """

    def fields(spec: str, number: str) -> str:
        return "[ \t]+".join(number if f == "N" else re.escape(f) for f in spec.split())

    comment = f"(?:#[^{_LINE_BREAKS}]*)?"

    def break_before_other_than(form: str) -> re.Pattern[str]:
        # starting with a literal \n lets search skip from line to line
        return re.compile(f"\n(?!{form}$)", re.MULTILINE)

    return (
        re.compile(f"^[ \t]*{fields(header, '([0-9]{1,18})')}[ \t]*{comment}$", re.MULTILINE),
        break_before_other_than(f"[ \t]*{comment}"),
        break_before_other_than(f"[ \t]*(?:{fields(line, '[0-9]{1,18}')}[ \t]*)?{comment}"),
    )


def _bulk_fields(
    form: tuple[re.Pattern[str], ...], text: str, width: int
) -> tuple[list[int], np.ndarray] | None:
    """The header numbers and the body numbers, `width` to a row, of a
    text in the given strict form; None for any other text."""
    header_line, not_blank, not_body = form
    head = header_line.search(text)
    if (
        head is None
        or not_blank.search("\n" + text[: head.start()])
        or not_body.search(text, head.end())
    ):
        return None
    header = head.groups()
    body = text[head.end() :]
    if "#" in body:
        body = _COMMENT.sub("", body)
    body = body.replace("->", "  ")
    if body.isspace() or not body:
        # np.fromstring reads a text with no number at all as [0]
        values = np.zeros(0, dtype=np.int64)
    else:
        values = np.fromstring(body, dtype=np.int64, sep=" ")
    return [int(h) for h in header], values.reshape(-1, width)


def _in_range(values: np.ndarray, n: int) -> bool:
    return values.size == 0 or (values.min() >= 1 and values.max() <= n)


def _check_vertex_count(n: int) -> None:
    if n > GRAPH_VERTEX_LIMIT:
        raise ValueError(f"graph limit: n must be <= {GRAPH_VERTEX_LIMIT}")


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


def read_graph(text: str) -> SimpleGraph:
    bulk = _bulk_fields(_strict_form("n N", "N N"), text, 2)
    if bulk is not None:
        (n,), edges = bulk
        _check_vertex_count(n)
        us, vs = edges.T - 1
        if _in_range(edges, n) and (us != vs).all():
            return SimpleGraph._from_pairs(n, us, vs)
    return _read_graph_lines(text)


def _read_graph_lines(text: str) -> SimpleGraph:
    rows = _content_lines(text)
    if not rows or len(rows[0]) != 2 or rows[0][0] != "n":
        raise ValueError('graph file must start with a header line "n <vertices>"')
    n = int(rows[0][1])
    _check_vertex_count(n)
    edges = []
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"edge line needs two vertices, got {' '.join(row)!r}")
        edges.append((_parse_vertex(row[0], n), _parse_vertex(row[1], n)))
    return SimpleGraph(n, edges)


def _vertex_labels(n: int) -> list[str]:
    return [f"{v + 1}\n" for v in range(n)]


def _graph_lines(g: SimpleGraph) -> Iterator[str]:
    """The text of write_graph: the header, then for each vertex u with
    edges to higher vertices its "u v" lines, each with its newline."""
    yield f"n {g.vertex_count}\n"
    labels = _vertex_labels(g.vertex_count)
    for u, row in enumerate(g.adj):
        if above := row >> u + 1:
            head = f"{u + 1} "
            yield head + head.join([labels[u + 1 + i] for i in _bit_indices(above)])


def write_graph(g: SimpleGraph) -> str:
    return "".join(_graph_lines(g))


def read_digraph(text: str) -> Digraph:
    bulk = _bulk_fields(_strict_form("digraph n N", "N -> N"), text, 2)
    if bulk is not None:
        (n,), arcs = bulk
        _check_vertex_count(n)
        if _in_range(arcs, n):
            tails, heads = arcs.T - 1
            return Digraph._from_pairs(n, tails, heads)
    return _read_digraph_lines(text)


def _read_digraph_lines(text: str) -> Digraph:
    rows = _content_lines(text)
    if not rows or rows[0][:2] != ["digraph", "n"] or len(rows[0]) != 3:
        raise ValueError('digraph file must start with a header line "digraph n <vertices>"')
    n = int(rows[0][2])
    _check_vertex_count(n)
    arcs = []
    for row in rows[1:]:
        if len(row) != 3 or row[1] != "->":
            raise ValueError(f"arc line must look like \"u -> v\", got {' '.join(row)!r}")
        arcs.append((_parse_vertex(row[0], n), _parse_vertex(row[2], n)))
    return Digraph(n, arcs)


def _digraph_lines(d: Digraph) -> Iterator[str]:
    """The text of write_digraph: the header, then for each vertex u with
    arcs its "u -> v" lines, each with its newline."""
    yield f"digraph n {d.vertex_count}\n"
    labels = _vertex_labels(d.vertex_count)
    for u, row in enumerate(d.out_adj):
        if row:
            head = f"{u + 1} -> "
            yield head + head.join([labels[v] for v in _bit_indices(row)])


def write_digraph(d: Digraph) -> str:
    return "".join(_digraph_lines(d))


def read_coloring(text: str) -> EdgeColoring:
    bulk = _bulk_fields(_strict_form("n N c N", "N N N"), text, 3)
    if bulk is not None:
        (n, color_count), lines = bulk
        pair_count = n * (n - 1) // 2
        if len(lines) == pair_count and _in_range(lines[:, :2], n):
            ends = np.sort(lines[:, :2] - 1, axis=1)
            u, v = ends.T
            if (u != v).all():
                rank = u * (2 * n - u - 1) // 2 + (v - u - 1)
                if (np.bincount(rank, minlength=pair_count) == 1).all():
                    # the constructor checks the colors, in pair order,
                    # as it does for the line reader
                    flat = np.empty(pair_count, dtype=np.int64)
                    flat[rank] = lines[:, 2]
                    return EdgeColoring(n, color_count, flat.tolist())
    return _read_coloring_lines(text)


def _read_coloring_lines(text: str) -> EdgeColoring:
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
    # the colors are stored in the order of the pairs' lines
    pairs = itertools.combinations(range(1, col.vertex_count + 1), 2)
    lines = [f"{u} {v} {c}\n" for (u, v), c in zip(pairs, col.colors)]
    return f"n {col.vertex_count} c {col.color_count}\n" + "".join(lines)


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
    for u, row in enumerate(g.adj):
        for i in _bit_indices(row >> u + 1):
            yield f'  "{ids[u]}" -- "{ids[u + 1 + i]}";\n'
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
    for u, row in enumerate(d.out_adj):
        for v in _bit_indices(row):
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
