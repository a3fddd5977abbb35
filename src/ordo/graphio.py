r"""Plain-text graph formats and DOT export.

File formats use 1-based vertex numbers; everything in memory is
0-based.

    graph:     header "n <vertices>", then one "u v" line per edge
    digraph:   header "digraph n <vertices>", then "u -> v" lines
    coloring:  header "n <vertices> c <colors>", then "u v color"
               lines covering every pair exactly once (colors 0-based)

The one accepted form, which is the form the writers emit:

- Lines end at \n or \r\n.
- Fields are separated by spaces and tabs.
- A number is 1 to 18 ASCII digits: no sign, no underscore, no other
  digits.
- A '#' starts a comment that runs to the end of its line.  A comment
  may not hold \r or any other character str.splitlines ends a line
  at, so what another program reads as a line never hides in one.
- Blank and comment lines may stand anywhere; the first other line is
  the header.

Each format has one reader: one pattern search for the first line that
is not blank, read as the header, and one for a later line that does
not fit, then one numpy pass that reads every number and checks them
as arrays.  Its ValueError names

- for a missing header, or other text before it: the header line the
  format needs;
- for a line that does not fit: its number and its text, cut to its
  first 80 characters;
- for a vertex outside 1..n, a loop in a graph or a pair colored
  twice: the first faulty row in file order;
- for a coloring with fewer lines than pairs: the count missing.

Graph and digraph headers of more than GRAPH_VERTEX_LIMIT vertices,
and coloring headers with more pairs than the file has lines, are
refused before anything of their size is allocated.

Each format has one writer, write_graph, write_digraph or
write_coloring, which returns the file's text.  Each DOT drawing has
one writer, graph_dot_lines, digraph_dot_lines or coloring_dot_lines,
which yields its lines one at a time, so a large drawing can be
streamed.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import Digraph, EdgeColoring, SimpleGraph, _bit_indices, _check_vertex_count

__all__ = [
    "read_graph",
    "write_graph",
    "read_digraph",
    "write_digraph",
    "read_coloring",
    "write_coloring",
    "graph_dot_lines",
    "digraph_dot_lines",
    "coloring_dot_lines",
]

DOT_PALETTE = ("blue", "red", "green", "orange", "purple", "brown", "cyan", "gray")

# the characters str.splitlines ends a line at; comments hold none of
# them, or "n 3 # x\r1 2" would read here as a graph with no edges
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_COMMENT = re.compile("#[^\n]*")
# the most characters of a faulty line that its error quotes
_QUOTE_LIMIT = 80


@functools.cache  # compiled on first use: a program that reads no graph pays nothing
def _strict_form(header: str, line: str) -> tuple[re.Pattern[str], ...]:
    r"""The strict form of a format whose header and body lines have the
    given fields, "N" standing for a number: a pattern for the first
    line that is not blank, whose groups are the numbers of that line
    when it is the header line and None otherwise, and one for a line
    break followed by a line that is not a body line.

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
    header_line = f"[ \t]*{fields(header, '([0-9]{1,18})')}[ \t]*{comment}"
    body_line = f"[ \t]*(?:{fields(line, '[0-9]{1,18}')}[ \t]*)?{comment}"
    return (
        re.compile(f"^(?![ \t]*{comment}$)(?:{header_line}$)?", re.MULTILINE),
        # starting with a literal \n lets search skip from line to line
        re.compile(f"\n(?!{body_line}$)", re.MULTILINE),
    )


def _read_fields(
    text: str, header: str, line: str, header_error: str, line_error: str
) -> tuple[list[int], np.ndarray]:
    r"""The header numbers and the body numbers, one row per body line, of
    a text in the strict form of these fields.  One search reads the
    first line that is not blank as the header; a text with no such
    line, or no header line there, raises header_error.  A later line
    that is not a body line raises line_error, with the line's number
    and its first _QUOTE_LIMIT characters.  \r\n ends a line as \n does."""
    if "\r" in text:  # a far quicker search than a replace that finds nothing
        text = text.replace("\r\n", "\n")
    first_line, not_body = _strict_form(header, line)
    head = first_line.search(text)
    if head is None or head.group(1) is None:
        raise ValueError(header_error)
    bad = not_body.search(text, head.end())
    if bad:
        start = bad.end()
        number = text.count("\n", 0, start) + 1
        end = text.find("\n", start)
        length = (end if end >= 0 else len(text)) - start
        got = repr(text[start : start + min(length, _QUOTE_LIMIT)])
        if length > _QUOTE_LIMIT:
            got += f" (the first {_QUOTE_LIMIT} of {length} characters)"
        raise ValueError(f"line {number}: {line_error}, got {got}")
    body = text[head.end() :]
    if "#" in body:
        body = _COMMENT.sub("", body)
    body = body.replace("->", "  ")
    if body.isspace() or not body:
        # np.fromstring reads a text with no number at all as [0]
        values = np.zeros(0, dtype=np.int64)
    else:
        values = np.fromstring(body, dtype=np.int64, sep=" ")
    return [int(h) for h in head.groups()], values.reshape(-1, line.count("N"))


def _check_vertices(values: np.ndarray, n: int) -> None:
    """Refuse the first vertex number in row order outside 1..n."""
    out = (values < 1) | (values > n)
    if out.any():
        raise ValueError(f"vertex {values.flat[out.argmax()]} outside 1..{n}")


def read_graph(text: str) -> SimpleGraph:
    (n,), edges = _read_fields(
        text,
        "n N",
        "N N",
        'graph file must start with a header line "n <vertices>"',
        "edge line needs two vertices",
    )
    _check_vertex_count(n)
    _check_vertices(edges, n)
    us, vs = edges.T - 1
    loops = us == vs
    if loops.any():
        i = loops.argmax()
        raise ValueError(f"loop edge ({us[i]}, {vs[i]}) not allowed in a simple graph")
    return SimpleGraph._from_pairs(n, us, vs)


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
    (n,), arcs = _read_fields(
        text,
        "digraph n N",
        "N -> N",
        'digraph file must start with a header line "digraph n <vertices>"',
        'arc line must look like "u -> v"',
    )
    _check_vertex_count(n)
    _check_vertices(arcs, n)
    tails, heads = arcs.T - 1
    return Digraph._from_pairs(n, tails, heads)


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
    (n, color_count), lines = _read_fields(
        text,
        "n N c N",
        "N N N",
        'coloring file must start with a header line "n <vertices> c <colors>"',
        'coloring line needs "u v color"',
    )
    pair_count = n * (n - 1) // 2
    if pair_count > len(lines):
        # refused before allocating; with enough lines, each one colors
        # a new pair or is caught as a repeat, so none can go missing
        raise ValueError(
            f"at least {pair_count - len(lines)} vertex pairs have no color "
            f"(K_{n} has {pair_count} pairs, the file {len(lines)} lines)"
        )
    ends = lines[:, :2]
    out = ((ends < 1) | (ends > n)).any(axis=1)
    u, v = np.sort(ends - 1, axis=1).T
    rank = u * (2 * n - u - 1) // 2 + (v - u - 1)  # garbage on a faulty row
    repeat = np.ones(len(rank), dtype=bool)
    repeat[np.unique(rank, return_index=True)[1]] = False
    faulty = out | (u == v) | repeat
    if faulty.any():
        # a faulty row's garbage rank can mark only later rows repeats
        row = ends[faulty.argmax()]
        _check_vertices(row, n)
        if row[0] == row[1]:
            raise ValueError("pairs are between distinct vertices")
        raise ValueError(f"pair ({row[0]}, {row[1]}) colored twice")
    # the constructor checks the colors, in pair order
    flat = np.empty(pair_count, dtype=np.int64)
    flat[rank] = lines[:, 2]
    return EdgeColoring(n, color_count, flat.tolist())


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


def graph_dot_lines(
    g: SimpleGraph, names: Sequence[str] | None = None, title: str = "G"
) -> Iterator[str]:
    """The DOT lines of a graph, each with its newline, one at a time."""
    ids = _node_names(g.vertex_count, names)
    yield f"graph {title} {{\n"
    for v in range(g.vertex_count):
        yield f'  "{ids[v]}";\n'
    for u, row in enumerate(g.adj):
        for i in _bit_indices(row >> u + 1):
            yield f'  "{ids[u]}" -- "{ids[u + 1 + i]}";\n'
    yield "}\n"


def digraph_dot_lines(
    d: Digraph,
    names: Sequence[str] | None = None,
    title: str = "G",
    highlight: Iterable[tuple[int, int]] = (),
) -> Iterator[str]:
    """The DOT lines of a digraph, each with its newline, one at a time;
    highlighted arcs, if any, are drawn red and thick.  A highlight that
    is no arc raises before the first line."""
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


def coloring_dot_lines(col: EdgeColoring) -> Iterator[str]:
    """The DOT lines of a coloring, each with its newline, one at a time:
    one DOT color per edge color, cycling through a fixed palette."""
    n = col.vertex_count
    yield "graph G {\n"
    for v in range(n):
        yield f'  "{v + 1}";\n'
    # the colors are stored in the order of the pairs' lines
    pairs = itertools.combinations(range(1, n + 1), 2)
    for (u, v), c in zip(pairs, col.colors):
        yield f'  "{u}" -- "{v}" [color={DOT_PALETTE[c % len(DOT_PALETTE)]}];\n'
    yield "}\n"
