"""Text and DOT serialization round trips."""

from __future__ import annotations

import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordo import graphio
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
from ordo.graphs import (
    GRAPH_VERTEX_LIMIT,
    Digraph,
    EdgeColoring,
    SimpleGraph,
    Tournament,
    _pair_rank,
    random_tournament,
)


# --- line-by-line readers, kept as the oracle of the readers ---


def reference_lines(text: str) -> list[tuple[int, str, list[str]]]:
    """The number, text and fields of each line that is not blank once
    its comment is cut off."""
    rows = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((number, raw, line.split()))
    return rows


def reference_numbers(fields: list[str], shape: str) -> list[int] | None:
    """The numbers of fields laid out as shape, "N" standing for a
    number; None for fields laid out otherwise."""
    if len(fields) != len(shape.split()):
        return None
    numbers = []
    for field, want in zip(fields, shape.split()):
        if want != "N":
            if field != want:
                return None
            continue
        try:
            numbers.append(int(field))
        except ValueError:
            return None
    return numbers


def reference_rows(
    text: str, header: str, line: str, header_error: str, line_error: str
) -> tuple[list[int], list[list[int]]]:
    """The header numbers and each body line's numbers; every line's
    layout is checked before any number's value."""
    rows = reference_lines(text)
    head = reference_numbers(rows[0][2], header) if rows else None
    if head is None:
        raise ValueError(header_error)
    body = []
    for number, raw, fields in rows[1:]:
        numbers = reference_numbers(fields, line)
        if numbers is None:
            got = repr(raw[:80])
            if len(raw) > 80:
                got += f" (the first 80 of {len(raw)} characters)"
            raise ValueError(f"line {number}: {line_error}, got {got}")
        body.append(numbers)
    return head, body


def reference_vertex(v: int, n: int) -> int:
    if not 1 <= v <= n:
        raise ValueError(f"vertex {v} outside 1..{n}")
    return v - 1


def reference_guard(n: int) -> None:
    if n > GRAPH_VERTEX_LIMIT:
        raise ValueError(f"graph limit: n must be <= {GRAPH_VERTEX_LIMIT}")


def reference_read_graph(text: str) -> SimpleGraph:
    (n,), rows = reference_rows(
        text,
        "n N",
        "N N",
        'graph file must start with a header line "n <vertices>"',
        "edge line needs two vertices",
    )
    reference_guard(n)
    return SimpleGraph(n, [(reference_vertex(u, n), reference_vertex(v, n)) for u, v in rows])


def reference_read_digraph(text: str) -> Digraph:
    (n,), rows = reference_rows(
        text,
        "digraph n N",
        "N -> N",
        'digraph file must start with a header line "digraph n <vertices>"',
        'arc line must look like "u -> v"',
    )
    reference_guard(n)
    return Digraph(n, [(reference_vertex(u, n), reference_vertex(v, n)) for u, v in rows])


def reference_read_coloring(text: str) -> EdgeColoring:
    (n, color_count), rows = reference_rows(
        text,
        "n N c N",
        "N N N",
        'coloring file must start with a header line "n <vertices> c <colors>"',
        'coloring line needs "u v color"',
    )
    pair_count = n * (n - 1) // 2
    if pair_count > len(rows):
        raise ValueError(
            f"at least {pair_count - len(rows)} vertex pairs have no color "
            f"(K_{n} has {pair_count} pairs, the file {len(rows)} lines)"
        )
    colors: list[int | None] = [None] * pair_count
    for a, b, c in rows:
        u = reference_vertex(a, n)
        v = reference_vertex(b, n)
        i = _pair_rank(n, u, v)
        if colors[i] is not None:
            raise ValueError(f"pair ({u + 1}, {v + 1}) colored twice")
        colors[i] = c
    return EdgeColoring(n, color_count, colors)  # type: ignore[arg-type]


def read_outcome(read, text: str):
    """What a reader makes of a text: the graph's stored fields, or the
    message of the ValueError it raises."""
    try:
        result = read(text)
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(result, Digraph):
        return result.vertex_count, result.out_adj
    if isinstance(result, SimpleGraph):
        return result.vertex_count, result.adj
    return result.vertex_count, result.color_count, result.colors


# what str.splitlines ends a line at besides \n; str.split's whitespace
# outside spaces and tabs; numbers int() reads that the file form does not
OTHER_BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
ODD_SPACES = ("\x1f", "\xa0", "\u3000", "\u2003")
ODD_NUMBERS = (
    "+1", "1_0", "01", "0", "-1", "\u0661", "\u0663", "1.0", "x", "1" * 19, "0" * 19 + "2"
)
STRICT_COMMENT_LETTERS = "ab 1->#\t"
COMMENT_LETTERS = STRICT_COMMENT_LETTERS + "".join(OTHER_BREAKS) + "".join(ODD_SPACES)
STRICT_FIELD = re.compile("[0-9]{1,18}|n|c|digraph|->")


def in_strict_form(text: str) -> bool:
    """Whether a text keeps to the file form the readers accept, with \n
    line ends: no other line break, and outside comments only spaces,
    tabs, the formats' words and numbers of 1 to 18 ASCII digits."""
    if any(b in text for b in OTHER_BREAKS):
        return False
    for line in text.split("\n"):
        content = line.split("#", 1)[0].strip(" \t")
        if content and not all(STRICT_FIELD.fullmatch(f) for f in re.split("[ \t]+", content)):
            return False
    return True


def check_against_the_oracle(kind: str, text: str) -> None:
    """A text in the file form, and its \r\n twin, give the oracle's graph
    or its exact message; any other text gives a ValueError or the
    oracle's graph."""
    reference, reader = FORMATS[kind]
    if in_strict_form(text):
        for twin in (text, text.replace("\n", "\r\n")):
            assert read_outcome(reader, twin) == read_outcome(reference, twin)
    else:
        outcome = read_outcome(reader, text)
        assert outcome[0] == "error" or outcome == read_outcome(reference, text)


# the header and line fields of the three formats, as the readers give them
STRICT_FORMS = (("n N", "N N"), ("digraph n N", "N -> N"), ("n N c N", "N N N"))

FORMATS = {
    "graph": (reference_read_graph, read_graph),
    "digraph": (reference_read_digraph, read_digraph),
    "coloring": (reference_read_coloring, read_coloring),
}


# the fixed strategies of graph_texts, built once; the first three by
# whether the text keeps to the file form
SPACES = {
    True: st.sampled_from((" ", "\t", "  ", " \t")),
    False: st.sampled_from((" ", "\t") + ODD_SPACES),
}
BREAKS = {True: st.just("\n"), False: st.sampled_from(("\n",) + OTHER_BREAKS)}
COMMENTS = {  # a comment or nothing
    strict: st.one_of(st.just(""), st.text(letters, max_size=6).map(lambda t: "#" + t))
    for strict, letters in ((True, STRICT_COMMENT_LETTERS), (False, COMMENT_LETTERS))
}
PADDING = {sep: st.sampled_from(("", sep)) for sep in (" ", "\t", "  ", " \t") + ODD_SPACES}
FAULTS = st.sampled_from(("token", "drop", "copy", "repeat", "cut", "extra", "vertex"))
# by vertex count n: a vertex, and the ends of up to 12 edge or arc lines
VERTICES = {n: st.integers(1, n).map(str) if n else st.just("1") for n in range(7)}
ENDS = {n: st.lists(st.tuples(v, v), max_size=12) for n, v in VERTICES.items()}


@st.composite
def graph_texts(draw, kind: str) -> str:
    """A text in one of the three formats, mostly well formed and in the
    file form, often with one fault, sometimes written with line
    breaks, spaces or numbers that only int() and str.splitlines take."""
    strict = draw(st.integers(0, 2)) > 0
    n = draw(st.integers(0, 6))
    if kind == "coloring":
        colors = draw(st.integers(1, 3))
        header = ["n", str(n), "c", str(colors)]
        pairs = [[str(u), str(v)] for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        lines = [
            (p if draw(st.booleans()) else p[::-1]) + [str(draw(st.integers(0, colors - 1)))]
            for p in draw(st.permutations(pairs))
        ]
    else:
        header = ["n", str(n)] if kind == "graph" else ["digraph", "n", str(n)]
        lines = [[u, v] if kind == "graph" else [u, "->", v] for u, v in draw(ENDS[n])]
        if kind == "graph":
            lines = [line for line in lines if line[0] != line[1] or draw(st.booleans())]
    lines = [header] + lines
    for _ in range(draw(st.integers(0, 2))):  # faults
        # a strict text keeps its header unless it has no other line
        i = draw(st.integers(0 if not strict else min(1, len(lines) - 1), len(lines) - 1))
        fault = draw(FAULTS)
        if fault == "token" and not strict:
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i][j] = draw(st.sampled_from(ODD_NUMBERS + ("n", "->", "c", str(n + 1))))
        elif fault in ("token", "vertex"):
            lines[i][0] = str(draw(st.sampled_from((0, n + 1, 10**17))))
        elif fault == "drop" and len(lines) > 1:
            del lines[draw(st.integers(1, len(lines) - 1))]
        elif fault == "copy":
            lines.insert(draw(st.integers(1, len(lines))), list(lines[i]))
        elif fault == "repeat" and len(lines) > 2:  # one line in place of another
            lines[draw(st.integers(1, len(lines) - 1))] = list(lines[i])
        elif fault == "cut":
            lines[i] = lines[i][:-1]
        elif fault == "extra":
            lines[i] = lines[i] + [draw(VERTICES[n])]
    comment = COMMENTS[strict]
    out = []
    for line in [[]] * draw(st.integers(0, 2)) + lines:
        sep = draw(SPACES[strict])
        pad = PADDING[sep]
        out.append(draw(pad) + sep.join(line) + draw(pad) + draw(comment))
        if draw(st.integers(0, 5)) == 0:  # a blank or comment line
            out.append(draw(pad) + draw(comment))
    return "".join(line + draw(BREAKS[strict]) for line in out)[: None if draw(st.booleans()) else -1]


class TestBulkReaders:
    @pytest.mark.parametrize("kind", sorted(FORMATS))
    @settings(max_examples=200, derandomize=True, database=None)
    @given(data=st.data())
    def test_same_graph_or_same_error(self, kind, data):
        check_against_the_oracle(kind, data.draw(graph_texts(kind)))

    @pytest.mark.parametrize("kind", sorted(FORMATS))
    @settings(max_examples=100, derandomize=True, database=None)
    @given(data=st.data())
    def test_any_text_gives_the_same_graph_or_error(self, kind, data):
        pieces = ("n", "c", "digraph", "->", "-", ">", "0", "1", "2", "3", "#", " ", "\t", "\n")
        alphabet = data.draw(st.sampled_from((pieces, pieces + OTHER_BREAKS)))
        text = "".join(data.draw(st.lists(st.sampled_from(alphabet), max_size=40)))
        check_against_the_oracle(kind, text)

    @pytest.mark.parametrize("brk", ["\r", "\x1c", "\u2028"])
    def test_other_line_breaks_within_a_line_are_refused(self, brk):
        # read as a line end, the break would hide the rest of the line in
        # a comment, or split one bad line into two good ones
        texts = {
            read_graph: "n 3\n1 2\n2 3\n",
            read_digraph: "digraph n 3\n1 -> 2\n2 -> 3\n",
            read_coloring: "n 3 c 2\n1 2 0\n1 3 1\n2 3 0\n",
        }
        for read, text in texts.items():
            header, first, rest = text.split("\n", 2)
            for joint in (" # a" + brk, brk):
                with pytest.raises(ValueError, match="^line 2: "):
                    read(f"{header}\n{first}{joint}{rest}")
            with pytest.raises(ValueError, match="header"):
                read(f"{header} # a{brk}{first}{brk}")

    def test_sparse_and_dense_rows_agree(self):
        # a graph much sparser than its bit matrix is built pair by pair
        for n, count in ((200, 3), (200, 5000), (1, 0), (0, 0)):
            rng = random.Random(n + count)
            arcs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
            d = Digraph(n, arcs)
            again = read_digraph(write_digraph(d))
            assert again.out_adj == d.out_adj
            g = SimpleGraph(n, [(u, v) for u, v in arcs if u != v])
            assert read_graph(write_graph(g)) == g

    def test_long_faulty_line_is_quoted_in_part(self):
        bad = "1" * 100_000 + " 2"
        with pytest.raises(ValueError) as exc:
            read_graph(f"n 9\n1 2\n{bad}\n")
        quoted = repr(bad[:80])
        assert str(exc.value) == (
            f"line 3: edge line needs two vertices, got {quoted} "
            f"(the first 80 of {len(bad)} characters)"
        )
        # a line of 80 characters is quoted whole, and the oracle cuts
        # its messages the same way
        whole = "1 2 3 " * 13 + "45"
        with pytest.raises(ValueError, match=re.escape(f"got {whole!r}") + "$"):
            read_graph(f"n 9\n{whole}")
        headers = {"graph": "n 9", "digraph": "digraph n 9", "coloring": "n 9 c 3"}
        for line in (whole, whole + " ", "4 -> 5 " * 20_000):
            for kind, header in headers.items():
                check_against_the_oracle(kind, f"{header}\n{line}\n")

    def test_strict_forms_compile_before_python_311(self):
        # possessive quantifiers (*+, ++, ?+, {m,n}+) and atomic groups
        # are refused by re before Python 3.11
        later_syntax = re.compile(r"[*+?}]\+|\(\?>")
        for header, line in STRICT_FORMS:
            for pattern in graphio._strict_form(header, line):
                assert later_syntax.search(pattern.pattern) is None, pattern.pattern

    def test_strict_forms_refuse_near_misses_in_linear_time(self):
        # long runs that a pattern could split in many ways, each ending in
        # a fault at the last character; a matcher that backtracked through
        # the splits would not finish within the timeout
        script = f"""
from ordo import graphio
texts = [
    " \\t" * 100_000 + "x",
    " \\t #\\n" * 100_000 + "x",
    "n 9\\n" + " " * 200_000 + "x",
    "n 9 c 3\\n" + "1  2  0  # \\n" * 50_000 + "1 2 0 1",
    "n 9 c 3\\r\\n" + "1 2 0 #\\r\\n" * 50_000 + "1 2 0\\r\\r\\n",
    "digraph n 9\\n" + "1 \\t-> \\t2 \\t\\n" * 50_000 + "1 -> 2 ->",
    "n 9\\n" + "1 2\\n" * 50_000 + "1" * 100_000 + " 2",
]
for header, line in {STRICT_FORMS!r}:
    for text in texts:
        try:
            graphio._read_fields(text, header, line, "no header", "not a body line")
        except ValueError:
            continue
        raise AssertionError((header, text[:20]))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(graphio.__file__).parent.parent)}
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)


class TestSizeGuard:
    @pytest.mark.parametrize(
        "text",
        [
            "digraph n 10000000\n1 -> 2\n",
            "n 10000000\n1 2\n",
            "# through the line reader\ndigraph n +10000000\n1 -> 2\n",
            "n 1_0000000\n1 2\n",
        ],
    )
    def test_huge_header_refused_before_allocating(self, text):
        read = read_digraph if "digraph" in text else read_graph
        # a sign or an underscore makes no number of the file form
        match = "header" if re.search("[+_]", text) else "graph limit"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=match):
                read(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "read, header",
        [
            (read_graph, "n 2\n1 2\n"),
            (read_digraph, "digraph n 2\n1 -> 2\n"),
            (read_coloring, "n 2 c 1\n1 2 0\n"),
        ],
    )
    def test_long_text_before_the_header_costs_linear_memory(self, read, header):
        # a pattern that repeats over every line before the header keeps
        # backtracking state per line: 56-85 MB on these texts; a copy of
        # the 2 MB of comments before the header costs 4 MB
        blank, commented = "\n" * 200_000, "# comment\n" * 200_000 + header
        for text in (blank, commented):
            tracemalloc.start()
            try:
                if text is blank:
                    with pytest.raises(ValueError, match="must start with a header line"):
                        read(text)
                else:
                    assert read(text).vertex_count == 2
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    def test_the_limit_itself_is_read(self):
        n = GRAPH_VERTEX_LIMIT
        d = read_digraph(f"digraph n {n}\n1 -> {n}\n")
        assert (d.vertex_count, d.arcs) == (n, frozenset({(0, n - 1)}))
        g = read_graph(f"n {n}\n{n} 1\n")
        assert (g.vertex_count, g.edges) == (n, frozenset({(0, n - 1)}))


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
        with pytest.raises(ValueError, match="header"):
            read_graph("# a graph\n1 2\nn 3\n")

    def test_vertex_errors(self):
        with pytest.raises(ValueError, match="outside 1..3"):
            read_graph("n 3\n1 4\n")
        with pytest.raises(ValueError, match="line 2: edge line needs two vertices"):
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
        assert (again.vertex_count, again.out_adj) == (n, d.out_adj)

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
        # the message names the later of the two lines, as it is written
        with pytest.raises(ValueError, match=r"^pair \(2, 1\) colored twice$"):
            read_coloring("n 2 c 2\n1 2 0\n2 1 1\n")

    def test_pair_of_one_vertex_refused(self):
        with pytest.raises(ValueError, match="^pairs are between distinct vertices$"):
            read_coloring("n 3 c 2\n1 1 0\n1 2 0\n2 3 1\n")

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
