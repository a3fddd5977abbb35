"""Graphs, digraphs, tournaments, and edge colorings as bitsets.

Vertices are 0-based integers.  Adjacency lives in one Python int per
vertex (bit v of adj[u] is set iff {u,v} is an edge), so the
neighborhood intersection needed by the clique search is a single `&`.
The bitsets are the only stored form: `SimpleGraph.edges`,
`Digraph.arcs`, the counts, equality and hashing are derived from them
on demand, and a digraph keeps its out-rows only.  A tournament is
checked, and a random one drawn, as one n x n numpy bit matrix.
Every k-clique search in the package (find_clique, the Ramsey check,
the disjoint-family maximum) runs through `_clique_in`, which prunes
by candidate count and, for cliques of 3 or more, by a greedy
colouring of the candidates; it still returns the lexicographically
smallest clique.
All types are immutable after construction and every function is pure.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "SimpleGraph",
    "Digraph",
    "Tournament",
    "EdgeColoring",
    "complement",
    "complete_multipartite",
    "find_clique",
    "find_independent_set",
    "max_edges_without_clique_oracle",
    "random_tournament",
    "all_tournaments",
]

# the most vertices a graph is built with: its rows take up to n^2 / 8 bytes
GRAPH_VERTEX_LIMIT = 2**14


def _check_vertex_count(n: int) -> None:
    # the one check of a graph's size before it is built
    if n > GRAPH_VERTEX_LIMIT:
        raise ValueError(f"graph limit: n must be <= {GRAPH_VERTEX_LIMIT}")


class SimpleGraph:
    """Undirected simple graph: no loops, no parallel edges."""

    __slots__ = ("vertex_count", "adj")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        adj = [0] * vertex_count
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) not allowed in a simple graph")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.vertex_count: int = vertex_count
        self.adj: tuple[int, ...] = tuple(adj)

    @classmethod
    def _from_rows(cls, adj: list[int]) -> SimpleGraph:
        """Adopt rows the caller built symmetric and loop-free, unchecked."""
        g = cls.__new__(cls)
        g.vertex_count = len(adj)
        g.adj = tuple(adj)
        return g

    @classmethod
    def _from_pairs(cls, n: int, us: np.ndarray, vs: np.ndarray) -> SimpleGraph:
        """The graph with the edges {us[i], vs[i]}: 0-based, in range and
        loop-free, unchecked."""
        bits = _bit_matrix(n, us, vs)
        if bits is None:
            return cls(n, zip(us.tolist(), vs.tolist()))
        return cls._from_rows(_rows_of(bits | bits.T))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as (u, v) pairs with u < v, derived from the bits."""
        return frozenset(
            (u, v) for u, row in enumerate(self.adj) for v in _bit_indices(row) if u < v
        )

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.adj))

    def __repr__(self) -> str:
        return f"SimpleGraph({self.vertex_count}, {self.edge_count} edges)"


class Digraph:
    """Directed graph; loops allowed, no parallel arcs."""

    __slots__ = ("vertex_count", "out_adj")

    def __init__(self, vertex_count: int, arcs: Iterable[tuple[int, int]] = ()) -> None:
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        out_adj = [0] * vertex_count
        for u, v in arcs:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"arc ({u}, {v}) out of range for {vertex_count} vertices")
            out_adj[u] |= 1 << v
        self.vertex_count: int = vertex_count
        self.out_adj: tuple[int, ...] = tuple(out_adj)

    @classmethod
    def from_rows(cls, out_adj: Sequence[int]) -> Digraph:
        """The digraph whose row u has bit v set iff (u, v) is an arc.

        One row per vertex; a bit at or past the vertex count, or a
        negative row, is refused.  The rows are stored as given.
        """
        rows = tuple(out_adj)
        n = len(rows)
        for u, row in enumerate(rows):
            if row >> n:
                raise ValueError(f"row {u} has bits outside 0..{n - 1}")
        d = cls.__new__(cls)
        d.vertex_count = n
        d.out_adj = rows
        return d

    @classmethod
    def _from_pairs(cls, n: int, tails: np.ndarray, heads: np.ndarray) -> Digraph:
        """The digraph with the arcs (tails[i], heads[i]): 0-based and in
        range, unchecked; its rows are packed from one bit matrix."""
        bits = _bit_matrix(n, tails, heads)
        if bits is None:
            return cls(n, zip(tails.tolist(), heads.tolist()))
        return cls.from_rows(_rows_of(bits))

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The arcs as (u, v) pairs, derived from the bits."""
        return frozenset((u, v) for u, row in enumerate(self.out_adj) for v in _bit_indices(row))

    @property
    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.out_adj)

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out_adj[u] >> v & 1)

    def out_degree(self, u: int) -> int:
        return self.out_adj[u].bit_count()

    def loops(self) -> frozenset[int]:
        return frozenset(u for u, row in enumerate(self.out_adj) if row >> u & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.out_adj == other.out_adj

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.out_adj))

    def __repr__(self) -> str:
        return f"Digraph({self.vertex_count}, {self.arc_count} arcs)"


class Tournament:
    """Orientation of a complete graph.

    Checks its digraph as one bit matrix B, B[u, v] set iff (u, v) is an
    arc: B is clear on the diagonal and B ^ B.T set everywhere off it,
    so exactly one of (u,v), (v,u) for every pair u != v.  The first
    faulty vertex u is named by its loop, else by the least v with both
    (u, v) and (v, u), else by a pair with neither.
    """

    __slots__ = ("digraph",)

    def __init__(self, digraph: Digraph) -> None:
        bits = _bits_of(digraph.out_adj)
        fits = bits ^ bits.T
        np.fill_diagonal(fits, ~bits.diagonal())
        if not fits.all():
            u = int(fits.all(axis=1).argmin())
            if bits[u, u]:
                raise ValueError(f"tournament cannot contain the loop ({u}, {u})")
            both = bits[u] & bits[:, u]
            if both.any():
                raise ValueError(f"both orientations of {{{u}, {both.argmax()}}} present")
            raise ValueError("tournament needs exactly one arc per vertex pair")
        self.digraph: Digraph = digraph

    @classmethod
    def _from_rows(cls, rows: list[int]) -> Tournament:
        """Adopt out-rows the caller built as a tournament: Digraph.from_rows
        checks each row's range, and one arc per pair is left to the caller."""
        t = cls.__new__(cls)
        t.digraph = Digraph.from_rows(rows)
        return t

    @classmethod
    def from_arcs(cls, vertex_count: int, arcs: Iterable[tuple[int, int]]) -> Tournament:
        return cls(Digraph(vertex_count, arcs))

    @property
    def vertex_count(self) -> int:
        return self.digraph.vertex_count

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return self.digraph.arcs

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.digraph.out_adj[u] >> v & 1)

    def __repr__(self) -> str:
        return f"Tournament({self.vertex_count} vertices)"


def _bit_indices(row: int) -> list[int]:
    """The positions of the set bits of row, ascending: peeled off a
    sparse row bit by bit, read off the binary digits of a dense one."""
    if row.bit_count() * 32 < row.bit_length():
        bits = []
        while row:
            low = row & -row
            bits.append(low.bit_length() - 1)
            row ^= low
        return bits
    return [i for i, digit in enumerate(bin(row)[:1:-1]) if digit == "1"]


def _bits_of(rows: Sequence[int]) -> np.ndarray:
    """The n x n bool matrix, n = len(rows), set at [u, v] iff bit v of
    rows[u] is: the inverse of _rows_of."""
    n = len(rows)
    # one byte string of little-endian rows, unpacked to one byte per bit
    width = (n + 7) // 8
    packed = np.frombuffer(
        b"".join([row.to_bytes(width, "little") for row in rows]), dtype=np.uint8
    ).reshape(n, width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def _bit_matrix(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray | None:
    """The n x n bool matrix set at every (us[i], vs[i]), or None when it
    would take more bytes than the two int64 index arrays: a graph that
    sparse is cheaper to build pair by pair."""
    if n * n > 16 * len(us):
        return None
    bits = np.zeros((n, n), dtype=bool)
    bits[us, vs] = True
    return bits


def _rows_of(bits: np.ndarray) -> list[int]:
    """Row u of a square 0/1 matrix as an int with bit v set iff bits[u, v]."""
    n = len(bits)
    if n == 0:
        return []
    width = (n + 7) // 8
    data = np.packbits(bits, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, n * width, width)]


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _pair_rank(n: int, u: int, v: int) -> int:
    """Lexicographic rank of the pair {u, v} among the pairs of K_n."""
    if u == v:
        raise ValueError("pairs are between distinct vertices")
    if u > v:
        u, v = v, u
    if not 0 <= u < v < n:
        raise ValueError(f"pair ({u}, {v}) out of range")
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


class EdgeColoring:
    """Total coloring of the edges of K_n with colors 0..color_count-1.

    Colors are stored flat, indexed by the lexicographic rank of the
    pair (u,v) with u < v: (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """

    __slots__ = ("vertex_count", "color_count", "colors")

    def __init__(self, vertex_count: int, color_count: int, colors: Iterable[int]) -> None:
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        if color_count < 1:
            raise ValueError("color_count must be positive")
        flat = tuple(colors)
        if len(flat) != _pair_count(vertex_count):
            raise ValueError(
                f"need {_pair_count(vertex_count)} colors for K_{vertex_count}, got {len(flat)}"
            )
        for c in flat:
            if not 0 <= c < color_count:
                raise ValueError(f"color {c} outside 0..{color_count - 1}")
        self.vertex_count: int = vertex_count
        self.color_count: int = color_count
        self.colors: tuple[int, ...] = flat

    def pair_index(self, u: int, v: int) -> int:
        return _pair_rank(self.vertex_count, u, v)

    def color_of(self, u: int, v: int) -> int:
        return self.colors[self.pair_index(u, v)]

    def color_class(self, color: int) -> SimpleGraph:
        """The spanning subgraph formed by the edges of one color."""
        if not 0 <= color < self.color_count:
            raise ValueError(f"color {color} outside 0..{self.color_count - 1}")
        n = self.vertex_count
        pairs = itertools.combinations(range(n), 2)  # in rank order
        return SimpleGraph(n, (p for p, c in zip(pairs, self.colors) if c == color))

    @classmethod
    def from_function(cls, vertex_count: int, color_count: int, fn) -> EdgeColoring:
        """Build from a callable fn(u, v) -> color over pairs u < v."""
        colors = [
            fn(u, v) for u in range(vertex_count) for v in range(u + 1, vertex_count)
        ]
        return cls(vertex_count, color_count, colors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.color_count == other.color_count
            and self.colors == other.colors
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.color_count, self.colors))

    def __repr__(self) -> str:
        return f"EdgeColoring(K_{self.vertex_count}, {self.color_count} colors)"


def complement(g: SimpleGraph) -> SimpleGraph:
    """Edges become non-edges and vice versa; together they tile K_n."""
    everyone = (1 << g.vertex_count) - 1
    return SimpleGraph._from_rows([everyone ^ 1 << u ^ row for u, row in enumerate(g.adj)])


def complete_multipartite(part_sizes: list[int]) -> SimpleGraph:
    """Vertices split into parts; edges exactly between different parts.

    Parts are laid out in the given order: part 0 gets vertices
    0..sizes[0]-1, and so on.
    """
    if not part_sizes:
        raise ValueError("no parts")
    for s in part_sizes:
        if s < 1:
            raise ValueError("every part size must be >= 1")
    everyone = (1 << sum(part_sizes)) - 1
    rows: list[int] = []
    for s in part_sizes:
        # each vertex is joined to everyone outside its own part
        rows.extend([everyone ^ ((1 << s) - 1) << len(rows)] * s)
    return SimpleGraph._from_rows(rows)


def _clique_in(adj: Sequence[int], cand: int, size: int) -> tuple[int, ...] | None:
    """Lexicographically smallest clique of `size` vertices inside the
    candidate bitset cand, or None; size <= 0 gives the empty clique.

    Candidates are tried in ascending order and each choice narrows the
    rest to its neighbours above it, so the first clique completed is
    the smallest.  A branch stops once fewer than `size` candidates
    remain, or, for size >= 3, once a greedy colouring of the candidates
    (Tomita and Seki's MCQ bound) needs fewer than `size` colours: a
    colour class takes the lowest uncoloured candidate, then the lowest
    one adjacent to none already in the class, and so on, and a clique
    has at most one vertex per class.  Both tests cut only branches that
    hold no clique of `size`, so the first clique found is unchanged.
    Below size 3 one colour class costs as much as the search it would
    save.
    """
    if size <= 0:
        return ()
    if size >= 3 and cand.bit_count() >= size:
        uncoloured = cand
        for _ in range(size - 1):
            pool = uncoloured
            while pool:
                low = pool & -pool
                uncoloured ^= low
                pool ^= low | (pool & adj[low.bit_length() - 1])
            if not uncoloured:
                return None
    while cand.bit_count() >= size:
        low = cand & -cand
        v = low.bit_length() - 1
        if size == 1:
            return (v,)
        cand ^= low
        rest = _clique_in(adj, cand & adj[v], size - 1)
        if rest is not None:
            return (v,) + rest
    return None


def find_clique(g: SimpleGraph, size: int) -> tuple[int, ...] | None:
    """Lexicographically smallest clique of the given size, or None."""
    if size < 1:
        raise ValueError("size must be >= 1")
    return _clique_in(g.adj, (1 << g.vertex_count) - 1, size)


def find_independent_set(g: SimpleGraph, size: int) -> tuple[int, ...] | None:
    """Dual of find_clique: a clique of the complement."""
    return find_clique(complement(g), size)


@functools.lru_cache(maxsize=8)
def _masks_by_edge_count(n: int) -> tuple[np.ndarray, ...]:
    """Every edge mask of an n-vertex graph, by edge count: entry p holds
    the masks with p edges, ascending.

    The levels are read-only, since every caller shares them.
    """
    pairs = _pair_count(n)
    counts = np.zeros(1 << pairs, dtype=np.uint8)
    for b in range(pairs):
        # the masks in [2^b, 2^(b+1)) are those below 2^b with bit b added
        counts[1 << b : 2 << b] = counts[: 1 << b] + 1
    # mask i is the number i, so the indices with count p are level p, ascending
    levels = tuple(np.flatnonzero(counts == p).astype(np.uint32) for p in range(pairs + 1))
    for level in levels:
        level.flags.writeable = False
    return levels


def max_edges_without_clique_oracle(n: int, k: int) -> int:
    """Exact maximum edge count of an n-vertex graph containing no K_{k+1}.

    Brute force over the 2^C(n,2) labeled graphs, each encoded as an
    edge bitmask; a graph holds K_{k+1} iff its mask covers the edge mask
    of some (k+1)-vertex subset.  The masks are tested one edge count at
    a time from C(n,2) down, each dropped at the first clique mask it
    covers, and the first level where a graph survives is the answer:
    every denser graph was shown to hold K_{k+1} and the survivor to be
    free of it.  Independent of the Turan formula it checks.
    """
    if n > 7:
        raise ValueError("oracle limit: n must be <= 7")
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    cliques = [
        np.uint32(sum(1 << index[p] for p in itertools.combinations(subset, 2)))
        for subset in itertools.combinations(range(n), k + 1)
    ]
    levels = _masks_by_edge_count(n)
    for edges in range(len(pairs), -1, -1):
        left = levels[edges]
        for c in cliques:
            left = left[(left & c) != c]
            if not left.size:
                break
        if left.size:
            return edges
    raise AssertionError("no clique-free graph found")  # the empty graph is one


def random_tournament(n: int, rng: random.Random) -> Tournament:
    """Uniformly random orientation of K_n.

    The stream of one rng.getrandbits(1) per pair, pairs in lexicographic
    order: a set bit orients {u, v} (u < v) as u -> v.  It is drawn in
    one call: getrandbits(1) is the top bit of one 32-bit output, and
    getrandbits(32 m) is m such outputs, the first in the lowest four
    bytes, so the bits and the rng's final state are the same.
    """
    if n < 2:
        return Tournament._from_rows([0] * n)
    m = _pair_count(n)
    # pair i's bit is the top bit of byte 4i + 3
    draw = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype=np.uint8)
    bits = np.zeros((n, n), dtype=bool)
    upper = np.arange(n)[:, None] < np.arange(n)
    # a boolean mask fills in row-major order, which is lexicographic pair order
    bits[upper] = draw[3::4] >= 128
    # and v beats u < v unless u beats v
    bits |= ~bits.T & upper.T
    return Tournament._from_rows(_rows_of(bits))


def all_tournaments(n: int) -> Iterator[Tournament]:
    """Every orientation of K_n, in bitmask order (2^C(n,2) of them).

    Bit i of the mask orients the i-th pair (u, v), u < v, in
    lexicographic order: set means u -> v.
    """
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
        yield Tournament._from_rows(rows)
