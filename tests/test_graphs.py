"""Core graph types: construction, cliques, the brute-force oracle."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordo import graphs, ramsey
from ordo.graphs import (
    Digraph,
    EdgeColoring,
    SimpleGraph,
    Tournament,
    all_tournaments,
    complement,
    complete_multipartite,
    find_clique,
    find_independent_set,
    max_edges_without_clique_oracle,
    random_tournament,
)
from ordo.turan import turan_extremal_graph


def _random_graph(n: int, rng: random.Random) -> SimpleGraph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    return SimpleGraph(n, edges)


class TestSimpleGraph:
    def test_basics(self):
        g = SimpleGraph(4, [(0, 1), (1, 0), (2, 3)])
        assert g.vertex_count == 4
        assert g.edge_count == 2  # duplicate orientation collapses
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.degree(1) == 1
        assert g.edges == frozenset({(0, 1), (2, 3)})

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, [(1, 1)])
        with pytest.raises(ValueError):
            SimpleGraph(3, [(0, 3)])
        with pytest.raises(ValueError):
            SimpleGraph(-1)

    def test_equality_and_hash(self):
        a = SimpleGraph(3, [(0, 1)])
        b = SimpleGraph(3, [(1, 0)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != SimpleGraph(3, [(0, 2)])
        assert a != SimpleGraph(4, [(0, 1)])

    def test_complement_involution(self):
        rng = random.Random(7)
        for _ in range(50):
            g = _random_graph(rng.randint(0, 10), rng)
            assert complement(complement(g)) == g

    def test_complement_partitions_pairs(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(0, 10)
            g = _random_graph(n, rng)
            h = complement(g)
            assert not (g.edges & h.edges)
            assert g.edges | h.edges == complement(SimpleGraph(n)).edges

    def test_complement_rows_match_pair_list_construction(self):
        # the rows carry no loop bit and no bit past the last vertex
        rng = random.Random(9)
        for n in (0, 1, 2, 7, 8, 9, 17):
            for _ in range(10):
                g = _random_graph(n, rng)
                pairs = itertools.combinations(range(n), 2)
                pairs = [(u, v) for u, v in pairs if not g.has_edge(u, v)]
                assert complement(g).adj == SimpleGraph(n, pairs).adj


class TestMultipartite:
    def test_part_layout(self):
        g = complete_multipartite([3, 2])
        assert g.vertex_count == 5
        assert g.edge_count == 6
        # first part is 0..2, second 3..4
        assert not g.has_edge(0, 1)
        assert g.has_edge(0, 3)

    def test_edge_count_formula(self):
        # edges = (sum^2 - sum of squares) / 2
        sizes = [4, 3, 3, 1]
        g = complete_multipartite(sizes)
        total = sum(sizes)
        expect = (total * total - sum(s * s for s in sizes)) // 2
        assert g.edge_count == expect

    def test_no_parts(self):
        with pytest.raises(ValueError, match="no parts"):
            complete_multipartite([])
        with pytest.raises(ValueError):
            complete_multipartite([2, 0])

    def test_rows_match_pair_list_construction(self):
        rng = random.Random(13)
        for _ in range(200):
            sizes = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
            part = [i for i, size in enumerate(sizes) for _ in range(size)]
            n = len(part)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
            assert complete_multipartite(sizes).adj == SimpleGraph(n, pairs).adj, sizes


def _brute_force_clique(g: SimpleGraph, size: int) -> tuple[int, ...] | None:
    for combo in itertools.combinations(range(g.vertex_count), size):
        if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
            return combo
    return None


class TestCliques:
    def test_lexicographically_smallest_witness(self):
        rng = random.Random(11)
        for _ in range(100):
            g = _random_graph(rng.randint(1, 9), rng)
            size = rng.randint(1, 4)
            assert find_clique(g, size) == _brute_force_clique(g, size)

    def test_size_one_and_full(self):
        g = complement(SimpleGraph(5))
        assert find_clique(g, 1) == (0,)
        assert find_clique(g, 5) == (0, 1, 2, 3, 4)
        assert find_clique(g, 6) is None

    def test_size_validation(self):
        with pytest.raises(ValueError):
            find_clique(complement(SimpleGraph(3)), 0)

    def test_independent_set_is_complement_clique(self):
        rng = random.Random(12)
        for _ in range(100):
            g = _random_graph(rng.randint(1, 10), rng)
            size = rng.randint(1, 4)
            witness = find_independent_set(g, size)
            assert (witness is None) == (find_clique(complement(g), size) is None)
            if witness is not None:
                assert all(
                    not g.has_edge(u, v)
                    for u, v in itertools.combinations(witness, 2)
                )

    def test_clique_witness_is_a_clique(self):
        rng = random.Random(13)
        for _ in range(100):
            g = _random_graph(rng.randint(1, 10), rng)
            witness = find_clique(g, 3)
            if witness is not None:
                assert all(
                    g.has_edge(u, v) for u, v in itertools.combinations(witness, 2)
                )


def _unbounded_clique_in(adj, cand: int, size: int) -> tuple[int, ...] | None:
    """The clique search without the colour bound: the reference the
    bounded `_clique_in` must agree with on every input."""
    if size <= 0:
        return ()
    while cand.bit_count() >= size:
        low = cand & -cand
        v = low.bit_length() - 1
        if size == 1:
            return (v,)
        cand ^= low
        rest = _unbounded_clique_in(adj, cand & adj[v], size - 1)
        if rest is not None:
            return (v,) + rest
    return None


def _relabelled(g: SimpleGraph, perm: list[int]) -> SimpleGraph:
    """g with vertex u renamed perm[u]."""
    return SimpleGraph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def _paley_graph(q: int) -> SimpleGraph:
    """Paley graph of a prime q = 1 mod 4: u ~ v iff u - v is a nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    return SimpleGraph(q, [(u, v) for u in range(q) for v in range(u + 1, q) if v - u in squares])


def _assert_matches_reference(g: SimpleGraph, cand: int | None = None) -> None:
    cand = (1 << g.vertex_count) - 1 if cand is None else cand
    for size in range(g.vertex_count + 2):
        got = graphs._clique_in(g.adj, cand, size)
        assert got == _unbounded_clique_in(g.adj, cand, size), (g.adj, cand, size)


@st.composite
def random_graphs(draw, max_n: int = 12) -> SimpleGraph:
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return SimpleGraph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


class TestColourBound:
    """The bounded clique search against the unbounded reference."""

    @settings(max_examples=300, derandomize=True, database=None)
    @given(random_graphs(), st.integers(0, 2**12 - 1))
    def test_random_graphs(self, g, cand_bits):
        _assert_matches_reference(g)
        _assert_matches_reference(g, cand_bits & (1 << g.vertex_count) - 1)

    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.randoms(use_true_random=False))
    def test_shuffled_multipartite(self, sizes, rng):
        n = sum(sizes)
        perm = list(range(n))
        rng.shuffle(perm)
        g = _relabelled(complete_multipartite(sizes), perm)
        _assert_matches_reference(g)
        # greedy colouring gives a complete k-partite graph exactly k
        # colours in any vertex order, so a (k+1)-clique is refused at the root
        assert graphs._clique_in(g.adj, (1 << n) - 1, len(sizes) + 1) is None

    @settings(max_examples=60, derandomize=True, database=None)
    @given(
        st.sampled_from([ramsey.andrasfai_graph(k) for k in range(1, 6)])
        | st.sampled_from([_paley_graph(q) for q in (5, 13, 17)]),
        st.randoms(use_true_random=False),
    )
    def test_andrasfai_and_paley(self, g, rng):
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        for h in (g, _relabelled(g, perm), complement(g)):
            _assert_matches_reference(h)

    def test_paley_17_clique_number(self):
        # Paley(17) witnesses R(4, 4) > 17: no K_4 in it or its complement
        g = _paley_graph(17)
        assert find_clique(g, 3) is not None and find_clique(g, 4) is None
        assert find_independent_set(g, 4) is None


@pytest.fixture
def clique_calls(monkeypatch):
    """A counter of `_clique_in` calls: top-level ones and the recursion."""
    calls = [0]
    inner = graphs._clique_in

    def counted(adj, cand, size):
        calls[0] += 1
        return inner(adj, cand, size)

    for module in (graphs, ramsey):
        monkeypatch.setattr(module, "_clique_in", counted)
    return calls


class TestCliqueCallCounts:
    """Machine-independent pins on the work of the clique search."""

    def test_turan_search_that_must_fail_stops_at_root(self, clique_calls):
        # 544,320 calls without the colour bound
        assert find_clique(turan_extremal_graph(50, 6), 7) is None
        assert clique_calls[0] == 1

    @pytest.mark.parametrize("n, calls, holds", [(8, 1_596, False), (9, 135_218, True)])
    def test_ramsey_3_4_tree_unchanged(self, clique_calls, n, calls, holds):
        # the Ramsey (3, 4) check asks for cliques of sizes 1 and 2 only,
        # below the colour bound's size >= 3
        assert ramsey.exhaustive_ramsey_check(3, 4, n)[0] is holds
        assert clique_calls[0] == calls


class TestOracle:
    def test_known_values(self):
        assert max_edges_without_clique_oracle(5, 2) == 6
        assert max_edges_without_clique_oracle(4, 3) == 5
        assert max_edges_without_clique_oracle(6, 5) == 14
        assert max_edges_without_clique_oracle(3, 1) == 0
        assert max_edges_without_clique_oracle(0, 1) == 0

    def test_k_at_least_n_gives_complete(self):
        assert max_edges_without_clique_oracle(5, 5) == 10
        assert max_edges_without_clique_oracle(5, 7) == 10

    def test_limit(self):
        with pytest.raises(ValueError, match="oracle limit"):
            max_edges_without_clique_oracle(8, 2)
        with pytest.raises(ValueError):
            max_edges_without_clique_oracle(5, 0)

    def test_matches_covering_oracle(self):
        for n in range(8):
            for k in range(1, n + 2):
                assert max_edges_without_clique_oracle(n, k) == _covering_oracle(n, k), (n, k)

    def test_levels_hold_every_mask_once_by_edge_count(self):
        for n in range(8):
            pairs = n * (n - 1) // 2
            levels = graphs._masks_by_edge_count(n)
            assert len(levels) == pairs + 1
            assert sorted(np.concatenate(levels).tolist()) == list(range(1 << pairs))
            for p, level in enumerate(levels):
                level = level.tolist()
                assert len(level) == math.comb(pairs, p)
                assert all(mask.bit_count() == p for mask in level)
                assert level == sorted(level)

    def test_cached_levels_are_read_only(self):
        levels = graphs._masks_by_edge_count(4)
        for level in levels:
            with pytest.raises(ValueError):
                level[0] = 1
        assert graphs._masks_by_edge_count(4)[0][0] == 0

    def test_levels_and_oracle_memory(self, peak_rss_growth):
        # the n = 7 table keeps 8 MB of uint32 masks.  A fresh process's
        # peak RSS rises by about 12 MB for it and the seven oracle calls;
        # a SWAR popcount and an int64 argsort of all 2^21 masks raised it
        # by about 35 MB.
        out = peak_rss_growth(
            "from ordo.graphs import _masks_by_edge_count, max_edges_without_clique_oracle",
            """
            _masks_by_edge_count(7)
            print(*[max_edges_without_clique_oracle(7, k) for k in range(1, 8)])
            """,
        )
        assert out[:7] == ["0", "12", "16", "18", "19", "20", "21"]
        assert int(out[7]) < 20_000_000


def _covering_oracle(n: int, k: int) -> int:
    """The all-graphs oracle max_edges_without_clique_oracle replaced:
    every edge mask against every (k+1)-subset's mask, then the largest
    edge count among the masks that cover none."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.uint32)
    bad = np.zeros(masks.shape, dtype=bool)
    for subset in itertools.combinations(range(n), k + 1):
        smask = np.uint32(sum(1 << index[p] for p in itertools.combinations(subset, 2)))
        bad |= (masks & smask) == smask
    good = masks[~bad]
    return int(np.unpackbits(good.view(np.uint8)).reshape(good.size, 32).sum(axis=1).max())


class TestDigraph:
    def test_basics(self):
        d = Digraph(3, [(0, 1), (1, 1), (2, 0)])
        assert d.arc_count == 3
        assert d.has_arc(0, 1) and not d.has_arc(1, 0)
        assert d.loops() == frozenset({1})
        assert d.out_degree(1) == 1 and sum(v == 1 for _, v in d.arcs) == 2

    def test_range(self):
        with pytest.raises(ValueError):
            Digraph(2, [(0, 2)])
        with pytest.raises(ValueError, match="vertex_count must be non-negative"):
            Digraph(-1)

    def test_from_rows_matches_arc_list(self):
        rng = random.Random(14)
        for n in range(12):
            for _ in range(40):
                rows = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
                arcs = [(u, v) for u in range(n) for v in range(n) if rows[u] >> v & 1]
                d, e = Digraph.from_rows(rows), Digraph(n, arcs)
                assert (d.vertex_count, d.out_adj, d.arcs) == (n, e.out_adj, frozenset(arcs))
                assert d == e and hash(d) == hash(e)
        # loops and the full matrix, across byte boundaries
        for n in (1, 7, 8, 9, 17):
            full = Digraph.from_rows([(1 << n) - 1] * n)
            assert full.arcs == frozenset(itertools.product(range(n), repeat=2))
            assert full.loops() == frozenset(range(n))

    def test_from_rows_rejects_out_of_range_bits(self):
        for rows in ([0b100, 0], [0, 1 << 5], [-1, 0], [2]):
            with pytest.raises(ValueError, match="outside"):
                Digraph.from_rows(rows)
        assert Digraph.from_rows([]) == Digraph(0)


def _random_pairs(n: int, rng: random.Random, loops: bool) -> list[tuple[int, int]]:
    # drawn with replacement, so duplicate and reversed pairs both occur
    pairs = [(u, v) for u in range(n) for v in range(n) if loops or u != v]
    return [rng.choice(pairs) for _ in range(rng.randint(0, 2 * len(pairs)))] if pairs else []


class TestBitsetViews:
    """Views derived from the bits, against a frozenset-of-pairs model."""

    def test_simple_graph_against_pair_set(self):
        rng = random.Random(11)
        for n in range(6):
            built = []
            for _ in range(60):
                pairs = _random_pairs(n, rng, loops=False)
                g = SimpleGraph(n, pairs)
                model = frozenset((min(u, v), max(u, v)) for u, v in pairs)
                assert g.edges == model
                assert g.edge_count == len(model)
                assert all(g.degree(u) == sum(u in e for e in model) for u in range(n))
                built.append((g, model))
            for (g, a), (h, b) in itertools.product(built, repeat=2):
                assert (g == h) == (a == b)
                if a == b:
                    assert hash(g) == hash(h)
            assert SimpleGraph(n) != SimpleGraph(n + 1)

    def test_digraph_against_pair_set(self):
        rng = random.Random(12)
        for n in range(5):
            built = []
            for _ in range(60):
                pairs = _random_pairs(n, rng, loops=True)
                d = Digraph(n, pairs)
                model = frozenset(pairs)
                assert d.arcs == model
                assert d.arc_count == len(model)
                assert d.loops() == frozenset(u for u, v in model if u == v)
                for u in range(n):
                    assert d.out_degree(u) == sum(a == u for a, _ in model)
                built.append((d, model))
            for (d, a), (e, b) in itertools.product(built, repeat=2):
                assert (d == e) == (a == b)
                if a == b:
                    assert hash(d) == hash(e)
            assert Digraph(n) != Digraph(n + 1)

    @settings(max_examples=400, derandomize=True, database=None)
    @given(st.integers(0, 20000).flatmap(
        lambda width: st.lists(st.integers(0, max(width - 1, 0)), max_size=width // 16 + 3)
    ))
    def test_bit_indices_sparse_and_dense(self, positions):
        # rows of up to 20,000 bits with few set bits take the peeling
        # branch; their complements within the width take the digit walk
        row = sum(1 << i for i in set(positions))
        width = row.bit_length()
        for r in (row, ((1 << width) - 1) ^ row):
            assert graphs._bit_indices(r) == [i for i in range(width) if r >> i & 1]


def _tournament_error(n: int, arcs: frozenset[tuple[int, int]]) -> str | None:
    """Pairwise oracle: the first complaint about a vertex, in vertex order."""
    for u in range(n):
        if (u, u) in arcs:
            return f"tournament cannot contain the loop ({u}, {u})"
        others = [v for v in range(n) if v != u]
        both = [v for v in others if (u, v) in arcs and (v, u) in arcs]
        if both:
            return f"both orientations of {{{u}, {both[0]}}} present"
        if any((u, v) not in arcs and (v, u) not in arcs for v in others):
            return "tournament needs exactly one arc per vertex pair"
    return None


class TestTournament:
    def test_validation(self):
        Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match="one arc per vertex pair"):
            Tournament.from_arcs(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="both orientations"):
            Tournament.from_arcs(3, [(0, 1), (1, 0), (1, 2)])
        with pytest.raises(ValueError):
            Tournament.from_arcs(2, [(0, 0)])

    def test_validator_against_pairwise_oracle(self):
        # every loop-free digraph on n <= 4 (4,096 at n = 4), and every
        # digraph with loops on n <= 3
        for n in range(5):
            for loops in (False, True) if n <= 3 else (False,):
                pairs = [(u, v) for u in range(n) for v in range(n) if loops or u != v]
                for mask in range(1 << len(pairs)):
                    arcs = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
                    expected = _tournament_error(n, arcs)
                    try:
                        Tournament.from_arcs(n, arcs)
                        got = None
                    except ValueError as exc:
                        got = str(exc)
                    assert got == expected, (n, sorted(arcs))
        # rows wider than one byte: random tournaments and their
        # single-arc mutants, an arc dropped, its reverse or a loop added
        rng = random.Random(13)
        for n in (9, 17, 100, 257):
            arcs = random_tournament(n, rng).arcs
            assert _tournament_error(n, arcs) is None
            ordered = sorted(arcs)
            for _ in range(5):
                u, v = rng.choice(ordered)
                w = rng.randrange(n)
                for mutant in (arcs - {(u, v)}, arcs | {(v, u)}, arcs | {(w, w)}):
                    with pytest.raises(ValueError) as exc:
                        Tournament.from_arcs(n, mutant)
                    assert str(exc.value) == _tournament_error(n, mutant), (n, u, v, w)

    def test_random_is_a_tournament(self):
        rng = random.Random(0)
        for n in (0, 1, 2, 5, 17):
            t = random_tournament(n, rng)
            assert t.vertex_count == n
            assert len(t.arcs) == n * (n - 1) // 2

    def test_random_is_deterministic_per_seed(self):
        a = random_tournament(9, random.Random(42)).arcs
        b = random_tournament(9, random.Random(42)).arcs
        assert a == b

    def test_random_matches_arc_list_construction(self):
        # the same tournament from the same getrandbits stream, which is
        # left in the same state, drawn in one call
        cases = [(seed, n) for seed in range(30) for n in (0, 1, 2, 3, 5, 8, 9, 16, 17, 40)]
        cases += [(seed, n) for seed in range(2) for n in (100, 257, 1000)]
        for seed, n in cases:
            rng, old_rng = _CountingRandom(seed), random.Random(seed)
            d = random_tournament(n, rng).digraph
            old = _arc_list_random_tournament(n, old_rng).digraph
            assert d.out_adj == old.out_adj, (seed, n)
            assert rng.getstate() == old_rng.getstate()
            assert rng.calls == (1 if n >= 2 else 0), (seed, n)

    def test_all_tournaments(self):
        seen = {t.arcs for t in all_tournaments(3)}
        assert len(seen) == 8
        assert all(len(arcs) == 3 for arcs in seen)
        assert [t.arcs for t in all_tournaments(0)] == [frozenset()]

    def test_all_tournaments_in_bitmask_order(self):
        for n in range(5):
            pairs = list(itertools.combinations(range(n), 2))
            expected = [
                frozenset((u, v) if mask >> i & 1 else (v, u) for i, (u, v) in enumerate(pairs))
                for mask in range(1 << len(pairs))
            ]
            assert [t.arcs for t in all_tournaments(n)] == expected

    def test_built_tournaments_pass_the_checking_constructor(self):
        # both builders skip the check; their rows must not need it
        built = [t for n in range(6) for t in all_tournaments(n)]
        rng = random.Random(14)
        built += [random_tournament(rng.choice((0, 1, 2, 3, 7, 8, 9, 30)), rng) for _ in range(200)]
        for t in built:
            assert Tournament(t.digraph).digraph is t.digraph


class _CountingRandom(random.Random):
    """A Random that counts its getrandbits calls."""

    calls = 0

    def getrandbits(self, k: int) -> int:
        self.calls += 1
        return super().getrandbits(k)


def _arc_list_random_tournament(n: int, rng: random.Random) -> Tournament:
    """The arc-list construction random_tournament replaced."""
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            arcs.append((u, v) if rng.getrandbits(1) else (v, u))
    return Tournament.from_arcs(n, arcs)


class TestEdgeColoring:
    def test_pair_index_is_lexicographic(self):
        col = EdgeColoring(5, 1, [0] * 10)
        pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        assert [col.pair_index(u, v) for u, v in pairs] == list(range(10))
        assert col.pair_index(3, 1) == col.pair_index(1, 3)

    def test_color_of_and_classes(self):
        col = EdgeColoring.from_function(4, 2, lambda u, v: (u + v) % 2)
        assert col.color_of(0, 1) == 1
        assert col.color_of(1, 3) == 0
        class_sizes = [col.color_class(c).edge_count for c in range(2)]
        assert sum(class_sizes) == 6

    def test_validation(self):
        with pytest.raises(ValueError, match="colors for K_4"):
            EdgeColoring(4, 2, [0, 1])
        with pytest.raises(ValueError):
            EdgeColoring(3, 2, [0, 1, 2])
        with pytest.raises(ValueError):
            EdgeColoring(3, 0, [0, 0, 0])
        with pytest.raises(ValueError, match="vertex_count must be non-negative"):
            EdgeColoring(-1, 2, ())
        col = EdgeColoring(3, 2, [0, 1, 0])
        with pytest.raises(ValueError):
            col.color_of(1, 1)
        with pytest.raises(ValueError, match=r"pair \(0, 3\) out of range"):
            col.color_of(0, 3)
        with pytest.raises(ValueError):
            col.color_class(2)

    def test_equality_and_hash(self):
        a = EdgeColoring(3, 2, [0, 1, 0])
        b = EdgeColoring.from_function(3, 2, lambda u, v: int((u, v) == (0, 2)))
        assert a == b
        assert hash(a) == hash(b)
        assert a != EdgeColoring(3, 3, [0, 1, 0])
        assert a != a.colors and a.colors != a


class TestReprAndTypes:
    def test_reprs(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert repr(SimpleGraph(4, [(0, 1), (2, 3)])) == "SimpleGraph(4, 2 edges)"
        assert repr(d) == "Digraph(3, 3 arcs)"
        assert repr(Tournament(d)) == "Tournament(3 vertices)"
        assert repr(EdgeColoring(3, 2, [0, 1, 0])) == "EdgeColoring(K_3, 2 colors)"

    def test_graph_and_digraph_with_the_same_rows_differ(self):
        g = SimpleGraph(3, [(0, 1), (1, 2)])
        d = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        assert g.adj == d.out_adj
        assert g != d and d != g
        assert not g == d and not d == g
