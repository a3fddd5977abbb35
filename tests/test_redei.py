"""Hamiltonian paths in tournaments: insertion construction and parity."""

from __future__ import annotations

import inspect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordo.graphs import Digraph, Tournament, all_tournaments, random_tournament
from ordo.redei import (
    ArcQueryCounter,
    count_hamiltonian_paths,
    count_hamiltonian_paths_oracle,
    is_hamiltonian_path,
    redei_hamiltonian_path,
)


def _cyclic_triangle() -> Tournament:
    return Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def _transitive(n: int) -> Tournament:
    return Tournament.from_arcs(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


def reference_redei_path(t: Tournament) -> list[int]:
    """The two-query insertion, kept as the oracle: prepend r if it beats
    the head, else insert it into the first consecutive pair (p, q) with
    p -> r -> q, else append it."""
    n = t.vertex_count
    if n == 0:
        return []
    path = [0]
    for r in range(1, n):
        if t.has_arc(r, path[0]):
            path.insert(0, r)
            continue
        for i in range(len(path) - 1):
            if t.has_arc(path[i], r) and t.has_arc(r, path[i + 1]):
                path.insert(i + 1, r)
                break
        else:
            path.append(r)
    return path


class _CountingTournament:
    """Counts every has_arc call, independently of ArcQueryCounter."""

    def __init__(self, t: Tournament) -> None:
        self.t = t
        self.calls = 0

    def has_arc(self, u: int, v: int) -> bool:
        self.calls += 1
        return self.t.has_arc(u, v)


def _naive_insertion_reads(t: Tournament) -> tuple[list[int], int]:
    """The path and the has_arc calls of the one-scan rule written
    naively: r goes before the first path vertex it beats."""
    counted = _CountingTournament(t)
    path: list[int] = []
    for r in range(t.vertex_count):
        i = next((i for i, p in enumerate(path) if counted.has_arc(r, p)), len(path))
        path.insert(i, r)
    return path, counted.calls


class TestPathValidity:
    def test_tiny_cases(self):
        assert redei_hamiltonian_path(_transitive(0)) == []
        assert redei_hamiltonian_path(_transitive(1)) == [0]
        assert redei_hamiltonian_path(_transitive(2)) == [0, 1]

    def test_transitive_order_recovered(self):
        # the unique path of a transitive tournament is its ranking
        for n in range(2, 30):
            assert redei_hamiltonian_path(_transitive(n)) == list(range(n))

    def test_cyclic_triangle(self):
        t = _cyclic_triangle()
        path = redei_hamiltonian_path(t)
        assert is_hamiltonian_path(t, path)

    def test_every_small_tournament(self):
        for n in range(6):
            for t in all_tournaments(n):
                assert is_hamiltonian_path(t, redei_hamiltonian_path(t))

    def test_random_tournaments(self):
        rng = random.Random(20)
        for _ in range(200):
            t = random_tournament(rng.randint(2, 40), rng)
            assert is_hamiltonian_path(t, redei_hamiltonian_path(t))


class TestAgainstTheReference:
    def test_every_small_tournament(self):
        total = 0
        for n in range(6):
            for t in all_tournaments(n):
                total += 1
                assert redei_hamiltonian_path(t) == reference_redei_path(t)
        assert total == 1100

    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.integers(0, 100).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))
    ))
    def test_drawn_tournaments(self, drawn):
        t = _oriented(*drawn)
        assert redei_hamiltonian_path(t) == reference_redei_path(t)

    def test_n_1000(self):
        t = random_tournament(1000, random.Random(25))
        assert redei_hamiltonian_path(t) == reference_redei_path(t)
        assert redei_hamiltonian_path(_transitive(1000)) == list(range(1000))


class TestIsHamiltonianPath:
    def test_rejects_bad_paths(self):
        t = _transitive(3)
        assert is_hamiltonian_path(t, [0, 1, 2])
        assert not is_hamiltonian_path(t, [2, 1, 0])  # arcs point the other way
        assert not is_hamiltonian_path(t, [0, 1])  # too short
        assert not is_hamiltonian_path(t, [0, 1, 1])  # repeat
        assert not is_hamiltonian_path(t, [0, 1, 3])  # out of range
        lap = Tournament.from_arcs(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
        assert not is_hamiltonian_path(lap, [0, 1, 2, 0])  # every arc exists, 3 missed

    def test_empty(self):
        assert is_hamiltonian_path(_transitive(0), [])
        assert not is_hamiltonian_path(_transitive(1), [])


class TestPathCounts:
    def test_transitive_has_exactly_one(self):
        for n in range(8):
            assert count_hamiltonian_paths_oracle(_transitive(n)) == 1

    def test_cyclic_triangle_has_three(self):
        assert count_hamiltonian_paths_oracle(_cyclic_triangle()) == 3

    def test_count_is_odd_exhaustively(self):
        for n in range(6):
            for t in all_tournaments(n):
                assert count_hamiltonian_paths_oracle(t) % 2 == 1

    def test_count_is_odd_on_samples(self):
        rng = random.Random(21)
        for _ in range(100):
            t = random_tournament(rng.choice([6, 7]), rng)
            assert count_hamiltonian_paths_oracle(t) % 2 == 1

    def test_oracle_limit(self):
        with pytest.raises(ValueError, match="oracle limit"):
            count_hamiltonian_paths_oracle(_transitive(9))


class TestPathCountDP:
    def test_matches_oracle_exhaustively(self):
        for n in range(6):
            for t in all_tournaments(n):
                assert count_hamiltonian_paths(t) == count_hamiltonian_paths_oracle(t)

    def test_matches_oracle_on_samples(self):
        rng = random.Random(23)
        for n in (6, 7):
            for _ in range(60):
                t = random_tournament(n, rng)
                assert count_hamiltonian_paths(t) == count_hamiltonian_paths_oracle(t)

    def test_known_counts(self):
        assert count_hamiltonian_paths(_transitive(0)) == 1
        assert count_hamiltonian_paths(_transitive(16)) == 1
        assert count_hamiltonian_paths(_cyclic_triangle()) == 3

    def test_limit(self):
        with pytest.raises(ValueError, match="path count limit"):
            count_hamiltonian_paths(_transitive(17))

    @settings(max_examples=300, derandomize=True, database=None)
    @given(st.integers(0, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))
    ))
    def test_orientation_bitmask_count_is_odd_and_exact(self, drawn):
        n, mask = drawn
        t = _oriented(n, mask)
        count = count_hamiltonian_paths(t)
        assert count % 2 == 1
        assert count == count_hamiltonian_paths_oracle(t)


def _oriented(n: int, mask: int) -> Tournament:
    """Bit i of mask orients the i-th pair (u, v), u < v: set means u -> v."""
    rows = [0] * n
    for i, (u, v) in enumerate(itertools.combinations(range(n), 2)):
        if mask >> i & 1:
            rows[u] |= 1 << v
        else:
            rows[v] |= 1 << u
    return Tournament(Digraph.from_rows(rows))


class TestQueryBudget:
    def test_quadratic_bound(self):
        rng = random.Random(22)
        for n in (10, 50, 100):
            counter = ArcQueryCounter(random_tournament(n, rng))
            path = redei_hamiltonian_path(counter)
            assert is_hamiltonian_path(counter.tournament, path)
            assert 0 < counter.queries <= n * (n - 1) // 2

    def test_transitive_worst_case_within_bound(self):
        n = 200
        counter = ArcQueryCounter(_transitive(n))
        redei_hamiltonian_path(counter)
        assert counter.queries <= n * (n - 1) // 2

    def test_report_counts_pinned(self):
        # the "arc queries stay quadratic" entry at seed 1: each vertex of
        # the transitive tournament beats no placed vertex, so it reads
        # the arc to every one of them and is appended
        counter = ArcQueryCounter(random_tournament(1000, random.Random(1)))
        assert redei_hamiltonian_path(counter) == redei_hamiltonian_path(counter.tournament)
        assert counter.queries == 1980
        counter = ArcQueryCounter(_transitive(1000))
        assert redei_hamiltonian_path(counter) == list(range(1000))
        assert counter.queries == 999 * 1000 // 2 == 499_500

    def test_charged_count_matches_a_naive_count(self):
        rng = random.Random(26)
        tournaments = [t for n in range(6) for t in all_tournaments(n)]
        tournaments += [random_tournament(rng.randint(2, 80), rng) for _ in range(100)]
        tournaments.append(_transitive(60))
        for t in tournaments:
            counter = ArcQueryCounter(t)
            path = redei_hamiltonian_path(counter)
            assert (path, counter.queries) == _naive_insertion_reads(t)

    def test_counter_accumulates_over_calls(self):
        counter = ArcQueryCounter(_transitive(10))
        redei_hamiltonian_path(counter)
        redei_hamiltonian_path(counter)
        assert counter.queries == 2 * 45


def test_benchmark_contract():
    # perfbench/spans.py's _observe_redei_path reads call["t"].queries:
    # renaming the parameter or the counter's fields would silently zero
    # redei.arc_queries
    assert "t" in inspect.signature(redei_hamiltonian_path).parameters
    counter = ArcQueryCounter(_transitive(3))
    assert counter.queries == 0
    assert counter.tournament.vertex_count == 3
