"""Hamiltonian paths in tournaments: insertion construction and parity."""

from __future__ import annotations

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


class TestIsHamiltonianPath:
    def test_rejects_bad_paths(self):
        t = _transitive(3)
        assert is_hamiltonian_path(t, [0, 1, 2])
        assert not is_hamiltonian_path(t, [2, 1, 0])  # arcs point the other way
        assert not is_hamiltonian_path(t, [0, 1])  # too short
        assert not is_hamiltonian_path(t, [0, 1, 1])  # repeat
        assert not is_hamiltonian_path(t, [0, 1, 3])  # out of range

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
            assert 0 < counter.queries <= 2 * n * n

    def test_transitive_worst_case_within_bound(self):
        n = 200
        counter = ArcQueryCounter(_transitive(n))
        redei_hamiltonian_path(counter)
        assert counter.queries <= 2 * n * n

    def test_report_counts_pinned(self):
        # the "arc queries stay quadratic" entry at seed 1: each insertion
        # into a transitive path scans every consecutive pair
        counter = ArcQueryCounter(random_tournament(1000, random.Random(1)))
        assert redei_hamiltonian_path(counter) == redei_hamiltonian_path(counter.tournament)
        assert counter.queries == 2961
        counter = ArcQueryCounter(_transitive(1000))
        assert redei_hamiltonian_path(counter) == list(range(1000))
        assert counter.queries == 998_001

    def test_counter_answers_like_the_tournament(self):
        t = random_tournament(9, random.Random(24))
        counter = ArcQueryCounter(t)
        answers = [counter.has_arc(u, v) for u in range(9) for v in range(9)]
        assert answers == [t.has_arc(u, v) for u in range(9) for v in range(9)]
        assert counter.queries == 81
