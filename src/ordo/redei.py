"""Directed Hamiltonian paths in tournaments.

Every tournament has one (Redei), and the insertion proof is also the
algorithm: put each new vertex just before the first path vertex it
beats, which every vertex before it beats, or at the back.  The number
of such paths is always odd; a bitmask dynamic program counts them,
cross-checked against a brute-force oracle over all orders.
"""

from __future__ import annotations

import itertools

from .graphs import Tournament

__all__ = [
    "redei_hamiltonian_path",
    "is_hamiltonian_path",
    "count_hamiltonian_paths",
    "count_hamiltonian_paths_oracle",
    "ArcQueryCounter",
]


class ArcQueryCounter:
    """A tournament whose arc reads are counted: passed to
    redei_hamiltonian_path in the tournament's place, it is charged one
    query per arc the insertion reads."""

    __slots__ = ("tournament", "queries")

    def __init__(self, tournament: Tournament) -> None:
        self.tournament = tournament
        self.queries = 0


def redei_hamiltonian_path(t: Tournament | ArcQueryCounter) -> list[int]:
    """A directed Hamiltonian path, found with at most n(n-1)/2 arc reads:
    vertices go in by ascending label, each scanning the path from its
    head, one arc read per vertex, to go just before the first one it
    beats, or after the tail."""
    counter = t if isinstance(t, ArcQueryCounter) else None
    rows = (t if counter is None else counter.tournament).digraph.out_adj
    path: list[int] = []
    reads = 0
    for r, row in enumerate(rows):
        beaten = row & ((1 << r) - 1)  # r's out-arcs to the placed vertices
        i = 0
        for p in path:
            if beaten >> p & 1:
                break
            i += 1
        path.insert(i, r)
        reads += i + (i < r)  # the i vertices that beat r, and the one it beats
    if counter is not None:
        counter.queries += reads
    return path


def is_hamiltonian_path(t: Tournament, path: list[int]) -> bool:
    """True iff path visits every vertex once along forward arcs."""
    rows = t.digraph.out_adj
    if len(path) != len(rows) or set(path) != set(range(len(rows))):
        return False
    return all(rows[u] >> v & 1 for u, v in zip(path, path[1:]))


PATH_COUNT_VERTEX_LIMIT = 16  # the table holds 2^n * n counts


def count_hamiltonian_paths(t: Tournament) -> int:
    """Number of directed Hamiltonian paths, by a bitmask DP.

    ways[S][v] counts the paths that visit exactly the vertex set S and
    end at v (Bellman; Held and Karp): O(2^n n^2) steps against the
    oracle's n! orders.  The empty tournament has one, empty, path.
    """
    n = t.vertex_count
    if n > PATH_COUNT_VERTEX_LIMIT:
        raise ValueError(f"path count limit: n must be <= {PATH_COUNT_VERTEX_LIMIT}")
    if n == 0:
        return 1
    out = t.digraph.out_adj
    ways = [[0] * n for _ in range(1 << n)]
    for v in range(n):
        ways[1 << v][v] = 1
    # every extension S -> S | {w} lands on a larger mask, so ascending
    # masks finish each row before it is read
    for mask, row in enumerate(ways):
        for v, count in enumerate(row):
            if count:
                free = out[v] & ~mask
                while free:
                    low = free & -free
                    ways[mask | low][low.bit_length() - 1] += count
                    free ^= low
    return sum(ways[-1])


def count_hamiltonian_paths_oracle(t: Tournament) -> int:
    """Number of directed Hamiltonian paths, by checking all n! orders."""
    n = t.vertex_count
    if n > 8:
        raise ValueError("oracle limit: n must be <= 8")
    rows = t.digraph.out_adj
    return sum(
        all(rows[u] >> v & 1 for u, v in zip(perm, perm[1:]))
        for perm in itertools.permutations(range(n))
    )
