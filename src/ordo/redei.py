"""Directed Hamiltonian paths in tournaments.

Every tournament has one, and the insertion argument that proves it is
also the algorithm: grow a path one vertex at a time, placing each new
vertex at the front, at the back, or between the first consecutive
pair it can split.  The number of such paths is always odd; a bitmask
dynamic program counts them, cross-checked against a brute-force oracle
over all orders.
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
    """Tournament wrapper counting has_arc calls; drop-in for the
    insertion algorithm, which only ever asks those two things."""

    __slots__ = ("tournament", "queries", "_rows")

    def __init__(self, tournament: Tournament) -> None:
        self.tournament = tournament
        self.queries = 0
        self._rows = tournament.digraph.out_adj

    @property
    def vertex_count(self) -> int:
        return self.tournament.vertex_count

    def has_arc(self, u: int, v: int) -> bool:
        self.queries += 1
        return bool(self._rows[u] >> v & 1)


def redei_hamiltonian_path(t: Tournament) -> list[int]:
    """A directed Hamiltonian path, found with O(n^2) arc queries.

    Vertices are inserted in ascending label order.  For the new vertex
    r: prepend if r beats the current head; otherwise r loses to the
    head, so scanning consecutive pairs (p, q) either finds the first
    place with p -> r and r -> q to insert, or every path vertex beats
    r and r is appended after the tail.
    """
    n = t.vertex_count
    if n == 0:
        return []
    has_arc = t.has_arc
    path = [0]
    for r in range(1, n):
        if has_arc(r, path[0]):
            path.insert(0, r)
            continue
        for i in range(len(path) - 1):
            if has_arc(path[i], r) and has_arc(r, path[i + 1]):
                path.insert(i + 1, r)
                break
        else:
            path.append(r)
    return path


def is_hamiltonian_path(t: Tournament, path: list[int]) -> bool:
    """True iff path visits every vertex once along forward arcs."""
    n = t.vertex_count
    if len(path) != n or set(path) != set(range(n)):
        return False
    return all(t.has_arc(path[i], path[i + 1]) for i in range(n - 1))


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
    has_arc = t.has_arc
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(has_arc(perm[i], perm[i + 1]) for i in range(n - 1)):
            count += 1
    return count
