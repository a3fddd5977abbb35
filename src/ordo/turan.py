"""Extremal edge counts for clique-free graphs.

The maximum number of edges an n-vertex graph can have without a
K_{k+1} is attained by the complete k-partite graph whose part sizes
are as equal as possible.  With n = h*k + r (0 <= r < k) the count is

    (n^2 - r^2) (k - 1) / (2k) + r(r-1)/2

which is an integer for every valid n, k; the division is asserted
exact at runtime rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import SimpleGraph, _check_vertex_count, complete_multipartite

__all__ = ["TuranParams", "turan_params", "turan_max_edges", "turan_extremal_graph"]


@dataclass(frozen=True)
class TuranParams:
    """n = h*k + r with 0 <= r < k; k parts of sizes h+1 (r times) and h."""

    n: int
    k: int
    h: int
    r: int

    def part_sizes(self) -> list[int]:
        return [self.h + 1] * self.r + [self.h] * (self.k - self.r)


def turan_params(n: int, k: int) -> TuranParams:
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    h, r = divmod(n, k)
    return TuranParams(n, k, h, r)


def turan_max_edges(n: int, k: int) -> int:
    """Maximum edges of an n-vertex graph with no K_{k+1}, exact integer."""
    p = turan_params(n, k)
    numerator = (n * n - p.r * p.r) * (k - 1)
    assert numerator % (2 * k) == 0, "edge-count formula must be integral"
    return numerator // (2 * k) + p.r * (p.r - 1) // 2


def turan_extremal_graph(n: int, k: int) -> SimpleGraph:
    """The complete k-partite graph achieving turan_max_edges(n, k).

    Larger parts come first: r parts of size h+1, then k-r of size h.
    Refuses n > GRAPH_VERTEX_LIMIT before allocating.
    """
    p = turan_params(n, k)
    _check_vertex_count(n)
    return complete_multipartite(p.part_sizes())
