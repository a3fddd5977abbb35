"""Extremal edge counts for clique-free graphs.

The maximum number of edges an n-vertex graph can have without a
K_{k+1} is attained by the complete k-partite graph whose part sizes
are as equal as possible.  One divmod, n = h*k + r (0 <= r < k), gives
both the parts (r of size h+1, k-r of size h) and the count

    (n^2 - r^2) (k - 1) / (2k) + r(r-1)/2

which is an integer for every valid n, k; the division is asserted
exact at runtime rather than trusted.
"""

from __future__ import annotations

from .graphs import SimpleGraph, _check_vertex_count, complete_multipartite

__all__ = ["turan_part_sizes", "turan_max_edges", "turan_extremal_graph"]


def _divide(n: int, k: int) -> tuple[int, int]:
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return divmod(n, k)


def turan_part_sizes(n: int, k: int) -> list[int]:
    """The k part sizes of the extremal graph, larger parts first."""
    h, r = _divide(n, k)
    return [h + 1] * r + [h] * (k - r)


def turan_max_edges(n: int, k: int) -> int:
    """Maximum edges of an n-vertex graph with no K_{k+1}, exact integer."""
    _, r = _divide(n, k)
    numerator = (n * n - r * r) * (k - 1)
    assert numerator % (2 * k) == 0, "edge-count formula must be integral"
    return numerator // (2 * k) + r * (r - 1) // 2


def turan_extremal_graph(n: int, k: int) -> SimpleGraph:
    """The complete k-partite graph achieving turan_max_edges(n, k).

    Larger parts come first: r parts of size h+1, then k-r of size h.
    Refuses n > GRAPH_VERTEX_LIMIT before allocating.
    """
    _divide(n, k)
    _check_vertex_count(n)
    return complete_multipartite(turan_part_sizes(n, k))
