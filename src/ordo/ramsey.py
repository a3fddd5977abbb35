"""Ramsey numbers: bounds, witnesses, and exhaustive small-case checks.

R(m, k) is the least n such that every red/blue edge coloring of K_n
contains a red K_m or a blue K_k.  Nothing here computes R itself
beyond brute-force range; the module provides the classical upper and
lower bounds, a verifier for explicit colorings, an exhaustive checker
for small n, and the witness constructions that pin down R(3,k) from
below and R(3,3,3) from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .graphs import EdgeColoring, SimpleGraph, _check_vertex_count, _clique_in, find_clique

__all__ = [
    "MonochromaticWitness",
    "RamseyBound",
    "verify_coloring",
    "exhaustive_ramsey_check",
    "recurrence_upper_bound",
    "erdos_szekeres_bound",
    "diagonal_lower_bound",
    "multicolor_multinomial_bound",
    "erdos_triangle_multicolor_bound",
    "andrasfai_graph",
    "k17_mod3_coloring",
    "known_value",
    "KNOWN_VALUE_RANGE",
]


class MonochromaticWitness(NamedTuple):
    color: int
    vertices: tuple[int, ...]


def verify_coloring(
    coloring: EdgeColoring, spec: Sequence[int]
) -> MonochromaticWitness | None:
    """Find a monochromatic clique the coloring cannot avoid, or None.

    spec[c] is the forbidden clique size in color c and must have one
    entry per color.  Returns the witness with the lowest color index,
    breaking ties by lexicographically smallest vertex set; None means
    the coloring avoids every forbidden clique.
    """
    if len(spec) != coloring.color_count:
        raise ValueError(
            f"spec has {len(spec)} entries but the coloring uses {coloring.color_count} colors"
        )
    for size in spec:
        if size < 1:
            raise ValueError("forbidden clique sizes must be >= 1")
    for color, size in enumerate(spec):
        witness = find_clique(coloring.color_class(color), size)
        if witness is not None:
            return MonochromaticWitness(color, witness)
    return None


def exhaustive_ramsey_check(
    m: int, k: int, n: int
) -> tuple[bool, EdgeColoring | None]:
    """Does every 2-coloring of K_n contain a red K_m or a blue K_k?

    Chronological backtracking over the C(n,2) edges in column order
    (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ...: every prefix ending
    at (v-1,v) colors all of K_{v+1}, so a branch dies as soon as the
    newly colored edge completes a forbidden monochromatic clique on
    the vertices seen so far.  Symmetry break: an edge (0,v) may be red
    only while every earlier edge at vertex 0 is red.  This loses no
    coloring up to isomorphism, because relabelling vertices 1..n-1 so
    that vertex 0's red neighbours come first maps any coloring to one
    obeying the rule and keeps every monochromatic clique.  A coloring
    surviving to the last edge is returned as the counterexample,
    otherwise (True, None).
    """
    if m < 1 or k < 1:
        raise ValueError("clique sizes must be >= 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n * (n - 1) // 2 > 36:
        raise ValueError("search limit: C(n,2) must be <= 36")
    if m == 1 or k == 1:
        # K_1 is a single vertex, present in any coloring of K_{n>=1}
        if n >= 1:
            return True, None
        return False, EdgeColoring(0, 2, ())
    pairs = [(u, v) for v in range(n) for u in range(v)]
    total = len(pairs)
    red: list[int] = [0] * n
    blue: list[int] = [0] * n
    rules = ((red, m - 2), (blue, k - 2))  # red is tried first

    def extend(i: int) -> bool:
        if i == total:
            return True
        u, v = pairs[i]
        bu, bv = 1 << u, 1 << v
        for rows, size in rules:
            if not u and rows is red and blue[0]:
                continue  # the symmetry break: vertex 0 has a blue edge already
            if _clique_in(rows, rows[u] & rows[v], size) is None:
                rows[u] |= bv
                rows[v] |= bu
                if extend(i + 1):
                    return True
                rows[u] ^= bv
                rows[v] ^= bu
        return False

    try:
        found = extend(0)
    finally:
        # extend reaches itself through its closure: break that cycle, so
        # its tables go when the check returns, not at the next collection
        del extend
    if found:
        # every edge is colored, so an edge not in the red rows is blue
        return False, EdgeColoring.from_function(
            n, 2, lambda u, v: 0 if red[u] >> v & 1 else 1
        )
    return True, None


# m * k table cells: about a second of big-int sums, and it keeps the
# diagonal at k <= 1414, below the float overflow of 2^(k/2) at k = 2048
RECURRENCE_LIMIT = 2_000_000


def recurrence_upper_bound(m: int, k: int) -> int:
    """Upper bound from R(m,k) <= R(m-1,k) + R(m,k-1).

    Base case R(1,k) = 1; when both summands are even the bound improves
    by one.  Filled in row by row, m * k sums, refused beyond
    RECURRENCE_LIMIT of them.
    """
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    if m * k > RECURRENCE_LIMIT:
        raise ValueError(f"recurrence limit: m * k must be <= {RECURRENCE_LIMIT}")
    m, k = min(m, k), max(m, k)
    # row[j] holds R(i, j) for j >= i - 1; row i overwrites row i - 1,
    # starting from its mirror entry R(i, i-1) = R(i-1, i)
    row = [1] * (k + 1)
    for i in range(2, m + 1):
        row[i - 1] = row[i]
        for j in range(i, k + 1):
            a, b = row[j], row[j - 1]
            row[j] = a + b - 1 if a % 2 == 0 and b % 2 == 0 else a + b
    return row[k]


def erdos_szekeres_bound(m: int, k: int) -> int:
    """Binomial upper bound R(m,k) <= C(m+k-2, m-1)."""
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    return math.comb(m + k - 2, m - 1)


def diagonal_lower_bound(k: int) -> float:
    """Probabilistic lower bound: R(k,k) > 2^(k/2), which holds for
    k >= 3 only (R(1,1) = 1 and R(2,2) = 2)."""
    if k < 3:
        raise ValueError("need k >= 3")
    return 2.0 ** (k / 2)


def multicolor_multinomial_bound(spec: Sequence[int]) -> int:
    """Multinomial upper bound for r colors.

    With forbidden sizes k_1..k_r, R(k_1,..,k_r) is at most the
    multinomial coefficient (sum (k_i - 1))! / prod (k_i - 1)!.
    """
    if not spec:
        raise ValueError("need at least one color")
    for size in spec:
        if size < 1:
            raise ValueError("forbidden clique sizes must be >= 1")
    parts = [size - 1 for size in spec]
    result = math.factorial(sum(parts))
    for p in parts:
        result //= math.factorial(p)
    return result


def erdos_triangle_multicolor_bound(r: int) -> int:
    """Upper bound for triangles in r colors: sum_{j=0..r} r!/j! + 1.

    Exact integer arithmetic; r = 1, 2, 3 give 3, 6, 17.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    fact = math.factorial(r)
    return sum(fact // math.factorial(j) for j in range(r + 1)) + 1


def andrasfai_graph(k: int) -> SimpleGraph:
    """Circulant on 3k-1 vertices, distances k..2k-1 joined.

    Triangle-free and without any independent set of k+1 vertices,
    certifying R(3, k+1) > 3k - 1.  Refuses 3k-1 > GRAPH_VERTEX_LIMIT
    before building.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    n = 3 * k - 1
    _check_vertex_count(n)
    # row u is the distance mask, bits k..2k-1, rotated by u within n bits
    full = (1 << n) - 1
    mask = ((1 << k) - 1) << k
    return SimpleGraph._from_rows([(mask << u | mask >> n - u) & full for u in range(n)])


def k17_mod3_coloring() -> EdgeColoring:
    """3-coloring of K_17 by vertex-label sum mod 3 (labels 1..17).

    Color of {i, j} is (i + j) mod 3.  Every color class still contains
    a triangle, so this does not witness R(3,3,3) > 17; it is kept as
    the standard counterexample construction to that tempting guess.
    """
    return EdgeColoring.from_function(17, 3, lambda u, v: ((u + 1) + (v + 1)) % 3)


@dataclass(frozen=True)
class RamseyBound:
    m: int
    k: int
    lower: int
    upper: int

    @property
    def exact(self) -> int | None:
        return self.lower if self.lower == self.upper else None

    def __str__(self) -> str:
        if self.exact is not None:
            return f"R({self.m},{self.k}) = {self.exact}"
        return f"R({self.m},{self.k}) in [{self.lower}, {self.upper}]"


KNOWN_VALUE_RANGE = (3, 10)

# best published lower/upper bounds, m <= k, both in 3..10
_KNOWN: dict[tuple[int, int], tuple[int, int]] = {
    (3, 3): (6, 6),
    (3, 4): (9, 9),
    (3, 5): (14, 14),
    (3, 6): (18, 18),
    (3, 7): (23, 23),
    (3, 8): (28, 28),
    (3, 9): (36, 36),
    (3, 10): (40, 43),
    (4, 4): (18, 18),
    (4, 5): (25, 25),
    (4, 6): (35, 41),
    (4, 7): (49, 61),
    (4, 8): (56, 84),
    (4, 9): (73, 115),
    (4, 10): (92, 149),
    (5, 5): (43, 49),
    (5, 6): (58, 87),
    (5, 7): (80, 143),
    (5, 8): (101, 216),
    (5, 9): (125, 316),
    (5, 10): (143, 442),
    (6, 6): (102, 165),
    (6, 7): (113, 298),
    (6, 8): (127, 495),
    (6, 9): (169, 780),
    (6, 10): (179, 1171),
    (7, 7): (205, 540),
    (7, 8): (216, 1031),
    (7, 9): (233, 1713),
    (7, 10): (232, 2826),
    (8, 8): (282, 1870),
    (8, 9): (317, 3583),
    (8, 10): (377, 6090),
    (9, 9): (565, 6588),
    (9, 10): (580, 12677),
    (10, 10): (798, 23556),
}


def known_value(m: int, k: int) -> RamseyBound:
    """Published bounds on R(m,k) for 3 <= m, k <= 10 (symmetric)."""
    lo_lim, hi_lim = KNOWN_VALUE_RANGE
    if not (lo_lim <= m <= hi_lim and lo_lim <= k <= hi_lim):
        raise ValueError(f"known values cover {lo_lim} <= m, k <= {hi_lim} only")
    key = (m, k) if m <= k else (k, m)
    lower, upper = _KNOWN[key]
    return RamseyBound(m, k, lower, upper)
