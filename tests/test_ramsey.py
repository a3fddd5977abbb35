"""Two-coloring searches, classical bounds, extremal colorings."""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import pytest

from ordo.graphs import EdgeColoring, SimpleGraph, find_clique, find_independent_set
from ordo.ramsey import (
    KNOWN_VALUE_RANGE,
    MonochromaticWitness,
    RamseyBound,
    andrasfai_graph,
    diagonal_lower_bound,
    erdos_szekeres_bound,
    erdos_triangle_multicolor_bound,
    exhaustive_ramsey_check,
    k17_mod3_coloring,
    known_value,
    multicolor_multinomial_bound,
    recurrence_upper_bound,
    verify_coloring,
)


def _pentagon_coloring() -> EdgeColoring:
    # 5-cycle red, complement (also a 5-cycle) blue
    cycle = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    return EdgeColoring.from_function(
        5, 2, lambda u, v: 0 if (u, v) in cycle else 1
    )


class TestVerifyColoring:
    def test_pentagon_avoids_triangles(self):
        assert verify_coloring(_pentagon_coloring(), (3, 3)) is None

    def test_monochromatic_witness(self):
        all_red = EdgeColoring.from_function(5, 2, lambda u, v: 0)
        assert verify_coloring(all_red, (3, 3)) == MonochromaticWitness(0, (0, 1, 2))
        all_blue = EdgeColoring.from_function(5, 2, lambda u, v: 1)
        assert verify_coloring(all_blue, (3, 3)) == MonochromaticWitness(1, (0, 1, 2))

    def test_lowest_color_wins(self):
        # vertices 0..2 red triangle, 3..5 blue triangle
        def color(u: int, v: int) -> int:
            if v <= 2:
                return 0
            if u >= 3:
                return 1
            return 0 if (u + v) % 2 else 1

        col = EdgeColoring.from_function(6, 2, color)
        witness = verify_coloring(col, (3, 3))
        assert witness is not None and witness.color == 0

    def test_asymmetric_spec(self):
        colored = _pentagon_coloring()
        # red K_2 is just any red edge
        assert verify_coloring(colored, (2, 3)) == MonochromaticWitness(0, (0, 1))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="colors"):
            verify_coloring(_pentagon_coloring(), (3, 3, 3))
        with pytest.raises(ValueError, match=">= 1"):
            verify_coloring(_pentagon_coloring(), (3, 0))


class TestExhaustiveCheck:
    def test_five_vertices_insufficient(self):
        holds, counterexample = exhaustive_ramsey_check(3, 3, 5)
        assert not holds
        assert counterexample is not None
        assert verify_coloring(counterexample, (3, 3)) is None

    def test_six_vertices_sufficient(self):
        holds, counterexample = exhaustive_ramsey_check(3, 3, 6)
        assert holds and counterexample is None

    def test_below_three_four(self):
        holds, counterexample = exhaustive_ramsey_check(3, 4, 8)
        assert not holds
        assert verify_coloring(counterexample, (3, 4)) is None

    def test_every_counterexample_range(self):
        # arrow holds at n >= 6 and fails below, pinning R(3,3) = 6
        results = [exhaustive_ramsey_check(3, 3, n)[0] for n in range(9)]
        assert results == [False] * 6 + [True] * 3

    def test_degenerate_sizes(self):
        assert exhaustive_ramsey_check(1, 5, 1) == (True, None)
        holds, counterexample = exhaustive_ramsey_check(1, 5, 0)
        assert not holds and counterexample.vertex_count == 0
        assert exhaustive_ramsey_check(2, 2, 2) == (True, None)
        holds, _ = exhaustive_ramsey_check(2, 3, 2)
        assert not holds
        assert exhaustive_ramsey_check(2, 3, 3) == (True, None)

    def test_three_four_on_nine_vertices(self):
        # the (4,3) cases swap the colors, so the vertex-0 rule meets the
        # other clique size first
        assert exhaustive_ramsey_check(3, 4, 9) == (True, None)
        assert exhaustive_ramsey_check(4, 3, 9) == (True, None)
        holds, counterexample = exhaustive_ramsey_check(4, 3, 8)
        assert not holds
        assert verify_coloring(counterexample, (4, 3)) is None

    @pytest.mark.parametrize(
        "m, k, n, colors",
        [
            (3, 3, 5, "0011101100"),
            (3, 4, 8, "0001111110011101011010110010"),
            (4, 3, 8, "0000111001011100010010100000"),
        ],
    )
    def test_counterexamples_are_pinned(self, m, k, n, colors):
        # the first coloring the search reaches, red (0) before blue (1) at
        # every edge; `ordo ramsey search` prints it.  The pairs are in
        # lexicographic rank order
        holds, counterexample = exhaustive_ramsey_check(m, k, n)
        assert not holds
        assert counterexample == EdgeColoring(n, 2, map(int, colors))

    def test_matches_brute_force_oracle(self):
        # every 2-coloring of K_n for n <= 6 as a bitmask over the
        # lexicographic pairs (bit set = red); largest red and blue
        # clique per coloring, capped at 4
        for n in range(7):
            pairs = list(itertools.combinations(range(n), 2))
            colorings = np.arange(1 << len(pairs), dtype=np.int64)
            red_omega = np.full(colorings.shape, min(n, 1))
            blue_omega = red_omega.copy()
            for size in range(2, min(n, 4) + 1):
                for subset in itertools.combinations(range(n), size):
                    inside = sum(
                        1 << i for i, (u, v) in enumerate(pairs)
                        if u in subset and v in subset
                    )
                    covered = colorings & inside
                    red_omega[covered == inside] = size
                    blue_omega[covered == 0] = size
            for m in range(1, 5):
                for k in range(1, 5):
                    expected = not np.any((red_omega < m) & (blue_omega < k))
                    holds, counterexample = exhaustive_ramsey_check(m, k, n)
                    assert holds == expected, (m, k, n)
                    if holds:
                        assert counterexample is None
                    else:
                        assert counterexample.vertex_count == n
                        assert verify_coloring(counterexample, (m, k)) is None

    def test_search_limit(self):
        with pytest.raises(ValueError, match="search limit"):
            exhaustive_ramsey_check(3, 3, 10)
        with pytest.raises(ValueError, match=">= 1"):
            exhaustive_ramsey_check(0, 3, 3)


@functools.cache
def reference_recurrence_bound(m: int, k: int) -> int:
    """The recurrence bound as the recursion it is defined by, for the
    small m and k the call stack allows."""
    if m > k:
        return reference_recurrence_bound(k, m)
    if m == 1:
        return 1
    if m == 2:
        return k
    a = reference_recurrence_bound(m - 1, k)
    b = reference_recurrence_bound(m, k - 1)
    return a + b - 1 if a % 2 == 0 and b % 2 == 0 else a + b


def reference_andrasfai_graph(k: int) -> SimpleGraph:
    """H_{3k-1} from its definition: u ~ v when (v - u) mod n is in k..2k-1."""
    n = 3 * k - 1
    pairs = itertools.combinations(range(n), 2)
    return SimpleGraph(n, [(u, v) for u, v in pairs if k <= (v - u) % n <= 2 * k - 1])


class TestBounds:
    def test_recurrence_matches_the_recursion(self):
        for m in range(1, 41):
            for k in range(1, 41):
                assert recurrence_upper_bound(m, k) == reference_recurrence_bound(m, k), (m, k)

    def test_recurrence_limit(self):
        # 2100 * 2100 sums would take seconds and 2^(2100/2) overflows a
        # float; 3 * 10^9 sums would take hours
        assert recurrence_upper_bound(2, 1_000_000) == 1_000_000
        for m, k in ((2100, 2100), (3, 10**9), (10**9, 3), (2, 1_000_001)):
            with pytest.raises(ValueError, match="recurrence limit"):
                recurrence_upper_bound(m, k)

    def test_recurrence_values(self):
        assert recurrence_upper_bound(3, 3) == 6
        assert recurrence_upper_bound(3, 4) == 9  # both-even refinement
        assert recurrence_upper_bound(4, 4) == 18
        assert recurrence_upper_bound(1, 7) == 1
        assert recurrence_upper_bound(2, 7) == 7

    def test_recurrence_symmetric(self):
        for m in range(1, 9):
            for k in range(1, 9):
                assert recurrence_upper_bound(m, k) == recurrence_upper_bound(k, m)

    def test_recurrence_never_beats_binomial(self):
        for m in range(1, 11):
            for k in range(1, 11):
                assert recurrence_upper_bound(m, k) <= erdos_szekeres_bound(m, k)

    def test_binomial_values(self):
        assert erdos_szekeres_bound(3, 3) == 6
        assert erdos_szekeres_bound(3, 4) == 10
        assert erdos_szekeres_bound(4, 4) == 20
        assert erdos_szekeres_bound(5, 5) == math.comb(8, 4)
        with pytest.raises(ValueError, match="need m >= 1 and k >= 1"):
            erdos_szekeres_bound(0, 3)

    def test_diagonal_lower_bound(self):
        assert diagonal_lower_bound(3) == 2.0**1.5
        assert abs(diagonal_lower_bound(4) - 4.0) < 1e-12
        assert diagonal_lower_bound(10) == 32.0
        # R(1,1) = 1 and R(2,2) = 2: 2^(k/2) is no lower bound there
        for k in (0, 1, 2):
            with pytest.raises(ValueError, match="need k >= 3"):
                diagonal_lower_bound(k)

    def test_multinomial(self):
        assert multicolor_multinomial_bound((3, 3)) == 6
        assert multicolor_multinomial_bound((3, 3, 3)) == 90
        assert multicolor_multinomial_bound((2, 2)) == 2
        # two colors must agree with the binomial bound
        for m in range(1, 8):
            for k in range(1, 8):
                assert multicolor_multinomial_bound((m, k)) == erdos_szekeres_bound(
                    m, k
                )
        with pytest.raises(ValueError):
            multicolor_multinomial_bound(())
        with pytest.raises(ValueError, match="forbidden clique sizes must be >= 1"):
            multicolor_multinomial_bound((3, 0))

    def test_triangle_multicolor(self):
        assert erdos_triangle_multicolor_bound(1) == 3
        assert erdos_triangle_multicolor_bound(2) == 6
        assert erdos_triangle_multicolor_bound(3) == 17
        with pytest.raises(ValueError):
            erdos_triangle_multicolor_bound(0)


class TestAndrasfai:
    def test_family_properties(self):
        for k in range(1, 6):
            g = andrasfai_graph(k)
            assert g.vertex_count == 3 * k - 1
            assert all(g.degree(v) == k for v in range(g.vertex_count))
            assert find_clique(g, 3) is None  # triangle-free
            # independence number is exactly k
            assert find_independent_set(g, k + 1) is None
            assert find_independent_set(g, k) is not None

    def test_h8(self):
        g = andrasfai_graph(3)
        assert g.vertex_count == 8
        assert g.edge_count == 12

    def test_rotated_rows_match_the_definition(self):
        for k in range(1, 40):
            assert andrasfai_graph(k) == reference_andrasfai_graph(k), k

    def test_graph_limit(self):
        assert andrasfai_graph(5461).vertex_count == 16382
        for k in (5462, 10**9):
            with pytest.raises(ValueError, match="graph limit: n must be <= 16384"):
                andrasfai_graph(k)
        with pytest.raises(ValueError, match=">= 1"):
            andrasfai_graph(0)


class TestK17:
    def test_class_sizes(self):
        col = k17_mod3_coloring()
        sizes = sorted(col.color_class(c).edge_count for c in range(3))
        assert sizes == [45, 45, 46]
        assert sum(sizes) == 17 * 16 // 2

    def test_each_class_has_a_triangle(self):
        col = k17_mod3_coloring()
        for c in range(3):
            assert find_clique(col.color_class(c), 3) is not None

    def test_named_triangles(self):
        # vertex labels 1..17; these label triples are monochromatic
        col = k17_mod3_coloring()
        for color, labels in {0: (3, 9, 15), 1: (5, 11, 17), 2: (4, 10, 16)}.items():
            for a, b in itertools.combinations(labels, 2):
                assert col.color_of(a - 1, b - 1) == color


class TestKnownValues:
    def test_exact_entries(self):
        assert known_value(3, 3).exact == 6
        assert known_value(3, 4).exact == 9
        assert known_value(4, 4).exact == 18
        assert known_value(4, 5).exact == 25
        assert known_value(5, 5).exact is None

    def test_symmetry(self):
        a = known_value(4, 6)
        b = known_value(6, 4)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_all_entries_sane(self):
        lo, hi = KNOWN_VALUE_RANGE
        for m in range(lo, hi + 1):
            for k in range(m, hi + 1):
                bound = known_value(m, k)
                assert 0 < bound.lower <= bound.upper
                assert bound.upper <= recurrence_upper_bound(m, k)

    def test_range_check(self):
        with pytest.raises(ValueError, match="known values"):
            known_value(2, 5)
        with pytest.raises(ValueError):
            known_value(3, 11)

    def test_str(self):
        assert str(known_value(3, 3)) == "R(3,3) = 6"
        assert str(known_value(5, 5)) == "R(5,5) in [43, 49]"
        assert str(RamseyBound(9, 9, 565, 6588)) == "R(9,9) in [565, 6588]"
