"""Seed search: completeness, resumption, budgets, the cache file format."""

from __future__ import annotations

import functools
import gc
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordo.debruijn import (
    DBParams,
    DeBruijnWord,
    _check_words,
    _cycle_letters,
    _windows,
    enumerate_hamiltonian_cycles,
    martin,
    pairwise_arc_disjoint,
    rotation_family,
    sigma_symbol_map,
    word_decode,
    word_encode,
)
from ordo.report import REFERENCE_SEEDS
from ordo.seedsearch import (
    _BUDGET_CHECK_STRIDE,
    _extension_letters,
    append_seed_cache,
    resume_seeds,
    rotation_seed_search,
)

SEEDS_3_2 = ("0011220210", "0012022110", "0021011220", "0022110120")


def reference_arc_orbits(params: DBParams) -> list[tuple[int, ...]]:
    # orbit of arc (v, s) under (v, s) -> (sigma v, sigma s), sigma v
    # taken digit by digit; length n-1, with repeats only for loops
    n, m = params.n, params.m
    smap = sigma_symbol_map(n)
    vmap = []
    for v in range(params.vertex_count):
        digits = [v // n**k % n for k in range(m)]
        vmap.append(sum(smap[d] * n**k for k, d in enumerate(digits)))
    orbits = []
    for v in range(params.vertex_count):
        for s in range(n):
            ids = []
            x, y = v, s
            for _ in range(n - 1):
                ids.append(x * n + y)
                x = vmap[x]
                y = smap[y]
            orbits.append(tuple(ids))
    return orbits


def reference_seed_search(
    params: DBParams,
    find_all: bool = False,
    node_budget: int | None = None,
    resume_after: DeBruijnWord | None = None,
    cutoff: int | None = None,
) -> tuple[list[str], int, bool, bool]:
    """(seeds, nodes_explored, completed, budget_exhausted) of a seed
    search, by a DFS that tests every letter's step against the state at
    every visit and tracks the resume word's path with a per-frame flag:
    the seed search oracle.

    With a cutoff, a node whose path leaves at least cutoff vertices off
    it is counted and then pruned when some vertex off the path has no
    free arc in from the new vertex or from another vertex off the path:
    every Hamiltonian completion enters each such vertex along one."""
    n, m = params.n, params.m
    total = params.vertex_count
    base = n ** (m - 1)
    orbits = reference_arc_orbits(params)

    # the arcs into u other than its loop: from p = u // n + k * base,
    # k < n, with arc id p * n + u % n
    arcs_in = [
        [(p, total + p * n + u % n) for p in range(u // n, total, base) if p != u]
        for u in range(total)
    ]

    def starved(state: int, w: int) -> bool:
        return any(
            not state >> u & 1
            and not any(
                (p == w or not state >> p & 1) and not state >> arc & 1 for p, arc in arcs_in[u]
            )
            for u in range(total)
        )

    def step(v: int, s: int) -> tuple[int, int, int, int]:
        w = (v % base) * n + s
        aid = v * n + s
        add = sum(1 << (total + x) for x in set(orbits[aid]))
        return s, w, 1 << w | 1 << (total + aid), 1 << w | add

    steps = [tuple(step(v, s) for s in range(n)) for v in range(total)]
    bound = None if resume_after is None else _extension_letters(resume_after)
    seeds: list[str] = []
    nodes = 0
    if node_budget is not None and node_budget <= 0:
        return seeds, nodes, False, True
    out_of_budget = False
    state = 1
    tight = bound is not None
    syms: list[int] = []
    saved: list[tuple[int, bool]] = []
    stack = [iter(steps[0][bound[0]:] if tight else steps[0])]
    while stack:
        for s, w, block, add in stack[-1]:
            if not state & block:
                break
        else:
            stack.pop()
            if saved:
                state, tight = saved.pop()
                syms.pop()
            continue
        nodes += 1
        depth = len(syms)
        step_tight = tight and s == bound[depth]
        if depth + 2 == total:
            if w % base == 0 and not step_tight:
                letters = ((0,) * m + tuple(syms) + (s,))[:total]
                seeds.append(word_encode(DeBruijnWord(params, letters)))
                if not find_all:
                    return seeds, nodes, True, False
        elif cutoff is None or total - depth - 2 < cutoff or not starved(state | add, w):
            saved.append((state, tight))
            state |= add
            tight = step_tight
            syms.append(s)
            stack.append(iter(steps[w][bound[depth + 1]:] if tight else steps[w]))
        if nodes == node_budget:
            out_of_budget = True
            break
    return seeds, nodes, not out_of_budget, out_of_budget


def searched(params: DBParams, find_all: bool = False, **kwargs):
    result = rotation_seed_search(params, find_all, **kwargs)
    seeds = [word_encode(w) for w in result.seeds]
    return seeds, result.nodes_explored, result.completed, result.budget_exhausted


# every B(n, m) with n^m <= 16; the reference's trees of (12,1), (14,1)
# and (16,1) hold no seed in millions of nodes, so its searches are capped
SMALL_GRAPHS = [
    DBParams(n, m) for n in range(2, 17) for m in range(1, 5) if n**m <= 16
]
NODE_CAP = 40_000
RESUMABLE = (DBParams(3, 2), DBParams(4, 2), DBParams(2, 4))


@functools.lru_cache(maxsize=None)
def census_words(params: DBParams) -> tuple[DeBruijnWord, ...]:
    return tuple(enumerate_hamiltonian_cycles(params))


def no_seed_by_arithmetic(params: DBParams) -> bool:
    return params.m == 1 and params.n >= 4 and params.n % 2 == 0


def sequencings(k: int) -> int:
    """How many orderings 0, a1, ..., a(k-1) of the integers mod k have
    k distinct partial sums (B. Gordon, Pacific J. Math. 11, 1961)."""

    def extend(used: int, sums: int, total: int, left: int) -> int:
        if not left:
            return 1
        count = 0
        for a in range(1, k):
            s = (total + a) % k
            if not (used >> a | sums >> s) & 1:
                count += extend(used | 1 << a, sums | 1 << s, s, left - 1)
        return count

    return extend(1, 1, 0, k - 1)


def expected_search(
    params: DBParams,
    find_all: bool,
    node_budget: int | None,
    resume_after: DeBruijnWord | None = None,
):
    """What searched() must return: B(n,1) for even n >= 4 holds no seed
    and is answered before any node, whatever the budget; every other
    graph is the reference search."""
    if no_seed_by_arithmetic(params):
        return [], 0, True, False
    return reference_seed_search(params, find_all, node_budget, resume_after)


@functools.lru_cache(maxsize=None)
def tree_size(params: DBParams, find_all: bool, resume_after) -> int:
    # the nodes of the uncapped search, or NODE_CAP when it runs past it
    return reference_seed_search(params, find_all, NODE_CAP, resume_after)[1]


class TestAgainstTheReference:
    @pytest.mark.parametrize("params", SMALL_GRAPHS, ids=lambda p: f"{p.n}_{p.m}")
    @pytest.mark.parametrize("find_all", [True, False], ids=["all", "first"])
    def test_budgets_around_the_tree_size(self, params, find_all):
        size = tree_size(params, find_all, None)
        for budget in sorted({0, 1, size - 1, size, size + 1, NODE_CAP}):
            assert searched(params, find_all, node_budget=budget) == (
                expected_search(params, find_all, budget)
            ), budget

    def test_even_complete_digraphs_hold_no_seed(self):
        # the reference's full trees agree with the arithmetic where they fit
        for n in (4, 6, 8, 10):
            for find_all in (True, False):
                seeds, _, completed, exhausted = reference_seed_search(DBParams(n, 1), find_all)
                assert (seeds, completed, exhausted) == ([], True, False), n
        # answered before the clock is read
        assert searched(DBParams(16, 1), time_budget=0.0) == ([], 0, True, False)

    def test_budgets_along_the_resume_walk(self):
        # the resume word's path is walked before the main loop, so a budget
        # can run out on it, or just after it
        p = DBParams(4, 2)
        words = census_words(p)
        for resume in words[::1000] + words[-3:]:
            for budget in range(18):
                assert searched(p, True, node_budget=budget, resume_after=resume) == (
                    reference_seed_search(p, True, budget, resume)
                ), (word_encode(resume), budget)

    @settings(max_examples=150, derandomize=True, database=None)
    @given(st.data())
    def test_resumed_and_budgeted_searches(self, data):
        params = data.draw(st.sampled_from(SMALL_GRAPHS + list(RESUMABLE) * 3))
        find_all = data.draw(st.booleans())
        resume = None
        if params in RESUMABLE and data.draw(st.booleans()):
            resume = data.draw(st.sampled_from(census_words(params)))
        size = tree_size(params, find_all, resume)
        budget = data.draw(
            st.one_of(
                st.sampled_from([0, 1, size - 1, size, size + 1]),
                st.integers(0, size + 1),
            )
        )
        if size < NODE_CAP and data.draw(st.booleans()):
            budget = None
        assert searched(params, find_all, node_budget=budget, resume_after=resume) == (
            expected_search(params, find_all, budget, resume)
        )


def assert_prune_keeps_the_seeds(params: DBParams, resume: DeBruijnWord | None) -> None:
    seeds, nodes, completed, _ = reference_seed_search(params, True, None, resume)
    for cutoff in (0, 4, 8):
        pruned = reference_seed_search(params, True, None, resume, cutoff)
        assert (pruned[0], pruned[2]) == (seeds, completed), cutoff
        assert pruned[1] <= nodes, cutoff


class TestPrunedReference:
    # the reference with the in-test prune is the oracle of a pruning
    # kernel, node for node; the prune itself must lose no seed
    def test_full_trees_keep_their_seeds(self):
        for params in SMALL_GRAPHS:
            if tree_size(params, True, None) < NODE_CAP:
                assert_prune_keeps_the_seeds(params, None)

    def test_resumes_keep_their_seeds(self):
        for params in RESUMABLE:
            # about six words, from the middle of each sixth of the census
            words = census_words(params)
            step = len(words) // 6
            for resume in words[step // 2 :: step]:
                assert_prune_keeps_the_seeds(params, resume)

    def test_node_counts(self):
        seeds, nodes, completed, _ = reference_seed_search(DBParams(5, 2), cutoff=0)
        assert (seeds, nodes, completed) == ([REFERENCE_SEEDS[(5, 2)][0]], 235, True)
        for cutoff, count in ((0, 10_704), (8, 17_664)):
            seeds, nodes, completed, _ = reference_seed_search(DBParams(4, 2), True, cutoff=cutoff)
            assert (len(seeds), nodes, completed) == (288, count, True)

    def test_budgets_that_end_on_pruned_nodes(self):
        # the budget is checked after a pruned node too, so a search stops
        # at exactly its budget wherever the budget falls
        for budget in range(87):
            _, nodes, completed, exhausted = reference_seed_search(
                DBParams(3, 2), True, budget, cutoff=0
            )
            assert (nodes, exhausted, completed) == (min(budget, 84), budget <= 84, budget > 84)


class TestFullSearch:
    def test_three_two_tree_is_tiny(self):
        result = rotation_seed_search(DBParams(3, 2), find_all=True)
        assert tuple(word_encode(w) for w in result.seeds) == SEEDS_3_2
        assert result.completed and not result.budget_exhausted
        assert result.nodes_explored > 0

    def test_listed_seeds_are_found(self):
        found = set(SEEDS_3_2)
        for text in REFERENCE_SEEDS[(3, 2)]:
            assert text in found

    def test_every_seed_yields_a_disjoint_family(self):
        result = rotation_seed_search(DBParams(4, 2), find_all=True)
        assert result.completed
        assert len(result.seeds) == 288
        for w in result.seeds[:20]:
            assert pairwise_arc_disjoint(rotation_family(w))

    def test_output_is_sorted_and_duplicate_free(self):
        result = rotation_seed_search(DBParams(4, 2), find_all=True)
        texts = [word_encode(w) for w in result.seeds]
        assert texts == sorted(texts)
        assert len(set(texts)) == len(texts)
        for text in REFERENCE_SEEDS[(4, 2)]:
            assert text in texts

    def test_two_letter_alphabets_have_no_search(self):
        # every Hamiltonian cycle is its own one-member family
        result = rotation_seed_search(DBParams(2, 3), find_all=True)
        assert [word_encode(w) for w in result.seeds] == [
            "0001011100",
            "0001110100",
        ]

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_odd_complete_digraphs_by_sequencings(self, n):
        # after 0, a seed of B(n,1) runs through the other n-1 letters, read
        # as Z_(n-1), with distinct differences: the partial sums of a
        # sequencing, shifted to start at any of the n-1 letters
        result = rotation_seed_search(DBParams(n, 1), find_all=True)
        assert result.completed
        assert len(result.seeds) == (n - 1) * sequencings(n - 1)
        assert sequencings(n - 1) == {3: 1, 5: 2, 7: 4, 9: 24, 11: 288}[n]


def census_seed_letters(params: DBParams) -> list[tuple[int, ...]]:
    """The census words whose rotation family is pairwise arc-disjoint, in
    census order, found a kernel batch at a time without building any word."""
    n, m, total = params.n, params.m, params.vertex_count
    slots = n ** (m + 1)  # the arc ids of B(n, m)
    smap = np.array(sigma_symbol_map(n))
    powers = [np.arange(n)]  # powers[k] maps a letter to its image under sigma^k
    for _ in range(n - 2):
        powers.append(smap[powers[-1]])
    seeds = []
    for rows in _cycle_letters(params):
        _check_words(params, rows)
        # sigma fixes 0, so each image still starts at 0^m.  Row
        # k * len(rows) + b of family is the k-th image of word b, and its
        # arc ids go to b's slots
        words = np.frombuffer(b"".join(map(bytes, rows)), dtype=np.uint8).reshape(-1, total)
        family = np.concatenate([p[words] for p in powers])
        ids = _windows(family.T, n, m + 1)  # int64, as the powers are
        ids += np.arange(len(family)) % len(rows) * slots
        counts = np.bincount(ids.ravel(), minlength=len(rows) * slots)
        disjoint = counts.reshape(len(rows), slots).max(axis=1) < 2
        seeds += [rows[i] for i in np.flatnonzero(disjoint)]
    return seeds


class TestAgainstTheCensus:
    def test_full_trees_are_the_disjoint_census_words(self):
        # the two DFS kernels share only the successor rule: a seed is a
        # census word whose rotation family is pairwise arc-disjoint
        for (n, m), count in (((3, 2), 4), ((4, 2), 288)):
            p = DBParams(n, m)
            expected = [
                w for w in enumerate_hamiltonian_cycles(p)
                if pairwise_arc_disjoint(rotation_family(w))
            ]
            result = rotation_seed_search(p, find_all=True)
            assert result.seeds == expected
            assert len(expected) == count

    @pytest.mark.parametrize("n, m, count", [(3, 2, 4), (4, 2, 288), (3, 3, 4192)])
    def test_full_trees_are_the_disjoint_census_words_in_batches(self, n, m, count):
        # (3,3) holds 373,248 census words, beyond the reference oracle
        params = DBParams(n, m)
        expected = census_seed_letters(params)
        result = rotation_seed_search(params, find_all=True)
        assert result.completed
        assert [w.letters for w in result.seeds] == expected
        assert len(expected) == count


class TestFirstSeed:
    def test_first_seed_three_two(self):
        result = rotation_seed_search(DBParams(3, 2))
        assert [word_encode(w) for w in result.seeds] == ["0011220210"]
        assert result.completed

    def test_first_seed_five_two_matches_reference(self):
        result = rotation_seed_search(DBParams(5, 2))
        assert word_encode(result.seeds[0]) == REFERENCE_SEEDS[(5, 2)][0]
        assert pairwise_arc_disjoint(rotation_family(result.seeds[0]))

    def test_martin_word_is_never_a_seed(self):
        for n, m in ((3, 2), (4, 2)):
            result = rotation_seed_search(DBParams(n, m), find_all=True)
            assert word_encode(martin(DBParams(n, m))) not in {
                word_encode(w) for w in result.seeds
            }


class TestResume:
    def test_resume_yields_exact_suffix(self):
        full = [word_encode(w) for w in rotation_seed_search(
            DBParams(3, 2), find_all=True
        ).seeds]
        for i, text in enumerate(full):
            resumed = rotation_seed_search(
                DBParams(3, 2),
                find_all=True,
                resume_after=word_decode(text, DBParams(3, 2)),
            )
            assert [word_encode(w) for w in resumed.seeds] == full[i + 1 :]

    def test_resume_after_last_finds_nothing(self):
        result = rotation_seed_search(
            DBParams(3, 2),
            find_all=True,
            resume_after=word_decode(SEEDS_3_2[-1], DBParams(3, 2)),
        )
        assert result.seeds == [] and result.completed

    def test_resume_word_of_another_graph_refused(self):
        with pytest.raises(ValueError, match="resume word belongs to a different graph"):
            rotation_seed_search(DBParams(3, 2), resume_after=martin(DBParams(2, 3)))

    def test_resume_skips_most_of_the_tree(self):
        scratch = rotation_seed_search(DBParams(4, 2), find_all=True)
        resumed = rotation_seed_search(
            DBParams(4, 2),
            find_all=True,
            resume_after=scratch.seeds[-2],
        )
        assert [word_encode(w) for w in resumed.seeds] == [
            word_encode(scratch.seeds[-1])
        ]
        assert resumed.nodes_explored < scratch.nodes_explored


class TestBudgets:
    def test_node_budget_stops_early(self):
        result = rotation_seed_search(DBParams(4, 2), find_all=True, node_budget=10)
        assert result.budget_exhausted and not result.completed
        assert result.nodes_explored <= 10
        result = rotation_seed_search(DBParams(4, 2), find_all=True, node_budget=0)
        assert result.budget_exhausted and (result.nodes_explored, result.seeds) == (0, [])

    def test_nan_time_budget_refused_before_building_tables(self):
        # no clock reading is ever past a NaN deadline
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="not NaN"):
                rotation_seed_search(
                    DBParams(22, 2), find_all=True, node_budget=1, time_budget=float("nan")
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_clock_is_read_once_a_stride(self):
        # 8192 (7,2) nodes take several milliseconds, so a 1 ms deadline
        # has passed at the first reading, and not before
        p = DBParams(7, 2)
        for node_budget in (None, 10_000):
            result = rotation_seed_search(
                p, find_all=True, time_budget=0.001, node_budget=node_budget
            )
            assert result.budget_exhausted and not result.completed
            assert result.nodes_explored == _BUDGET_CHECK_STRIDE == 8192

    def test_clock_is_read_at_multiples_of_the_stride(self, monkeypatch):
        # one reading sets the deadline and one checks it before the first
        # node; a clock that jumps past the deadline at its fifth reading
        # stops the search after three strides, with or without a resume
        readings = []

        def monotonic():
            readings.append(None)
            return 0.0 if len(readings) < 5 else 1e9

        monkeypatch.setattr(time, "monotonic", monotonic)
        p = DBParams(7, 2)
        resume = word_decode("00115161312141055653525450663626460332343022420440", p)
        for resume_after in (None, resume):
            readings.clear()
            result = rotation_seed_search(
                p, find_all=True, time_budget=600.0, resume_after=resume_after
            )
            assert result.budget_exhausted and not result.completed
            assert result.nodes_explored == 3 * _BUDGET_CHECK_STRIDE
            assert len(readings) == 5

    def test_time_budget_zero(self):
        result = rotation_seed_search(DBParams(4, 2), find_all=True, time_budget=0.0)
        assert result.budget_exhausted and not result.completed
        assert (result.nodes_explored, result.seeds) == (0, [])

    def test_generous_budget_completes(self):
        result = rotation_seed_search(
            DBParams(3, 2), find_all=True, node_budget=10**9, time_budget=60.0
        )
        assert result.completed and not result.budget_exhausted
        assert len(result.seeds) == 4

    def test_on_seed_callback_counts(self):
        seen: list[tuple[str, int]] = []
        rotation_seed_search(
            DBParams(3, 2),
            find_all=True,
            on_seed=lambda w, nodes: seen.append((word_encode(w), nodes)) and None,
        )
        assert [text for text, _ in seen] == list(SEEDS_3_2)
        assert all(nodes > 0 for _, nodes in seen)

    def test_on_seed_truthy_return_stops(self):
        seen: list[str] = []

        def stop_after_first(w, nodes):
            seen.append(word_encode(w))
            return True

        result = rotation_seed_search(
            DBParams(3, 2), find_all=True, on_seed=stop_after_first
        )
        assert seen == [SEEDS_3_2[0]]
        assert len(result.seeds) == 1
        assert result.completed

    def test_seed_stop_and_budget_stop_meet(self):
        # a seed that ends the search on the budget's last node completes
        # it; one node less and the budget ends it before the seed
        p = DBParams(4, 2)
        k = rotation_seed_search(p).nodes_explored
        result = rotation_seed_search(p, True, on_seed=lambda w, nodes: True, node_budget=k)
        assert (result.completed, len(result.seeds), result.nodes_explored) == (True, 1, k)
        result = rotation_seed_search(p, True, on_seed=lambda w, nodes: True, node_budget=k - 1)
        assert (result.budget_exhausted, result.seeds, result.nodes_explored) == (True, [], k - 1)


class TestSizeGuard:
    def test_refused_before_building_tables(self):
        # the orbit and step tables of B(3, 40) would need 3^40 entries
        tracemalloc.start()
        try:
            for params in (
                DBParams(3, 40),
                DBParams(2, 15),
                DBParams(36, 3),
                DBParams(36, 2),
                DBParams(2, 10**9),
            ):
                with pytest.raises(ValueError, match="seed search limit"):
                    rotation_seed_search(params, time_budget=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


    def test_largest_admitted_search_is_cheap_to_start(self):
        # the free-step tables fill as masks turn up: 2^22 entries a vertex,
        # built up front, would not fit
        tracemalloc.start()
        try:
            result = rotation_seed_search(DBParams(22, 2), find_all=True, node_budget=2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.nodes_explored == 2000 and result.budget_exhausted
        assert peak < 40_000_000

    def test_deepest_path_fits_the_default_recursion_limit(self):
        # the search takes one Python frame per path vertex.  (2,9) has the
        # most vertices admitted, 512, and within 3,000 nodes its path
        # reaches the last of them (it finds seeds); it still fits when
        # the caller is already 300 frames deep
        def nested(depth: int):
            if depth:
                return nested(depth - 1)
            return rotation_seed_search(DBParams(2, 9), find_all=True, node_budget=3000)

        result = nested(300)
        assert result.budget_exhausted and result.nodes_explored == 3000
        assert result.seeds

    def test_search_leaves_no_reference_cycle(self):
        # the recursive visit reaches itself through its closure; left as a
        # cycle, each search's tables would live on until a collection
        for kwargs in ({}, {"find_all": True}, {"find_all": True, "node_budget": 50}):
            gc.collect()
            gc.disable()
            try:
                rotation_seed_search(DBParams(3, 2), **kwargs)
                assert gc.collect() == 0, kwargs
            finally:
                gc.enable()


class TestParityPins:
    # exact node counts and seeds: nodes_explored is part of the result
    # (budgets, cache entries), so a faster search must not move it
    def test_full_trees(self):
        for (n, m), nodes, seeds in (((3, 2), 126, 4), ((4, 2), 22_470, 288)):
            result = rotation_seed_search(DBParams(n, m), find_all=True)
            assert (result.nodes_explored, len(result.seeds)) == (nodes, seeds)
            assert result.completed and not result.budget_exhausted

    def test_nodes_to_first_seed(self):
        for (n, m), nodes in (((5, 2), 786), ((3, 3), 323), ((6, 2), 94_511), ((4, 3), 6_051)):
            result = rotation_seed_search(DBParams(n, m))
            assert result.nodes_explored == nodes
            assert word_encode(result.seeds[0]) == REFERENCE_SEEDS[(n, m)][0]

    def test_budget_equal_to_the_tree_still_reports_exhausted(self):
        # the budget stops the search right after its last counted node
        for budget, exhausted in ((125, True), (126, True), (127, False)):
            result = rotation_seed_search(DBParams(3, 2), find_all=True, node_budget=budget)
            assert result.budget_exhausted is exhausted
            assert result.completed is not exhausted
            assert result.nodes_explored == min(budget, 126)
        result = rotation_seed_search(DBParams(5, 2), node_budget=786)
        assert result.completed and result.nodes_explored == 786 and len(result.seeds) == 1

    def test_budgeted_resume_seven_two(self):
        # a letter-permuted greedy word sits early in lexicographic order
        p = DBParams(7, 2)
        result = rotation_seed_search(
            p,
            find_all=True,
            node_budget=60_000,
            resume_after=word_decode("00115161312141055653525450663626460332343022420440", p),
        )
        assert result.budget_exhausted and not result.completed
        assert result.nodes_explored == 60_000
        assert [word_encode(w) for w in result.seeds] == [
            "00115161312141056020322336440426530634524662554350",
            "00115161312141056020322336530634255435046624526440",
            "00115161312141056020322336530642554350463452662440",
            "00115161312141056020322336624526530644355046342540",
            "00115161312141056020322344306352640466245336542550",
            "00115161312141056020322362453306344665404255264350",
            "00115161312141056020322362453350466542552643063440",
            "00115161312141056020322362453352654255046634430640",
        ]


def cached(path: str, params: DBParams) -> list[str]:
    return [word_encode(w) for w in resume_seeds(path, params)]


CACHE_LINE = {"n": 3, "m": 2, "seed": SEEDS_3_2[0], "timestamp": "t", "nodes_explored": 0}


class TestCacheFile:
    def test_append_and_read(self, tmp_path):
        path = str(tmp_path / "seeds.jsonl")
        w = word_decode(SEEDS_3_2[0], DBParams(3, 2))
        append_seed_cache(path, w, 17)
        append_seed_cache(path, word_decode(SEEDS_3_2[1], DBParams(3, 2)), 99)
        with open(path, encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh]
        assert len(entries) == 2
        assert entries[0]["seed"] == SEEDS_3_2[0]
        assert entries[0]["n"] == 3 and entries[0]["m"] == 2
        assert entries[0]["nodes_explored"] == 17
        assert "timestamp" in entries[0]

    def test_cached_seeds_filters_by_parameters(self, tmp_path):
        path = str(tmp_path / "seeds.jsonl")
        append_seed_cache(path, word_decode(SEEDS_3_2[0], DBParams(3, 2)), 1)
        append_seed_cache(path, word_decode("0001011100", DBParams(2, 3)), 2)
        append_seed_cache(path, word_decode(SEEDS_3_2[2], DBParams(3, 2)), 3)
        assert cached(path, DBParams(3, 2)) == [SEEDS_3_2[0], SEEDS_3_2[2]]
        assert cached(path, DBParams(2, 3)) == ["0001011100"]
        assert cached(path, DBParams(5, 2)) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "seeds.jsonl"
        w = word_decode(SEEDS_3_2[0], DBParams(3, 2))
        append_seed_cache(str(path), w, 1)
        path.write_text(path.read_text() + "\n\n")
        assert len(resume_seeds(str(path), DBParams(3, 2))) == 1

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "seeds.jsonl"
        path.write_text('{"n": 3}\nnot json\n')
        with pytest.raises(ValueError, match=r"seeds\.jsonl:1: missing field"):
            resume_seeds(str(path), DBParams(3, 2))
        path.write_text(
            '{"n": 3, "m": 2, "seed": "x", "timestamp": "t", "nodes_explored": 0}\n'
            "not json\n"
        )
        with pytest.raises(ValueError, match=r"seeds\.jsonl:2: not valid JSON"):
            resume_seeds(str(path), DBParams(3, 2))

    def test_torn_final_line_skipped(self, tmp_path):
        path = tmp_path / "seeds.jsonl"
        params = DBParams(3, 2)
        for text in SEEDS_3_2[:2]:
            append_seed_cache(str(path), word_decode(text, params), 0)
        whole = path.read_text()
        path.write_text(whole[: len(whole) - 20])
        assert cached(str(path), params) == [SEEDS_3_2[0]]
        # the next append replaces the torn line instead of joining it
        append_seed_cache(str(path), word_decode(SEEDS_3_2[2], params), 0)
        assert cached(str(path), params) == [SEEDS_3_2[0], SEEDS_3_2[2]]

    def test_final_line_without_newline_kept(self, tmp_path):
        path = tmp_path / "seeds.jsonl"
        params = DBParams(3, 2)
        append_seed_cache(str(path), word_decode(SEEDS_3_2[0], params), 0)
        path.write_text(path.read_text().rstrip("\n"))
        assert cached(str(path), params) == [SEEDS_3_2[0]]
        append_seed_cache(str(path), word_decode(SEEDS_3_2[1], params), 0)
        assert cached(str(path), params) == list(SEEDS_3_2[:2])

    def test_entry_must_be_an_object(self, tmp_path):
        path = tmp_path / "seeds.jsonl"
        path.write_text("[3, 2]\n")
        with pytest.raises(ValueError, match=r"seeds\.jsonl:1: not a JSON object"):
            resume_seeds(str(path), DBParams(3, 2))

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("n", [3], "an integer"),
            ("m", 2.0, "an integer"),
            ("seed", 5, "a string"),
            ("timestamp", None, "a string"),
            ("nodes_explored", True, "an integer"),
        ],
    )
    def test_field_types_checked(self, tmp_path, field, value, kind):
        # a good line first: the faulty one is reported by its own number
        path = tmp_path / "seeds.jsonl"
        bad = {**CACHE_LINE, field: value}
        path.write_text(json.dumps(CACHE_LINE) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=rf"seeds\.jsonl:2: field '{field}' must be {kind}$"):
            resume_seeds(str(path), DBParams(3, 2))

    def test_resume_from_cache_round_trip(self, tmp_path):
        # interrupted run caches two seeds; resuming finds the other two
        path = str(tmp_path / "seeds.jsonl")
        params = DBParams(3, 2)
        for text in SEEDS_3_2[:2]:
            append_seed_cache(path, word_decode(text, params), 0)
        last = resume_seeds(path, params)[-1]
        resumed = rotation_seed_search(params, find_all=True, resume_after=last)
        assert [word_encode(w) for w in resumed.seeds] == list(SEEDS_3_2[2:])
